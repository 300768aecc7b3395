"""Command-line surface: run built-in examples, check model files, merge reports.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 input/parse error.
Reports are deterministic: fixed summation order, sorted keys, no wall-clock
data in payloads, so identical invocations produce byte-identical files.

This module parses the arguments and dispatches; each command's body lives
beside the engine code it calls and is imported only when that command runs:
``run-example c-plane`` in `equichern.quadrature`, ``run-example zero-op`` in
`equichern.pairing`, ``check-symbol`` in `equichern.symbolalg` and ``report``
in `equichern.report`.  So importing this module loads no engine module, and
``run-example`` loads no numpy.

Run as the program (``main()`` with no arguments: the ``equichern`` script,
``python -m equichern.cli``), `main` freezes the heap (`gc.freeze`) once the
command has returned its exit code, so the collections of interpreter
shutdown skip the modules' import-time objects and the OS reclaims them at
exit.  The exit code, stream flushing, ``atexit`` handlers and the reports
(each closed before its command returns) are unchanged; anything written at
exit, such as a trace file, must be closed before the freeze or written
from ``atexit``.  A usage error returns before the freeze, and
``main(argv)``, the library call, never freezes its caller's heap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

SCHEMA_VERSION = "1"

# Largest sample counts accepted, so an oversized count is a usage error and
# not an array that cannot be allocated.  At the scan cap, check-symbol on
# c_plane.model peaks at about 101 MB RSS (x86_64, numpy 2.4.6; 118 MB when
# the two Box-Muller halves were concatenated, 404 MB when every shell was
# evaluated in one batch), most of it the scan's Gaussian draws and unit
# directions, which are drawn whole.
MAX_THETA_SAMPLES = 4096
MAX_SCAN_SAMPLES = 100_000

# Largest --fourier-window accepted, a bound on the size of the written series.
MAX_FOURIER_WINDOW = 63

# Smallest --xi-max accepted, 2 * symbolalg.R_MIN: condition C compares c_eps
# at the outer xi radius with c_eps on the radii up to half of it, and the
# radii start at R_MIN, so below this bound that set is empty.
MIN_XI = 1.0

# Largest --xi-max accepted: the scan squares |xi| and its powers, which
# overflow on the c-plane model from between 1e150 and 1e154.  A symbol of
# higher degree in xi, or with larger coefficients, overflows sooner;
# symbolalg.largest_r_max caps it, and refuses a model that overflows at
# every radius.
MAX_XI = 1e100

# The keys of pairing.TEST_FUNCTIONS, named here so parsing imports no engine.
TEST_NAMES = ("gaussian", "shifted-gaussian")
# The examples of run-example; main imports the one it runs.
EXAMPLES = ("c-plane", "zero-op")


def write_report(path: Path, runs: list[dict]) -> None:
    """Write a report document holding ``runs``, with sorted keys, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema_version": SCHEMA_VERSION, "generated_by": "equichern", "runs": runs}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not positive and finite")
    return value


def _xi_max(text: str) -> float:
    """argparse type: a number in [MIN_XI, MAX_XI]."""
    value = _positive_float(text)
    if not MIN_XI <= value <= MAX_XI:
        raise argparse.ArgumentTypeError(f"{text!r} is not between {MIN_XI:g} and {MAX_XI:g}")
    return value


def _out_dir(text: str) -> Path:
    """argparse type: a directory, or a path where one can be made."""
    path = Path(text)
    existing = next((p for p in (path, *path.parents) if p.exists() or p.is_symlink()),
                    None)
    if existing is not None and not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r}: {existing} is not a directory")
    return path


def _eps_list(text: str) -> list[float]:
    """argparse type: distinct positive finite regularization values."""
    eps = [_positive_float(e) for e in text.split(",")]
    if len(set(eps)) != len(eps):
        raise argparse.ArgumentTypeError(f"{text!r}: values must be distinct")
    return eps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equichern",
        description="equivariant Chern characters and index characters "
                    "of orbitally augmented symbols")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-example", help="run a built-in worked example")
    run.add_argument("name", choices=EXAMPLES)
    run.add_argument("--theta-samples", type=_int_in(2, MAX_THETA_SAMPLES), default=32)
    run.add_argument("--fourier-window", type=_int_in(0, MAX_FOURIER_WINDOW),
                     default=16)
    # Ignored (fiber integration is exact); kept so existing invocations still parse.
    run.add_argument("--gh-order", type=int, help=argparse.SUPPRESS)
    run.add_argument("--eps", type=_eps_list, default="1e-2,1e-3,1e-4",
                     help="comma-separated regularization values (zero-op)")
    run.add_argument("--test", choices=TEST_NAMES, default="gaussian",
                     help="test function name (zero-op)")
    run.add_argument("--tol", type=_positive_float, default=1e-4)
    run.add_argument("--out-dir", type=_out_dir, default=".")

    chk = sub.add_parser("check-symbol", help="symbol-algebra and ellipticity checks")
    chk.add_argument("model_file")
    chk.add_argument("--xi-max", type=_xi_max, default=1e3)
    chk.add_argument("--scan-samples", type=_int_in(1, MAX_SCAN_SAMPLES), default=2000)
    chk.add_argument("--seed", type=_int_in(0), default=0)
    chk.add_argument("--tol", type=_positive_float, default=1e-6)
    chk.add_argument("--out-dir", type=_out_dir, default=".")

    rep = sub.add_parser("report", help="merge prior run reports")
    rep.add_argument("--inputs", nargs="+", required=True)
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.add_argument("--out-dir", type=_out_dir, default=".")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # each command runs beside the engine code it calls, and loads with it
    if args.command == "report":
        from .report import merge_reports as command
    elif args.command == "check-symbol":
        from .symbolalg import check_symbol as command
    elif args.name == "c-plane":
        from .quadrature import run_c_plane as command
    else:
        from .pairing import run_zero_op as command
    code = command(args)
    if argv is None:
        # the program exits next: shutdown's collections skip a frozen heap
        import gc
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
