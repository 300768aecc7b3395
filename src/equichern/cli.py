"""Command-line surface: run built-in examples, check model files, merge reports.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 input/parse error.
Reports are deterministic: fixed summation order, sorted keys, no wall-clock
data in payloads, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

# The engine modules are imported inside the subcommand that runs them, so
# each invocation loads only what it uses; run-example (c-plane and zero-op)
# loads no numpy.

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
# symbolalg.largest_r_max caps it.
MAX_XI = 1e100

# The keys of pairing.TEST_FUNCTIONS, named here so parsing imports no engine.
TEST_NAMES = ("gaussian", "shifted-gaussian")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _report_document(runs: list[dict]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "generated_by": "equichern",
            "runs": runs}


def load_schema() -> dict:
    return json.loads(resources.files("equichern")
                      .joinpath("report_schema.json").read_text())


def validate_report(doc: dict) -> None:
    import jsonschema

    jsonschema.validate(doc, load_schema())


def _run_c_plane(args, out_dir: Path) -> int:
    import cmath

    from .characters import series_to_csv
    from .geometry import builtin_model
    from .quadrature import index_character

    model = builtin_model("c-plane-uv")
    report = index_character(model, theta_samples=args.theta_samples,
                             fourier_window=args.fourier_window)
    golden_dev = 0.0
    for t, v in zip(report.theta_samples, report.values):
        ref = -cmath.exp(1j * t) / (1 - cmath.exp(1j * t))
        golden_dev = max(golden_dev, abs(v - ref))
    fourier_dev = 0.0
    for n in range(-args.fourier_window, args.fourier_window + 1):
        target = -1.0 if n >= 1 else 0.0
        fourier_dev = max(fourier_dev, abs(report.fourier.coeff(n) - target))
    passed = golden_dev < args.tol and fourier_dev < 1e-4
    payload = report.to_dict()
    payload["golden"] = {
        "value_deviation": golden_dev,
        "value_tolerance": args.tol,
        "fourier_deviation": fourier_dev,
        "fourier_tolerance": 1e-4,
        "passed": bool(passed),
    }
    _write_json(out_dir / "index_report.json",
                _report_document([{"kind": "index-character", "label": "c-plane",
                                   "payload": payload}]))
    csv_text = series_to_csv(report.fourier)
    (out_dir / "fourier.csv").write_text(csv_text, encoding="utf-8")
    print(f"c-plane: value deviation {golden_dev:.3e} (tol {args.tol:g}), "
          f"fourier deviation {fourier_dev:.3e} (tol 1e-04): "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


def _run_zero_op(args, out_dir: Path) -> int:
    from .geometry import builtin_model
    from .pairing import TEST_FUNCTIONS, delta_pairing

    model = builtin_model("zero-op")
    report = delta_pairing(model, TEST_FUNCTIONS[args.test], args.eps)
    err = abs(report.extrapolated - report.test_at_zero)
    passed = err < args.tol
    payload = report.to_dict()
    payload["golden"] = {"extrapolation_error": err, "tolerance": args.tol,
                         "passed": bool(passed)}
    _write_json(out_dir / "delta_report.json",
                _report_document([{"kind": "delta-pairing", "label": "zero-op",
                                   "payload": payload}]))
    for e, v in zip(report.eps, report.values):
        print(f"  eps={e:<8g} paired value = {v.real:+.8f}{v.imag:+.2e}j")
    print(f"zero-op: extrapolated {report.extrapolated.real:.8f} vs "
          f"test(0) = {report.test_at_zero.real:.8f}, error {err:.3e} "
          f"(tol {args.tol:g}): {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


EXAMPLES = {"c-plane": _run_c_plane, "zero-op": _run_zero_op}


def cmd_run_example(args) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return EXAMPLES[args.name](args, args.out_dir)


def cmd_check_symbol(args) -> int:
    from . import symbolalg
    from .geometry import augmented_symbol
    from .modelfile import ModelParseError, parse_model_file
    from .scan import ScanGrid, ellipticity_scan

    try:
        model = parse_model_file(args.model_file)
    except (OSError, UnicodeDecodeError, ModelParseError) as exc:
        print(f"{args.model_file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cap = symbolalg.largest_r_max(model, MAX_XI)
    if args.xi_max > cap:
        print(f"argument --xi-max: {args.xi_max:g} is above {cap:g}, the largest for a "
              f"symbol of degree {symbolalg.fiber_degree(model)} in xi with these "
              "coefficients", file=sys.stderr)
        return EXIT_USAGE
    args.out_dir.mkdir(parents=True, exist_ok=True)

    transversal = symbolalg.transversal_ellipticity_check(model, r_max=args.xi_max)
    scan = ellipticity_scan(augmented_symbol(model),
                            ScanGrid(samples=args.scan_samples, seed=args.seed,
                                     threshold=args.tol))
    passed = transversal.passed and scan.passed
    payload = {"model": model.name,
               "transversal_ellipticity": transversal.to_dict(),
               "ellipticity_scan": scan.to_dict(),
               "passed": bool(passed)}
    _write_json(args.out_dir / "symbol_report.json",
                _report_document([{"kind": "symbol-check", "label": model.name,
                                   "payload": payload}]))
    print(f"{model.name}: transversality "
          f"{'PASS' if transversal.passed else 'FAIL'}, ellipticity scan "
          f"{'PASS' if scan.passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# Longest rejected value or schema path that a report error message repeats.
EXCERPT_CHARS = 200


def _excerpt(text: str) -> str:
    """``text`` in at most ``EXCERPT_CHARS`` characters, keeping its head and its tail."""
    if len(text) <= EXCERPT_CHARS:
        return text
    half = (EXCERPT_CHARS - 5) // 2
    return f"{text[:half]} ... {text[-half:]}"


def cmd_report(args) -> int:
    import jsonschema

    runs = []
    for path in args.inputs:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            validate_report(doc)
        except jsonschema.ValidationError as exc:
            # the message repeats the rejected value, which may be the whole file
            print(f"{path}: not an equichern report: {exc.validator!r} fails at "
                  f"{_excerpt(exc.json_path)}: {_excerpt(exc.message)}", file=sys.stderr)
            return EXIT_INPUT
        # unreadable, not UTF-8 or not JSON (both ValueError), or nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        runs.extend(doc["runs"])
    runs.sort(key=lambda r: (r["kind"], r.get("label", "")))
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        _write_json(out_dir / "merged_report.json", _report_document(runs))
    else:
        rows = ["kind,label,passed"]
        for r in runs:
            golden = r["payload"].get("golden")
            passed = r["payload"].get("passed", golden.get("passed", "")
                                      if isinstance(golden, dict) else "")
            rows.append(f"{r['kind']},{r.get('label', '')},{passed}")
        (out_dir / "merged_report.csv").write_text("\n".join(rows) + "\n",
                                                   encoding="utf-8")
    print(f"merged {len(runs)} run(s) into {out_dir}")
    return EXIT_PASS


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


def _float_in(lo: float, hi: float):
    """argparse type: a number in [lo, hi], for positive lo."""
    def parse(text: str) -> float:
        value = _positive_float(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{text!r} is not between {lo:g} and {hi:g}")
        return value
    return parse


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
    run.set_defaults(func=cmd_run_example)

    chk = sub.add_parser("check-symbol", help="symbol-algebra and ellipticity checks")
    chk.add_argument("model_file")
    chk.add_argument("--xi-max", type=_float_in(MIN_XI, MAX_XI), default=1e3)
    chk.add_argument("--scan-samples", type=_int_in(1, MAX_SCAN_SAMPLES), default=2000)
    chk.add_argument("--seed", type=_int_in(0), default=0)
    chk.add_argument("--tol", type=_positive_float, default=1e-6)
    chk.add_argument("--out-dir", type=_out_dir, default=".")
    chk.set_defaults(func=cmd_check_symbol)

    rep = sub.add_parser("report", help="merge prior run reports")
    rep.add_argument("--inputs", nargs="+", required=True)
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.add_argument("--out-dir", type=_out_dir, default=".")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
