"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py REV

Exports REV with ``git archive`` into a temporary directory (no worktree;
nothing is written under ``.git``), then runs each invocation below on that
tree and on the working tree this tool sits in, each in a fresh directory,
with ``PYTHONPATH=<tree>/src``, ``PYTHONDONTWRITEBYTECODE=1`` and
``-W error::RuntimeWarning``:

- ``run-example c-plane``, with default arguments and with
  ``--theta-samples 128 --fourier-window 24``;
- ``run-example zero-op``, with default arguments and with
  ``--test shifted-gaussian --eps 1e-2,3e-3,1e-3,3e-4``;
- ``check-symbol`` on both shipped templates at ``--xi-max`` 1e2, 1e3 and 1e6,
  and at ``--seed 7 --scan-samples 500``, the benchmark's smallest sample
  count off the default seed, so the scan's refinement is compared there too;
- ``report --inputs`` on a fixed two-run report, and on a JSON file that is
  not a report (exit 3);
- one invocation for each other exit path of the program entry:
  ``run-example c-plane --theta-samples 1`` (a usage error, exit 2) and
  ``check-symbol missing.model`` (a missing model file, exit 3);
- ``<tree>/perfbench/dense_op.py`` on a fixed seeded input, and on a fixed
  stress input: theta 0, -2.5, 40 and 1000 (nodes spread past the series,
  so the divided differences are squared), with a point at u = 30 whose
  Gaussian factor underflows to the zero form and one at u = 27 where it is
  subnormal.

The inputs of ``report`` and ``dense_op.py`` are written into each run's
directory before it starts.

It compares exit codes, stdout and stderr (with each tree's path replaced by
``<tree>``) and every file the invocation leaves in its directory, byte for
byte; prints one line per invocation; and exits 1 on any difference.  A REV
that ``git archive`` cannot export exits 2 with one line naming it.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Argument lists run with ``python3 -W error::RuntimeWarning``; "{tree}" is the tree's root.
INVOCATIONS = [
    ["-m", "equichern.cli", "run-example", "c-plane"],
    ["-m", "equichern.cli", "run-example", "c-plane",
     "--theta-samples", "128", "--fourier-window", "24"],
    ["-m", "equichern.cli", "run-example", "zero-op"],
    ["-m", "equichern.cli", "run-example", "zero-op",
     "--test", "shifted-gaussian", "--eps", "1e-2,3e-3,1e-3,3e-4"],
    *(["-m", "equichern.cli", "check-symbol", f"{{tree}}/src/equichern/models/{name}.model",
       "--xi-max", xi_max]
      for name in ("c_plane", "constant_symbol") for xi_max in ("1e2", "1e3", "1e6")),
    *(["-m", "equichern.cli", "check-symbol", f"{{tree}}/src/equichern/models/{name}.model",
       "--seed", "7", "--scan-samples", "500"] for name in ("c_plane", "constant_symbol")),
    ["-m", "equichern.cli", "report", "--inputs", "report_input.json"],
    ["-m", "equichern.cli", "report", "--inputs", "not_a_report.json"],
    ["-m", "equichern.cli", "run-example", "c-plane", "--theta-samples", "1"],
    ["-m", "equichern.cli", "check-symbol", "missing.model"],
    ["{tree}/perfbench/dense_op.py", "dense_input.json", "dense_output.json"],
    ["{tree}/perfbench/dense_op.py", "dense_stress.json", "dense_output.json"],
]

# dense_op.py input of thetas past the dense workload's range, and points at
# the zero form (u = 30: e^-900 underflows) and a subnormal Gaussian (u = 27)
DENSE_STRESS = {"thetas": [0.0, -2.5, 40.0, 1000.0],
                "points": [[0.3, -0.2, 0.5, 0.1], [30.0, 0.0, 0.0, 0.0],
                           [27.0, 0.0, 0.0, 0.0], [-1.5, 1.0, -1.2, 0.7]]}

# report --inputs: a report of two runs out of sort order, and a JSON document
# that is not a report (it has no schema_version)
REPORT_INPUT = {"schema_version": "1", "generated_by": "equichern", "runs": [
    {"kind": "symbol-check", "label": "c-plane", "payload": {"passed": True}},
    {"kind": "delta-pairing", "label": "zero-op", "payload": {"golden": {"passed": False}}}]}
NOT_A_REPORT = {"runs": []}


def dense_input() -> bytes:
    """A fixed input for ``dense_op.py``: four thetas and sixteen points, seeded."""
    rng = random.Random(0)
    spec = {"thetas": [round(rng.uniform(-3, 3), 6) for _ in range(4)],
            "points": [[round(rng.gauss(0, 1), 6) for _ in range(4)] for _ in range(16)]}
    return json.dumps(spec).encode()


def outcome(tree: Path, argv: list[str], work: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and the files left in ``work`` by one run on ``tree``."""
    work.mkdir(parents=True)
    (work / "dense_input.json").write_bytes(dense_input())
    (work / "dense_stress.json").write_text(json.dumps(DENSE_STRESS))
    (work / "report_input.json").write_text(json.dumps(REPORT_INPUT))
    (work / "not_a_report.json").write_text(json.dumps(NOT_A_REPORT))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         *(a.replace("{tree}", str(tree)) for a in argv)],
        cwd=work, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    masked = {"exit code": str(done.returncode).encode(),
              "stdout": done.stdout.replace(os.fsencode(tree), b"<tree>"),
              "stderr": done.stderr.replace(os.fsencode(tree), b"<tree>")}
    return {**masked, **written_files(work)}


def written_files(work: Path) -> dict[str, bytes]:
    """Every file under ``work``, keyed ``file <relative path>``."""
    return {f"file {p.relative_to(work).as_posix()}": p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The keys of two outcomes whose values differ, or that only one has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` from ``git archive``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py REV", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp) / "rev"
        try:
            export(argv[0], old)
        except subprocess.CalledProcessError:
            print(f"same_outputs.py: git archive cannot export revision {argv[0]!r}",
                  file=sys.stderr)
            return 2
        for k, args in enumerate(INVOCATIONS):
            diff = differences(outcome(old, args, Path(tmp) / f"old{k}"),
                               outcome(ROOT, args, Path(tmp) / f"new{k}"))
            failed |= bool(diff)
            label = " ".join(args).replace("-m equichern.cli ", "").replace("{tree}/", "")
            print(f"{'DIFFERENT' if diff else 'same':9}  {label}"
                  + (f"  ({', '.join(diff)})" if diff else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
