"""Closed-loop benchmark of equichern: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload index --seed 1 --seconds 27 --trace 0

Run it from the repository root; it imports the program from ``src/``.  One
client runs one op at a time, each op in a fresh Python process, so every op
pays the interpreter start and import a CLI user pays.  Ops cycle through a
seeded pool of four configurations (see workloads.py), in whole passes, as
long as another pass fits in ``--seconds`` of adjusted time (below), and
until at least ``MIN_OPS`` ops have run.  Every op's output is
checked by an independent oracle, and every repeated configuration must
write a byte-identical report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same pool
with spans installed by tracer.py and prints the per-layer metrics.  The
timing metrics are host-adjusted: a fixed reference process, which runs
nothing of equichern, is timed before the first and after every op and
set-up process, and each raw time is scaled by ``REF_NOMINAL_S`` over the
mean of the two reference times around it.  The raw wall times are printed
beside them.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.bench_work/`` and are removed on exit.  NOTES.md explains the metrics and
the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads
from workloads import Op, OracleMiss

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 16              # op_tail_s needs ten samples beyond it; with fewer
                          # than 16 it is one of the few fastest, a noisy value
SETUP_REPS = 5            # timed import-only processes, after one untimed
IMPORT_REPS = 5           # -X importtime processes in a traced run
OP_TIMEOUT_S = 120.0
ACCURACY_FLOOR = 1e-16    # float64 resolution; caps accuracy_digits at 16

# The reference process: an interpreter start, the numpy import, and fixed
# pure-Python, small-matrix and large-array work, like an op but with nothing
# of equichern in it.  Its time tracks how fast this host runs at the moment,
# which drifts by a quarter within seconds to minutes; it does not change
# with the program.
REFERENCE = """\
import numpy as np
acc = 0
for i in range(200_000):
    acc += i * i % 7
a = np.eye(32)
for _ in range(100):
    a = np.tanh(a @ a.T + 0.5)
b = np.linspace(0.0, 1.0, 1_000_000)
for _ in range(3):
    b = np.sin(b) * 0.5 + np.sqrt(b + 1.0)
"""
REF_NOMINAL_S = 0.3       # the reference time timings are scaled to: near its
                          # time on the 2-vCPU host the benchmark was written on
WALL_CAP = 1.2            # no pass starts past this many times --seconds of wall

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "accuracy_digits": "digits",
}


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, in the order BENCHMARK.json lists them."""
    units = {"setup.import_numpy_s": "s", "setup.import_equichern_s": "s",
             "trace.overhead_s": "s"}
    for module, attr in tracer.TARGETS:
        name = tracer.span_name(module, attr)
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.failed": "count"})
        extra = tracer.EXTRA_COUNTS.get(name)
        if extra and extra[0] == "points":
            units[f"{name}.points"] = "count"
        elif extra:
            units[f"{name}.nonzero_ratio"] = "ratio"
    return units


@dataclass
class Record:
    """One finished op process."""

    op: Op
    seconds: float
    rss_mb: float
    code: int
    output: str
    report: bytes | None
    spans: dict | None = None
    adjusted: float = 0.0       # seconds at the reference's nominal speed


class Bench:
    """Runs op processes of one workload inside a scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.refs: list[float] = []     # reference process times, in order
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def prepare(self, pool: list[Op]) -> None:
        for op in pool:
            op_dir = self.work / op.key
            op_dir.mkdir(parents=True)
            for name, text in op.files.items():
                (op_dir / name).write_text(text, encoding="utf-8")

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
        """Run argv to completion; wall seconds, max RSS in MB, exit code."""
        done = threading.Event()

        def kill():
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(OP_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                done.set()
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode

    def run_op(self, op: Op, traced: bool = False) -> Record:
        op_dir = self.work / op.key
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "spans.json", op.kind]
        elif op.kind == "dense":
            argv = [sys.executable, str(HERE / "dense_op.py")]
        else:
            argv = [sys.executable, "-c", workloads.CLI_ENTRY]
        seconds, rss, code = self.spawn(argv + op.args, op_dir, op_dir / "console.log")
        rec = Record(op, seconds, rss, code,
                     (op_dir / "console.log").read_text(errors="replace"),
                     _take(op_dir / op.report))
        if traced:
            spans = _take(op_dir / "spans.json")
            rec.spans = json.loads(spans) if spans else {}
        return rec

    def reference(self) -> float:
        """Time one reference process and record it."""
        seconds, _, code = self.spawn([sys.executable, "-c", REFERENCE], self.work,
                                      self.work / "reference.log")
        if code:
            raise RuntimeError(f"reference process exited with {code}")
        self.refs.append(seconds)
        return seconds

    def adjust(self, seconds: float) -> float:
        """Scale a time just measured to the reference's nominal speed.

        The host's speed changes within seconds, so the scale comes from the
        reference processes run right before and right after the measurement.
        """
        before = self.refs[-1]
        return seconds * REF_NOMINAL_S * 2 / (before + self.reference())

    def setup_seconds(self, argv: list[str], reps: int) -> list[tuple[float, float]]:
        """Import-only processes: (raw, adjusted) seconds of each."""
        log = self.work / "setup.log"
        times = []
        for _ in range(reps):
            seconds = self.spawn(argv, ROOT, log)[0]
            times.append((seconds, self.adjust(seconds)))
        return times

    def import_seconds(self, argv: list[str]) -> tuple[float, float]:
        """Median (numpy, equichern-without-numpy) import time from -X importtime."""
        numpy_s, own_s = [], []
        for _ in range(IMPORT_REPS):
            proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S, check=True)
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            numpy = cumulative.get("numpy", 0.0)
            numpy_s.append(numpy)
            # The outermost equichern import encloses the others and numpy.
            own_s.append(max(v for k, v in cumulative.items()
                             if k.split(".")[0] == "equichern") - numpy)
        return statistics.median(numpy_s), statistics.median(own_s)


def _take(path: Path) -> bytes | None:
    """Read and delete an op's output, so the next run must write it afresh."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


def setup_argv(workload: str) -> list[str]:
    if workload == "dense":
        return [sys.executable, str(HERE / "dense_op.py"), "--import-only"]
    return [sys.executable, "-c", "import equichern.cli"]


def check_records(records: list[Record]) -> tuple[int, float, list[str]]:
    """Oracle and byte-identity checks; (failed ops, worst deviation, reasons)."""
    digests: dict[str, str] = {}
    failed, worst, reasons = 0, 0.0, []
    for rec in records:
        try:
            if rec.report is None:
                raise OracleMiss(f"no {rec.op.report} written (exit {rec.code})")
            worst = max(worst, rec.op.check(rec.code, rec.output, rec.report))
            digest = hashlib.sha256(rec.report).hexdigest()
            if digests.setdefault(rec.op.key, digest) != digest:
                raise OracleMiss("report differs from an earlier identical invocation")
        except (OracleMiss, ValueError, KeyError, TypeError, IndexError) as exc:
            failed += 1
            worst = math.inf
            reasons.append(f"{rec.op.key}: {type(exc).__name__}: {exc}")
    return failed, worst, reasons


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with ten samples beyond it, and that percentile."""
    ordered = sorted(times)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timings(times: list[float], setup_times: list[float]) -> dict[str, float]:
    """The timing metrics.  ops_per_s is the throughput of the op processes:
    the references between them and the harness's bookkeeping are left out."""
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail(times)[0],
            "setup_s": statistics.median(setup_times)}


def measure(bench: Bench, workload: str, pool: list[Op], seconds: float) -> dict:
    """Untraced closed loop: the end-to-end metrics."""
    start = time.perf_counter()
    setup = bench.setup_seconds(setup_argv(workload), 1 + SETUP_REPS)[1:]
    records = []
    # Whole passes over the pool, so every configuration counts equally.  The
    # loop's length is counted in adjusted seconds (a reference process counts
    # REF_NOMINAL_S), so how many ops a run holds does not follow the host's
    # speed of the moment: a pass starts only if one as long as the mean pass
    # so far still ends within --seconds of them.
    loop_start = time.perf_counter()
    spent, passes = 0.0, 0
    while len(records) < MIN_OPS or (
            spent * (passes + 1) / passes <= seconds
            and (time.perf_counter() - loop_start) * (passes + 1) / passes
            <= WALL_CAP * seconds):
        for op in pool:
            rec = bench.run_op(op)
            rec.adjusted = bench.adjust(rec.seconds)
            records.append(rec)
            spent += rec.adjusted + REF_NOMINAL_S
        passes += 1
    wall = time.perf_counter() - start

    failed, worst, reasons = check_records(records)
    n = len(records)
    raw_times = [r.seconds for r in records]
    raw = timings(raw_times, [s[0] for s in setup])
    values = timings([r.adjusted for r in records], [s[1] for s in setup])
    values.update({
        "peak_rss_mb": max(r.rss_mb for r in records),
        "ok_ratio": (n - failed) / n,
        "accuracy_digits": -math.log10(max(min(worst, 1.0), ACCURACY_FLOOR)),
    })
    notes = [f"ops: {n}; {wall:.2f} s with set-up and references; op_tail_s is "
             f"p{tail(raw_times)[1]:.1f} of {n} samples (10 beyond it); fail_ratio "
             f"{failed / n:.4f}; worst oracle deviation {worst:.3e}",
             f"reference process: {min(bench.refs):.4f}-{max(bench.refs):.4f} s, median "
             f"{statistics.median(bench.refs):.4f} s of {len(bench.refs)}; "
             f"unadjusted wall times: "
             + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
    return {"attempted": n, "failed": failed, "reasons": reasons, "notes": notes,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}}


def _count_key(spans: dict) -> dict:
    return {name: {k: v for k, v in stat.items() if k != "self_s"}
            for name, stat in spans.items()}


def traced(bench: Bench, workload: str, pool: list[Op], seconds: float) -> dict:
    """Each pool op traced, then untraced, in passes: the per-layer metrics."""
    numpy_s, own_s = bench.import_seconds(setup_argv(workload))
    cycles: list[list[tuple[Record, Record]]] = []
    start = time.perf_counter()
    while len(cycles) < 2 or time.perf_counter() - start < seconds:
        cycles.append([(bench.run_op(op, traced=True), bench.run_op(op))
                       for op in pool])
    records = [r for cycle in cycles for pair in cycle for r in pair]
    failed, _, reasons = check_records(records)
    for k, op in enumerate(pool):
        first = _count_key(cycles[0][k][0].spans)
        if any(_count_key(c[k][0].spans) != first for c in cycles[1:]):
            failed += 1
            reasons.append(f"{op.key}: traced counts differ between identical ops")

    units = layer_units()
    values = {"setup.import_numpy_s": numpy_s, "setup.import_equichern_s": own_s,
              "trace.overhead_s":
                  statistics.median(p[0].seconds for c in cycles for p in c)
                  - statistics.median(p[1].seconds for c in cycles for p in c)}
    for module, attr in tracer.TARGETS:
        name = tracer.span_name(module, attr)
        per_op = [pair[0].spans.get(name, {}) for pair in cycles[0]]
        for stat in ("calls", "failed", "points"):
            if f"{name}.{stat}" in units:
                values[f"{name}.{stat}"] = sum(s.get(stat, 0) for s in per_op)
        values[f"{name}.self_s"] = statistics.median(
            sum(pair[0].spans.get(name, {}).get("self_s", 0.0) for pair in c)
            for c in cycles)
        if f"{name}.nonzero_ratio" in units:
            calls = values[f"{name}.calls"]
            nonzero = sum(s.get("nonzero", 0) for s in per_op)
            values[f"{name}.nonzero_ratio"] = nonzero / calls if calls else 0.0
    notes = [f"traced cycles: {len(cycles)} of {len(pool)} ops, each op traced and "
             f"untraced; counts are per cycle, self_s the median cycle total"]
    return {"attempted": len(records), "failed": failed, "reasons": reasons,
            "notes": notes, "metrics": {k: (values[k], u) for k, u in units.items()}}


def blas_threads() -> str:
    """Thread count of the OpenBLAS bundled with numpy, which the ops inherit."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return "unknown"


def host_notes() -> list[str]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"host: {platform.machine()}, {os.cpu_count()} cpus, "
            f"{platform.python_implementation()} {platform.python_version()}, "
            f"numpy {numpy.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"with {blas_threads()} threads (not pinned)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "equichern" / "cli.py").is_file():
        print(f"equichern sources not found under {SRC}", file=sys.stderr)
        return 2

    pool = workloads.make_pool(args.workload, args.seed, ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(work)
    try:
        bench.prepare(pool)
        drift_before = bench.reference()
        run = (traced if args.trace else measure)(bench, args.workload, pool,
                                                  args.seconds)
        drift_after = bench.reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, pool: "
          + ", ".join(op.key for op in pool))
    for line in host_notes() + run["notes"]:
        print(line)
    print(f"host drift probe (reference process): {drift_before:.4f} s before, "
          f"{drift_after:.4f} s after")
    for reason in run["reasons"][:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in run["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
