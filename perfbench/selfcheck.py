"""Self-check of the traced run and of BENCHMARK.json.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Run from the repository root.  It checks that

1. at default CLI arguments the wrappers see every call site: a traced
   ``run-example c-plane`` makes 160 ``symbolic_chern`` calls, 5,120 divided
   differences and evaluates 17,213,440 points in ``Poly.eval_grid``, and a
   traced ``check-symbol`` on the shipped c-plane model makes 18,040
   ``eval_grid`` calls (the counts of the seed engine; a change that removes
   work legitimately moves them, so this is a check of the tracer, not a gate
   on the program);
2. two traced runs with one seed give identical calls, points and
   nonzero_ratio on every workload, and print the tracing overhead of each;
3. BENCHMARK.json names exactly the metrics run.py prints.

Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads
from workloads import Op

DEFAULT_OPS = {
    "index": (Op("default-c-plane", "cli", ["run-example", "c-plane", "--out-dir", "."],
                 "index_report.json", workloads.check_index(32, 16)),
              {"equivariant.symbolic_chern.calls": 160,
               "supermatrix.exp_divided_difference.calls": 5120,
               "exterior.Poly.eval_grid.points": 17213440}),
    "symbol": (Op("default-check-symbol", "cli",
                  ["check-symbol", str(run.SRC / "equichern" / "models" / "c_plane.model"),
                   "--out-dir", "."],
                  "symbol_report.json", workloads.check_symbol("c_plane")),
               {"exterior.Poly.eval_grid.calls": 18040}),
}

COUNT_STATS = (".calls", ".failed", ".points", ".nonzero_ratio")


def check_defaults() -> bool:
    ok = True
    bench = run.Bench(run.ROOT / ".bench_work" / "selfcheck-defaults")
    try:
        bench.prepare([op for op, _ in DEFAULT_OPS.values()])
        for workload, (op, expected) in DEFAULT_OPS.items():
            rec = bench.run_op(op, traced=True)
            failed, _, reasons = run.check_records([rec])
            wedge = rec.spans.get("exterior.Form.wedge", {})
            print(f"{workload} defaults: {op.args[0]} exit {rec.code}, "
                  f"Form.wedge {wedge.get('nonzero', 0)} nonzero of "
                  f"{wedge.get('calls', 0)}, eval_grid "
                  f"{rec.spans.get('exterior.Poly.eval_grid', {}).get('calls', 0)} calls")
            ok = ok and not failed
            for reason in reasons:
                print(f"  FAILED {reason}")
            for metric, want in expected.items():
                name, stat = metric.rsplit(".", 1)
                got = rec.spans.get(name, {}).get(stat, 0)
                print(f"  {metric}: {got} (expected {want})")
                ok = ok and got == want
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return ok


def check_repeat(seed: int, seconds: float) -> bool:
    ok = True
    for workload in workloads.WORKLOADS:
        results = []
        for attempt in range(2):
            bench = run.Bench(run.ROOT / ".bench_work" / f"selfcheck-{workload}-{attempt}")
            pool = workloads.make_pool(workload, seed, run.ROOT)
            try:
                bench.prepare(pool)
                results.append(run.traced(bench, workload, pool, seconds))
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
        counts = [{k: v for k, (v, _) in r["metrics"].items() if k.endswith(COUNT_STATS)}
                  for r in results]
        same = counts[0] == counts[1] and not any(r["failed"] for r in results)
        ok = ok and same
        overhead = [r["metrics"]["trace.overhead_s"][0] for r in results]
        print(f"{workload}: counts {'identical' if same else 'DIFFER'} across two "
              f"traced runs of seed {seed}; tracing overhead (traced minus untraced "
              f"op_p50) {overhead[0]:.3f} s, {overhead[1]:.3f} s")
        for r in results:
            for reason in r["reasons"]:
                print(f"  FAILED {reason}")
    return ok


def check_benchmark_json() -> bool:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = (e2e == run.END_TO_END_UNITS and layers == run.layer_units()
          and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    print(f"BENCHMARK.json metrics and workloads {'match' if ok else 'DIFFER from'} run.py")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    results = [check_benchmark_json(), check_defaults(),
               check_repeat(args.seed, args.seconds)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
