#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--first-seed 1] [--against perfbench/out/steady-1.json]

For each workload in BENCHMARK.json it runs ``run.py --trace 0`` once for
each of SEEDS seeds from ``--first-seed``, for ``run_seconds``, and reports,
for every end-to-end metric, the distance between the first and third
quartile of the values (``statistics.quantiles(values, n=4)``) as a share of
their median, next to the metric's bound from BENCHMARK.json.  It then runs
``run.py --trace 1`` twice with one seed and asserts that the exact counts
(EXACT below) are identical.  With ``--against`` it also checks that no
median is worse than the earlier set's by more than the bound.  The summary
is written to ``perfbench/out/steady-<first seed>.json``; the exit code is
non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10

# per-layer counts that must repeat exactly between traced runs of one seed
EXACT = (
    "dynamics.iterate.iters",
    "core.validate.per_step",
    "dynamics.rotation_distance.per_iter",
    "solvers.solve_trapezoid_fixed_point.iterations",
    "solvers.solve_cycle_system.iterations",
    "solvers.cycle_system_rhs.calls",
    "cli.fmt.calls",
)


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    earlier = json.loads(args.against.read_text()) if args.against else {}
    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            result = run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correctness gate failed: {result}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:7s} {name:14s} median {med:12.6g} {metric['unit']:4s} "
                    f"spread {spread:6.3f} bound {bound:5.3f}")
            if spread > bound:
                line += "  ABOVE the bound"
                ok = False
            elif spread > bound / 3:
                line += "  above a third of the bound"
            old = earlier.get(workload, {}).get(name)
            if old is not None:
                worse = (med - old["median"]) / old["median"]
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.3f}"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            print(line, flush=True)
            summary[workload][name] = {"median": med, "spread": spread, "values": vals}

        traced = [run(workload, args.first_seed, seconds, 1)["metrics"] for _ in range(2)]
        for name in EXACT:
            a, b = (t[name]["value"] for t in traced)
            if a != b:
                print(f"{workload:7s} {name}: {a} != {b} between two traced runs")
                ok = False
        print(f"{workload:7s} exact counts " + ", ".join(
            f"{n}={traced[0][n]['value']:.6g}" for n in EXACT), flush=True)
        summary[workload]["exact"] = {n: traced[0][n]["value"] for n in EXACT}

    out = HERE / "out" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady", f"(summary in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
