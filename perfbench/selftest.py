#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs with ``--seconds 1`` in both trace modes, prints a
   last line with exactly the four result keys, passes its correctness gate,
   and emits every metric BENCHMARK.json names, with its unit.
2. Negative case: one basin call with ``--max-iter`` MUTATION_MAX_ITER
   (above the 422 iterations the slowest sampled orbit needs) gives a
   failed ratio of 0; the same call with ``core.degenerate_edges_first``
   corrupted as in the CLI mutation test gives a failed ratio above 0.
3. In a directory holding only BENCHMARK.json and the benchmark's files
   (no ``src/``), the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MUTATION_MAX_ITER = 600


def bench_command(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(bench, failures):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(failures)
            proc = bench_command(workload, trace)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: gate {result['attempted']} attempted, "
                                f"{result['failed']} failed")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if got.get(k, want[k]) != want[k]]}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{label}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    failures.append(f"{label}: end-to-end {name} = {value!r} is not positive")
            if len(failures) == before:
                print(f"ok   {label}: {result['attempted']} attempted", flush=True)


def check_mutation(failures):
    qm = run.import_quadmap()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        basin = run.Basin(3, tmp)
        basin.setup()
        original = qm.core.degenerate_edges_first

        def broken(alpha, delta):
            e = original(alpha, delta)
            return qm.core.EdgeTuple(e.x1, e.x4, e.x3, e.x2, degenerate=True)

        def failed_ratio():
            gate = run.Gate()
            basin.run_call(basin.call_seed(0), 4, gate, max_iter=MUTATION_MAX_ITER)
            return gate.failed / gate.attempted

        control = failed_ratio()
        qm.core.degenerate_edges_first = broken
        try:
            mutant = failed_ratio()
        finally:
            qm.core.degenerate_edges_first = original
    if control != 0 or not mutant > 0:
        failures.append(f"mutation: failed_ratio {control} on the kernel as it is, "
                        f"{mutant} with a corrupted kernel")
        return
    print(f"ok   mutation: failed_ratio 0 as it is, {mutant:g} corrupted", flush=True)


def check_without_src(failures):
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench_command("basin", 0, cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        return
    print(f"ok   without src/: exit {proc.returncode}", flush=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_without_src(failures)
    check_mutation(failures)
    check_runs(bench, failures)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
