"""Measure the benchmark's baseline and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Makes SETS sets of RUNS untraced runs per workload, one after another, each
run with its own seed and BENCHMARK.json's run_seconds. For each set it
records the median, quartiles and spread (quartile distance over median) of
every end-to-end metric; across sets, the drift of each median (last set's
over the first set's, minus 1) and whether spreads (setup_s excepted) and
drift stay within the metric's bound. One traced run per workload with seed 1
then gives the per-layer table, the tracing overhead and the machine facts
its passes recorded. Each run is a separate `run.py` call, exactly as the
benchmark command makes it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import WORKLOADS  # noqa: E402

RUNS = 10
SETS = 2
OUT = os.path.join(HERE, "BASELINE.json")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns its result and the machine its passes saw."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        print(workload, seed, {k: round(m["value"], 4)
                               for k, m in result["metrics"].items()}, flush=True)
    with open(os.path.join(ROOT, ".perfbench_out", workload, "result.json")) as fh:
        machine = json.load(fh)["passes"][-1]["machine"]
    return result, machine


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: [{} for _ in range(SETS)] for w in WORKLOADS}
    for k in range(SETS):
        for workload in WORKLOADS:
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                result, _ = run(workload, seed, seconds, 0)
                for name, m in result["metrics"].items():
                    values[workload][k].setdefault(name, []).append(m["value"])

    out = {"runs": RUNS, "sets": SETS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        sets = [{name: summary(v) for name, v in vals.items()}
                for vals in values[workload]]
        drift = {name: sets[-1][name]["median"] / sets[0][name]["median"] - 1
                 for name in bounds}
        within = {name: drift[name] <= bounds[name] and (
            name == "setup_s"
            or all(s[name]["iqr_over_median"] <= bounds[name] for s in sets))
            for name in bounds}
        traced, machine = run(workload, 1, seconds, 1)
        traced = traced["metrics"]
        out["workloads"][workload] = {
            "machine": machine,
            "end_to_end": sets,
            "drift": drift,
            "within_bounds": within,
            "per_layer": {name: m["value"] for name, m in traced.items()
                          if name != "trace.overhead_s"},
            "tracing_overhead_s": traced["trace.overhead_s"]["value"]}
        for name in bounds:
            print(f"{workload:12s} {name:12s} spreads "
                  f"{[round(s[name]['iqr_over_median'], 4) for s in sets]} "
                  f"drift {drift[name]:+.4f} bound {bounds[name]} "
                  f"{'ok' if within[name] else 'OUT OF BOUND'}", flush=True)
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
