"""mixfree benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-long [--seed N] [--seconds S] [--trace 0|1]

Workloads: sweep-long, short-paths, bound-grid (see perfbench/README.md).
Without ``--seed`` every operation runs at its acceptance seed and its outputs
are compared with the references in perfbench/refs; with ``--seed N`` every
operation gets ``--seed N`` and seed-independent invariants are checked.

A run repeats passes over the workload until their timed sections add up to
``--seconds``. Each pass is a fresh Python process (worker.py) with
MIXFREE_THREADS set to nproc and BLAS/OpenMP pinned to one thread; it reports
its set-up time (process start to READY), timed wall and CPU time, peak
resident set and output checks. Metrics are medians over passes. Set-up
time is the median of at least SETUPS samples: each pass's own set-up plus
set-up-only probes, PROBES_PER_PASS after each pass and the rest at the end,
so the samples spread over the run. With ``--trace 1`` passes
alternate untraced and traced, and the run reports the per-layer numbers and
the tracing overhead instead.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-long", "short-paths", "bound-grid")
SETUPS = 15             # set-up samples per run, passes included
PROBES_PER_PASS = 2
TIMEOUT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.update(MIXFREE_THREADS=str(len(os.sched_getaffinity(0))),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, out, deadline, trace=0, setup_only=False):
    """Run one worker process; returns (set-up seconds, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--trace", str(trace), "--out", out]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def run_workload(args) -> tuple:
    """All passes and set-up samples of one run."""
    deadline = time.monotonic() + TIMEOUT_S
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    setups, passes = [], []
    timed = 0.0
    while True:
        t0 = time.monotonic()
        trace = args.trace * (len(passes) % 2)
        setup_s, rep = _worker(args, out, deadline, trace=trace)
        setups.append(setup_s)
        passes.append(rep)
        timed += rep["wall_s"]
        kinds = {p["traced"] for p in passes}
        if args.trace and len(kinds) < 2:
            continue
        for _ in range(PROBES_PER_PASS):
            if len(setups) < SETUPS:
                setups.append(_probe(args, out, deadline))
        if timed >= args.seconds or time.monotonic() + 1.5 * (
                time.monotonic() - t0) > deadline:
            break
    while len(setups) < SETUPS:
        setups.append(_probe(args, out, deadline))
    return passes, setups


def _probe(args, out, deadline) -> float:
    """Set-up seconds of a worker that stops at READY."""
    return _worker(args, os.path.join(out, "setup"), deadline,
                   setup_only=True)[0]


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mixfree", "cli.py")):
        print(f"no program to benchmark: {ROOT}/src/mixfree is missing",
              file=sys.stderr)
        return 2
    try:
        passes, setups = run_workload(args)
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2

    last = passes[-1]
    n_ops = last["ops"]
    failures = []       # (pass, operation, message)
    for i, p in enumerate(passes):
        for name, (code, digest) in p["results"].items():
            message = p["failures"].get(name)
            if message is None and digest != last["results"][name][1]:
                message = "output differs from the last pass"
            if message is not None:
                failures.append((i, name, message))
    attempted = n_ops * len(passes)

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    wall = statistics.median(walls)
    table = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced),
                        "MiB"),
        "state_steps_per_s": (last["state_steps"] / wall, "replicate-steps/s"),
        "bound_reports_per_s": (last["bound_reports"] / wall, "reports/s"),
        "failed_frac": (len(failures) / attempted, "1"),
    }
    print(f"machine: {json.dumps(last['machine'], sort_keys=True)}")
    for i, name, message in failures:
        print(f"CHECK FAILED: pass {i}, {name}: {message}")
    print(f"workload {args.workload}: {len(passes)} passes of {n_ops} CLI "
          f"operations, seed {'acceptance' if args.seed is None else args.seed},"
          f" {last['state_steps']} replicate-steps and "
          f"{last['bound_reports']} bound reports per pass")
    print(f"  untraced wall_s quartiles {_quartiles(walls)}; "
          f"setup_s samples {setups}")
    for name, (value, unit) in table.items():
        print(f"  {name:22s} {value:14.6g} {unit}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = traced[0]["layers"]
        metrics = {name: {"value": statistics.fmean(p["layers"][name][0]
                                                    for p in traced),
                          "unit": names[name][1]} for name in names}
        overhead = statistics.median(p["wall_s"] for p in traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  traced wall_s {[p['wall_s'] for p in traced]}")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": table[name][0], "unit": table[name][1]}
                   for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(ROOT, ".perfbench_out", args.workload,
                           "result.json"), "w") as fh:
        json.dump({"result": result, "passes": passes, "setup_s": setups},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
