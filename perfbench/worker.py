"""One pass over a workload in a fresh Python process (started by ``run.py``).

Sets up (imports, models, config files), prints ``READY``, then makes one
pass over the workload as a single closed-loop client: it calls
``mixfree.cli.run`` for each operation, one after another. It then records
its peak resident set, checks every output and prints a JSON report of the
pass as its last stdout line. With ``--trace 1`` the pass runs traced and the
report carries the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_mixfree():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import mixfree
    if not os.path.abspath(mixfree.__file__).startswith(src + os.sep):
        raise ImportError(f"mixfree imported from {mixfree.__file__}, not {src}")
    return mixfree


def _blas_threads():
    """Thread count of each OpenBLAS loaded in this process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_facts(seed) -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None     # the checkout is not a git repository
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "MIXFREE_THREADS": os.environ.get("MIXFREE_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_commit": commit, "seed": seed}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(workload: str, out_dir: str):
    """Import the program, build the workload's configs and write them out."""
    _import_mixfree()
    from mixfree import cli
    from perfbench.workloads import WORKLOADS
    ops = WORKLOADS[workload]()
    return cli, ops, write_configs(ops, out_dir)


def write_configs(ops, out_dir) -> dict:
    """Write each operation's config; returns {operation name: path}."""
    cfg_dir = os.path.join(out_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for op in ops:
        paths[op.name] = os.path.join(cfg_dir, op.name + ".json")
        with open(paths[op.name], "w") as fh:
            json.dump(op.config, fh)
    return paths


def run_pass(cli, ops, paths, out_dir, seed, tracer=None) -> dict:
    """One closed-loop pass: each operation in turn through ``cli.run``.

    Returns the pass's wall and CPU time and, per operation, the exit code,
    a digest of its artifacts and the wall time. With a tracer, the pass runs
    traced.
    """
    from perfbench.checks import dir_digest
    if tracer is not None:
        tracer.install()
    wall = cpu = 0.0
    results, op_walls = {}, {}
    try:
        for op in ops:
            out = os.path.join(out_dir, op.name)
            shutil.rmtree(out, ignore_errors=True)   # no stale artifacts
            argv = [op.command, "--config", paths[op.name], "--out", out,
                    "--quiet"]
            if seed is not None:
                argv += ["--seed", str(seed)]
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception:           # counts as a failed operation
                traceback.print_exc()
                code = -1
            op_walls[op.name] = time.perf_counter() - t0
            wall += op_walls[op.name]
            cpu += _cpu_s() - c0
            results[op.name] = [code, dir_digest(out) if code == 0 else None]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "results": results,
            "op_wall_s": op_walls}


def check_outputs(ops, out_dir, results, refs) -> dict:
    """{operation name: message} for the operations that fail a check."""
    from perfbench import checks
    failures = {}
    for op in ops:
        code = results[op.name][0]
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}")
            checks.check(op, os.path.join(out_dir, op.name),
                         None if refs is None else refs[op.name])
        except (checks.CheckError, OSError, KeyError, ValueError) as err:
            failures[op.name] = str(err)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, ops, paths = setup(args.workload, args.out)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from perfbench import tracer as tracing
    tracer = tracing.Tracer() if args.trace else None
    report = run_pass(cli, ops, paths, args.out, args.seed, tracer)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = None
    if args.seed is None:
        with open(os.path.join(HERE, "refs", f"{args.workload}.json")) as fh:
            refs = json.load(fh)
    report["failures"] = check_outputs(ops, args.out, report["results"], refs)
    report.update(traced=bool(args.trace), ops=len(ops),
                  state_steps=sum(op.state_steps for op in ops),
                  bound_reports=sum(op.bound_reports for op in ops),
                  machine=machine_facts(args.seed))
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write_csv(os.path.join(args.out, "spans.csv"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
