"""In-memory span tracer for the public functions of the six mixfree modules.

``Tracer.install`` rebinds every public function of ``processgen``,
``blocking``, ``erm``, ``bounds``, ``harness`` and ``cli`` to a timing wrapper
in every module namespace that binds it (``harness`` imports
``stream_state_stats`` by name, ``bounds`` imports ``beta_coefficients``, and
so on), and swaps ``harness.ThreadPoolExecutor`` for a pool whose tasks take
the submitting span as parent. ``uninstall`` restores the originals. Nothing
under ``src/`` changes.

A span records name, start, end, parent, thread and CLI-invocation id, plus
per-function counters (state-steps, bytes written, ...). ``layer_metrics``
turns spans into per-layer numbers; a span's self time is its duration minus
the union of its child spans (children may overlap and run on other threads).
The tracer's own work while a caller's span is open (hashing arguments,
sizing written files) is recorded as ``trace.hook`` child spans, so it is
subtracted from the caller's self time and counted in no layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

MODULES = ("processgen", "blocking", "erm", "bounds", "harness", "cli")
HOOK = "trace.hook"     # span name of the tracer's own work inside a caller


@dataclass
class Span:
    id: int
    parent: int | None
    name: str            # "<module>.<function>"
    start: float
    end: float
    thread: int
    invocation: int
    extra: dict | None = None


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _digest(obj, h) -> None:
    """Feed a by-value description of a call argument into hash `h`."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _digest(item, h)
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _digest(key, h)
            _digest(obj[key], h)
    else:
        h.update(repr(obj).encode())


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Per-function hooks: hook(tracer, args, kwargs) -> (args, kwargs, finish),
# where finish(result) returns the span's counters.

def _steps_from_counts(tracer, args, kwargs):
    return args, kwargs, lambda res: {"state_steps": int(res[0].sum())}


def _steps_from_states(tracer, args, kwargs):
    return args, kwargs, lambda res: {"state_steps": int(res[0].size)}


def _steps_from_trajectory(tracer, args, kwargs):
    return args, kwargs, lambda res: {"state_steps": int(res.n)}


def _lags(tracer, args, kwargs):
    return args, kwargs, lambda res: {"lags": int(len(res))}


def _rows(tracer, args, kwargs):
    return args, kwargs, lambda res: {"rows": int(len(res))}


def _bytes_at(index, name):
    def hook(tracer, args, kwargs):
        path = _arg(args, kwargs, index, name)
        return args, kwargs, lambda res: {"bytes": os.path.getsize(path)}
    return hook


def _repeat(tracer, args, kwargs):
    h = hashlib.sha256()
    _digest((args, kwargs), h)
    repeat = tracer.seen(h.digest())
    return args, kwargs, lambda res: {"repeat": int(repeat)}


def _profile_evals(tracer, args, kwargs):
    count = [0]

    def counted(fn):
        def profile(r):
            count[0] += 1
            return fn(r)
        return profile

    args = (counted(args[0]), counted(args[1])) + tuple(args[2:])
    return args, kwargs, lambda res: {"profile_evals": count[0]}


def _cli_run(tracer, args, kwargs):
    tracer.invocation += 1
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = argv[argv.index("--out") + 1] if "--out" in argv else "."

    def finish(res):
        if not os.path.isdir(out):      # the command failed before writing
            return {"artifact_bytes": 0}
        size = sum(e.stat().st_size for e in os.scandir(out) if e.is_file())
        return {"artifact_bytes": size}
    return args, kwargs, finish


HOOKS = {
    "processgen.stream_state_stats": _steps_from_counts,
    "processgen.sample_path_batch": _steps_from_states,
    "processgen.sample_trajectory": _steps_from_trajectory,
    "processgen.beta_coefficients": _lags,
    "processgen.trajectory_to_csv": _bytes_at(1, "path"),
    "erm.population_quantities": _repeat,
    "bounds.certify_weak_subgaussian": _repeat,
    "bounds.psi_norms_batch": _rows,
    "bounds.critical_radius": _profile_evals,
    "harness.sweep_to_csv": _bytes_at(1, "path"),
    "cli.run": _cli_run,
}


class Tracer:
    """Collects spans from wrapped mixfree functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen: set = set()
        self._lock = threading.Lock()
        self._saved: list = []

    # -- span stack -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, invocation) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def seen(self, key: bytes) -> bool:
        """True when `key` was already seen in the current CLI invocation."""
        with self._lock:
            full = (self.invocation, key)
            if full in self._seen:
                return True
            self._seen.add(full)
            return False

    def _hook_span(self, parent, start) -> None:
        """Record hook work from `start` to now as a HOOK child of `parent`,
        so that it is not charged to the parent's self time."""
        if parent is not None:
            self.spans.append(Span(next(self._ids), parent[0], HOOK, start,
                                   time.perf_counter(), threading.get_ident(),
                                   parent[1]))

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            finish = None
            if hook is not None:
                t0 = time.perf_counter()
                args, kwargs, finish = hook(self, args, kwargs)
                self._hook_span(parent, t0)
            invocation = parent[1] if parent else self.invocation
            sid = next(self._ids)
            stack.append((sid, invocation))
            parent_id = parent[0] if parent else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(sid, parent_id, name, start,
                                       time.perf_counter(),
                                       threading.get_ident(), invocation))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            extra = None
            if finish is not None:
                extra = finish(result)
                self._hook_span(parent, end)
            self.spans.append(Span(sid, parent_id, name, start, end,
                                   threading.get_ident(), invocation, extra))
            return result
        return traced

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Pool whose tasks run with the submitting span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.stack = [parent] if parent else []
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []
                return super().submit(run, *args, **kwargs)
        return TracedPool

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        import mixfree
        mods = {m: getattr(__import__(f"mixfree.{m}"), m) for m in MODULES}
        wrapped = {}
        for namespace in (mixfree, *mods.values()):
            for attr, value in list(vars(namespace).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                module = value.__module__.rpartition(".")[2]
                if value.__module__ != f"mixfree.{module}" or module not in MODULES:
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(f"{module}.{value.__name__}", value)
                self._saved.append((namespace, attr, value))
                setattr(namespace, attr, wrapped[value])
        harness = mods["harness"]
        self._saved.append((harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor))
        harness.ThreadPoolExecutor = self.pool_class()

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            setattr(namespace, attr, value)
        self._saved.clear()

    def write_csv(self, path) -> None:
        """Dump every span, one row each, for offline inspection."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,thread,invocation\n")
            for s in self.spans:
                fh.write(f"{s.id},{'' if s.parent is None else s.parent},{s.name},"
                         f"{s.start!r},{s.end!r},{s.thread},{s.invocation}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (span name, statistic) pairs reported by the traced run
LAYER_STATS = (
    ("processgen.stream_state_stats", ("self_s", "state_steps", "ns_per_step")),
    ("processgen.sample_path_batch", ("self_s", "state_steps")),
    ("processgen.sample_trajectory", ("self_s",)),
    ("processgen.beta_coefficients", ("self_s", "lags")),
    ("processgen.trajectory_to_csv", ("self_s", "bytes")),
    ("blocking.blocked_bernstein_bound", ("calls", "self_s")),
    ("erm.population_quantities", ("self_s", "repeat_frac")),
    ("erm.sphere_tables", ("self_s",)),
    ("erm.star_hull_tables", ("self_s",)),
    ("bounds.compute_bound_report", ("self_s",)),
    ("bounds.certify_weak_subgaussian", ("self_s", "repeat_frac")),
    ("bounds.psi_norms_batch", ("self_s", "rows")),
    ("bounds.weak_variance_q1_exact", ("self_s",)),
    ("bounds.weak_variance_2q", ("self_s",)),
    ("bounds.entropy_integral_breakpoints", ("self_s",)),
    ("bounds.greedy_cover_count", ("calls", "self_s")),
    ("bounds.critical_radius", ("self_s", "profile_evals")),
    ("bounds.k_mix_search", ("self_s",)),
    ("bounds.burn_ins", ("self_s",)),
    ("harness.run_sweep", ("self_s", "concurrency")),
    ("harness.cell_seed", ("calls", "self_s")),
    ("harness.blocked_bernstein_coverage", ("self_s",)),
    ("harness.risk_bound_coverage", ("self_s",)),
    ("harness.process_diagnostics", ("self_s",)),
    ("harness.sweep_to_csv", ("self_s", "bytes")),
    ("cli.run", ("self_s", "calls", "artifact_bytes")),
)

UNITS = {"self_s": "s", "calls": "count", "state_steps": "count",
         "ns_per_step": "ns", "lags": "count", "bytes": "bytes",
         "repeat_frac": "ratio", "rows": "count", "profile_evals": "count",
         "concurrency": "threads", "artifact_bytes": "bytes"}


def layer_metrics(spans) -> dict:
    """Per-layer numbers from the span list of one pass over a workload.

    Returns {metric name: (value, unit)} with one entry per LAYER_STATS item
    (``cli.run.artifact_bytes`` is reported as ``cli.artifact_bytes``) plus the
    summed self time of each module as ``<module>.self_s``.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                    "child_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[s.id]
        a["wall_s"] += s.end - s.start
        for key, value in (s.extra or {}).items():
            a[key] = a.get(key, 0) + value
        if s.parent is not None and s.name != HOOK:
            p = by_id[s.parent]
            agg.setdefault(p.name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                    "child_s": 0.0})["child_s"] += s.end - s.start
    out = {}
    for name, stats in LAYER_STATS:
        a = agg.get(name, {})
        calls = a.get("calls", 0)
        for stat in stats:
            if stat == "ns_per_step":
                steps = a.get("state_steps", 0)
                value = 1e9 * a.get("self_s", 0.0) / steps if steps else 0.0
            elif stat == "repeat_frac":
                value = a.get("repeat", 0) / calls if calls else 0.0
            elif stat == "concurrency":
                value = a["child_s"] / a["wall_s"] if a.get("wall_s") else 0.0
            else:
                value = a.get(stat, 0)
            key = ("cli.artifact_bytes" if stat == "artifact_bytes"
                   else f"{name}.{stat}")
            out[key] = (value, UNITS[stat])
    for module in MODULES:
        total = sum(a["self_s"] for n, a in agg.items()
                    if n.startswith(module + "."))
        out[f"{module}.self_s"] = (total, "s")
    return out
