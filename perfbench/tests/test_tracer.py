"""Tests of the benchmark's tracer: self-time arithmetic, span parentage across
the sweep thread pool, and traced runs leaving every output unchanged."""

import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import tracer, worker, workloads  # noqa: E402
from perfbench.tracer import Span  # noqa: E402


def test_self_time_is_duration_minus_union_of_children():
    main, other = 1, 2
    spans = [
        Span(1, None, "harness.run_sweep", 0.0, 10.0, main, 1),
        Span(2, 1, "harness.cell_seed", 1.0, 4.0, main, 1),          # overlaps 3
        Span(3, 1, "processgen.stream_state_stats", 3.0, 6.0, other, 1),
        Span(4, 1, "bounds.compute_bound_report", 5.0, 12.0, other, 1),  # past end
        Span(5, 1, "harness.cell_seed", 7.0, 8.0, main, 1),          # inside 4
        Span(6, 2, "processgen.beta_coefficients", 1.5, 2.0, main, 1),  # grandchild
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 9.0)     # children cover [1, 10]
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(7.0)
    assert selfs[6] == pytest.approx(0.5)

    m = tracer.layer_metrics(spans)
    assert m["harness.run_sweep.concurrency"][0] == pytest.approx((3 + 3 + 7 + 1) / 10)
    assert m["harness.cell_seed.calls"][0] == 2
    assert m["harness.cell_seed.self_s"][0] == pytest.approx(2.5 + 1.0)
    assert m["harness.self_s"][0] == pytest.approx(1.0 + 2.5 + 1.0)
    assert m["processgen.self_s"][0] == pytest.approx(3.0 + 0.5)


def test_hook_time_is_not_charged_to_the_caller(monkeypatch):
    def slow_hook(t, args, kwargs):
        time.sleep(0.05)

        def finish(result):
            time.sleep(0.05)
            return {"lags": 1}
        return args, kwargs, finish

    monkeypatch.setitem(tracer.HOOKS, "processgen.beta_coefficients", slow_hook)
    t = tracer.Tracer()
    inner = t.wrap("processgen.beta_coefficients", lambda: None)
    outer = t.wrap("bounds.compute_bound_report", lambda: inner())
    outer()
    spans = {s.name: s for s in t.spans}
    hooks = [s for s in t.spans if s.name == tracer.HOOK]
    assert len(hooks) == 2
    assert {s.parent for s in hooks} == {spans["bounds.compute_bound_report"].id}
    caller = spans["bounds.compute_bound_report"]
    assert caller.end - caller.start >= 0.1
    assert tracer.self_times(t.spans)[caller.id] < 0.02
    m = tracer.layer_metrics(t.spans)
    assert m["bounds.self_s"][0] < 0.02
    assert m["processgen.beta_coefficients.lags"][0] == 1


def test_pool_spans_take_the_sweep_span_as_parent():
    worker._import_mixfree()
    import mixfree as mf
    from mixfree import harness, processgen
    problem = mf.RegressionProblem(
        chain=mf.two_state_chain(0.25, 0.25), embedding=[[-1.0], [1.0]],
        mode="linear", noise=mf.NoiseSpec.symmetric(0.5, 2), true_param=[1.0])
    cfg = mf.SweepConfig(problems=(problem,), labels=("a",),
                         hypothesis=mf.HypothesisClass.linear(1),
                         n_grid=(64, 128, 256, 512), replicates=3, master_seed=1)
    original = processgen.stream_state_stats
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.stream_state_stats is processgen.stream_state_stats
        assert harness.stream_state_stats is not original
        harness.run_sweep(cfg, max_workers=2)
    finally:
        t.uninstall()
    assert harness.stream_state_stats is processgen.stream_state_stats is original
    assert harness.ThreadPoolExecutor is ThreadPoolExecutor

    sweep = [s for s in t.spans if s.name == "harness.run_sweep"]
    assert len(sweep) == 1 and sweep[0].thread == threading.get_ident()
    cells = [s for s in t.spans if s.name == "harness.cell_seed"]
    assert len(cells) == 4 * 3
    assert {s.parent for s in cells} == {sweep[0].id}
    assert any(s.thread != sweep[0].thread for s in cells)
    m = tracer.layer_metrics(t.spans)
    assert m["processgen.stream_state_stats.state_steps"][0] == 3 * (64 + 128 + 256 + 512)


CAPS = {"replicates": 64, "calibration_replicates": 40,
        "validation_replicates": 40, "directions": 200}


def _small(ops):
    """The workload's operations on smaller inputs, at most two per config
    that differs only in n."""
    kept, seen = [], {}
    for op in ops:
        family = json.dumps({k: v for k, v in op.config.items() if k != "n"},
                            sort_keys=True)
        seen[family] = seen.get(family, 0) + 1
        if seen[family] <= 2:
            kept.append(_shrink(op))
    return kept


def _shrink(op):
    cfg = dict(op.config)
    for key, cap in CAPS.items():
        if key in cfg:
            cfg[key] = min(cfg[key], cap)
    if "n_grid" in cfg:
        cfg["n_grid"] = cfg["n_grid"][:2]
    if op.command == "simulate":
        cfg["n"] = 2048
    if cfg.get("class", {}).get("kind") == "finite":
        cfg["class"] = {"kind": "finite", "tables": cfg["class"]["tables"][:16]}
    return replace(op, config=cfg)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_leaves_outputs_identical(name, tmp_path):
    cli, ops, _ = worker.setup(name, str(tmp_path))
    ops = _small(ops)
    paths = worker.write_configs(ops, str(tmp_path))
    untraced = worker.run_pass(cli, ops, paths, str(tmp_path), 3)["results"]
    assert worker.check_outputs(ops, str(tmp_path), untraced, None) == {}
    t = tracer.Tracer()
    traced = worker.run_pass(cli, ops, paths, str(tmp_path), 3, t)["results"]
    assert all(code == 0 for code, _ in untraced.values())
    assert traced == untraced
    assert {s.invocation for s in t.spans} == set(range(1, len(ops) + 1))
