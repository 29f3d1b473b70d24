"""Command-line interface tests: exit codes, strict configs, artifact schemas."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixfree as mf
from mixfree import cli
from mixfree.cli import run
from oracles import problem_to_dict


def _model_dict(copies=2, flip=0.25, sigma=0.5):
    base = mf.two_state_chain(flip, flip)
    chain = mf.product_chain(base, copies)
    problem = mf.RegressionProblem(
        chain=chain, embedding=mf.product_embedding([-1.0, 1.0], copies),
        mode="linear", noise=mf.NoiseSpec.symmetric(sigma, chain.n_states),
        true_param=np.array([1.0, -0.5])[:copies])
    return problem_to_dict(problem)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_leaves_scipy_unloaded():
    """scipy's integrate and optimize load only in the functions that use them."""
    env = dict(os.environ, PYTHONPATH=str(Path(mf.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mixfree.cli; print(sorted("
         "m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# (command, demo config, key) for every integer key; "class.dim" is the
# linear class's dim and "n_grid" the sweep's second grid entry
INTEGER_KEYS = [
    ("simulate", "simulate_trajectory", key) for key in ("n", "seed", "kwise")
] + [
    ("bound", "realizable_regression_bound", key) for key in ("n", "k", "resolution", "seed")
] + [
    ("certify", "linear_certificate", key)
    for key in ("directions", "m_max", "seed", "class.dim")
] + [
    ("sweep", "mixing_free_sweep", key) for key in ("replicates", "seed", "n_grid")
] + [
    ("coverage", "blocked_bernstein_coverage", key)
    for key in ("n", "k", "replicates", "seed")
] + [
    ("coverage", "risk_bound_coverage", key)
    for key in ("calibration_replicates", "validation_replicates")
] + [
    ("diagnose", "quadratic_diagnostics", key) for key in ("n", "replicates", "rho_grid")
]

# (command, demo config, key) for every float key; "constants.c1" is one
# constant of the bound's constants object
FLOAT_KEYS = [
    ("bound", "realizable_regression_bound", key)
    for key in ("delta", "q", "p", "constants.c1", "constants.c2", "constants.c3",
                "constants.c_alpha")
] + [
    ("certify", "linear_certificate", "p"), ("diagnose", "quadratic_diagnostics", "epsilon"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("bad", [True, "64", 100.7], ids=repr)
    @pytest.mark.parametrize("command,config,key", INTEGER_KEYS,
                             ids=[f"{c}-{k}" for _, c, k in INTEGER_KEYS])
    def test_integer_key_refuses_non_integers(self, tmp_path, capsys, command, config,
                                              key, bad):
        cfg = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
        if key == "class.dim":
            cfg["class"]["dim"] = bad
        elif key == "n_grid":
            cfg["n_grid"][1] = bad
        else:
            cfg[key] = bad
        path = _write(tmp_path, "cfg.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key.split(".")[-1]) in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("bad", [True, "0.05", float("nan"), float("inf"), 10 ** 400],
                             ids=["true", "string", "nan", "inf", "int-past-float"])
    @pytest.mark.parametrize("command,config,key", FLOAT_KEYS,
                             ids=[f"{c}-{k}" for _, c, k in FLOAT_KEYS])
    def test_float_key_refuses_non_numbers(self, tmp_path, capsys, command, config, key,
                                           bad):
        # JSON writes nan and inf as NaN and Infinity, which json.load reads back
        cfg = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
        if key.startswith("constants."):
            cfg["constants"] = {key.split(".")[1]: bad}
        else:
            cfg[key] = bad
        path = _write(tmp_path, "cfg.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key.split(".")[-1]) in err
        assert not (tmp_path / "r").exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = json.loads((DEMO_CONFIGS / "simulate_trajectory.json").read_text())
        path = _write(tmp_path, "cfg.json", dict(cfg, n=1e2, kwise=5.0))
        assert run(["simulate", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 101

    def test_malformed_json_cites_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": [1, 2,\n  }')
        code = run(["bound", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "n": 64, "seed": 1, "bogus": True})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "seed": 1})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "'n'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run(["bound", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_config_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")        # a UTF-16 byte-order mark
        assert run(["bound", "--config", str(path)]) == 1
        assert (capsys.readouterr().err == f"config error: config file {path} is not UTF-8: "
                "invalid start byte at byte 0\n")

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert run(["bound", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot read config file {tmp_path}: Is a directory" in err

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_is_not_a_directory(self, tmp_path, capsys, monkeypatch, out):
        # refused before sampling, whether --out is a file or lies under one
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before --out was checked")
        monkeypatch.setattr(mf.processgen, "_sample_paths", refuse)
        (tmp_path / "file").write_text("kept")
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 64, "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: --out {tmp_path / out}: {tmp_path / 'file'} is not a " \
               "directory" in err
        assert (tmp_path / "file").read_text() == "kept"

    def test_unwritable_artifact_is_named(self, tmp_path, capsys):
        (tmp_path / "r" / "trajectory.csv").mkdir(parents=True)
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 64, "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err == f"path error: cannot write {tmp_path / 'r' / 'trajectory.csv'}: " \
                      "Is a directory\n"

    def test_non_stochastic_transition_is_config_error(self, tmp_path, capsys):
        model = _model_dict()
        model["transition"][0][0] += 0.1
        cfg = _write(tmp_path, "cfg.json", {"model": model, "n": 64, "seed": 1})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "rows must sum to 1" in capsys.readouterr().err

    def test_unknown_model_key_is_config_error(self, tmp_path, capsys):
        model = dict(_model_dict(), colour="blue")
        cfg = _write(tmp_path, "cfg.json",
                     {"model": model, "class": {"kind": "linear", "dim": 2},
                      "n": 64, "delta": 0.1})
        code = run(["bound", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "colour" in capsys.readouterr().err

    def test_non_integer_n_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "n": "many", "seed": 1})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'n'" in err and "many" in err

    def test_numeric_failure_exit_two(self, tmp_path, capsys):
        model = _model_dict()
        # degenerate embedding makes the covariate second moment singular
        model["embedding"] = [[1.0, 1.0]] * 4
        cfg = _write(tmp_path, "cfg.json",
                     {"model": model, "class": {"kind": "linear", "dim": 2},
                      "n": 64, "delta": 0.1})
        code = run(["bound", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_oversized_step_tables_exit_two(self, tmp_path, capsys, monkeypatch):
        # a low table budget stands in for a chain too large to sample
        monkeypatch.setattr(mf.processgen, "_TABLE_BYTES", 64)
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 64, "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "numeric failure: a 4-state chain needs" in capsys.readouterr().err

    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # a sampler that runs out of memory stands in for an n too large to hold
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(mf.processgen, "_sample_paths", exhausted)
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 64, "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "numeric failure: out of memory" in capsys.readouterr().err

    def test_epsilon_is_unknown_to_bound_and_sweep(self, tmp_path, capsys):
        linear = {"kind": "linear", "dim": 2}
        configs = {
            "bound": {"model": _model_dict(), "class": linear, "n": 64,
                      "delta": 0.1, "epsilon": 0.5},
            "sweep": {"levels": [{"label": "a", "model": _model_dict()}],
                      "class": linear, "n_grid": [64], "replicates": 2,
                      "seed": 1, "epsilon": 0.5},
        }
        for command, payload in configs.items():
            cfg = _write(tmp_path, f"{command}.json", payload)
            code = run([command, "--config", cfg, "--out", str(tmp_path / command)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert "unknown key" in err and "epsilon" in err

    def test_q1_with_finite_p_is_config_error(self, tmp_path, capsys):
        linear = {"kind": "linear", "dim": 2}
        configs = {
            "bound": {"model": _model_dict(), "class": linear, "n": 64,
                      "delta": 0.1, "q": 1, "p": 2},
            "sweep": {"levels": [{"label": "a", "model": _model_dict()}],
                      "class": linear, "n_grid": [64], "replicates": 2,
                      "seed": 1, "p": 2},
            "coverage": {"kind": "riskBound", "model": _model_dict(),
                         "class": linear, "n": 64, "delta": 0.1,
                         "calibration_replicates": 2, "validation_replicates": 2,
                         "seed": 1, "p": 2},
            "diagnose": {"model": _model_dict(), "n": 64,
                         "class": {"kind": "finite", "tables": [
                             [0.5, 0.5, -0.5, 0.5], [1.0, -1.0, 0.5, -0.5]]},
                         "replicates": 2, "epsilon": 0.5, "delta": 0.1,
                         "seed": 1, "p": 2},
        }
        for command, payload in configs.items():
            cfg = _write(tmp_path, f"{command}.json", payload)
            code = run([command, "--config", cfg, "--out", str(tmp_path / command)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert "config error" in err and "q = 1" in err and "p = 2" in err


class TestOutOfRangeValues:
    """A delta outside (0, 1) or an n below 1 is a config error, raised before
    any sampling: the output directory is never made."""

    _linear = {"kind": "linear", "dim": 2}
    _finite = {"kind": "finite", "tables": [[0.5, 0.5, -0.5, 0.5], [1.0, -1.0, 0.5, -0.5]]}

    def _configs(self):
        return {
            "bound": {"model": _model_dict(), "class": self._linear, "n": 64,
                      "delta": 0.1},
            "sweep": {"levels": [{"label": "a", "model": _model_dict()}],
                      "class": self._linear, "n_grid": [64, 65536], "replicates": 64,
                      "seed": 1, "delta": 0.1},
            "coverage": {"kind": "riskBound", "model": _model_dict(),
                         "class": self._linear, "n": 64, "delta": 0.1,
                         "calibration_replicates": 64, "validation_replicates": 64,
                         "seed": 1},
            "blocked": {"kind": "blockedBernstein",
                        "model": {"transition": [[0.75, 0.25], [0.25, 0.75]]},
                        "values": [-1.0, 1.0], "n": 64, "k": 4, "delta": 0.1,
                        "replicates": 64, "seed": 3},
            "diagnose": {"model": _model_dict(), "n": 64, "class": self._finite,
                         "replicates": 64, "epsilon": 0.5, "delta": 0.1, "seed": 1},
            "simulate": {"model": _model_dict(), "n": 64, "seed": 1},
            "certify": {"model": _model_dict(), "class": self._linear},
        }

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        """Fail the test if anything reaches the sampler."""
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")
        monkeypatch.setattr(mf.processgen, "_sample_paths", refuse)

    def _rejected(self, tmp_path, capsys, name, **changes) -> str:
        cfg = _write(tmp_path, "cfg.json", dict(self._configs()[name], **changes))
        command = "coverage" if name == "blocked" else name
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("delta", [0, 1, -0.5, 1.5, float("nan")])
    @pytest.mark.parametrize("name", ["bound", "sweep", "coverage", "blocked", "diagnose"])
    def test_bad_delta_is_config_error(self, tmp_path, capsys, name, delta):
        cfg = _write(tmp_path, "cfg.json", dict(self._configs()[name], delta=delta))
        command = "coverage" if name == "blocked" else name
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error: 'delta' must lie in (0, 1), got" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name", ["bound", "sweep", "coverage", "blocked", "diagnose"])
    def test_zero_n_is_config_error(self, tmp_path, capsys, name):
        payload = self._configs()[name]
        if name == "sweep":
            payload = dict(payload, n_grid=[64, 0])
        else:
            payload = dict(payload, n=0)
        cfg = _write(tmp_path, "cfg.json", payload)
        command = "coverage" if name == "blocked" else name
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and ("'n' must be >= 1, got 0" in err
                                          or "n grid entries must be positive" in err)
        assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize("name, key, value, least", [
        ("blocked", "replicates", 0, 1), ("sweep", "replicates", 0, 1),
        ("coverage", "calibration_replicates", 0, 1),
        ("coverage", "validation_replicates", 0, 1),
        ("diagnose", "replicates", 0, 2), ("diagnose", "replicates", 1, 2),
        # other counts: block lengths, grids and sample budgets
        ("bound", "k", 0, 1), ("bound", "k", -3, 1), ("bound", "resolution", 0, 1),
        ("certify", "directions", 0, 1), ("certify", "directions", -5, 1),
        ("certify", "m_max", 0, 1), ("blocked", "k", 0, 1), ("blocked", "k", -4, 1),
        ("simulate", "kwise", 0, 1),
        ("diagnose", "rho_grid", 0, 2), ("diagnose", "rho_grid", 1, 2)])
    def test_replicate_count_is_config_error(self, tmp_path, capsys, name, key, value,
                                             least):
        cfg = _write(tmp_path, "cfg.json", dict(self._configs()[name], **{key: value}))
        command = "coverage" if name == "blocked" else name
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert f"config error: '{key}' must be >= {least}, got {value}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name, key", [("blocked", "k"), ("simulate", "kwise")])
    def test_block_length_must_divide_n(self, tmp_path, capsys, no_sampling, name, key):
        err = self._rejected(tmp_path, capsys, name, **{key: 5})
        assert f"config error: '{key}' must divide 'n' = 64, got 5" in err

    @pytest.mark.parametrize("p", [0, 0.5, -1, float("nan")], ids=repr)
    def test_certify_p_below_one(self, tmp_path, capsys, no_sampling, p):
        err = self._rejected(tmp_path, capsys, "certify", p=p)
        assert "config error: 'p' must be >= 1" in err

    @pytest.mark.parametrize("label", [None, True, [], {}], ids=repr)
    def test_sweep_label_is_a_string(self, tmp_path, capsys, no_sampling, label):
        err = self._rejected(tmp_path, capsys, "sweep",
                             levels=[{"label": label, "model": _model_dict()}])
        assert "config error: levels[0]: 'label' must be a string" in err

    @pytest.mark.parametrize("plot", ["x", [], 1, None], ids=repr)
    def test_sweep_plot_is_a_flag(self, tmp_path, capsys, no_sampling, plot):
        err = self._rejected(tmp_path, capsys, "sweep", plot=plot)
        assert "config error: 'plot' must be true or false" in err

    @pytest.mark.parametrize("name", ["simulate", "bound", "certify", "sweep", "coverage",
                                      "diagnose"])
    @pytest.mark.parametrize("path, bad, named", [
        (("noise", "probs", 0, 0), float("nan"), "noise probs"),
        (("noise", "probs", 1, 1), float("inf"), "noise probs"),
        (("noise", "bound"), float("nan"), "noise bound"),
        (("noise", "bound"), float("inf"), "noise bound"),
        (("noise", "bound"), True, "noise bound"),
        (("true_param", 0), float("nan"), "true_param"),
        (("true_param", 1), -float("inf"), "true_param"),
        (("true_param", 0), False, "true_param"),
        (("true_table",), [0.0, float("nan"), 0.0, 0.0], "true_table"),
        (("true_table",), [0.0, True, 0.0, 0.0], "true_table"),
        (("embedding", 0, 0), True, "embedding")],
        ids=lambda v: repr(v) if not isinstance(v, tuple) else ".".join(map(str, v)))
    def test_model_entries_are_finite_numbers(self, tmp_path, capsys, no_sampling, name,
                                              path, bad, named):
        # the model is linear, so true_table is the other mode's key: read, not used
        model = _model_dict()
        target = model
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = bad
        changes = ({"levels": [{"label": "a", "model": model}]} if name == "sweep"
                   else {"model": model})
        err = self._rejected(tmp_path, capsys, name, **changes)
        assert "config error" in err and named in err

    def test_class_tables_refuse_booleans(self, tmp_path, capsys, no_sampling):
        err = self._rejected(tmp_path, capsys, "diagnose", **{"class": {
            "kind": "finite", "tables": [[0.5, True, -0.5, 0.5], [1.0, -1.0, 0.5, -0.5]]}})
        assert "config error: class: finite class tables must hold numbers only" in err

    @pytest.mark.parametrize("epsilon", [1, 1.5, -0.5, float("nan")])
    def test_diagnose_epsilon_in_unit_interval(self, tmp_path, capsys, no_sampling,
                                               epsilon):
        err = self._rejected(tmp_path, capsys, "diagnose", epsilon=epsilon)
        assert "config error: 'epsilon' must lie in [0, 1), got" in err

    def test_empty_n_grid(self, tmp_path, capsys, no_sampling):
        err = self._rejected(tmp_path, capsys, "sweep", n_grid=[])
        assert "config error: 'n_grid' must be a nonempty list" in err

    @pytest.mark.parametrize("values, message", [
        ([-1.0, 1.5], "must be centered"), ([1.0, 1.0], "must be centered"),
        ([-1.0, 1.0, 0.0], "one value per state (2)"), ([[-1.0, 1.0]], "per state"),
        (["a", 1.0], "must hold numbers only"), ([-1.0, "nan"], "must hold numbers only"),
        ([True, -1.0], "must hold numbers only"), (["1", "-1"], "must hold numbers only"),
        ({"a": 1.0}, "'values'")])
    def test_blocked_values_named(self, tmp_path, capsys, no_sampling, values, message):
        err = self._rejected(tmp_path, capsys, "blocked", values=values)
        assert "config error: 'values': " in err and message in err

    @pytest.mark.parametrize("workers", ["zebra", "0", "-3", "2.5"])
    def test_sweep_worker_cap_is_config_error(self, tmp_path, capsys, no_sampling,
                                              monkeypatch, workers):
        monkeypatch.setenv("MIXFREE_THREADS", workers)
        err = self._rejected(tmp_path, capsys, "sweep")
        assert f"MIXFREE_THREADS must be an integer >= 1, got {workers!r}" in err

    @pytest.mark.parametrize("key", ["c1", "c2", "c3", "c_alpha"])
    @pytest.mark.parametrize("name", ["bound", "sweep", "coverage", "diagnose"])
    def test_negative_constant_is_config_error(self, tmp_path, capsys, no_sampling, name,
                                               key):
        err = self._rejected(tmp_path, capsys, name, constants={key: -1})
        assert f"config error: {key!r} must be finite and >= 0, got -1.0" in err

    def test_blocked_model_without_transition(self, tmp_path, capsys, no_sampling):
        err = self._rejected(tmp_path, capsys, "blocked",
                             model={"P": [[0.75, 0.25], [0.25, 0.75]]})
        assert "config error: model is missing required key(s): ['transition']" in err

    def test_blocked_model_takes_only_transition(self, tmp_path, capsys, no_sampling):
        # the blockedBernstein model object holds a transition and nothing else
        err = self._rejected(tmp_path, capsys, "blocked", model={
            "transition": [[0.75, 0.25], [0.25, 0.75]], "bogus": 1, "noise": "x"})
        assert "config error: unknown key(s) in model: ['bogus', 'noise']" in err

    @pytest.mark.parametrize("name", ["bound", "certify", "coverage", "diagnose", "sweep"])
    @pytest.mark.parametrize("cls, key", [
        ({"kind": "linear", "dim": 2, "tables": [[1.0, 2.0, 3.0, 4.0]]}, "tables"),
        ({"kind": "finite", "dim": 2, "tables": [[1.0, 2.0, 3.0, 4.0]]}, "dim"),
        ({"kind": "linear", "dim": 3}, "dim"),
        ({"kind": "finite", "tables": [[1.0, 2.0], [0.0, 1.0]]}, "tables")],
        ids=["linear-tables", "finite-dim", "linear-dim-3", "finite-width-2"])
    def test_class_must_fit_the_model(self, tmp_path, capsys, no_sampling, name, cls,
                                      key):
        # the model has 4 states and a 2-wide embedding
        err = self._rejected(tmp_path, capsys, name, **{"class": cls})
        assert "config error" in err and key in err

    def test_repeated_sweep_labels(self, tmp_path, capsys, no_sampling):
        # two levels labelled "a" would share their CSV rows and one polyline
        level = {"label": "a", "model": _model_dict()}
        err = self._rejected(tmp_path, capsys, "sweep", levels=[level, level])
        assert "config error" in err and "repeated: ['a']" in err

    def test_repeated_n_grid_entry(self, tmp_path, capsys, no_sampling):
        # a repeated n would write its rows twice and weigh them twice in the fit
        err = self._rejected(tmp_path, capsys, "sweep", n_grid=[64, 64, 128])
        assert "config error: sweep config: n_grid entries must be distinct, " \
               "repeated: [64]" in err

    @pytest.mark.parametrize("delta", [0.25, 0.3])
    def test_risk_bound_delta_below_a_quarter(self, tmp_path, capsys, delta):
        # riskBound coverage tests at level 4 * delta, which must stay below 1
        cfg = _write(tmp_path, "cfg.json", dict(self._configs()["coverage"], delta=delta))
        assert run(["coverage", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error: 'delta' must be below 0.25" in err and f"got {delta}" in err
        assert not (tmp_path / "r").exists()


class TestNegativeSeeds:
    def test_simulate_seed_flag(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 32, "seed": 9})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "config error: --seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "r").exists()

    def test_simulate_config_seed(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 32, "seed": -2})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert ("config error: 'seed' must be a non-negative integer, got -2"
                in capsys.readouterr().err)

    def test_coverage_config_seed(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cov.json", {
            "kind": "blockedBernstein",
            "model": {"transition": [[0.75, 0.25], [0.25, 0.75]]},
            "values": [-1.0, 1.0], "n": 128, "k": 4, "delta": 0.1,
            "replicates": 40, "seed": -3})
        assert run(["coverage", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert ("config error: 'seed' must be a non-negative integer, got -3"
                in capsys.readouterr().err)

    def test_coverage_seed_flag(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cov.json", {
            "kind": "blockedBernstein",
            "model": {"transition": [[0.75, 0.25], [0.25, 0.75]]},
            "values": [-1.0, 1.0], "n": 128, "k": 4, "delta": 0.1,
            "replicates": 40, "seed": 3})
        assert run(["coverage", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--seed", "-1"]) == 1
        assert ("config error: --seed must be a non-negative integer, got -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 128 + 1])
    def test_multi_word_seeds_give_trajectories(self, tmp_path, seed):
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "n": 32, "seed": 9})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path),
                    "--seed", str(seed), "--quiet"]) == 0
        traj = mf.sample_trajectory(cli._model(_model_dict(), "model", {}), 32, seed)
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert [int(line.split(",")[1]) for line in lines[1:]] == traj.states.tolist()


class TestModelDocuments:
    """The model reader, `cli._model` over `_MODEL` and `_NOISE`: a document
    becomes the problem it describes. Unknown keys, booleans, strings and
    non-finite numbers are refused, naming the entry; numpy alone would read
    True as 1.0 and let NaN pass every range check."""

    def _spec(self, **changes):
        spec = _model_dict()
        for path, value in changes.items():
            target = spec
            *steps, last = path.split(".")
            for step in steps:
                target = target[step]
            target[last] = value
        return spec

    def test_round_trip(self):
        spec = _model_dict()
        assert problem_to_dict(cli._model(spec, "model", {})) == spec

    def test_null_embedding_is_one_hot(self):
        spec = self._spec(mode="tabular", embedding=None, true_param=None,
                          true_table=[0.5, 0.0, -1.0, 2.0])
        assert np.array_equal(cli._model(spec, "model", {}).embedding, np.eye(4))

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match=r"unknown key\(s\) in model: \['surprise'\]"):
            cli._model(self._spec(surprise=1), "model", {})
        with pytest.raises(cli.ConfigError, match=r"unknown key\(s\) in noise: \['extra'\]"):
            cli._model(self._spec(**{"noise.extra": 2}), "model", {})

    @pytest.mark.parametrize("path, value, message", [
        ("noise.probs", [[float("nan"), 0.5]] * 4, "noise probs has non-finite"),
        ("noise.values", [[-0.5, True]] * 4, "noise values must hold numbers"),
        ("noise.bound", float("nan"), "noise bound has non-finite"),
        ("noise.bound", float("inf"), "noise bound has non-finite"),
        ("noise.bound", True, "noise bound must hold numbers"),
        ("noise.bound", [0.5], "noise bound must be one number"),
        ("true_param", [1.0, float("nan")], "true_param has non-finite"),
        ("true_param", [True, 0.5], "true_param must hold numbers"),
        ("true_table", [0.0, float("inf"), 0.0, 0.0], "true_table has non-finite"),
        ("true_table", [0.0, False, 0.0, 0.0], "true_table must hold numbers"),
        ("embedding", [[True, 1.0]] * 4, "embedding must hold numbers"),
        ("embedding", [["1", 1.0]] * 4, "embedding must hold numbers"),
        ("transition", "x", "transition matrix must hold numbers")])
    def test_bad_entry_named(self, path, value, message):
        # true_table belongs to the other mode (the problem is linear) and is
        # still read
        with pytest.raises(cli.ConfigError, match=f"^model: {message}"):
            cli._model(self._spec(**{path: value}), "model", {})

    def test_null_bound_declares_none(self):
        problem = cli._model(self._spec(**{"noise.bound": None}), "model", {})
        assert problem.noise.bound is None


class TestSimulate:
    def test_writes_schema_csv(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "n": 32, "seed": 9})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path),
                    "--quiet"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,state,x_1,x_2,y"
        assert len(lines) == 33

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "n": 32, "seed": 9})
        run(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
        run(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
             "--seed", "10", "--quiet"])
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert a != b


class TestBound:
    def test_report_round_trips(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "class": {"kind": "linear", "dim": 2},
                      "n": 512, "delta": 0.05})
        assert run(["bound", "--config", cfg, "--out", str(tmp_path),
                    "--quiet"]) == 0
        payload = json.loads((tmp_path / "bound_report.json").read_text())
        for key in ("r_star", "n_quad", "n_mult", "k_mix", "risk_bound"):
            assert key in payload
        terms = (tmp_path / "bound_terms.csv").read_text().strip().split("\n")
        assert terms[0] == "term,value"
        total = float(dict(t.split(",") for t in terms[1:])["total"])
        parts = [float(v) for k, v in (t.split(",") for t in terms[1:])
                 if k != "total"]
        assert abs(total - sum(parts)) < 1e-12


    def _two_state(self, tmp_path, transition, n):
        model = {"transition": transition, "embedding": [[-1.0], [1.0]],
                 "mode": "linear", "true_param": [1.0],
                 "noise": {"kind": "martingale-difference",
                           "values": [[-0.5, 0.5]] * 2, "probs": [[0.5, 0.5]] * 2}}
        return _write(tmp_path, "cfg.json",
                      {"model": model, "class": {"kind": "linear", "dim": 1},
                       "n": n, "delta": 0.05})

    def test_slow_chain_k_mix_past_4096(self, tmp_path):
        cfg = self._two_state(tmp_path, [[0.9995, 0.0005], [0.0005, 0.9995]], 2 ** 21)
        assert run(["bound", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "bound_report.json").read_text())
        assert payload["k_mix"] == 7883

    def test_fast_chain_at_n_1e18(self, tmp_path):
        # beta from powers of the centered kernel stays 0 at every large lag,
        # so k_mix exists far past the 4e16 where powers of P used to stall
        cfg = json.loads((DEMO_CONFIGS / "realizable_regression_bound.json").read_text())
        path = _write(tmp_path, "cfg.json", dict(cfg, n=10 ** 18))
        assert run(["bound", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "bound_report.json").read_text())
        assert isinstance(payload["k_mix"], int) and 1 <= payload["k_mix"] < 10 ** 4

    def test_periodic_chain_does_not_mix(self, tmp_path, capsys):
        cfg = self._two_state(tmp_path, [[0.0, 1.0], [1.0, 0.0]], 1024)
        assert run(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "does not mix" in capsys.readouterr().err

    def test_zero_n_is_named(self, tmp_path, capsys):
        cfg = self._two_state(tmp_path, [[0.75, 0.25], [0.25, 0.75]], 0)
        assert run(["bound", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "config error: 'n' must be >= 1, got 0" in capsys.readouterr().err

    def test_zero_delta_is_named(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "class": {"kind": "linear", "dim": 2},
                      "n": 64, "delta": 0})
        assert run(["bound", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert ("config error: 'delta' must lie in (0, 1), got 0.0"
                in capsys.readouterr().err)


class TestCertify:
    def test_certificate_json(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "class": {"kind": "linear", "dim": 2},
                      "p": 2.0, "directions": 500})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path),
                    "--quiet"]) == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["L"] >= 1.0 and payload["eta"] == 1.0

    @pytest.mark.parametrize("method", ["finite-exact", "linear-exact"])
    @pytest.mark.parametrize("cls", [{"kind": "linear", "dim": 2},
                                     {"kind": "finite", "tables": [[0.5, 0.5, -0.5, 0.5]]}],
                             ids=["linear", "finite"])
    def test_exact_method_names_are_config_errors(self, tmp_path, capsys, method, cls):
        # the exact method follows from the class kind; naming one could pick
        # the other kind's, which certified a finite class's linear span
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(), "class": cls,
                                            "method": method})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert (f"config error: 'method' must be one of ['auto', 'sampled-fit'], got "
                f"{method!r}" in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_finite_class_is_finite_exact(self, tmp_path):
        tables = [[0.5, 0.5, -0.5, 0.5], [1.0, -1.0, 0.5, -0.5], [0.25, 0.0, -0.75, 1.0]]
        cfg = _write(tmp_path, "cfg.json", {"model": _model_dict(),
                                            "class": {"kind": "finite", "tables": tables}})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["method"] == "finite-exact" and payload["n_witness"] == 3

    @pytest.mark.parametrize("directions", [10, 100])
    def test_sampled_fit_uses_the_directions_given(self, tmp_path, directions):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "class": {"kind": "linear", "dim": 2},
                      "method": "sampled-fit", "directions": directions})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["method"] == "sampled-fit" and payload["n_witness"] == directions

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json",
                     {"model": _model_dict(), "class": {"kind": "linear", "dim": 2},
                      "method": "exact"})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'method'" in err and "'exact'" in err


class TestSweepCommand:
    def _cfg(self, tmp_path, seed=7):
        return _write(tmp_path, "sweep.json", {
            "levels": [{"label": "iid", "model": _model_dict(flip=0.5)}],
            "class": {"kind": "linear", "dim": 2},
            "n_grid": [64, 128, 256], "replicates": 6, "seed": seed,
            "plot": True,
        })

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run(["sweep", "--config", cfg, "--out", str(tmp_path / "r1"), "--quiet"])
        run(["sweep", "--config", cfg, "--out", str(tmp_path / "r2"), "--quiet"])
        a = (tmp_path / "r1" / "sweep.csv").read_bytes()
        b = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert a == b
        assert (tmp_path / "r1" / "sweep.svg").exists()
        assert (tmp_path / "r1" / "summary.json").exists()

    def test_csv_header_and_value_format(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run(["sweep", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        lines = (tmp_path / "r" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ("nGrid,mixingLevel,replicate,excessRisk,k,nQuad,"
                            "nMult,kMix,rStar,riskBound")
        row = lines[1].split(",")
        assert len(row) == 10
        float(row[3]), float(row[8]), float(row[9])   # plain parseable floats
        assert "np." not in lines[1]

    @pytest.mark.parametrize("rule", [True, False, None, 0, -2, "8", 2.5], ids=repr)
    def test_bad_block_rule_is_config_error(self, tmp_path, capsys, rule):
        payload = json.loads(Path(self._cfg(tmp_path)).read_text())
        cfg = _write(tmp_path, "bad.json", dict(payload, block_rule=rule))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "block_rule" in err
        assert not (tmp_path / "r").exists()

    def test_plot_leaves_out_zero_medians(self, tmp_path):
        # the truth is in the class and the noise is small, so ERM always
        # picks it: every median is 0, and log10(0) has no place on the plot
        truth = [1.0, -1.0]
        model = {"transition": [[0.75, 0.25], [0.25, 0.75]], "mode": "tabular",
                 "true_table": truth,
                 "noise": {"kind": "martingale-difference",
                           "values": [[-0.1, 0.1]] * 2, "probs": [[0.5, 0.5]] * 2}}
        cfg = _write(tmp_path, "sweep.json", {
            "levels": [{"label": "exact", "model": model}],
            "class": {"kind": "finite", "tables": [[-1.0, 1.0], truth]},
            "n_grid": [64, 128, 256], "replicates": 4, "seed": 1, "plot": True})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--quiet"]) == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["levels"][0]["medians"] == [0.0, 0.0, 0.0]
        svg = (tmp_path / "r" / "sweep.svg").read_text()
        assert "nan" not in svg and "<polyline" not in svg


class TestCoverageCommand:
    def test_blocked_bernstein(self, tmp_path):
        cfg = _write(tmp_path, "cov.json", {
            "kind": "blockedBernstein",
            "model": {"transition": [[0.75, 0.25], [0.25, 0.75]]},
            "values": [-1.0, 1.0], "n": 128, "k": 4, "delta": 0.1,
            "replicates": 400, "seed": 3,
        })
        assert run(["coverage", "--config", cfg, "--out", str(tmp_path),
                    "--quiet"]) == 0
        payload = json.loads((tmp_path / "coverage.json").read_text())
        assert payload["frequency"] <= payload["threshold"]
        lines = (tmp_path / "coverage.csv").read_text().strip().split("\n")
        assert lines[0] == "trial,blockedMean,bound,exceeded"

    def test_unknown_kind_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cov.json", {"kind": "hoeffding"})
        assert run(["coverage", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'hoeffding'" in err


class TestDiagnoseCommand:
    def test_writes_report(self, tmp_path):
        table = [0.5, -0.25, 1.0, 0.0]
        model = {
            "transition": [[0.4, 0.3, 0.2, 0.1]] * 4,
            "mode": "tabular", "true_table": table,
            "noise": {"kind": "martingale-difference",
                      "values": [[-0.5, 0.5]] * 4, "probs": [[0.5, 0.5]] * 4},
        }
        rng = np.random.default_rng(0)
        tables = [table] + (np.asarray(table) + rng.normal(size=(5, 4))).tolist()
        cfg = _write(tmp_path, "diag.json",
                     {"model": model, "class": {"kind": "finite", "tables": tables},
                      "n": 512, "replicates": 24, "epsilon": 0.5, "delta": 0.05,
                      "seed": 2})
        assert run(["diagnose", "--config", cfg, "--out", str(tmp_path),
                    "--quiet"]) == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert 0 <= payload["q_positive_fraction"] <= 1
        assert payload["r_star"] > 0

    def test_zero_multiplier_bound_exits_two(self, tmp_path, capsys, monkeypatch):
        # noiseless data make the multiplier bound 0, which no constant scales
        # to cover a process; it is known before any sampling
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the multiplier bound was checked")
        monkeypatch.setattr(mf.processgen, "_sample_paths", refuse)
        model = {"transition": [[0.7, 0.3], [0.3, 0.7]], "mode": "tabular",
                 "true_table": [0.1, 0.7],
                 "noise": {"kind": "bounded-iid", "values": [[0.0], [0.0]],
                           "probs": [[1.0], [1.0]], "bound": 0}}
        tables = [[0.1, 0.7], [0.3, 0.2], [0.0, 1.0]]
        cfg = _write(tmp_path, "diag.json",
                     {"model": model, "class": {"kind": "finite", "tables": tables},
                      "n": 256, "replicates": 10, "epsilon": 0.5, "delta": 0.05,
                      "seed": 0})
        assert run(["diagnose", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "numeric failure: the multiplier bound is 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


GOLDEN = Path(__file__).resolve().parent / "golden" / "artifacts"
# case directory -> command; each directory holds config.json and the JSON
# artifacts that command writes from it, byte for byte
GOLDEN_COMMANDS = {
    "bound-q1": "bound", "bound-q2": "bound", "certify-linear": "certify",
    "certify-finite": "certify", "coverage-blocked": "coverage",
    "coverage-risk": "coverage", "diagnose": "diagnose", "sweep": "sweep",
}


class TestArtifactBytes:
    """Every JSON artifact, byte for byte: bound reports at q = 1 (p and
    q_prime read "inf") and q = 2, linear and finite certificates, both
    coverage kinds, diagnostics and a sweep summary over three n."""

    def test_cases_cover_every_json_command(self):
        assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_COMMANDS)
        assert set(GOLDEN_COMMANDS.values()) == set(cli.COMMANDS) - {"simulate"}

    @pytest.mark.parametrize("case", sorted(GOLDEN_COMMANDS))
    def test_bytes_match_golden(self, tmp_path, case):
        config = GOLDEN / case / "config.json"
        assert run([GOLDEN_COMMANDS[case], "--config", str(config),
                    "--out", str(tmp_path), "--quiet"]) == 0
        golden = sorted(p.name for p in (GOLDEN / case).glob("*.json") if p != config)
        assert golden == sorted(p.name for p in tmp_path.glob("*.json"))
        for name in golden:
            assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


DEMO_COMMANDS = {
    "simulate_trajectory": "simulate", "realizable_regression_bound": "bound",
    "linear_certificate": "certify", "mixing_free_sweep": "sweep",
    "blocked_bernstein_coverage": "coverage", "risk_bound_coverage": "coverage",
    "quadratic_diagnostics": "diagnose",
}
MUTANTS = [None, True, "x", -1, 0, 0.5, float("nan"), float("inf"), [], {}]
# keys whose value is neither a number nor an array of numbers
NOT_NUMERIC = {"model", "class", "levels", "kind", "mode", "noise", "plot"}
# keys where null reads as the default, besides the other mode's truth key
NULL_DEFAULTS = {"p", "k", "kwise", "bound", "embedding"}
OTHER_TRUTH = {"linear": "true_table", "tabular": "true_param"}


def _demo(config):
    """A demo config and the path of its model (the first level's, in a sweep)."""
    cfg = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
    return cfg, ("levels", 0, "model") if "levels" in cfg else ("model",)


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _key_paths(config):
    """Every top-level key, model key and noise key of a demo config."""
    cfg, model = _demo(config)
    paths = [(key,) for key in cfg] + [model + (key,) for key in _get(cfg, model)]
    if "noise" in _get(cfg, model):
        paths += [model + ("noise", key) for key in _get(cfg, model + ("noise",))]
    return paths


class _Sampled(Exception):
    """Raised in place of sampling: the config was read and accepted."""


class TestMutatedDemoConfigs:
    """A demo config with one key replaced by a value of another kind runs, or
    fails with exit 1 naming that key, or with exit 2; it never raises."""

    CASES = [(config, path) for config in DEMO_COMMANDS for path in _key_paths(config)]

    def test_cases_cover_every_command(self):
        assert {DEMO_COMMANDS[config] for config, _ in self.CASES} == set(cli.COMMANDS)
        assert len(self.CASES) > 80

    @settings(max_examples=500, deadline=None)
    @given(case=st.sampled_from(CASES), bad=st.sampled_from(MUTANTS))
    def test_one_key_replaced(self, case, bad):
        config, path = case
        cfg, model = _demo(config)
        mode = _get(cfg, model).get("mode")
        _get(cfg, path[:-1])[path[-1]] = bad

        def sampled(*args, **kwargs):
            raise _Sampled
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
                mock.patch.object(mf.processgen, "_sample_paths", sampled):
            cfg_path = _write(Path(out), "cfg.json", cfg)
            try:
                code = run([DEMO_COMMANDS[config], "--config", cfg_path,
                            "--out", os.path.join(out, "r"), "--quiet"])
            except _Sampled:
                code = 0
        key = path[-1]
        assert code in (0, 1, 2)
        if code == 1:
            assert re.search(rf"\b{key}\b", err.getvalue()), err.getvalue()
        if code == 0:
            assert not (key not in NOT_NUMERIC and (
                bad is True or isinstance(bad, str)
                or isinstance(bad, float) and not np.isfinite(bad)))
            assert bad is not None or key in NULL_DEFAULTS | {OTHER_TRUTH.get(mode)}
