"""Command-line interface tests: exit codes, strict configs, artifact schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixfree as mf
from mixfree.cli import run


def _model_dict(copies=2, flip=0.25, sigma=0.5):
    base = mf.two_state_chain(flip, flip)
    chain = mf.product_chain(base, copies)
    problem = mf.RegressionProblem(
        chain=chain, embedding=mf.product_embedding([-1.0, 1.0], copies),
        mode="linear", noise=mf.NoiseSpec.symmetric(sigma, chain.n_states),
        true_param=np.array([1.0, -0.5])[:copies])
    return mf.processgen.problem_to_dict(problem)


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


class TestConfigErrors:
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
        }

    @pytest.mark.parametrize("delta", [0, 1, -0.5, 1.5, "nan"])
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
        ("diagnose", "replicates", 0, 2), ("diagnose", "replicates", 1, 2)])
    def test_replicate_count_is_config_error(self, tmp_path, capsys, name, key, value,
                                             least):
        cfg = _write(tmp_path, "cfg.json", dict(self._configs()[name], **{key: value}))
        command = "coverage" if name == "blocked" else name
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert f"config error: '{key}' must be >= {least}, got {value}" in err
        assert not (tmp_path / "r").exists()

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
        traj = mf.sample_trajectory(mf.processgen.problem_from_dict(_model_dict()), 32, seed)
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert [int(line.split(",")[1]) for line in lines[1:]] == traj.states.tolist()


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
