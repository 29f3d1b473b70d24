"""Harness tests: cell determinism, rate fits, coverage, diagnostics, sweeps."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import mixfree as mf
from mixfree.harness import _excess_batch, _level_context

GOLDEN = Path(__file__).parent / "golden"


def _product_problem(copies=5, flip=0.5, sigma=0.5, beta=None):
    base = mf.two_state_chain(flip, flip)
    chain = mf.product_chain(base, copies)
    emb = mf.product_embedding([-1.0, 1.0], copies)
    if beta is None:
        beta = np.array([1.0, -0.5, 0.25, 0.75, -1.0])[:copies]
    return mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                noise=mf.NoiseSpec.symmetric(sigma, chain.n_states),
                                true_param=beta)


def _small_config(**overrides):
    problem = _product_problem(copies=2)
    defaults = dict(problems=(problem,), labels=("lam0",),
                    hypothesis=mf.HypothesisClass.linear(2),
                    n_grid=(64, 128, 256, 512), replicates=24, master_seed=11)
    defaults.update(overrides)
    return mf.SweepConfig(**defaults)


class TestRunCell:
    def test_deterministic(self):
        cfg = _small_config()
        a = mf.run_cell(cfg, 128, 0, 3)
        b = mf.run_cell(cfg, 128, 0, 3)
        assert a == b

    def test_noiseless_interpolation(self):
        problem = _product_problem(copies=2, sigma=0.0)
        noiseless = mf.RegressionProblem(chain=problem.chain,
                                         embedding=problem.embedding,
                                         mode="linear",
                                         noise=mf.NoiseSpec.zero(4),
                                         true_param=problem.true_param)
        cfg = _small_config(problems=(noiseless,))
        for rep in range(5):
            assert mf.run_cell(cfg, 64, 0, rep) <= 1e-18

    def test_matches_trajectory_fit(self):
        cfg = _small_config()
        val = mf.run_cell(cfg, 256, 0, 7)
        seed = mf.cell_seed(cfg.master_seed, 0, 256, 7)
        traj = mf.sample_trajectory(cfg.problems[0], 256, seed)
        fit = mf.fit_erm_linear(traj, cfg.problems[0])
        assert abs(val - fit.excess_l2_squared) < 1e-9

    def test_golden_reference(self):
        payload = json.loads((GOLDEN / "run_cell_median.json").read_text())
        problem = _product_problem(copies=5, flip=0.5, sigma=payload["noise_sigma"])
        # the golden run used the iid product chain
        problem = mf.RegressionProblem(
            chain=mf.product_chain(mf.iid_chain([0.5, 0.5]), 5),
            embedding=problem.embedding, mode="linear", noise=problem.noise,
            true_param=problem.true_param)
        cls = mf.HypothesisClass.linear(5)
        ctx = _level_context(problem, cls)
        seeds = [mf.cell_seed(payload["master_seed"], 0, payload["n"], r)
                 for r in range(payload["replicates"])]
        exc = _excess_batch(ctx, cls, payload["n"], seeds)
        median = float(np.median(exc))
        assert abs(median - payload["median_excess"]) < 1e-15
        ref = payload["noise_sigma"] ** 2 * payload["d"] / payload["n"]
        assert ref / 4 <= median <= 4 * ref


class TestFitRate:
    def test_exact_inverse_law(self):
        n = np.array([100, 200, 400, 800])
        fit = mf.fit_rate(n, 3.7 / n)
        assert abs(fit.exponent + 1.0) < 1e-9
        assert abs(fit.log_constant - math.log(3.7)) < 1e-9
        assert fit.r_squared > 1 - 1e-12

    def test_exact_root_law(self):
        n = np.array([64, 256, 1024])
        fit = mf.fit_rate(n, 2.0 / np.sqrt(n))
        assert abs(fit.exponent + 0.5) < 1e-9

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3 grid points"):
            mf.fit_rate([10, 20], [1.0, 0.5])

    def test_positive_medians_required(self):
        with pytest.raises(ValueError, match="positive"):
            mf.fit_rate([10, 20, 40], [1.0, 0.0, 0.1])


class TestSweep:
    def test_csv_deterministic(self, tmp_path):
        cfg = _small_config(n_grid=(64, 128, 256), replicates=8)
        a = mf.run_sweep(cfg)
        b = mf.run_sweep(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        mf.sweep_to_csv(a, pa)
        mf.sweep_to_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_medians_monotone_with_one_inversion_allowed(self):
        cfg = _small_config(n_grid=(64, 128, 256, 512, 1024), replicates=32)
        result = mf.run_sweep(cfg)
        meds = result.medians(0)
        inversions = int(np.sum(np.diff(meds) > 0))
        assert inversions <= 1

    def test_summary_fields(self):
        cfg = _small_config(n_grid=(64, 128, 256), replicates=8)
        summary = mf.sweep_summary(mf.run_sweep(cfg))
        assert summary["labels"] == ["lam0"]
        assert "exponent" in summary["levels"][0]

    def test_fixed_block_rule_divisibility(self):
        with pytest.raises(ValueError, match="divide n/2"):
            _small_config(block_rule=24)

    def test_fixed_block_rule_sets_k(self, tmp_path):
        result = mf.run_sweep(_small_config(n_grid=(64, 128), replicates=3,
                                            block_rule=8))
        assert {report.k for report in result.reports.values()} == {8}
        path = tmp_path / "sweep.csv"
        mf.sweep_to_csv(result, path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")]
        assert rows[0][4] == "k" and len(rows) == 1 + 2 * 3
        assert all(row[4] == "8" for row in rows[1:])

    def test_worker_env_cap(self, monkeypatch):
        monkeypatch.setenv("MIXFREE_THREADS", "2")
        assert mf.harness.worker_count() == 2
        monkeypatch.setenv("MIXFREE_THREADS", "zebra")
        with pytest.raises(ValueError, match="MIXFREE_THREADS"):
            mf.harness.worker_count()


class TestMixingFreeCheck:
    def test_identical_levels_ratio_near_one(self):
        problem = _product_problem(copies=2, flip=0.5)
        cfg = mf.SweepConfig(problems=(problem, problem), labels=("a", "b"),
                             hypothesis=mf.HypothesisClass.linear(2),
                             n_grid=(256, 512, 1024, 2048), replicates=48,
                             master_seed=5)
        report = mf.mixing_free_check(mf.run_sweep(cfg))
        assert report.naive_block_ratio == 1.0
        assert 0.5 <= report.constant_ratio <= 2.0

    def test_naive_ratio_is_block_length_ratio(self):
        fast = _product_problem(copies=2, flip=0.5)       # iid coordinates
        slow = _product_problem(copies=2, flip=0.25)      # |1-p-q| = 0.5
        cfg = mf.SweepConfig(problems=(fast, slow), labels=("iid", "dep"),
                             hypothesis=mf.HypothesisClass.linear(2),
                             n_grid=(8192, 16384, 32768), replicates=24,
                             master_seed=6)
        result = mf.run_sweep(cfg)
        report = mf.mixing_free_check(result)
        n_top = max(cfg.n_grid)
        expected = (result.reports[(1, n_top)].k_mix
                    / result.reports[(0, n_top)].k_mix)
        assert report.naive_block_ratio == expected
        assert report.k_mix[0] == 1

    def test_error_when_grid_too_small(self):
        problem = _product_problem(copies=2, flip=0.05)   # slow chain
        cfg = mf.SweepConfig(problems=(problem,), labels=("slow",),
                             hypothesis=mf.HypothesisClass.linear(2),
                             n_grid=(64, 128, 256), replicates=4, master_seed=7)
        with pytest.raises(ValueError, match="extend the n grid"):
            mf.mixing_free_check(mf.run_sweep(cfg))


class TestCoverage:
    def test_infinite_headroom_never_exceeds(self):
        model = mf.two_state_chain(0.25, 0.25)
        report = mf.harness.blocked_bernstein_coverage(
            model, np.array([-1e-9, 1e-9]), n=64, k=4, delta=0.05,
            replicates=200, master_seed=3)
        # bound for b = 1e-9-bounded data dwarfs any realized mean
        assert report.frequency == 0.0

    def test_loose_delta_regime(self):
        model = mf.two_state_chain(0.3, 0.3)
        report = mf.harness.blocked_bernstein_coverage(
            model, np.array([-1.0, 1.0]), n=256, k=4, delta=0.5,
            replicates=2000, master_seed=9)
        assert report.frequency <= 0.5 + 3 * report.std_error

    def test_centered_functional_required(self):
        model = mf.two_state_chain(0.3, 0.3)
        with pytest.raises(ValueError, match="centered"):
            mf.harness.blocked_bernstein_coverage(model, np.array([0.0, 1.0]),
                                                  n=64, k=4, delta=0.1,
                                                  replicates=10, master_seed=0)

    def test_csv_schema(self, tmp_path):
        model = mf.two_state_chain(0.25, 0.25)
        report = mf.harness.blocked_bernstein_coverage(
            model, np.array([-1.0, 1.0]), n=64, k=4, delta=0.1,
            replicates=50, master_seed=1)
        path = tmp_path / "coverage.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "trial,blockedMean,bound,exceeded"
        assert len(lines) == 51
        row = lines[1].split(",")
        float(row[1]), float(row[2])                 # plain parseable floats
        assert row[3] in ("0", "1") and "np." not in lines[1]

    def test_risk_bound_coverage_quick(self):
        problem = _product_problem(copies=2)
        report = mf.harness.risk_bound_coverage(
            problem, mf.HypothesisClass.linear(2), n=512, delta=0.0125,
            cal_replicates=200, val_replicates=400, master_seed=21)
        assert report.c2 > 0
        assert report.frequency <= report.threshold + 0.05  # quick, noisy version


class TestDiagnostics:
    def _tabular_setup(self):
        chain = mf.iid_chain([0.4, 0.3, 0.2, 0.1])
        true_table = np.array([0.5, -0.25, 1.0, 0.0])
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(4),
                                       mode="tabular",
                                       noise=mf.NoiseSpec.symmetric(0.5, 4),
                                       true_table=true_table)
        rng = np.random.default_rng(12)
        tables = np.vstack([true_table,
                            true_table + 0.6 * rng.normal(size=(7, 4))])
        return problem, mf.HypothesisClass.finite(tables)

    def test_quadratic_sign_fraction_small(self):
        problem, cls = self._tabular_setup()
        report = mf.process_diagnostics(problem, cls, n=2048, replicates=60,
                                        epsilon=0.5, delta=0.05, master_seed=13)
        assert report.members_outside > 0
        assert report.q_positive_fraction <= 0.05
        assert report.multiplier_coverage >= 1 - 0.05 - 0.1

    def test_sphere_excludes_zero_function(self):
        problem, cls = self._tabular_setup()
        pop = mf.population_quantities(problem, cls)
        sphere = mf.sphere_tables(cls, pop.f_star_table, problem, radius=0.05)
        norms = np.sqrt((sphere ** 2) @ problem.chain.stationary)
        assert np.all(norms > 0)

    def test_requires_finite_class(self):
        problem = _product_problem(copies=2)
        with pytest.raises(ValueError, match="finite class"):
            mf.process_diagnostics(problem, mf.HypothesisClass.linear(2), n=64,
                                   replicates=4, epsilon=0.5, delta=0.1,
                                   master_seed=1)
