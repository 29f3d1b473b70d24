"""Harness tests: cell determinism, rate fits, coverage, diagnostics, sweeps."""

import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mixfree as mf
from oracles import fit_erm_linear, param_excess

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


def _cell_excess(cfg, n, replicate):
    """Exact excess risk of one replicate of a sweep cell at level 0."""
    problem = cfg.problems[0]
    seed = mf.cell_seed(cfg.master_seed, 0, n, replicate)
    return mf.excess_risks(problem, cfg.hypothesis,
                           *mf.stream_state_stats(problem, n, [seed]))[0]


class TestRunCell:
    def test_deterministic(self):
        cfg = _small_config()
        a = _cell_excess(cfg, 128, 3)
        b = _cell_excess(cfg, 128, 3)
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
            assert _cell_excess(cfg, 64, rep) <= 1e-18

    def test_matches_trajectory_fit(self):
        cfg = _small_config()
        val = _cell_excess(cfg, 256, 7)
        seed = mf.cell_seed(cfg.master_seed, 0, 256, 7)
        traj = mf.sample_trajectory(cfg.problems[0], 256, seed)
        beta = fit_erm_linear(traj)
        assert abs(val - param_excess(beta, cfg.problems[0])) < 1e-9

    def test_golden_reference(self):
        payload = json.loads((GOLDEN / "run_cell_median.json").read_text())
        problem = _product_problem(copies=5, flip=0.5, sigma=payload["noise_sigma"])
        # the golden run used the iid product chain
        problem = mf.RegressionProblem(
            chain=mf.product_chain(mf.iid_chain([0.5, 0.5]), 5),
            embedding=problem.embedding, mode="linear", noise=problem.noise,
            true_param=problem.true_param)
        cls = mf.HypothesisClass.linear(5)
        seeds = [mf.cell_seed(payload["master_seed"], 0, payload["n"], r)
                 for r in range(payload["replicates"])]
        exc = mf.excess_risks(problem, cls,
                              *mf.stream_state_stats(problem, payload["n"], seeds))
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

    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path):
        # each sampler call owns its Generator, so threads share no stream
        # state; many short streams per cell keep two cells drawing at once
        cfg = _small_config(problems=(_product_problem(copies=2),
                                      _product_problem(copies=2, flip=0.1)),
                            labels=("iid", "dep"), n_grid=(512, 1024, 2048, 4096),
                            replicates=128)
        paths = []
        for workers in (1, 2):
            paths.append(tmp_path / f"w{workers}.csv")
            mf.sweep_to_csv(mf.run_sweep(cfg, max_workers=workers), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, float("nan")])
    def test_delta_checked_before_sampling(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            _small_config(delta=delta)

    def test_empty_n_grid_is_named(self):
        with pytest.raises(ValueError, match="n_grid must hold at least one"):
            _small_config(n_grid=())

    def test_repeated_n_grid_entry_is_named(self):
        # a repeated n would sample its cells twice with the same seeds and
        # count them twice in the rate fit
        with pytest.raises(ValueError, match=r"n_grid entries must be distinct, "
                                             r"repeated: \[64, 256\]"):
            _small_config(n_grid=(256, 64, 128, 64, 256))

    def test_every_level_must_fit_the_class(self):
        # the second level has 8 states and a 3-wide embedding
        wide = _product_problem(copies=3)
        with pytest.raises(ValueError, match="linear class dim = 2, embedding width 3"):
            _small_config(problems=(_product_problem(copies=2), wide),
                          labels=("a", "b"))
        with pytest.raises(ValueError, match="tables hold 4 values, the model has 8 states"):
            _small_config(problems=(wide,),
                          hypothesis=mf.HypothesisClass.finite(np.eye(4)))

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
        for bad in ("zebra", "0", "-3"):
            monkeypatch.setenv("MIXFREE_THREADS", bad)
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

    def test_blocked_bernstein_reads_counts_only(self, monkeypatch):
        # the blocked means need visit counts alone: with the targets table
        # gone and weighted bincounts refused, the one-block walk (200
        # replicates) and the blocked walk (8) give stream_state_stats's counts
        model, values, n, k = mf.two_state_chain(0.25, 0.25), np.array([-1.0, 1.0]), 256, 8
        problem = mf.harness._functional_problem(model, values)
        expected = {R: mf.stream_state_stats(problem, n, mf.harness._cell_seeds(3, 0, n, range(R)),
                                             k)[0] @ values / n
                    for R in (200, 8)}

        class NoTargets(mf.processgen._Tables):
            def __init__(self, problem):
                super().__init__(problem)
                del self.ytab

        bincount = np.bincount

        def unweighted(x, weights=None, minlength=0):
            assert weights is None, "summed targets"
            return bincount(x, minlength=minlength)

        monkeypatch.setattr(mf.processgen, "_Tables", NoTargets)
        monkeypatch.setattr(np, "bincount", unweighted)
        for R, means in expected.items():
            report = mf.harness.blocked_bernstein_coverage(model, values, n, k, 0.1, R, 3)
            assert np.array_equal(report.realized, means)

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


_BAD_ARGUMENTS = {
    "risk-bound-delta": ("delta", lambda: mf.harness.risk_bound_coverage(
        _product_problem(copies=2), mf.HypothesisClass.linear(2), n=64, delta=0.3,
        cal_replicates=20, val_replicates=20, master_seed=1)),
    "risk-bound-replicates": ("val_replicates", lambda: mf.harness.risk_bound_coverage(
        _product_problem(copies=2), mf.HypothesisClass.linear(2), n=64, delta=0.05,
        cal_replicates=20, val_replicates=0, master_seed=1)),
    "diagnostics-replicates": ("replicates", lambda: mf.process_diagnostics(
        _product_problem(copies=2), mf.HypothesisClass.finite(np.eye(4)), n=64,
        replicates=1, epsilon=0.5, delta=0.1, master_seed=1)),
    "blocked-bernstein-replicates": ("replicates", lambda: (
        mf.harness.blocked_bernstein_coverage(
            mf.two_state_chain(0.25, 0.25), np.array([-1.0, 1.0]), n=64, k=4,
            delta=0.1, replicates=0, master_seed=1))),
}


@pytest.mark.parametrize("case", list(_BAD_ARGUMENTS))
def test_bad_argument_is_named_before_any_work(case):
    """Arguments the CLI checks are checked by the library calls too: each
    raises a ValueError that names the argument before anything is sampled
    or bounded."""
    name, call = _BAD_ARGUMENTS[case]
    with mock.patch.object(mf.harness, "compute_bound_report") as report, \
            mock.patch.object(mf.harness, "stream_state_stats") as sample, \
            mock.patch.object(mf.harness, "_state_sums") as count:
        with pytest.raises(ValueError, match=name):
            call()
    report.assert_not_called()
    sample.assert_not_called()
    count.assert_not_called()


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
        sphere = mf.sphere_tables(cls, pop.f_star_table, problem)
        norms = np.sqrt((sphere ** 2) @ problem.chain.stationary)
        assert len(sphere) == len(cls.tables) - 1     # every member but f_star
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    @pytest.mark.parametrize("epsilon", [1.0, 1.5, -0.5])
    def test_epsilon_checked_before_the_bound_report(self, epsilon):
        problem, cls = self._tabular_setup()
        with mock.patch.object(mf.harness, "compute_bound_report") as report:
            with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
                mf.process_diagnostics(problem, cls, n=64, replicates=4,
                                       epsilon=epsilon, delta=0.1, master_seed=1)
        report.assert_not_called()

    @pytest.mark.parametrize("rho_grid", [0, 1])
    def test_star_hull_needs_both_endpoints(self, rho_grid):
        # a one-point grid is only the zero function, so every check passes
        problem, cls = self._tabular_setup()
        with pytest.raises(ValueError, match="rho_grid must be >= 2"):
            mf.process_diagnostics(problem, cls, n=64, replicates=4, epsilon=0.5,
                                   delta=0.1, master_seed=1, rho_grid=rho_grid)

    def test_requires_finite_class(self):
        problem = _product_problem(copies=2)
        with pytest.raises(ValueError, match="finite class"):
            mf.process_diagnostics(problem, mf.HypothesisClass.linear(2), n=64,
                                   replicates=4, epsilon=0.5, delta=0.1,
                                   master_seed=1)
