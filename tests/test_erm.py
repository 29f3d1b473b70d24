"""ERM, population quantities, and empirical-process tests."""

import itertools
import math

import numpy as np
import pytest

import mixfree as mf


def _orthonormal_problem(sigma=0.5, noise_kind="mds"):
    """Two states, uniform law, embedding scaled so E[X X^T] = I."""
    chain = mf.iid_chain([0.5, 0.5])
    emb = math.sqrt(2.0) * np.eye(2)
    noise = mf.NoiseSpec.symmetric(sigma, 2) if noise_kind == "mds" \
        else mf.NoiseSpec.zero(2)
    return mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                noise=noise, true_param=np.array([1.0, -0.5]))


def _tabular_problem(seed=0, n_states=3, sigma=0.4, biased=False):
    rng = np.random.default_rng(seed)
    P = rng.gamma(1.0, 1.0, (n_states, n_states)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    chain = mf.MarkovChainModel.from_transition(P)
    table = rng.normal(size=n_states)
    if biased:
        values = np.column_stack([rng.normal(size=n_states) * 0.3 + 0.2,
                                  rng.normal(size=n_states) * 0.3 - 0.2])
        probs = np.full((n_states, 2), 0.5)
        noise = mf.NoiseSpec("state-dependent-bias", values, probs)
    else:
        noise = mf.NoiseSpec.symmetric(sigma, n_states)
    return mf.RegressionProblem(chain=chain, embedding=np.eye(n_states),
                                mode="tabular", noise=noise, true_table=table)


class TestFitLinear:
    def test_noiseless_recovery(self):
        chain = mf.two_state_chain(0.4, 0.3)
        problem = mf.RegressionProblem(
            chain=chain, embedding=np.array([[1.0, 2.0], [-1.0, 0.5]]),
            mode="linear", noise=mf.NoiseSpec.zero(2),
            true_param=np.array([0.3, -1.1]))
        traj = mf.sample_trajectory(problem, 50, 4)
        fit = mf.fit_erm_linear(traj, problem)
        assert np.max(np.abs(fit.param - problem.true_param)) < 1e-10
        assert fit.excess_l2_squared < 1e-18

    def test_min_norm_single_sample(self):
        traj = mf.Trajectory(1, np.array([0]), np.array([[1.0, 0.0]]),
                             np.array([2.0]), seed=0)
        fit = mf.fit_erm_linear(traj)
        assert np.allclose(fit.param, [2.0, 0.0], atol=1e-12)
        assert fit.tie_broken

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=50)
        traj = mf.Trajectory(50, np.zeros(50, dtype=int), X, y, seed=0)
        fit = mf.fit_erm_linear(traj)
        risk = fit.empirical_risk
        span = np.linspace(-0.5, 0.5, 21)
        for da, db, dc in itertools.product(span, span, span):
            beta = fit.param + np.array([da, db, dc])
            assert risk <= np.mean((X @ beta - y) ** 2) + 1e-12

    def test_gradient_postcondition(self):
        problem = _orthonormal_problem()
        traj = mf.sample_trajectory(problem, 200, 5)
        fit = mf.fit_erm_linear(traj)
        X, y = traj.covariates, traj.targets
        grad = 2.0 / 200 * X.T @ (X @ fit.param - y)
        assert np.linalg.norm(grad) < 1e-9


class TestFitFinite:
    def test_selects_truth_under_zero_noise(self):
        problem = _tabular_problem(seed=3, sigma=0.4)
        noiseless = mf.RegressionProblem(chain=problem.chain,
                                         embedding=problem.embedding,
                                         mode="tabular",
                                         noise=mf.NoiseSpec.zero(3),
                                         true_table=problem.true_table)
        tables = np.vstack([problem.true_table,
                            problem.true_table + 0.5,
                            -problem.true_table])
        cls = mf.HypothesisClass.finite(tables)
        traj = mf.sample_trajectory(noiseless, 60, 7)
        fit = mf.fit_erm_finite(traj, cls, noiseless)
        assert fit.index == 0
        assert fit.excess_l2_squared == 0.0

    def test_tie_breaks_to_lowest_index(self):
        problem = _tabular_problem(seed=1)
        tables = np.vstack([problem.true_table, problem.true_table])
        traj = mf.sample_trajectory(problem, 40, 2)
        fit = mf.fit_erm_finite(traj, mf.HypothesisClass.finite(tables))
        assert fit.index == 0 and fit.tie_broken

    def test_matches_rescan_oracle(self):
        problem = _tabular_problem(seed=9)
        rng = np.random.default_rng(10)
        tables = rng.normal(size=(8, 3))
        cls = mf.HypothesisClass.finite(tables)
        traj = mf.sample_trajectory(problem, 100, 11)
        fit = mf.fit_erm_finite(traj, cls)
        rescan = np.array([np.mean((tables[m][traj.states] - traj.targets) ** 2)
                           for m in range(8)])
        assert fit.index == int(np.argmin(rescan))
        assert abs(fit.empirical_risk - rescan.min()) < 1e-10

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mf.HypothesisClass.finite(np.empty((0, 3)))


class TestPopulationQuantities:
    def test_realizable_linear_param(self):
        problem = _orthonormal_problem()
        pop = mf.population_quantities(problem, mf.HypothesisClass.linear(2))
        assert np.max(np.abs(pop.f_star_param - problem.true_param)) < 1e-12
        assert abs(pop.noise_variance - 0.25) < 1e-14
        assert abs(pop.risk_star - 0.25) < 1e-14

    def test_misspecified_finite_enumeration_oracle(self):
        problem = _tabular_problem(seed=21, biased=True)
        rng = np.random.default_rng(22)
        tables = rng.normal(size=(4, 3))
        cls = mf.HypothesisClass.finite(tables)
        pop = mf.population_quantities(problem, cls)
        # oracle: expand the risk atom by atom over states and noise support
        pi = problem.chain.stationary
        m0 = problem.structural_mean()
        risks = np.zeros(4)
        for mi in range(4):
            for s in range(3):
                for v, pr in zip(problem.noise.values[s], problem.noise.probs[s]):
                    risks[mi] += pi[s] * pr * (tables[mi, s] - m0[s] - v) ** 2
        assert pop.f_star_index == int(np.argmin(risks))
        assert abs(pop.risk_star - risks.min()) < 1e-12

    def test_symmetric_noise_variance(self):
        problem = _tabular_problem(seed=2, sigma=0.9)
        cls = mf.HypothesisClass.finite(problem.true_table[None, :])
        pop = mf.population_quantities(problem, cls)
        assert abs(pop.noise_variance - 0.81) < 1e-12

    def test_singular_second_moment_rejected(self):
        chain = mf.iid_chain([0.5, 0.5])
        problem = mf.RegressionProblem(chain=chain,
                                       embedding=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                       mode="linear", noise=mf.NoiseSpec.zero(2),
                                       true_param=np.zeros(2))
        with pytest.raises(ValueError, match="lambda_min"):
            mf.population_quantities(problem, mf.HypothesisClass.linear(2))


class TestExcessL2:
    def test_zero_at_optimum(self):
        problem = _orthonormal_problem()
        assert mf.excess_l2(problem.true_param, problem.true_param, problem) == 0.0

    def test_identity_second_moment_is_param_distance(self):
        problem = _orthonormal_problem()
        assert np.allclose(problem.second_moment_matrix(), np.eye(2), atol=1e-15)
        beta = np.array([2.0, 1.0])
        expected = float(np.sum((beta - problem.true_param) ** 2))
        assert abs(mf.excess_l2(beta, problem.true_param, problem) - expected) < 1e-12

    def test_tabular_matches_monte_carlo(self):
        problem = _tabular_problem(seed=4)
        rng = np.random.default_rng(5)
        f = rng.normal(size=3)
        exact = mf.excess_l2(f, problem.true_table, problem)
        states, _ = mf.sample_path_batch(problem, 64, range(1600))
        samples = ((f - problem.true_table)[states] ** 2).ravel()[:100_000]
        mc = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(exact - mc) <= 3.5 * se

    def test_invariant_under_state_relabeling(self):
        problem = _tabular_problem(seed=6)
        rng = np.random.default_rng(7)
        f = rng.normal(size=3)
        perm = np.array([2, 0, 1])
        chain_p = mf.MarkovChainModel(problem.chain.transition[perm][:, perm],
                                      problem.chain.stationary[perm])
        problem_p = mf.RegressionProblem(chain=chain_p, embedding=np.eye(3),
                                         mode="tabular", noise=mf.NoiseSpec(
                                             problem.noise.kind,
                                             problem.noise.values[perm],
                                             problem.noise.probs[perm]),
                                         true_table=problem.true_table[perm])
        a = mf.excess_l2(f, problem.true_table, problem)
        b = mf.excess_l2(f[perm], problem.true_table[perm], problem_p)
        assert abs(a - b) < 1e-14


class TestQuadraticProcess:
    def test_zero_at_optimum(self):
        problem = _tabular_problem(seed=8)
        traj = mf.sample_trajectory(problem, 30, 9)
        q = mf.quadratic_process(problem.true_table, problem.true_table, traj,
                                 problem, 0.5)
        assert q == 0.0

    def test_concentrates_at_minus_eps_norm(self):
        problem = _tabular_problem(seed=10)
        f = problem.true_table + np.array([0.5, -0.3, 0.2])
        eps = 0.5
        norm_sq = mf.excess_l2(f, problem.true_table, problem)
        reps, n = 600, 2048
        vals = np.array([mf.quadratic_process(f, problem.true_table,
                                              mf.sample_trajectory(problem, n, 100 + r),
                                              problem, eps) for r in range(reps)])
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() + eps * norm_sq) <= 3 * se

    def test_eps_zero_centered(self):
        problem = _tabular_problem(seed=12)
        f = problem.true_table + np.array([0.4, -0.1, 0.3])
        reps = 600
        vals = np.array([mf.quadratic_process(f, problem.true_table,
                                              mf.sample_trajectory(problem, 512, 300 + r),
                                              problem, 0.0) for r in range(reps)])
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se + 1e-15


class TestMultiplierProcess:
    def test_zero_function(self):
        problem = _tabular_problem(seed=13)
        traj = mf.sample_trajectory(problem, 64, 1)
        assert mf.multiplier_process(np.zeros(3), problem.true_table, traj,
                                     problem, 0.3) == 0.0

    def test_martingale_difference_drops_population_term(self):
        problem = _tabular_problem(seed=14, sigma=0.6)
        g = np.array([1.0, -1.0, 2.0])
        traj = mf.sample_trajectory(problem, 128, 15)
        val = mf.multiplier_process(g, problem.true_table, traj, problem, 0.25)
        w = traj.targets - problem.true_table[traj.states]
        direct = 1.25 * 2.0 * np.mean(w * g[traj.states])
        assert abs(val - direct) < 1e-12

    def test_centered_over_replicates(self):
        problem = _tabular_problem(seed=16, biased=True)
        cls = mf.HypothesisClass.finite(np.vstack([problem.true_table,
                                                   problem.true_table + 1.0]))
        pop = mf.population_quantities(problem, cls)
        g = np.array([0.7, -0.2, 0.4])
        reps = 10_000
        states, targets = mf.sample_path_batch(problem, 64, range(reps))
        w = targets - pop.f_star_table[states]
        emp = np.mean(w * g[states], axis=1)
        bias = problem.regression_mean() - pop.f_star_table
        pop_term = float(problem.chain.stationary @ (bias * g))
        vals = 1.5 * 2.0 * (emp - pop_term)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se


class TestBasicInequality:
    def test_finite_class_exact_maximization(self):
        problem = _tabular_problem(seed=18, sigma=0.5)
        rng = np.random.default_rng(19)
        tables = np.vstack([problem.true_table,
                            problem.true_table + 0.5 * rng.normal(size=(7, 3))])
        cls = mf.HypothesisClass.finite(tables)
        for seed in range(6):
            traj = mf.sample_trajectory(problem, 256, 40 + seed)
            for r in (0.05, 0.2, 0.8):
                lhs, rhs = mf.basic_inequality_sides(traj, problem, cls, r,
                                                     epsilon=0.5)
                assert lhs <= rhs + 0.1 * abs(rhs) + 1e-12

    def test_linear_class_grid(self):
        problem = _orthonormal_problem(sigma=0.4)
        cls = mf.HypothesisClass.linear(2)
        for seed in range(4):
            traj = mf.sample_trajectory(problem, 512, 70 + seed)
            for r in (0.05, 0.3):
                lhs, rhs = mf.basic_inequality_sides(traj, problem, cls, r,
                                                     epsilon=0.5, linear_grid=1000)
                assert lhs <= rhs + 0.1 * abs(rhs) + 1e-12

    def test_erm_never_beats_optimum_in_population(self):
        problem = _tabular_problem(seed=20, sigma=0.7)
        rng = np.random.default_rng(21)
        tables = np.vstack([problem.true_table, rng.normal(size=(5, 3))])
        cls = mf.HypothesisClass.finite(tables)
        for seed in range(10):
            traj = mf.sample_trajectory(problem, 128, 400 + seed)
            fit = mf.fit_erm_finite(traj, cls, problem)
            risks = mf.erm.finite_empirical_risks(tables, traj)
            assert fit.empirical_risk <= risks[0] + 1e-12   # index 0 is f_star


class TestStarHull:
    def test_star_hull_contains_zero_and_rays(self):
        problem = _tabular_problem(seed=23)
        tables = np.vstack([problem.true_table, problem.true_table + 1.0])
        cls = mf.HypothesisClass.finite(tables)
        hull = mf.star_hull_tables(cls, problem.true_table, problem, rho_grid=5)
        assert any(np.allclose(h, 0.0) for h in hull)
        assert any(np.allclose(h, 1.0) for h in hull)

    def test_sphere_tables_have_requested_norm(self):
        problem = _orthonormal_problem()
        cls = mf.HypothesisClass.linear(2)
        sphere = mf.sphere_tables(cls, problem.embedding @ problem.true_param,
                                  problem, radius=0.25, count=64, seed=1)
        norms = np.sqrt((sphere ** 2) @ problem.chain.stationary)
        assert np.max(np.abs(norms - 0.25)) < 1e-12

    def test_finite_sphere_excludes_short_rays(self):
        problem = _tabular_problem(seed=24)
        tables = np.vstack([problem.true_table, problem.true_table + 0.01])
        cls = mf.HypothesisClass.finite(tables)
        sphere = mf.sphere_tables(cls, problem.true_table, problem, radius=1.0)
        assert sphere.shape[0] == 0
