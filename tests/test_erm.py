"""ERM, population quantities, and empirical-process tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mixfree as mf
from oracles import (basic_inequality_sides, fit_erm_linear, linear_excess_risks,
                     multiplier_process_steps, quadratic_process_steps,
                     sphere_at_radius)


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


def _picking(table, weights):
    """Per-state statistics (one row) on which the ERM of any class holding
    `table` is `table` itself: targets equal it at every state, weighted by
    `weights` > 0."""
    counts = np.asarray(weights, dtype=float)[None, :]
    return counts, counts * np.asarray(table, dtype=float)[None, :]


class TestFitLinear:
    def test_noiseless_recovery(self):
        chain = mf.two_state_chain(0.4, 0.3)
        problem = mf.RegressionProblem(
            chain=chain, embedding=np.array([[1.0, 2.0], [-1.0, 0.5]]),
            mode="linear", noise=mf.NoiseSpec.zero(2),
            true_param=np.array([0.3, -1.1]))
        excess = mf.excess_risks(problem, mf.HypothesisClass.linear(2),
                                 *mf.stream_state_stats(problem, 50, [4]))
        assert excess[0] < 1e-18
        beta = fit_erm_linear(mf.sample_trajectory(problem, 50, 4))
        assert np.max(np.abs(beta - problem.true_param)) < 1e-10

    def test_min_norm_single_sample(self):
        # one visit to state 0 of the orthonormal problem, x = (sqrt 2, 0),
        # y = 2 sqrt 2: every (2, b) fits, the min-norm fit is (2, 0), and its
        # excess over beta_star = (1, -0.5) under E[X X^T] = I is 1 + 0.25
        problem = _orthonormal_problem()
        excess = mf.excess_risks(problem, mf.HypothesisClass.linear(2),
                                 np.array([[1.0, 0.0]]),
                                 np.array([[2.0 * math.sqrt(2.0), 0.0]]))
        assert abs(excess[0] - 1.25) < 1e-12

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=50)
        traj = mf.Trajectory(50, np.zeros(50, dtype=int), X, y, seed=0)
        beta = fit_erm_linear(traj)
        risk = np.mean((X @ beta - y) ** 2)
        span = np.linspace(-0.5, 0.5, 21)
        for da, db, dc in itertools.product(span, span, span):
            other = beta + np.array([da, db, dc])
            assert risk <= np.mean((X @ other - y) ** 2) + 1e-12

    def test_gradient_postcondition(self):
        problem = _orthonormal_problem()
        traj = mf.sample_trajectory(problem, 200, 5)
        beta = fit_erm_linear(traj)
        X, y = traj.covariates, traj.targets
        grad = 2.0 / 200 * X.T @ (X @ beta - y)
        assert np.linalg.norm(grad) < 1e-9


class TestStackedLinearExcess:
    """The linear branch of `excess_risks` solves every replicate in one
    stacked call; it must give the loop oracle's bits."""

    @settings(max_examples=300, deadline=None)
    @given(S=st.integers(1, 8), d=st.integers(1, 5), R=st.integers(0, 40),
           deficient=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_replicate_loop(self, S, d, R, deficient, seed):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(S, d))
        if deficient and d > 1:   # a repeated or a zero column
            emb[:, -1] = 2.0 * emb[:, 0] if rng.random() < 0.5 else 0.0
        pi = rng.gamma(1.0, 1.0, S) + 0.05
        problem = mf.RegressionProblem(chain=mf.iid_chain(pi / pi.sum()), embedding=emb,
                                       mode="linear", noise=mf.NoiseSpec.zero(S),
                                       true_param=rng.normal(size=d))
        # about a third of the (replicate, state) cells are never visited
        counts = rng.integers(0, 30, (R, S)) * (rng.random((R, S)) < 0.7)
        ysums = counts * rng.normal(size=(R, S)) + rng.normal(size=(R, S)) * (counts > 0)
        got = mf.excess_risks(problem, mf.HypothesisClass.linear(d),
                              counts.astype(float), ysums)
        want = linear_excess_risks(problem, counts.astype(float), ysums)
        assert got.shape == (R,)
        assert got.tobytes() == want.tobytes()


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
        stats = mf.stream_state_stats(noiseless, 60, [7])
        assert mf.excess_risks(noiseless, cls, *stats)[0] == 0.0

    def test_tie_breaks_to_lowest_index(self):
        # two tables that differ only at a state the path never visits tie on
        # the path; the lowest index wins, whichever of the two comes first
        problem = _tabular_problem(seed=1)
        counts, ysums = mf.stream_state_stats(problem, 2, [2])
        unseen = int(np.flatnonzero(counts[0] == 0)[0])
        other = problem.true_table.copy()
        other[unseen] += 1.0
        truth_first = mf.HypothesisClass.finite(np.vstack([problem.true_table, other]))
        other_first = mf.HypothesisClass.finite(np.vstack([other, problem.true_table]))
        assert mf.excess_risks(problem, truth_first, counts, ysums)[0] == 0.0
        excess = mf.excess_risks(problem, other_first, counts, ysums)[0]
        assert abs(excess - problem.chain.stationary[unseen]) < 1e-12

    def test_matches_rescan_oracle(self):
        problem = _tabular_problem(seed=9)
        rng = np.random.default_rng(10)
        tables = rng.normal(size=(8, 3))
        cls = mf.HypothesisClass.finite(tables)
        stats = mf.stream_state_stats(problem, 100, [11])
        excess = mf.excess_risks(problem, cls, *stats)
        traj = mf.sample_trajectory(problem, 100, 11)
        rescan = np.array([np.mean((tables[m][traj.states] - traj.targets) ** 2)
                           for m in range(8)])
        f_star = mf.population_quantities(problem, cls).f_star_table
        best = tables[int(np.argmin(rescan))]
        expected = ((best - f_star) ** 2) @ problem.chain.stationary
        assert abs(excess[0] - expected) < 1e-12

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
    """The excess risk `excess_risks` reports for a fit is the exact squared
    population L2 distance of the fit from f_star."""

    def test_zero_at_optimum(self):
        problem = _orthonormal_problem()
        truth = problem.embedding @ problem.true_param
        cls = mf.HypothesisClass.finite(np.vstack([truth + 1.0, truth]))
        assert mf.excess_risks(problem, cls, *_picking(truth, [1.0, 1.0]))[0] == 0.0

    def test_identity_second_moment_is_param_distance(self):
        problem = _orthonormal_problem()
        assert np.allclose(problem.second_moment_matrix(), np.eye(2), atol=1e-15)
        beta = np.array([2.0, 1.0])
        expected = float(np.sum((beta - problem.true_param) ** 2))
        excess = mf.excess_risks(problem, mf.HypothesisClass.linear(2),
                                 *_picking(problem.embedding @ beta, [3.0, 5.0]))
        assert abs(excess[0] - expected) < 1e-12

    def test_tabular_matches_monte_carlo(self):
        problem = _tabular_problem(seed=4)
        rng = np.random.default_rng(5)
        f = rng.normal(size=3)
        cls = mf.HypothesisClass.finite(np.vstack([problem.true_table, f]))
        exact = mf.excess_risks(problem, cls, *_picking(f, [1.0, 2.0, 3.0]))[0]
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
        cls = mf.HypothesisClass.finite(np.vstack([problem.true_table, f]))
        cls_p = mf.HypothesisClass.finite(np.vstack([problem.true_table[perm],
                                                     f[perm]]))
        a = mf.excess_risks(problem, cls, *_picking(f, np.ones(3)))[0]
        b = mf.excess_risks(problem_p, cls_p, *_picking(f[perm], np.ones(3)))[0]
        assert abs(a - b) < 1e-14


class TestQuadraticProcess:
    def test_zero_at_optimum(self):
        problem = _tabular_problem(seed=8)
        counts, _ = mf.stream_state_stats(problem, 30, [9])
        q = mf.quadratic_processes(np.zeros((1, 3)), counts, 30, problem, 0.5)
        assert q[0, 0] == 0.0

    def test_concentrates_at_minus_eps_norm(self):
        problem = _tabular_problem(seed=10)
        g = np.array([0.5, -0.3, 0.2])
        eps = 0.5
        norm_sq = float(problem.chain.stationary @ g ** 2)
        reps, n = 600, 2048
        counts, _ = mf.stream_state_stats(problem, n, range(100, 100 + reps))
        vals = mf.quadratic_processes(g[None, :], counts, n, problem, eps)[:, 0]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() + eps * norm_sq) <= 3 * se

    def test_eps_zero_centered(self):
        problem = _tabular_problem(seed=12)
        g = np.array([0.4, -0.1, 0.3])
        reps = 600
        counts, _ = mf.stream_state_stats(problem, 512, range(300, 300 + reps))
        vals = mf.quadratic_processes(g[None, :], counts, 512, problem, 0.0)[:, 0]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se + 1e-15


class TestMultiplierProcess:
    def test_zero_function(self):
        problem = _tabular_problem(seed=13)
        counts, ysums = mf.stream_state_stats(problem, 64, [1])
        m = mf.multiplier_processes(np.zeros((1, 3)), problem.true_table, counts,
                                    ysums, 64, problem, 0.3)
        assert m[0, 0] == 0.0

    def test_martingale_difference_drops_population_term(self):
        problem = _tabular_problem(seed=14, sigma=0.6)
        g = np.array([1.0, -1.0, 2.0])
        counts, ysums = mf.stream_state_stats(problem, 128, [15])
        val = mf.multiplier_processes(g[None, :], problem.true_table, counts, ysums,
                                      128, problem, 0.25)[0, 0]
        traj = mf.sample_trajectory(problem, 128, 15)
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


class TestProcessesMatchStepSums:
    """The processes come from per-state counts and target sums; on any path
    they equal the per-step averages mean(g[X]^2) and mean(W g[X])."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), S=st.integers(1, 5), n=st.integers(1, 300),
           seed=st.integers(0, 2 ** 64), epsilon=st.floats(0.0, 0.999),
           linear=st.booleans())
    def test_equal_to_step_oracles(self, data, S, n, seed, epsilon, linear):
        values = st.floats(-4.0, 4.0)
        P = data.draw(hnp.arrays(float, (S, S), elements=st.floats(0.05, 1.0)))
        chain = mf.MarkovChainModel.from_transition(P / P.sum(axis=1, keepdims=True))
        noise = mf.NoiseSpec("state-dependent-bias",
                             data.draw(hnp.arrays(float, (S, 2), elements=values)),
                             np.full((S, 2), 0.5))
        if linear:
            emb = data.draw(hnp.arrays(float, (S, 2), elements=values))
            problem = mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                           noise=noise, true_param=np.array([0.5, -1.0]))
            f, f_star = (emb @ data.draw(hnp.arrays(float, 2, elements=values))
                         for _ in range(2))
        else:
            problem = mf.RegressionProblem(chain=chain, embedding=np.eye(S),
                                           mode="tabular", noise=noise,
                                           true_table=np.zeros(S))
            f, f_star = (data.draw(hnp.arrays(float, S, elements=values))
                         for _ in range(2))
        counts, ysums = mf.stream_state_stats(problem, n, [seed])
        traj = mf.sample_trajectory(problem, n, seed)
        q = mf.quadratic_processes((f - f_star)[None, :], counts, n, problem, epsilon)
        assert abs(q[0, 0] - quadratic_process_steps(f - f_star, traj, problem,
                                                     epsilon)) <= 1e-12
        m = mf.multiplier_processes(f[None, :], f_star, counts, ysums, n, problem,
                                    epsilon)
        oracle = multiplier_process_steps(f, f_star, traj, problem, epsilon)
        assert abs(m[0, 0] - oracle) <= 1e-12

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, 1.5])
    def test_epsilon_outside_unit_interval(self, epsilon):
        problem = _tabular_problem(seed=8)
        counts, ysums = mf.stream_state_stats(problem, 30, [9])
        table = problem.true_table[None, :]
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
            mf.quadratic_processes(table, counts, 30, problem, epsilon)
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
            mf.multiplier_processes(table, problem.true_table, counts, ysums, 30,
                                    problem, epsilon)


class TestBasicInequality:
    def test_finite_class_exact_maximization(self):
        problem = _tabular_problem(seed=18, sigma=0.5)
        rng = np.random.default_rng(19)
        tables = np.vstack([problem.true_table,
                            problem.true_table + 0.5 * rng.normal(size=(7, 3))])
        cls = mf.HypothesisClass.finite(tables)
        stats = mf.stream_state_stats(problem, 256, range(40, 46))
        for r in (0.05, 0.2, 0.8):
            lhs, rhs = basic_inequality_sides(problem, cls, *stats, 256, r,
                                              epsilon=0.5)
            assert np.all(lhs <= rhs + 0.1 * abs(rhs) + 1e-12)

    def test_linear_class_grid(self):
        problem = _orthonormal_problem(sigma=0.4)
        cls = mf.HypothesisClass.linear(2)
        stats = mf.stream_state_stats(problem, 512, range(70, 74))
        for r in (0.05, 0.3):
            lhs, rhs = basic_inequality_sides(problem, cls, *stats, 512, r,
                                              epsilon=0.5, linear_grid=1000)
            assert np.all(lhs <= rhs + 0.1 * abs(rhs) + 1e-12)

    def test_erm_never_beats_optimum_in_population(self):
        problem = _tabular_problem(seed=20, sigma=0.7)
        rng = np.random.default_rng(21)
        tables = np.vstack([problem.true_table, rng.normal(size=(5, 3))])
        cls = mf.HypothesisClass.finite(tables)
        seeds = range(400, 410)
        stats = mf.stream_state_stats(problem, 128, seeds)
        excess = mf.excess_risks(problem, cls, *stats)
        assert np.all(excess >= 0.0)     # index 0 is f_star
        for seed, value in zip(seeds, excess):
            traj = mf.sample_trajectory(problem, 128, seed)
            risks = np.mean((tables[:, traj.states] - traj.targets) ** 2, axis=1)
            fit = tables[int(np.argmin(risks))]
            assert abs(value - ((fit - tables[0]) ** 2) @ problem.chain.stationary
                       ) < 1e-12


class TestStarHull:
    def test_star_hull_contains_zero_and_rays(self):
        problem = _tabular_problem(seed=23)
        tables = np.vstack([problem.true_table, problem.true_table + 1.0])
        cls = mf.HypothesisClass.finite(tables)
        hull = mf.star_hull_tables(cls, problem.true_table, rho_grid=5)
        assert any(np.allclose(h, 0.0) for h in hull)
        assert any(np.allclose(h, 1.0) for h in hull)

    def test_sphere_tables_have_requested_norm(self):
        # the resolution set is unit norm; the oracle's sphere has radius r
        problem = _orthonormal_problem()
        cls = mf.HypothesisClass.linear(2)
        f_star = problem.embedding @ problem.true_param
        pi = problem.chain.stationary
        unit = mf.sphere_tables(cls, f_star, problem, count=64, seed=1)
        sphere = sphere_at_radius(cls, f_star, problem, 0.25, count=64, seed=1)
        assert unit.shape == sphere.shape == (64, problem.n_states)
        assert np.max(np.abs(np.sqrt((unit ** 2) @ pi) - 1.0)) < 1e-12
        assert np.max(np.abs(np.sqrt((sphere ** 2) @ pi) - 0.25)) < 1e-12

    def test_finite_sphere_excludes_short_rays(self):
        # a ray shorter than the radius misses the radius-1 sphere, but its
        # direction is in the resolution set; f_star itself is in neither
        problem = _tabular_problem(seed=24)
        tables = np.vstack([problem.true_table, problem.true_table + 0.01])
        cls = mf.HypothesisClass.finite(tables)
        assert sphere_at_radius(cls, problem.true_table, problem, 1.0).shape[0] == 0
        unit = mf.sphere_tables(cls, problem.true_table, problem)
        assert unit.shape == (1, problem.n_states)
        assert abs(np.sqrt((unit[0] ** 2) @ problem.chain.stationary) - 1.0) < 1e-12
