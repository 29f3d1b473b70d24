"""Bound-calculus tests: moment norms, MGF bound, noise level, complexities,
critical radii, burn-ins, certification, and assembled reports."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mixfree as mf
from mixfree import bounds, cli
from mixfree.bounds import (DiscreteLaw, parametric_log_covering,
                            entropy_integral_breakpoints, psi_norms_batch,
                            greedy_cover_counts)
from oracles import (beta_coefficients, critical_radius, gamma_alpha_quadrature,
                     greedy_cover_count, k_mix_search, weak_variance_montecarlo)

INF = float("inf")


def _random_law(rng, max_support=6, centered=True):
    size = int(rng.integers(2, max_support + 1))
    v = rng.normal(size=size) * rng.uniform(0.2, 2.0)
    p = rng.dirichlet(np.ones(size))
    if centered:
        v = v - p @ v - rng.uniform(0.0, 0.3)     # force E Z <= 0
    return DiscreteLaw(v, p)


def _mds_problem(n_states=3, sigma=0.7, seed=0):
    rng = np.random.default_rng(seed)
    P = rng.gamma(1.0, 1.0, (n_states, n_states)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    chain = mf.MarkovChainModel.from_transition(P)
    return mf.RegressionProblem(chain=chain, embedding=np.eye(n_states),
                                mode="tabular",
                                noise=mf.NoiseSpec.symmetric(sigma, n_states),
                                true_table=rng.normal(size=n_states))


def _full_sweep(logpi, logv, p, m_max):
    """All m_max orders of the moment sweep, shape (m_max, rows), with no
    early stop: the oracle for bounds._running_max_sweep."""
    out = []
    for m in range(1, m_max + 1):
        inner = logpi[None, :] + m * logv
        top = inner.max(axis=1)
        lse = top + np.log(np.exp(inner - top[:, None]).sum(axis=1))
        out.append(lse / m - math.log(m) / p)
    return np.array(out)


def _full_sweep_batch(rows, pi, p, m_max):
    """Oracle for psi_norms_batch: every order for every row, vmax over the
    support of pi."""
    absv = np.where(pi > 0, np.abs(rows), 0.0)
    vmax = absv.max(axis=1)
    safe = np.where(vmax > 0, vmax, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logv = np.log(absv / safe[:, None])
        best = _full_sweep(np.log(pi), logv, p, m_max).max(axis=0)
    out = np.exp(best) * vmax
    out[vmax == 0] = 0.0
    return out


def _full_sweep_psi_p_norm(law, p, m_max):
    """Oracle for psi_p_norm at finite p: argmax over every integer order,
    the same real-order refinement, and both diagnostics read off the full
    sweep."""
    from scipy import optimize
    vmax = law.ess_sup()
    if vmax == 0.0:
        return (0.0, 0.0, 0.0)
    mask = (law.probs > 0) & (np.abs(law.values) > 0)
    with np.errstate(divide="ignore"):
        logv = np.log(np.abs(law.values[mask])[None, :] / vmax)
    logp = np.log(law.probs[mask])
    vals = math.log(vmax) + _full_sweep(logp, logv, p, m_max)[:, 0]
    j = int(np.argmax(vals))
    best, m_best = vals[j], j + 1.0
    lo, hi = max(1.0, m_best - 1.0), min(float(m_max), m_best + 1.0)
    if hi > lo:
        def phi(m):
            return math.log(vmax) + float(next(bounds._moment_sweep(logp, logv, p, (m,)))[0])
        res = optimize.minimize_scalar(lambda m: -phi(m), bounds=(lo, hi),
                                       method="bounded", options={"xatol": 1e-10})
        best = max(best, -float(res.fun))
    half = vals[m_max // 2 - 1] if m_max >= 2 else vals[0]
    return (math.exp(best), math.exp(vals[-1]), math.exp(half))


_VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0]),
                    st.floats(-1e6, 1e6, allow_nan=False))
_WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-300, 1.0))


@st.composite
def _psi_cases(draw):
    """(rows, pi, p, m_max): random and tied rows, exact zeros, all-zero
    rows, pi with zero entries or a sum a few ulps off 1, single states."""
    n_states = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 5))
    rows = np.array([[draw(_VALUES) for _ in range(n_states)]
                     for _ in range(n_rows)])
    if draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = 0.0
    w = np.array([draw(_WEIGHTS) for _ in range(n_states)])
    w[draw(st.integers(0, n_states - 1))] = draw(st.floats(0.01, 1.0))
    pi = w / w.sum()
    k = int(np.argmax(pi))
    for _ in range(abs(ulps := draw(st.integers(-4, 4)))):
        pi[k] = np.nextafter(pi[k], 2.0 if ulps > 0 else 0.0)
    p = draw(st.one_of(st.sampled_from([1.0, 2.0, 1e6]),
                       st.floats(0.0, 6.0).map(lambda e: 10.0 ** e)))
    return rows, pi, p, draw(st.integers(1, 200))


class TestPsiNorm:
    def test_constant_ess_sup(self):
        law = DiscreteLaw(np.array([-2.5]), np.array([1.0]))
        assert mf.psi_p_norm(law, INF).value == 2.5

    def test_rademacher_p2(self):
        law = DiscreteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        est = mf.psi_p_norm(law, 2.0)
        ms = np.arange(1, 201)
        oracle = float(np.max(ms ** -0.5 * 1.0))
        assert abs(est.value - oracle) < 1e-12
        assert abs(est.value - 1.0) < 1e-12

    def test_three_point_sweep_oracle(self):
        law = DiscreteLaw(np.array([-1.0, 0.0, 1.0]), np.ones(3) / 3)
        est = mf.psi_p_norm(law, 2.0)
        ms = np.arange(1, 201).astype(float)
        oracle = float(np.max(ms ** -0.5 * (2.0 / 3.0) ** (1.0 / ms)))
        assert est.value >= oracle - 1e-14
        assert est.value <= oracle * (1 + 1e-9)   # refinement stays near the sweep

    def test_dominates_every_moment_term(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            law = _random_law(rng, centered=False)
            for p in (1.0, 2.0, 4.0):
                est = mf.psi_p_norm(law, p, m_max=120)
                for m in (1, 2, 3, 7, 30, 120):
                    lp_norm = law.abs_moment(m) ** (1.0 / m)
                    assert est.value >= m ** (-1.0 / p) * lp_norm - 1e-12

    def test_truncation_diagnostics_decay(self):
        law = DiscreteLaw(np.array([-1.0, 2.0]), np.array([0.7, 0.3]))
        est = mf.psi_p_norm(law, 2.0)
        assert est.at_m_max <= est.at_half_m_max <= est.value

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            DiscreteLaw(np.array([]), np.array([]))

    def test_batch_matches_scalar(self):
        pi = np.array([0.3, 0.45, 0.25])
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(6, 3))
        batch = psi_norms_batch(rows, pi, 2.0, m_max=150)
        # the batch is the scalar's integer-order sweep: a real-order search
        # that finds nothing leaves the two equal, and the real search can
        # only raise the scalar
        nothing = mock.Mock(fun=math.inf)
        for i, row in enumerate(rows):
            with mock.patch("scipy.optimize.minimize_scalar", return_value=nothing):
                single = mf.psi_p_norm(DiscreteLaw(row, pi), 2.0, m_max=150).value
            assert abs(batch[i] - single) < 1e-12
            assert mf.psi_p_norm(DiscreteLaw(row, pi), 2.0, m_max=150).value >= single

    def test_batch_ignores_values_off_the_support(self):
        # zero on pi's support, nonzero where pi = 0: the law is a point mass at 0
        assert psi_norms_batch([[0.0, 1.0]], [1.0, 0.0], 2.0)[0] == 0.0
        assert psi_norms_batch([[0.0, 1.0]], [1.0, 0.0], INF)[0] == 0.0
        assert mf.psi_p_norm(DiscreteLaw([0.0, 1.0], [1.0, 0.0]), 2.0).value == 0.0
        row = np.array([[1.0, 1e300, -3.0]])
        pi = np.array([0.5, 0.0, 0.5])
        assert psi_norms_batch(row, pi, 2.0)[0] == psi_norms_batch(row[:, [0, 2]],
                                                                   pi[[0, 2]], 2.0)[0]

    def test_batch_sweep_stops_early(self):
        tables = mf.product_embedding([-1.0, 1.0], 5) @ np.random.default_rng(5).normal(
            size=(5, 300))
        pi = np.full(32, 1.0 / 32)
        with np.errstate(divide="ignore"):
            logv = np.log(np.abs(tables.T) / np.abs(tables.T).max(axis=1, keepdims=True))
        orders = len(list(bounds._running_max_sweep(np.log(pi), logv, 2.0, 200)))
        assert orders < 20
        assert np.array_equal(psi_norms_batch(tables.T, pi, 2.0),
                              _full_sweep_batch(tables.T, pi, 2.0, 200))

    @settings(max_examples=250, deadline=None)
    @given(_psi_cases())
    @example((np.array([[0.0, 1.0]]), np.array([1.0, 0.0]), 2.0, 200))
    @example((np.array([[-1.0, 1.0]]), np.array([0.5, 0.5]), 1.0, 200))
    @example((np.array([[3.0]]), np.array([1.0]), 1e6, 1))
    # 5e-324 / 2 underflows to 0: its log is -inf, and must not warn
    @example((np.array([[5e-324, 0.0, 2.0]]), np.array([0.5, 0.0, 0.5]), 2.0, 200))
    def test_stopped_sweep_matches_full_sweep(self, case):
        rows, pi, p, m_max = case
        assert np.array_equal(psi_norms_batch(rows, pi, p, m_max),
                              _full_sweep_batch(rows, pi, p, m_max))
        law = DiscreteLaw(rows[0], pi)
        est = mf.psi_p_norm(law, p, m_max)
        assert (est.value, est.at_m_max, est.at_half_m_max) == \
            _full_sweep_psi_p_norm(law, p, m_max)


class TestPsiProductBound:
    def test_constants(self):
        one = DiscreteLaw(np.array([1.0]), np.array([1.0]))
        assert mf.psi_product_bound(one, one, INF) == 1.0

    def test_rademacher_pair(self):
        law = DiscreteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        bound = mf.psi_product_bound(law, law, 2.0)
        assert abs(bound - 2.0) < 1e-12
        # any coupling of the two makes a +/-1 product, with psi_1 norm 1
        product = mf.psi_p_norm(law, 1.0).value
        assert product <= bound

    def test_random_couplings(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            va, vb = rng.normal(size=na), rng.normal(size=nb)
            joint = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
            law_a = DiscreteLaw(va, joint.sum(axis=1))
            law_b = DiscreteLaw(vb, joint.sum(axis=0))
            prod = DiscreteLaw(np.outer(va, vb).ravel(), joint.ravel())
            for p in (2.0, 4.0, INF):
                bound = mf.psi_product_bound(law_a, law_b, p)
                actual = mf.psi_p_norm(prod, p / 2.0 if p != INF else INF).value
                assert actual <= bound * (1 + 1e-12)


class TestBernsteinMgf:
    def test_lambda_zero(self):
        assert mf.bernstein_mgf_rhs(0.0, 1.0, 1.0, 2.0, 2.0) == 1.0

    def test_admissible_range_error(self):
        psi = 0.8
        lam_max = 1.0 / ((2.0 * math.e) ** 0.5 * psi)
        with pytest.raises(ValueError, match="admissible range"):
            mf.bernstein_mgf_rhs(lam_max, 1.0, psi, 2.0, 2.0)

    def test_p_inf_classical_shape(self):
        lam, var, ess = 0.3, 1.7, 2.0
        rhs = mf.bernstein_mgf_rhs(lam, var, ess, INF, INF)
        assert abs(rhs - math.exp(0.5 * lam ** 2 * var / (1 - lam * ess))) < 1e-14

    def test_domination_random_laws(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            law = _random_law(rng)
            assert law.mean() <= 1e-12
            for p in (2.0, INF):
                psi = mf.psi_p_norm(law, p).value
                for q in (1.0, 2.0):
                    qp = mf.holder_conjugate(q)
                    m2q = law.abs_moment(2 * q) ** (1.0 / q)
                    a = 1.0 if p == INF else (qp * math.e) ** (1.0 / p)
                    lam_max = 1.0 / (a * psi)
                    for lam in np.linspace(0.0, lam_max, 25, endpoint=False):
                        rhs = mf.bernstein_mgf_rhs(lam, m2q, psi, p, qp)
                        mgf = float(law.probs @ np.exp(lam * law.values))
                        assert mgf <= rhs * (1 + 1e-12)


class TestHolderBookkeeping:
    def test_conjugates(self):
        assert mf.holder_conjugate(1.0) == INF
        assert mf.holder_conjugate(2.0) == 2.0
        assert abs(mf.holder_conjugate(1.5) - 3.0) < 1e-15

    def test_pair_rejection(self):
        mf.check_holder_pair(1.0, INF)
        mf.check_holder_pair(1.5, 3.0)
        with pytest.raises(ValueError, match="conjugate"):
            mf.check_holder_pair(2.0, 2.5)


class TestWeakVariance:
    def test_iid_independent_noise_is_plain_variance(self):
        chain = mf.iid_chain([0.4, 0.6])
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(2),
                                       mode="tabular",
                                       noise=mf.NoiseSpec.symmetric(0.9, 2),
                                       true_table=np.array([1.0, -1.0]))
        members = np.array([[1.0, 0.5], [-0.3, 2.0]])
        wv = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0,
                                 n=3, mode="exact")
        assert np.max(np.abs(wv.per_member - 0.81)) < 1e-12

    def test_martingale_difference_identity(self):
        problem = _mds_problem(sigma=0.7, seed=5)
        members = np.array([[1.0, -1.0, 0.5], [0.2, 0.4, -0.9]])
        wv = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0,
                                 n=4, mode="exact")
        assert np.max(np.abs(wv.per_member - 0.49)) < 1e-12

    def test_exact_vs_autocovariance_formula(self):
        # cross-validates the joint-enumeration and autocovariance paths,
        # including a misspecified (biased-noise) instance
        rng = np.random.default_rng(30)
        values = np.column_stack([rng.normal(size=3) * 0.4 + 0.3,
                                  rng.normal(size=3) * 0.4 - 0.1])
        probs = np.full((3, 2), 0.5)
        problem = mf.RegressionProblem(
            chain=_mds_problem(seed=6).chain, embedding=np.eye(3), mode="tabular",
            noise=mf.NoiseSpec("state-dependent-bias", values, probs),
            true_table=rng.normal(size=3))
        f_star = problem.true_table + rng.normal(size=3) * 0.2
        members = rng.normal(size=(3, 3))
        enum = mf.weak_variance_2q(problem, f_star, members, q=1.0, n=4,
                                   mode="exact")
        auto = mf.weak_variance_q1_exact(problem, f_star, members, n=4)
        assert np.max(np.abs(enum.per_member - auto.per_member)) < 1e-12

    def test_exact_vs_monte_carlo(self):
        problem = _mds_problem(sigma=0.5, seed=7)
        members = np.array([[1.0, -0.5, 0.25]])
        exact = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0,
                                    n=4, mode="exact")
        mc = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0,
                                 n=4, mode="montecarlo", replicates=4000, seed=2)
        assert abs(exact.value - mc.value) <= 3 * mc.std_error

    def test_nondecreasing_in_q(self):
        problem = _mds_problem(sigma=0.6, seed=8)
        members = np.array([[0.7, -0.4, 1.1]])
        vals = [mf.weak_variance_2q(problem, problem.true_table, members, q=q,
                                    n=3, mode="exact").value
                for q in (1.0, 1.5, 2.0)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_zero_norm_member_rejected(self):
        problem = _mds_problem()
        with pytest.raises(ValueError, match="zero L2 norm"):
            mf.weak_variance_2q(problem, problem.true_table,
                                np.zeros((1, 3)), q=1.0, n=2, mode="exact")

    def test_size_cap(self):
        problem = _mds_problem()
        with pytest.raises(ValueError, match="enumeration"):
            mf.weak_variance_2q(problem, problem.true_table,
                                np.ones((1, 3)), q=1.0, n=30, mode="exact")

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("sampled before the arguments were checked")
        monkeypatch.setattr(mf.processgen, "_sample_paths", refuse)

    @pytest.mark.parametrize("mode", ["exact", "montecarlo"])
    @pytest.mark.parametrize("args, match", [
        (dict(n=0), "n must be >= 1, got 0"),
        (dict(n=-1), "n must be >= 1, got -1"),
        (dict(q=0.5), "q must be >= 1 and finite, got 0.5"),
        (dict(q=float("nan")), "q must be >= 1 and finite, got nan"),
        (dict(q=INF), "q must be >= 1 and finite, got inf"),   # every member read 1.0
    ])
    def test_bad_argument_named_before_sampling(self, no_sampling, mode, args, match):
        problem = _mds_problem()
        kw = dict(q=2.0, n=3, mode=mode, replicates=10) | args
        with pytest.raises(ValueError, match=match):
            mf.weak_variance_2q(problem, problem.true_table, np.ones((1, 3)), **kw)

    @pytest.mark.parametrize("replicates", [-1, 0, 1])
    def test_too_few_replicates_named(self, no_sampling, replicates):
        problem = _mds_problem()
        with pytest.raises(ValueError, match=f"replicates must be >= 2, got {replicates}"):
            mf.weak_variance_2q(problem, problem.true_table, np.ones((1, 3)), q=2.0,
                                n=3, mode="montecarlo", replicates=replicates)


@st.composite
def _mc_cases(draw):
    """A problem on a random, periodic or single-state chain whose noise
    table has one to four values per state, some of probability 0, with an
    f_star table, resolution members, and a sampling shape."""
    kind = draw(st.sampled_from(["random", "periodic", "single"]))
    S = 1 if kind == "single" else draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        P = rng.dirichlet(np.ones(S), size=S)
        chain = mf.MarkovChainModel.from_transition(P)
    else:
        P = np.eye(S)[draw(st.permutations(range(S)))]
        chain = mf.MarkovChainModel(P, np.full(S, 1.0 / S))
    V = draw(st.integers(1, 4))
    probs = rng.dirichlet(np.ones(V), size=S)
    probs[rng.random((S, V)) < 0.3] = 0.0
    probs[np.arange(S), rng.integers(0, V, S)] += 0.5    # a positive value per row
    probs /= probs.sum(axis=1, keepdims=True)
    values = np.round(rng.normal(size=(S, V)), 3)
    problem = mf.RegressionProblem(chain=chain, embedding=np.eye(S), mode="tabular",
                                   noise=mf.NoiseSpec("state-dependent-bias", values, probs),
                                   true_table=rng.normal(size=S))
    f_star = problem.true_table + rng.normal(size=S) * 0.3
    members = rng.normal(size=(draw(st.integers(1, 4)), S))
    n = draw(st.integers(1, 24))
    shape = dict(q=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])), n=n,
                 replicates=draw(st.integers(2, 40)), seed=draw(st.integers(0, 2 ** 64)))
    slice_steps = draw(st.sampled_from([1, n, 3 * n + 1, 1 << 22]))
    time_chunk = draw(st.sampled_from([1, 5, 1 << 16]))
    # rows of ids per member block: 1, 2 or 3 (slices of 1 or 3 rows, or
    # all of them, end inside a block or cut a short last one), or all
    sub_block = draw(st.sampled_from([1, 2 * n + 1, 3 * n, 1 << 16]))
    return problem, f_star, members, shape, slice_steps, time_chunk, sub_block


class TestMonteCarloPairIds:
    """weak_variance_2q's Monte Carlo mode evaluates each member by a lookup
    table over (state, noise cell) pairs, taken by blocks of whole rows of
    ids; the per-member loop over sampled states and targets
    (oracles.weak_variance_montecarlo) is its oracle."""

    @settings(max_examples=40, deadline=None)
    @given(case=_mc_cases())
    def test_matches_per_member_loop_bit_for_bit(self, case):
        problem, f_star, members, shape, slice_steps, time_chunk, sub_block = case
        with mock.patch.object(bounds, "_MC_SLICE_STEPS", slice_steps), \
                mock.patch.object(bounds, "_SUB_BLOCK", sub_block), \
                mock.patch.object(mf.processgen, "_TIME_CHUNK", time_chunk):
            wv = mf.weak_variance_2q(problem, f_star, members, mode="montecarlo", **shape)
            oracle = weak_variance_montecarlo(problem, f_star, members, **shape)
        assert np.array_equal(wv.per_member, oracle.per_member)
        assert np.array_equal(wv.std_error, oracle.std_error)
        assert wv.value == oracle.value

    def test_never_samples_states_and_targets(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("the noise level sampled states and targets")
        monkeypatch.setattr(mf.processgen, "sample_path_batch", refuse)
        monkeypatch.setattr(bounds, "sample_path_batch", refuse, raising=False)
        problem = _mds_problem()
        wv = mf.weak_variance_2q(problem, problem.true_table, np.eye(3), q=2.0, n=16,
                                 mode="montecarlo", replicates=40, seed=3)
        assert np.all(np.isfinite(wv.per_member)) and wv.std_error > 0


class TestCoveringNumbers:
    def test_scale_above_diameter(self):
        problem = _mds_problem(seed=11)
        tables = np.array([[0.0, 0, 0], [1.0, 1, 1]])
        assert greedy_cover_counts(tables, problem.chain.stationary, [10.0])[0] == 1

    def test_separated_points_need_m_balls(self):
        tables = 10.0 * np.arange(5)[:, None] * np.ones((1, 2))
        assert greedy_cover_counts(tables, np.array([0.5, 0.5]), [2.0])[0] == 5

    def test_volumetric_bound_and_greedy(self):
        # a dense grid of the unit disk is covered by at most the volumetric
        # (1 + 2r/s)^d = 25 balls of radius s = 0.5
        xs = np.linspace(-1, 1, 61)
        pts = np.array([(a, b) for a in xs for b in xs if a * a + b * b <= 1.0])
        assert greedy_cover_counts(pts, np.ones(2), [0.5])[0] <= 25


class TestGammaFunctionals:
    def test_parametric_closed_form_matches_quadrature(self):
        for eta in (0.5, 1.0, 2.0):
            for r in (0.05, 0.37, 1.0):
                closed = mf.gamma_alpha_parametric(eta, r, 5.0)
                quad = gamma_alpha_quadrature(eta, r, parametric_log_covering(5.0, r))
                assert abs(closed - quad) <= 1e-5 * closed

    def test_zero_radius(self):
        assert mf.gamma_alpha_parametric(1.0, 0.0, 4.0) == 0.0
        assert gamma_alpha_quadrature(1.0, 0.0, parametric_log_covering(4.0, 1.0)) == 0.0

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError, match="alpha"):
            mf.gamma_alpha_parametric(0.0, 0.5, 2.0)
        with pytest.raises(ValueError, match="alpha"):
            gamma_alpha_quadrature(0.0, 0.5, parametric_log_covering(2.0, 0.5))

    def test_monotone_in_r_and_d(self):
        vals_r = [mf.gamma_alpha_parametric(1.0, r, 3.0) for r in (0.1, 0.2, 0.4)]
        assert vals_r[0] < vals_r[1] < vals_r[2]
        vals_d = [mf.gamma_alpha_parametric(1.0, 0.3, d) for d in (1.0, 2.0, 4.0)]
        assert vals_d[0] < vals_d[1] < vals_d[2]

    def test_breakpoint_integral_two_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        pi = np.array([1.0, 1.0])
        # N(s) = 2 below the separation, 1 above: integral = dist * sqrt(log 2)
        [val] = entropy_integral_breakpoints(pts, pi, (2.0,))
        assert abs(val - 3.0 * math.sqrt(math.log(2.0))) < 1e-12


def _per_cut_entropy_integral(points, pi, alpha):
    """Oracle: the breakpoint entropy integral with one full greedy cover per
    cut interval."""
    pts = np.unique(np.atleast_2d(np.asarray(points, dtype=float)), axis=0)
    if pts.shape[0] <= 1:
        return 0.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2 @ pi)
    dists = np.sqrt(d2[np.triu_indices(pts.shape[0], k=1)])
    cuts = np.concatenate([[0.0], np.unique(dists)])
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        count = greedy_cover_count(pts, pi, mid)
        if count > 1:
            total += (hi - lo) * math.log(count) ** (1.0 / alpha)
    return total


@st.composite
def _point_sets(draw):
    """Random and lattice point sets with weights pi: lattices give tied
    distances and duplicate points, zero weights make distinct points
    coincide in L2(pi), and a single point has no cuts at all."""
    kind = draw(st.sampled_from(["random", "lattice", "single"]))
    S = draw(st.integers(1, 4))
    N = 1 if kind == "single" else draw(st.integers(2, 12))
    if kind == "lattice":
        step = draw(st.sampled_from([1.0, 0.1, 3.0]))
        pts = step * draw(hnp.arrays(float, (N, S),
                                     elements=st.integers(-2, 2).map(float)))
    else:
        pts = draw(hnp.arrays(float, (N, S), elements=st.floats(-5.0, 5.0)))
    weights = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)
    return pts, draw(hnp.arrays(float, S, elements=weights))


class TestBatchedCoverCounts:
    @settings(max_examples=200, deadline=None)
    @given(points=_point_sets(), mask_bytes=st.sampled_from([1, 8, 1 << 22]),
           eta=st.sampled_from([1.0, 0.5, 0.3]))
    def test_match_greedy_oracle(self, points, mask_bytes, eta):
        pts, pi = points
        uniq = np.unique(pts, axis=0)
        d2 = ((uniq[:, None, :] - uniq[None, :, :]) ** 2 @ pi)
        cuts = np.concatenate([[0.0], np.unique(np.sqrt(
            d2[np.triu_indices(uniq.shape[0], k=1)]))])
        # the cut midpoints the integrals use, and the cuts themselves, where
        # a distance equals the scale exactly
        scales = np.concatenate([0.5 * (cuts[:-1] + cuts[1:]), cuts])
        alphas = (2.0, eta, (2.0 + 6.0 * eta) / 4.0)
        oracle = [_per_cut_entropy_integral(pts, pi, a) for a in alphas]
        # a mask budget of 1 or 8 bytes puts one scale in each block
        with mock.patch.object(mf.bounds, "_COVER_MASK_BYTES", mask_bytes):
            counts = greedy_cover_counts(uniq, pi, scales)
            assert entropy_integral_breakpoints(pts, pi, alphas) == oracle
        assert counts.tolist() == [greedy_cover_count(uniq, pi, s) for s in scales]

    def test_scale_equal_to_a_distance(self):
        # two points x apart at scale s = x: d2 = x * x, and the greedy test
        # compares it with the scalar s ** 2, which can round the other way
        xs = np.random.default_rng(5).uniform(0.5, 2.0, 3000)
        pi = np.ones(1)
        for x in xs:
            pts = np.array([[0.0], [x]])
            assert greedy_cover_counts(pts, pi, [x])[0] == greedy_cover_count(pts, pi, x)


class TestCriticalRadius:
    def test_parametric_identity(self):
        V, d, n = 0.25, 5.0, 4096
        rad = critical_radius(lambda r: V, lambda r: math.sqrt(d) * r, n, c1=1.0)
        assert rad.flag == "interior"
        assert abs(rad.value - math.sqrt(V * d / n)) < 1e-9

    def test_zero_complexity_floor(self):
        rad = critical_radius(lambda r: 1.0, lambda r: 0.0, 100)
        assert rad.flag == "floor" and rad.value == 1e-6

    def test_saturation(self):
        rad = critical_radius(lambda r: 1.0, lambda r: 10.0 * r, 4)
        assert rad.flag == "saturated" and rad.value == 1.0

    def test_against_million_point_scan(self):
        rng = np.random.default_rng(17)
        grid = np.exp(np.linspace(math.log(1e-6), 0.0, 1_000_000))
        checked = 0
        while checked < 5:
            v0, v1 = rng.uniform(0.1, 2.0, size=2)
            g1 = rng.uniform(0.5, 4.0)
            n = int(rng.integers(50, 5000))
            c1 = rng.uniform(0.5, 2.0)
            vw = lambda r: v0 + v1 * r
            g2 = lambda r: g1 * r
            rad = critical_radius(vw, g2, n, c1=c1)
            if rad.flag != "interior":
                continue
            h = grid - c1 * np.sqrt(v0 + v1 * grid) * g1 / np.sqrt(n)
            first = int(np.argmax(h >= 0))
            spacing = grid[first] - grid[first - 1]
            assert abs(rad.value - grid[first]) <= spacing + 1e-12
            checked += 1

    def test_nonfinite_profile_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            critical_radius(lambda r: float("nan"), lambda r: r, 10)

    @settings(max_examples=300, deadline=None)
    @given(V=st.floats(0.0, 10.0), slope=st.floats(0.0, 100.0),
           n=st.sampled_from([1, 64, 8192, 2 ** 21]) | st.integers(1, 2 ** 21),
           c1=st.floats(0.1, 10.0))
    @example(V=0.0, slope=3.0, n=64, c1=1.0)          # floor: no noise
    @example(V=1.0, slope=0.0, n=64, c1=1.0)          # floor: no complexity
    @example(V=1e-14, slope=1.0, n=2 ** 21, c1=1.0)   # floor: below 1e-6
    @example(V=1.0, slope=10.0, n=4, c1=1.0)          # saturated
    # ties at the floor: r* = 1.0000000000000002e-6 (twice) and 1e-6, each
    # below the bisection's first grid point exp(log(1e-6)), two ulps up
    @example(V=1e-8, slope=0.1, n=1, c1=0.1)
    @example(V=1e-10, slope=1.0, n=1, c1=0.1)
    @example(V=1e-8, slope=1.0, n=10_000, c1=1.0)
    def test_closed_form_matches_bisection(self, V, slope, n, c1):
        closed = bounds._linear_profile_radius(V, slope, n, c1)
        oracle = critical_radius(lambda r: V, lambda r: slope * r, n, c1=c1)
        assert closed.flag == oracle.flag
        # the bisection stops within xtol = 1e-10 above the root
        assert abs(closed.value - oracle.value) <= 1e-10 + 1e-15


class TestBurnIns:
    def _gammas(self, d, eta):
        return (lambda r: mf.gamma_alpha_parametric(eta, r, d),
                lambda r: mf.gamma_alpha_parametric((2 + 6 * eta) / 4.0, r, d))

    def test_iid_k_mix_one(self):
        assert mf.k_mix_from_chain(mf.iid_chain([0.2, 0.3, 0.5]), 100, 0.05) == 1

    def test_geometric_k_mix_matches_scan(self):
        rho, n, delta = 0.8, 10_000, 0.05
        betas = rho ** np.arange(1, n + 1)
        k = k_mix_search(betas, n, delta)
        scan = next(kk for kk in range(1, n + 1)
                    if kk / rho ** kk >= n / delta)
        assert k == scan

    def test_k_mix_error_reports_requirement(self):
        with pytest.raises(ValueError, match="beta"):
            k_mix_search(np.full(50, 0.9), 50, 0.05)

    def test_periodic_chain_does_not_mix(self):
        cycle = mf.MarkovChainModel(np.roll(np.eye(3), 1, axis=1), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="does not mix"):
            mf.k_mix_from_chain(cycle, 4096, 0.05)

    def test_slow_chain_error_names_target_and_beta_n(self):
        slow = mf.two_state_chain(0.0005, 0.0005)
        with pytest.raises(ValueError, match=r"n/delta = 2e\+04.*beta\(n\) = 0\.184"):
            mf.k_mix_from_chain(slow, 1000, 0.05)

    def test_smallest_n_property(self):
        g_eta, g_quad = self._gammas(4.0, 1.0)
        kwargs = dict(L=2.0, eta=1.0, p=INF, q_prime=INF, k=12, r_star=0.05,
                      delta=0.1, noise_psi_norm=0.7, gamma_eta=g_eta(0.05),
                      gamma_quad=g_quad(0.05))
        burn = mf.burn_ins(**kwargs)
        r = kwargs["r_star"]
        log_d = math.log(1 / kwargs["delta"])
        a = (kwargs["L"] * kwargs["k"] * kwargs["noise_psi_norm"]
             * (g_eta(r) / r + log_d))
        assert a / burn.n_mult <= r < a / (burn.n_mult - 1)
        t1 = (math.sqrt(kwargs["k"]) * kwargs["L"] ** 1.75 * r
              * (g_quad(r) + r * math.sqrt(log_d)))
        t2 = (kwargs["L"] ** 2 * kwargs["k"] * r * (g_eta(r) + r * log_d))
        pred = lambda n: t1 / math.sqrt(n) + t2 / n <= r * r
        assert pred(burn.n_quad) and not pred(burn.n_quad - 1)

    def test_bounded_linear_majorization(self):
        # p = inf, eta = 1 parameterization with r_star = sqrt(V d / n): the
        # self-consistent burn-in (smallest n that clears its own threshold)
        # is at most 2 L^2 k^2 (B_W^2/V) (d + log(1/delta)) when
        # log(1/delta) <= d (the displayed majorization absorbs a universal
        # factor).
        d, k, L, B, V, delta = 5.0, 9, 1.4, 0.5, 0.25, 0.05
        g_eta = lambda r: mf.gamma_alpha_parametric(1.0, r, d)
        g_quad = lambda r: mf.gamma_alpha_parametric(2.0, r, d)

        def clears(n):
            r = math.sqrt(V * d / n)
            burn = mf.burn_ins(L=L, eta=1.0, p=INF, q_prime=INF, k=k, r_star=r,
                               delta=delta, noise_psi_norm=B, gamma_eta=g_eta(r),
                               gamma_quad=g_quad(r))
            return burn.n_mult <= n

        n_fixed = next(n for n in range(2, 10 ** 6) if clears(n))
        majorization = 2 * L ** 2 * k ** 2 * (B ** 2 / V) * (d + math.log(1 / delta))
        assert n_fixed <= majorization


class TestBoundRhs:
    _base = dict(weak_variance=0.25, gamma2=1.2, gamma_eta=2.0, L=1.5, eta=1.0,
                 k=4, noise_psi_norm=0.5, r=0.2, n=2048, delta=0.05, p=INF,
                 q_prime=INF)

    def test_trivial_zero(self):
        out = mf.multiplier_bound_rhs(**{**self._base, "weak_variance": 0.0,
                                         "gamma2": 0.0, "gamma_eta": 0.0,
                                         "delta": 1.0, "noise_psi_norm": 0.0})
        assert out.total == 0.0

    def test_doubling_k_doubles_only_psi_group(self):
        a = mf.multiplier_bound_rhs(**self._base)
        b = mf.multiplier_bound_rhs(**{**self._base, "k": 8})
        assert a.terms["variance_chaining"] == b.terms["variance_chaining"]
        assert a.terms["variance_tail"] == b.terms["variance_tail"]
        assert abs(b.terms["psi_chaining"] - 2 * a.terms["psi_chaining"]) < 1e-15
        assert abs(b.terms["psi_tail"] - 2 * a.terms["psi_tail"]) < 1e-15

    def test_r_domain(self):
        with pytest.raises(ValueError, match="r must"):
            mf.multiplier_bound_rhs(**{**self._base, "r": 1.5})
        with pytest.raises(ValueError, match="r must"):
            mf.quadratic_bound_rhs(gamma_quad=1.0, gamma_eta=1.0, L=1.5, eta=1.0,
                                   k=2, r=0.0, n=64, delta=0.1, p=INF,
                                   q_prime=INF, epsilon=0.5)

    def test_thresholds_match_burn_ins(self):
        d, eta, L, k, psi_w, delta = 4.0, 1.0, 1.8, 6, 0.6, 0.05
        r = 0.07
        g_eta = lambda rr: mf.gamma_alpha_parametric(eta, rr, d)
        g_quad = lambda rr: mf.gamma_alpha_parametric((2 + 6 * eta) / 4, rr, d)
        burn = mf.burn_ins(L=L, eta=eta, p=INF, q_prime=INF, k=k, r_star=r,
                           delta=delta, noise_psi_norm=psi_w, gamma_eta=g_eta(r),
                           gamma_quad=g_quad(r))

        def psi_group(n):
            out = mf.multiplier_bound_rhs(weak_variance=0.0, gamma2=0.0,
                                          gamma_eta=g_eta(r), L=L, eta=eta, k=k,
                                          noise_psi_norm=psi_w, r=r, n=n,
                                          delta=delta, p=INF, q_prime=INF)
            return out.group("psi_chaining", "psi_tail")

        assert psi_group(burn.n_mult) <= r < psi_group(burn.n_mult - 1)

        def deficit(n):
            return mf.quadratic_bound_rhs(gamma_quad=g_quad(r), gamma_eta=g_eta(r),
                                          L=L, eta=eta, k=k, r=r, n=n, delta=delta,
                                          p=INF, q_prime=INF, epsilon=0.5).total

        assert deficit(burn.n_quad) <= r * r < deficit(burn.n_quad - 1)


class TestCertification:
    def test_two_point_class_is_tight(self):
        problem = mf.RegressionProblem(chain=mf.iid_chain([0.5, 0.5]),
                                       embedding=np.eye(2), mode="tabular",
                                       noise=mf.NoiseSpec.zero(2),
                                       true_table=np.zeros(2))
        cls = mf.HypothesisClass.finite(np.array([[3.0, -3.0], [-3.0, 3.0]]))
        cert = mf.certify_weak_subgaussian(cls, problem, p=INF)
        assert cert.L == 1.0 and cert.eta == 1.0

    def test_finite_max_ratio(self):
        problem = _mds_problem(seed=19)
        rng = np.random.default_rng(20)
        tables = rng.normal(size=(5, 3))
        cls = mf.HypothesisClass.finite(tables)
        cert = mf.certify_weak_subgaussian(cls, problem, p=2.0)
        pi = problem.chain.stationary
        ratios = [mf.psi_p_norm(DiscreteLaw(t, pi), 2.0).value
                  / math.sqrt(float(pi @ t ** 2)) for t in tables]
        assert abs(cert.L - max(1.0, max(ratios))) < 1e-12

    def test_certificate_soundness(self):
        problem = _mds_problem(seed=21)
        rng = np.random.default_rng(22)
        tables = rng.normal(size=(6, 3))
        cls = mf.HypothesisClass.finite(tables)
        cert = mf.certify_weak_subgaussian(cls, problem, p=2.0)
        pi = problem.chain.stationary
        for t in tables:
            psi = mf.psi_p_norm(DiscreteLaw(t, pi), 2.0).value
            l2 = math.sqrt(float(pi @ t ** 2))
            assert psi <= cert.L * l2 ** cert.eta + 1e-9

    def test_linear_grid_against_random_search(self):
        chain = mf.MarkovChainModel.from_transition(
            np.array([[0.4, 0.3, 0.2, 0.1],
                      [0.25, 0.25, 0.25, 0.25],
                      [0.1, 0.2, 0.3, 0.4],
                      [0.3, 0.3, 0.2, 0.2]]))
        emb = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, 3.0], [0.5, -1.0]])
        problem = mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                       noise=mf.NoiseSpec.zero(4),
                                       true_param=np.zeros(2))
        cert = mf.certify_weak_subgaussian(mf.HypothesisClass.linear(2), problem,
                                           p=2.0, directions=10_000, seed=3)
        # independent oracle: large random search with an inline moment sweep
        rng = np.random.default_rng(99)
        pi = chain.stationary
        best = 0.0
        for _ in range(50):
            dirs = rng.standard_normal((20_000, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            vals = np.abs(dirs @ emb.T)
            vmax = vals.max(axis=1)
            with np.errstate(divide="ignore"):
                logv = np.log(vals / vmax[:, None])
            acc = np.full(len(dirs), -np.inf)
            for m in range(1, 49):
                inner = np.log(pi)[None, :] + m * logv
                top = inner.max(axis=1)
                lse = top + np.log(np.exp(inner - top[:, None]).sum(axis=1))
                acc = np.maximum(acc, lse / m - math.log(m) / 2.0)
            psi = np.exp(acc) * vmax
            l2 = np.sqrt((dirs @ emb.T) ** 2 @ pi)
            best = max(best, float(np.max(psi / l2)))
        assert abs(cert.L - best) <= 0.02 * best

    def test_sampled_fit_covers_samples(self):
        problem = _mds_problem(seed=23)
        rng = np.random.default_rng(24)
        tables = rng.normal(size=(12, 3)) * rng.uniform(0.1, 3.0, size=(12, 1))
        cls = mf.HypothesisClass.finite(tables)
        cert = mf.certify_weak_subgaussian(cls, problem, p=2.0, method="sampled-fit")
        pi = problem.chain.stationary
        for t in tables:
            psi = psi_norms_batch(t[None, :], pi, 2.0)[0]
            l2 = math.sqrt(float(pi @ t ** 2))
            assert psi <= cert.L * l2 ** cert.eta + 1e-9

    def test_zero_norm_member_rejected(self):
        problem = _mds_problem(seed=25)
        cls = mf.HypothesisClass.finite(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="zero L2"):
            mf.certify_weak_subgaussian(cls, problem, p=2.0)


class TestRiskBound:
    def test_trivial_zero(self):
        assert mf.risk_bound(0.0, 1.0, 100, 1.0) == 0.0

    def test_parametric_shape(self):
        V, d, n, delta, c = 0.25, 5.0, 2048, 0.05, 1.3
        r_star = c * math.sqrt(V * d / n)
        val = mf.risk_bound(r_star, V, n, delta, c2=2.0)
        expected = 2.0 * V * (c * c * d + math.log(1 / delta)) / n
        assert abs(val - expected) < 1e-15

    def test_doubling_n_halves(self):
        a = 0.04
        v1 = mf.risk_bound(math.sqrt(a / 1000), 1.0, 1000, 0.1)
        v2 = mf.risk_bound(math.sqrt(a / 2000), 1.0, 2000, 0.1)
        assert abs(v1 - 2 * v2) < 1e-15


class TestBoundReport:
    def test_pipeline_and_serialization(self, tmp_path):
        base = mf.two_state_chain(0.25, 0.25)
        chain = mf.product_chain(base, 2)
        problem = mf.RegressionProblem(chain=chain,
                                       embedding=mf.product_embedding([-1., 1.], 2),
                                       mode="linear",
                                       noise=mf.NoiseSpec.symmetric(0.5, 4),
                                       true_param=np.array([1.0, -0.5]))
        report = mf.compute_bound_report(problem, mf.HypothesisClass.linear(2),
                                         n=2048, delta=0.05)
        assert 0 < report.r_star <= 1
        assert report.risk_bound >= report.constants.c2 * report.r_star ** 2 - 1e-12
        assert abs(report.weak_variance - 0.25) < 1e-12   # mds noise, q = 1
        with open(cli._write_json(tmp_path, "bound_report.json", report)) as fh:
            payload = json.load(fh)
        assert payload["k_mix"] == report.k_mix
        assert payload["q_prime"] == "inf"

    def _two_state_problem(self, flip):
        return mf.RegressionProblem(chain=mf.two_state_chain(flip, flip),
                                    embedding=np.array([[-1.0], [1.0]]),
                                    mode="linear", noise=mf.NoiseSpec.symmetric(0.5, 2),
                                    true_param=np.array([1.0]))

    def test_k_mix_past_4096_lags(self):
        # |lambda_2| = 0.999 at n = 2^21: k_mix lies beyond 4096 lags; the
        # per-lag search over 20000 coefficients pins the value
        problem = self._two_state_problem(0.0005)
        n, delta = 2 ** 21, 0.05
        report = mf.compute_bound_report(problem, mf.HypothesisClass.linear(1),
                                         n=n, delta=delta)
        assert report.k_mix == report.k == 7883
        oracle = k_mix_search(beta_coefficients(problem.chain, 20000), n, delta)
        assert oracle == 7883

    def test_r_star_solves_the_pipeline_fixed_point(self):
        # the closed-form radius relies on every pipeline profile being linear
        # in r: check it against the bisection on the report's own profiles
        problem = mf.RegressionProblem(
            chain=mf.product_chain(mf.two_state_chain(0.25, 0.25), 2),
            embedding=np.eye(4), mode="tabular", noise=mf.NoiseSpec.symmetric(0.5, 4),
            true_table=np.array([0.5, -0.25, 1.0, 0.0]))
        tables = np.vstack([problem.true_table,
                            np.random.default_rng(3).normal(size=(7, 4))])
        for cls in (mf.HypothesisClass.linear(4), mf.HypothesisClass.finite(tables)):
            pop = mf.population_quantities(problem, cls)
            for n in (16, 2048):
                report = mf.compute_bound_report(problem, cls, n=n, delta=0.05)
                members = mf.sphere_tables(cls, pop.f_star_table, problem)
                gamma2, _, _ = bounds.class_gamma_profiles(cls, problem, members,
                                                           report.eta)
                oracle = critical_radius(lambda r: report.weak_variance, gamma2, n)
                assert report.r_star_flag == oracle.flag
                assert abs(report.r_star - oracle.value) <= 1e-10 + 1e-15

    @pytest.mark.parametrize("q, p", [(1.0, INF), (2.0, 2.0)])
    @pytest.mark.parametrize("kind", ["linear", "finite"])
    def test_multiplier_rhs_matches_hand_assembled_call(self, tmp_path, kind, q, p):
        # skewed noise, so its psi_2 norm (0.15) differs from its ess sup (0.3)
        noise = mf.NoiseSpec("martingale-difference", [[-0.3, 0.1]] * 4,
                             [[0.25, 0.75]] * 4)
        problem = mf.RegressionProblem(
            chain=mf.product_chain(mf.two_state_chain(0.25, 0.25), 2),
            embedding=np.eye(4), mode="tabular", noise=noise,
            true_table=np.array([0.5, -0.25, 1.0, 0.0]))
        cls = (mf.HypothesisClass.linear(4) if kind == "linear" else
               mf.HypothesisClass.finite(np.vstack([
                   problem.true_table, np.random.default_rng(3).normal(size=(7, 4))])))
        with mock.patch.object(bounds, "_MC_REPLICATES", 200):
            report = mf.compute_bound_report(problem, cls, n=2048, delta=0.05, q=q,
                                             p=p, constants=mf.Constants(c1=1.3, c2=0.7))
        # the call the CLI, the diagnostics and demo 04 each used to assemble
        pop = mf.population_quantities(problem, cls)
        noise_psi = bounds._noise_psi_norm(problem, pop.f_star_table, report.p)
        old = mf.multiplier_bound_rhs(
            weak_variance=report.weak_variance, gamma2=report.gamma2,
            gamma_eta=report.gamma_eta, L=report.L, eta=report.eta, k=report.k,
            noise_psi_norm=noise_psi, r=report.r_star, n=report.n,
            delta=report.delta, p=report.p, q_prime=report.q_prime,
            c1=report.constants.c1, c2=report.constants.c2)
        new = report.multiplier_rhs()
        assert report.noise_psi_norm == noise_psi > 0
        assert new.terms == old.terms and new.total == old.total
        with open(cli._write_json(tmp_path, "bound_report.json", report)) as fh:
            assert json.load(fh)["noise_psi_norm"] == noise_psi

    def test_q1_with_finite_p_rejected(self):
        problem = self._two_state_problem(0.25)
        with pytest.raises(ValueError, match=r"q = 1 .*p = 2"):
            mf.compute_bound_report(problem, mf.HypothesisClass.linear(1),
                                    n=256, delta=0.05, q=1.0, p=2.0)

    @pytest.mark.parametrize("k", [0, -3])
    def test_nonpositive_block_length_rejected(self, k):
        # k = 0 once zeroed every k-weighted term and gave n_quad = n_mult = 1
        problem = self._two_state_problem(0.25)
        with pytest.raises(ValueError, match=f"block length k must be >= 1, got {k}"):
            mf.compute_bound_report(problem, mf.HypothesisClass.linear(1),
                                    n=256, delta=0.05, k=k)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="conjugate"):
            mf.BoundReport(n=10, k=1, delta=0.1, q=2.0, q_prime=3.0, p=INF,
                           L=1.0, eta=1.0, weak_variance=0.1,
                           noise_psi_norm=0.5, gamma2=1.0,
                           gamma_eta=1.0, r_star=0.5, r_star_flag="interior",
                           n_quad=1, n_mult=1, k_mix=1, risk_bound=1.0,
                           constants=mf.Constants())
        with pytest.raises(ValueError, match="r_star"):
            mf.BoundReport(n=10, k=1, delta=0.1, q=1.0, q_prime=INF, p=INF,
                           L=1.0, eta=1.0, weak_variance=0.1,
                           noise_psi_norm=0.5, gamma2=1.0,
                           gamma_eta=1.0, r_star=1.5, r_star_flag="interior",
                           n_quad=1, n_mult=1, k_mix=1, risk_bound=3.0,
                           constants=mf.Constants())
