"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in captured
output) carrying its headline numbers and runtime. Tolerances are frozen here;
nothing is calibrated at test time except where a criterion itself prescribes
a calibration/validation split.
"""

import itertools
import math
import time

import numpy as np

import mixfree as mf
from mixfree import bounds, processgen
from mixfree.bounds import DiscreteLaw, parametric_log_covering
from oracles import beta_coefficients, critical_radius, gamma_alpha_quadrature

INF = float("inf")


def _report(num: int, message: str, t0: float) -> None:
    print(f"[criterion {num:2d}] PASS: {message} ({time.time() - t0:.2f}s)")


def _product_problem(copies, flip, sigma, beta):
    base = mf.two_state_chain(flip, flip)
    chain = mf.product_chain(base, copies)
    return mf.RegressionProblem(
        chain=chain, embedding=mf.product_embedding([-1.0, 1.0], copies),
        mode="linear", noise=mf.NoiseSpec.symmetric(sigma, chain.n_states),
        true_param=np.asarray(beta, dtype=float))


def test_criterion_01_beta_coefficient_exactness():
    """beta coefficients, both the per-lag loop and the pipeline's
    beta_at_lag, match the brute-force TV oracle (1e-12) and the two-state
    closed form (1e-10) on a 9x9 flip-probability grid, lags <= 50."""
    t0 = time.time()
    grid = np.linspace(0.1, 0.9, 9)
    worst_brute, worst_closed = 0.0, 0.0
    for p, q in itertools.product(grid, grid):
        model = mf.two_state_chain(p, q)
        pi = model.stationary
        lags = np.arange(1, 51)
        loop = beta_coefficients(model, 50)
        pipeline = np.array([processgen.beta_at_lag(model, i) for i in lags])
        closed = 2 * pi[0] * pi[1] * np.abs(1 - p - q) ** lags
        brute = np.array([
            sum(pi[x] * 0.5 * np.abs(np.linalg.matrix_power(model.transition, i)[x]
                                     - pi).sum() for x in range(2))
            for i in lags])
        for betas in (loop, pipeline):
            worst_brute = max(worst_brute, float(np.max(np.abs(betas - brute))))
            worst_closed = max(worst_closed, float(np.max(np.abs(betas - closed))))
    assert worst_brute <= 1e-12
    assert worst_closed <= 1e-10
    assert time.time() - t0 < 1.0
    _report(1, f"brute-force gap {worst_brute:.2e}, closed-form gap "
               f"{worst_closed:.2e}", t0)


def test_criterion_02_decoupling_gap():
    """Exhaustive enumeration on two-state chains, n = 10, k in {1, 2, 5}:
    the largest indicator-functional gap between coupled and decoupled
    odd-block laws never exceeds the summed mixing coefficients."""
    t0 = time.time()
    worst_slack = -np.inf
    for p, q in [(0.3, 0.2), (0.6, 0.7), (0.45, 0.1)]:
        model = mf.two_state_chain(p, q)
        for k in (1, 2, 5):
            gap, bound = mf.odd_block_decoupling_gap_exact(model, 10, k)
            assert gap <= bound + 1e-12
            worst_slack = max(worst_slack, gap - bound)
    assert time.time() - t0 < 10.0
    _report(2, f"max(gap - bound) = {worst_slack:.3e} <= 0 over 9 instances", t0)


def test_criterion_03_mgf_domination():
    """100 random centered finite-support laws, p in {2, 4, inf} and
    q in {1, 1.5, 2}, 50-point admissible grids: the exact MGF never exceeds
    the moment-norm Bernstein right side."""
    t0 = time.time()
    rng = np.random.default_rng(33)
    checks = 0
    for _ in range(100):
        size = int(rng.integers(2, 7))
        v = rng.normal(size=size) * rng.uniform(0.2, 2.0)
        pr = rng.dirichlet(np.ones(size))
        v = v - pr @ v - rng.uniform(0.0, 0.3)      # E Z <= 0
        law = DiscreteLaw(v, pr)
        for p in (2.0, 4.0, INF):
            psi = mf.psi_p_norm(law, p).value
            for q in (1.0, 1.5, 2.0):
                qp = mf.holder_conjugate(q)
                m2q = law.abs_moment(2 * q) ** (1.0 / q)
                if p == INF:
                    lam_max = 1.0 / psi
                elif qp == INF:
                    lam_max = 0.0                   # only lambda = 0 admissible
                else:
                    lam_max = 1.0 / ((qp * math.e) ** (1.0 / p) * psi)
                for lam in np.linspace(0.0, lam_max, 50, endpoint=False):
                    rhs = mf.bernstein_mgf_rhs(lam, m2q, psi, p, qp)
                    mgf = float(law.probs @ np.exp(lam * law.values))
                    assert mgf <= rhs * (1 + 1e-12)
                    checks += 1
    assert time.time() - t0 < 5.0
    _report(3, f"0 violations in {checks} MGF checks", t0)


def test_criterion_04_blocked_bernstein_coverage():
    """k-wise independent bounded data (k = 8, n = 1024, delta = 0.05),
    10^4 replicates: exceedance at most delta + 3 SE; and the iid/blocked
    leading terms coincide to 1e-12 on analytic moments."""
    t0 = time.time()
    model = mf.two_state_chain(0.25, 0.25)
    report = mf.harness.blocked_bernstein_coverage(
        model, np.array([-1.0, 1.0]), n=1024, k=8, delta=0.05,
        replicates=10_000, master_seed=44)
    assert report.frequency <= report.threshold

    var, n, delta = 0.37, 1024, 0.05
    lead1, _ = mf.blocked_bernstein_terms(1.0, var, n, 1, delta)
    for k in (2, 8, 64):
        leadk, _ = mf.blocked_bernstein_terms(1.0, k * var, n, k, delta)
        assert abs(leadk - lead1) <= 1e-12 * lead1
    assert time.time() - t0 < 30.0
    _report(4, f"exceedance {report.frequency:.4f} <= {report.threshold:.4f}; "
               f"leading-term identity holds", t0)


def test_criterion_05_weak_variance_identities():
    """Martingale-difference instance: exact-mode noise level at q = 1 equals
    the plain noise variance to 1e-12; exact and Monte Carlo modes agree
    within 3 SE on a 3-state, n = 4 instance."""
    t0 = time.time()
    rng = np.random.default_rng(55)
    P = rng.gamma(1.0, 1.0, (3, 3)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    problem = mf.RegressionProblem(
        chain=mf.MarkovChainModel.from_transition(P), embedding=np.eye(3),
        mode="tabular", noise=mf.NoiseSpec.symmetric(0.7, 3),
        true_table=rng.normal(size=3))
    members = np.vstack([rng.normal(size=3) for _ in range(3)])
    exact = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0,
                                n=4, mode="exact")
    gap = float(np.max(np.abs(exact.per_member - 0.49)))
    assert gap <= 1e-12
    mc = mf.weak_variance_2q(problem, problem.true_table, members, q=1.0, n=4,
                             mode="montecarlo", replicates=4000, seed=5)
    assert abs(exact.value - mc.value) <= 3 * mc.std_error
    assert time.time() - t0 < 10.0
    _report(5, f"mds identity gap {gap:.2e}; exact-vs-MC z = "
               f"{abs(exact.value - mc.value) / mc.std_error:.2f}", t0)


def test_criterion_06_gamma_and_critical_radius_calculus():
    """Parametric closed form matches quadrature to 1e-5 relative for
    alpha in {1/2, 1, 2}; the critical radius on the realizable-regression
    profile, from the bisection and from the pipeline's closed form, equals
    its algebraic value to 1e-9."""
    t0 = time.time()
    worst_rel = 0.0
    for eta in (0.5, 1.0, 2.0):
        for r in (0.08, 0.37, 1.0):
            closed = mf.gamma_alpha_parametric(eta, r, 5.0)
            quad = gamma_alpha_quadrature(eta, r, parametric_log_covering(5.0, r))
            worst_rel = max(worst_rel, abs(closed - quad) / closed)
    assert worst_rel <= 1e-5

    V, d, n, c1, c = 0.25, 5.0, 4096, 1.3, 0.9
    exact = c1 * c * math.sqrt(V * d / n)
    worst_rad = 0.0
    for rad in (critical_radius(lambda r: V, lambda r: c * math.sqrt(d) * r, n, c1=c1),
                bounds._linear_profile_radius(V, c * math.sqrt(d), n, c1)):
        assert rad.flag == "interior"
        worst_rad = max(worst_rad, abs(rad.value - exact))
    assert worst_rad <= 1e-9
    assert time.time() - t0 < 1.0
    _report(6, f"quadrature rel gap {worst_rel:.2e}; radius gap "
               f"{worst_rad:.2e}", t0)


def test_criterion_07_rate_exponent():
    """d = 5 realizable regression on a 5-fold product of two-state chains with
    per-coordinate dependence 0.5, martingale-difference bounded noise,
    n in {256, ..., 16384}, 200 replicates: fitted exponent in [-1.2, -0.8]
    with R^2 >= 0.95."""
    t0 = time.time()
    problem = _product_problem(5, 0.25, 0.5, [1.0, -0.5, 0.25, 0.75, -1.0])
    cfg = mf.SweepConfig(problems=(problem,), labels=("lam0.5",),
                         hypothesis=mf.HypothesisClass.linear(5),
                         n_grid=tuple(256 * 2 ** i for i in range(7)),
                         replicates=200, master_seed=71)
    result = mf.run_sweep(cfg)
    fit = mf.fit_rate(cfg.n_grid, result.medians(0))
    assert -1.2 <= fit.exponent <= -0.8
    assert fit.r_squared >= 0.95
    assert time.time() - t0 < 600.0
    _report(7, f"exponent {fit.exponent:.3f}, R^2 {fit.r_squared:.4f}", t0)


def test_criterion_08_mixing_free_leading_term():
    """Same class and noise on an iid chain and a dependence-0.9 chain
    (block length >= 10x larger): past the artifact-computed burn-ins the
    fitted leading constants differ by at most 3x while the naive blocking
    prediction differs by >= 10x."""
    t0 = time.time()
    fast = _product_problem(2, 0.5, 0.5, [1.0, -0.5])     # beta = 0
    slow = _product_problem(2, 0.05, 0.5, [1.0, -0.5])    # |1-p-q| = 0.9
    cfg = mf.SweepConfig(problems=(fast, slow), labels=("iid", "dep0.9"),
                         hypothesis=mf.HypothesisClass.linear(2),
                         n_grid=tuple(2 ** i for i in range(13, 22)),
                         replicates=64, master_seed=82)
    result = mf.run_sweep(cfg)
    report = mf.mixing_free_check(result)
    ratio = max(report.constant_ratio, 1.0 / report.constant_ratio)
    assert ratio <= 3.0
    assert report.naive_block_ratio >= 10.0
    assert report.constant_ratio <= report.naive_block_ratio
    assert time.time() - t0 < 1200.0
    _report(8, f"constant ratio {report.constant_ratio:.3f} (<= 3), naive "
               f"block ratio {report.naive_block_ratio:.0f} (>= 10), window "
               f"{report.window}", t0)


def test_criterion_09_calibrated_risk_bound_coverage():
    """Assembled excess-risk bound at level 1 - 4 delta, delta = 0.0125:
    the constant is calibrated on 500 replicates and validated on 2000 fresh
    seeds with exceedance at most 4 delta + 3 SE."""
    t0 = time.time()
    problem = _product_problem(3, 0.25, 0.5, [1.0, -0.5, 0.25])
    report = mf.harness.risk_bound_coverage(
        problem, mf.HypothesisClass.linear(3), n=2048, delta=0.0125,
        cal_replicates=500, val_replicates=2000, master_seed=93)
    assert report.frequency <= report.threshold
    assert time.time() - t0 < 600.0
    _report(9, f"validated exceedance {report.frequency:.4f} <= "
               f"{report.threshold:.4f} at c2 = {report.c2:.3f}", t0)


def test_criterion_10_quadratic_process_sign():
    """iid cell, tolerance 0.5, n = 8192, 16-hypothesis class: the fraction of
    (trajectory, hypothesis) pairs outside the critical ball with positive
    quadratic process is at most 0.05 over 500 replicates."""
    t0 = time.time()
    chain = mf.iid_chain([0.4, 0.3, 0.2, 0.1])
    true_table = np.array([0.5, -0.25, 1.0, 0.0])
    problem = mf.RegressionProblem(chain=chain, embedding=np.eye(4),
                                   mode="tabular",
                                   noise=mf.NoiseSpec.symmetric(0.5, 4),
                                   true_table=true_table)
    rng = np.random.default_rng(104)
    tables = np.vstack([true_table, true_table + 0.6 * rng.normal(size=(15, 4))])
    report = mf.process_diagnostics(problem, mf.HypothesisClass.finite(tables),
                                    n=8192, replicates=500, epsilon=0.5,
                                    delta=0.05, master_seed=105)
    assert report.members_outside > 0
    assert report.q_positive_fraction <= 0.05
    assert time.time() - t0 < 300.0
    _report(10, f"positive-sign fraction {report.q_positive_fraction:.5f} over "
                f"{report.members_outside} members outside radius "
                f"{report.r_star:.4f}", t0)
