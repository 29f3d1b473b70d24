"""Numerical bound calculus: moment norms, MGF bounds, chaining complexities,
critical radii, burn-ins, and the assembled excess-risk bound.

Everything here is a deterministic numeric evaluation. Moment norms of
finite-support laws are exact (log-domain moment sweeps that stop at the
first order past which, since |Z| <= vmax, no later order can win); chaining
complexities are entropy-integral upper bounds (a closed form for the
parametric covering profile, which the tests check against quadrature); a
finite class's integrals are exact sums over its distance cuts, with the
greedy cover counts at every cut from one pass over the members; the q = 1
noise level sums all lags in one matrix power; every profile the pipeline
builds is linear in the radius, so the critical radius is a closed form;
burn-ins come from monotone integer searches (tests/oracles.py keeps the
plain loop forms as references). The
mixing block length k_mix comes straight from the chain: k / beta(k) only
grows with k, so a doubling search plus bisection over matrix powers finds
it with no lag horizon. Universal constants are configuration values
defaulting to 1, so quantitative use is either oracle-exactness or
calibrated coverage, never absolute constants. scipy's optimizer loads only
in psi_p_norm, the one function that calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .processgen import (_SUB_BLOCK, MarkovChainModel, RegressionProblem, _pair_rows,
                         _path_law, _seed_sequence_state, beta_at_lag, lag_weighted_sum)
from .erm import HypothesisClass, population_quantities, sphere_tables

INF = float("inf")


def holder_conjugate(q: float) -> float:
    """q' with 1/q + 1/q' = 1 (1 <-> inf)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return INF
    if q == INF:
        return 1.0
    return q / (q - 1.0)


def check_holder_pair(q: float, q_prime: float) -> None:
    """Reject (q, q') that are not Hölder conjugates within 1e-12."""
    inv = (0.0 if q == INF else 1.0 / q) + (0.0 if q_prime == INF else 1.0 / q_prime)
    if abs(inv - 1.0) > 1e-12:
        raise ValueError(f"(q, q') = ({q}, {q_prime}) are not Hölder conjugates")


def check_q_p(q: float, p: float) -> None:
    """Reject a (q, p) pair the bound cannot use: q = 1 makes q' = inf, and
    the (q' e)^(1/p) factor of the moment-norm terms is then infinite for
    every finite p."""
    if holder_conjugate(q) == INF and p != INF:
        raise ValueError(f"q = {q:g} (q' = inf) needs p = inf; with finite p = {p:g} "
                         "the (q' e)^(1/p) factor of the bound is infinite")


def _pow_1_over_p(x: float, p: float) -> float:
    """x**(1/p) with the p = inf convention x**0 = 1."""
    if p == INF:
        return 1.0
    return float(x) ** (1.0 / p)


# ---------------------------------------------------------------------------
# finite-support laws and moment norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support scalar law with exact moment arithmetic."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        p = np.asarray(self.probs, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("law must have nonempty support")
        if v.shape != p.shape:
            raise ValueError("values and probs must have the same length")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        v.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def ess_sup(self) -> float:
        support = np.abs(self.values[self.probs > 0])
        return float(support.max()) if support.size else 0.0

    @classmethod
    def of_function(cls, table, pi) -> "DiscreteLaw":
        """Law of f(X) for a per-state table under the stationary law pi."""
        return cls(np.asarray(table, dtype=float), np.asarray(pi, dtype=float))


@dataclass(frozen=True)
class PsiNormEstimate:
    """Truncated moment-growth norm sup_m m^(-1/p) ||Z||_{L^m}.

    `value` is the maximum over integer m = 1..m_max, refined over real m near
    the integer argmax; `at_m_max` / `at_half_m_max` record the objective at
    the truncation point and its half, as a convergence diagnostic (for
    finite-support laws the objective decays once past its peak).
    """

    p: float
    value: float
    m_max: int
    at_m_max: float
    at_half_m_max: float


def _moment_sweep(logpi: np.ndarray, logv: np.ndarray, p: float, ms):
    """For each m in `ms`, log(m^(-1/p) ||Z||_{L^m} / vmax) of every row of
    logv = log(|values| / vmax) under the weights exp(logpi), one row-vector
    per m."""
    for m in ms:
        inner = logpi[None, :] + m * logv
        top = inner.max(axis=1)
        lse = top + np.log(np.exp(inner - top[:, None]).sum(axis=1))
        yield lse / m - math.log(m) / p


# Absolute slack on the sweep's stopping bound; it covers the rounding of
# top + log(sum) (about 1e-13 even for weights near 1e-300).
_SWEEP_STOP_MARGIN = 1e-9


def _running_max_sweep(logpi: np.ndarray, logv: np.ndarray, p: float,
                       m_max: int):
    """Running maximum of _moment_sweep over m = 1..m_max, one row-vector per
    order, stopping after order m once no later order can raise any row.

    Every row has logv <= 0 on the support (|v| <= vmax there), so an order's
    log-moment is at most log sum(pi) and a later order m' computes at most
    U(m') = max(0, log sum(pi)) / m' - log(m') / p (plus rounding), which only
    falls with m'. Once every row's maximum reaches U(m + 1) + margin, the
    orders left are strictly below it, so stopping returns the same bits as
    the full sweep, and the same first order attaining them.
    """
    log_mass = max(0.0, float(np.logaddexp.reduce(logpi)))
    best = np.full(logv.shape[0], -np.inf)
    for m, val in enumerate(_moment_sweep(logpi, logv, p, range(1, m_max + 1)),
                            start=1):
        best = np.maximum(best, val)
        yield best
        if (best >= log_mass / (m + 1) - math.log(m + 1) / p
                + _SWEEP_STOP_MARGIN).all():
            return


def psi_p_norm(law: DiscreteLaw, p: float, m_max: int = 200) -> PsiNormEstimate:
    """Moment-growth norm of a finite-support law.

    p = inf returns the essential supremum. Otherwise the supremum over moment
    orders is evaluated on the integer grid 1..m_max (stopping at the first
    order past which none can win) and then locally refined over real orders
    around the best integer, since the defining supremum ranges over all real
    m >= 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not (1 <= p):
        raise ValueError("p must lie in [1, inf]")
    if p == INF:
        v = law.ess_sup()
        return PsiNormEstimate(p, v, m_max, v, v)

    vmax = law.ess_sup()
    if vmax == 0.0:
        return PsiNormEstimate(p, 0.0, m_max, 0.0, 0.0)
    mask = (law.probs > 0) & (np.abs(law.values) > 0)
    with np.errstate(divide="ignore"):     # a ratio that underflows to 0
        logv = np.log(np.abs(law.values[mask])[None, :] / vmax)
    logp = np.log(law.probs[mask])

    def phi(m: float) -> float:
        return math.log(vmax) + float(next(_moment_sweep(logp, logv, p, (m,)))[0])

    # The first order attaining the maximum of log(vmax) + value is a record
    # of the running maximum, so the argmax over running maxima finds it.
    vals = math.log(vmax) + np.concatenate(
        list(_running_max_sweep(logp, logv, p, m_max)))
    j = int(np.argmax(vals))
    best, m_best = vals[j], j + 1.0
    lo = max(1.0, m_best - 1.0)
    hi = min(float(m_max), m_best + 1.0)
    if hi > lo:
        from scipy import optimize
        res = optimize.minimize_scalar(lambda m: -phi(m), bounds=(lo, hi),
                                       method="bounded", options={"xatol": 1e-10})
        best = max(best, -float(res.fun))
    at_half, at_max = math.log(vmax) + np.concatenate(
        list(_moment_sweep(logp, logv, p, (max(1, m_max // 2), m_max))))
    return PsiNormEstimate(p, math.exp(best), m_max, math.exp(at_max),
                           math.exp(at_half))


def psi_norms_batch(value_rows: np.ndarray, pi: np.ndarray, p: float,
                    m_max: int = 200) -> np.ndarray:
    """psi_p norms for many per-state tables at once (integer moment sweep,
    stopped at the first order past which no row can gain). Values at states
    with pi = 0 do not count."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows = np.atleast_2d(np.asarray(value_rows, dtype=float))
    pi = np.asarray(pi, dtype=float)
    if p == INF:
        return np.abs(rows[:, pi > 0]).max(axis=1)
    absv = np.where(pi > 0, np.abs(rows), 0.0)
    vmax = absv.max(axis=1)
    safe = np.where(vmax > 0, vmax, 1.0)
    with np.errstate(divide="ignore"):
        logv = np.log(absv / safe[:, None])
        logpi = np.log(pi)
    # An all-zero row sweeps as a constant one, so it yields no NaN and never
    # holds the sweep up; its norm is still exp(best) * 0 = 0.
    logv[vmax == 0] = 0.0
    for best in _running_max_sweep(logpi, logv, p, m_max):
        pass
    return np.exp(best) * vmax


def psi_product_bound(dist_z, dist_zp, p: float) -> float:
    """Product-norm domination: 2^(2/p) ||Z||_psi_p ||Z'||_psi_p.

    The scalar product Z Z' has psi_{p/2} norm at most this value.
    """
    nz = psi_p_norm(dist_z, p).value
    nzp = psi_p_norm(dist_zp, p).value
    return 2.0 ** (0.0 if p == INF else 2.0 / p) * nz * nzp


# ---------------------------------------------------------------------------
# moment-norm Bernstein MGF bound
# ---------------------------------------------------------------------------

def bernstein_mgf_rhs(lam: float, moment_2q: float, psi_norm: float, p: float,
                      q_prime: float) -> float:
    """Upper bound on E exp(lam Z) for E Z <= 0 in terms of (E|Z|^2q)^(1/q)
    and the psi_p norm of Z.

    Valid for lam in [0, 1 / ((q' e)^(1/p) ||Z||_psi_p)); outside that range a
    ValueError names the admissible interval. The absolute 2q-th moment is
    used (it equals the paper-form raw moment for even orders and is what the
    Hölder step requires in general).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if moment_2q < 0 or psi_norm < 0:
        raise ValueError("moment and psi norm must be nonnegative")
    if lam == 0.0:
        return 1.0
    a = _pow_1_over_p(q_prime * math.e, p)
    lam_max = INF if a * psi_norm == 0 else 1.0 / (a * psi_norm)
    if lam >= lam_max:
        raise ValueError(
            f"lambda = {lam} outside the admissible range [0, {lam_max}) "
            "= [0, 1/((q'e)^(1/p) psi_norm))")
    return math.exp(0.5 * lam ** 2 * moment_2q / (1.0 - lam * a * psi_norm))


# ---------------------------------------------------------------------------
# weak variance of the noise-class interaction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakVariance:
    """sup over a resolution set of the normalized-sum central 2q moment."""

    value: float
    q: float
    mode: str
    per_member: np.ndarray
    std_error: float | None = None


def _noise_offsets(problem: RegressionProblem, f_star_table) -> np.ndarray:
    """Per-state shift o(s) with W | state = o(s) + noise: o = struct - f_star."""
    return problem.structural_mean() - np.asarray(f_star_table, dtype=float)


def _check_resolution(tables: np.ndarray, pi: np.ndarray) -> np.ndarray:
    tables = np.atleast_2d(np.asarray(tables, dtype=float))
    norms = np.sqrt((tables ** 2) @ pi)
    if np.any(norms == 0):
        raise ValueError("resolution member with zero L2 norm (the definition "
                         "divides by ||g||_{L2})")
    return norms


_EXACT_ATOM_CAP = 2_000_000     # joint (state, noise) atoms exact mode may enumerate
_MC_SLICE_STEPS = 1 << 22       # replicate-steps sampled at once in montecarlo mode


def weak_variance_2q(problem: RegressionProblem, f_star_table, resolution_tables,
                     q: float, n: int, mode: str = "exact",
                     replicates: int = 4000, seed: int = 0) -> WeakVariance:
    """Noise level: sup over g of (E | S_g - E S_g |^(2q))^(1/q) where
    S_g = n^(-1/2) sum_i W_i g(X_i) / ||g||_{L2}.

    mode 'exact' enumerates the joint (state, noise) law (guarded by a size
    cap, so only tiny instances); mode 'montecarlo' uses seeded replicates and
    reports a delta-method standard error for the supremum-attaining member.
    It samples at most _MC_SLICE_STEPS replicate-steps (one replicate at
    least) at a time, so memory does not grow with replicates * n. W_i g(X_i)
    depends only on the step's (state, noise cell) pair, so a slice is
    sampled as whole rows of pair ids (processgen._pair_rows) and each
    member's products are one table over the pairs, taken by the ids and
    summed along each row: the bits of a loop over the steps. The slice is
    walked in blocks of about _SUB_BLOCK ids, whole rows, each cast to intp
    once and then taken and summed for every member while it is in cache.
    q < 1 or infinite, n < 1 and fewer than two replicates raise ValueError
    before any sampling.
    """
    if mode not in ("exact", "montecarlo"):
        raise ValueError("mode must be 'exact' or 'montecarlo'")
    if not 1 <= q < INF:
        raise ValueError(f"q must be >= 1 and finite, got {q}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "montecarlo" and replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")
    pi = problem.chain.stationary
    tables = np.atleast_2d(np.asarray(resolution_tables, dtype=float))
    norms = _check_resolution(tables, pi)
    offsets = _noise_offsets(problem, f_star_table)

    if mode == "exact":
        p_arr, states_arr, w_arr = _interaction_atoms(problem, offsets, n)
        vals = np.empty(tables.shape[0])
        for gi, g in enumerate(tables):
            z = (w_arr * g[states_arr]).sum(axis=1) / (math.sqrt(n) * norms[gi])
            mean = float(p_arr @ z)
            m = float(p_arr @ np.abs(z - mean) ** (2 * q))
            vals[gi] = m ** (1.0 / q)
        return WeakVariance(float(vals.max()), q, "exact", vals)

    seeds = _seed_sequence_state([seed], range(replicates), 1)[:, 0]  # SeedSequence([seed, r])
    f_star = np.asarray(f_star_table, dtype=float)
    sums = np.empty((tables.shape[0], replicates))     # sum_i W_i g(X_i) per replicate
    rows = max(1, _MC_SLICE_STEPS // n)
    block = max(1, _SUB_BLOCK // n)
    for r0 in range(0, replicates, rows):
        ids, pair_state, pair_target = _pair_rows(problem, n, seeds[r0:r0 + rows])
        wg = (pair_target - f_star[pair_state]) * tables[:, pair_state]
        for b0 in range(r0, r0 + len(ids), block):
            at = ids[b0 - r0:b0 - r0 + block].astype(np.intp)
            for gi, row in enumerate(wg):
                sums[gi, b0:b0 + len(at)] = row.take(at).sum(axis=1)
    vals = np.empty(tables.shape[0])
    ses = np.empty(tables.shape[0])
    for gi in range(tables.shape[0]):
        z = sums[gi] / (math.sqrt(n) * norms[gi])
        dev = np.abs(z - z.mean()) ** (2 * q)
        m = float(dev.mean())
        se_m = float(dev.std(ddof=1) / math.sqrt(replicates))
        vals[gi] = m ** (1.0 / q)
        ses[gi] = (se_m / q) * m ** (1.0 / q - 1.0) if m > 0 else se_m
    top = int(np.argmax(vals))
    return WeakVariance(float(vals[top]), q, "montecarlo", vals, float(ses[top]))


def _interaction_atoms(problem: RegressionProblem, offsets: np.ndarray, n: int):
    S = problem.n_states
    nv = problem.noise.values.shape[1]
    if (S * nv) ** n > _EXACT_ATOM_CAP:
        raise ValueError(
            f"exact joint enumeration needs (S*V)^n = {(S * nv) ** n} atoms, "
            f"over the cap {_EXACT_ATOM_CAP}; use montecarlo mode")
    nprob = problem.noise.probs
    nval = problem.noise.values
    probs, states, ws = [], [], []
    for path, p_path in _path_law(problem.chain, n):
        for combo in itertools.product(*(range(nv) for _ in range(n))):
            p = p_path
            for s, j in zip(path, combo):
                p *= nprob[s, j]
            if p == 0.0:
                continue
            probs.append(p)
            states.append(path)
            ws.append([offsets[s] + nval[s, j] for s, j in zip(path, combo)])
    return (np.asarray(probs), np.asarray(states, dtype=np.int64),
            np.asarray(ws, dtype=float))


def weak_variance_q1_exact(problem: RegressionProblem, f_star_table,
                           resolution_tables, n: int) -> WeakVariance:
    """q = 1 noise level via exact stationary autocovariances (any n).

    Var of the normalized sum expands over lags: n Var(W g) plus 2 (n - l)
    times the lag-l autocovariance (pi o A)^T Q^l A of the conditional-mean
    profile A = E[W g | state], with Q = P - 1 pi^T. All n - 1 lags come at
    once from processgen.lag_weighted_sum, with no truncation.
    """
    pi = problem.chain.stationary
    tables = np.atleast_2d(np.asarray(resolution_tables, dtype=float))
    norms = _check_resolution(tables, pi)
    offsets = _noise_offsets(problem, f_star_table)
    mu_w = offsets + problem.noise.mean_per_state()          # E[W | state]
    m2_w = (problem.noise.second_moment_per_state()
            + 2.0 * offsets * problem.noise.mean_per_state() + offsets ** 2)

    A = mu_w[None, :] * tables                                # E[W g | state], per member
    et = A @ pi
    var0 = (m2_w[None, :] * tables ** 2) @ pi - et ** 2
    lagged = ((pi[None, :] * A) @ lag_weighted_sum(problem.chain, n) * A).sum(axis=1)
    totals = n * var0 + 2.0 * lagged
    vals = totals / (n * norms ** 2)
    return WeakVariance(float(vals.max()), 1.0, "autocovariance-exact", vals)


# ---------------------------------------------------------------------------
# covering numbers and chaining complexities
# ---------------------------------------------------------------------------

def parametric_log_covering(d: float, r: float):
    """Local covering profile log N(s) = d log(r / s) of a d-parameter class
    at radius r (one ball suffices at s = r)."""
    def profile(s: float) -> float:
        return d * math.log(r / s)
    return profile


def gamma_alpha_parametric(alpha: float, r: float, d: float,
                           c_alpha: float = 1.0) -> float:
    """Closed-form entropy integral for the parametric profile:
    c_alpha * d^(1/alpha) * r * Gamma(1/alpha + 1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return c_alpha * d ** (1.0 / alpha) * r * math.gamma(1.0 / alpha + 1.0)


# bytes of (scales x points) mask that greedy_cover_counts holds at once
_COVER_MASK_BYTES = 1 << 22


def greedy_cover_counts(points: np.ndarray, pi: np.ndarray, scales) -> np.ndarray:
    """Greedy cover count of a finite point set in the L2(pi) metric at
    every scale s in `scales`, in one pass over the points.

    The greedy cover takes as its next center the first point no earlier
    center covers, and covers the points with d2 <= s**2, d2 the squared
    L2(pi) distance. So a walk over the points in index order, with a
    (scales x points) mask of the points still uncovered, finds the centers at
    every scale at once: at point i, the scales where i is still uncovered
    count it and drop the points within their s of it. Scales go through in
    blocks of about _COVER_MASK_BYTES of mask.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s2 = np.array([s ** 2 for s in scales], dtype=float)
    n_pts = pts.shape[0]
    counts = np.zeros(s2.shape[0], dtype=np.int64)
    block = max(1, _COVER_MASK_BYTES // max(n_pts, 1))
    for start in range(0, s2.shape[0], block):
        s2_block = s2[start:start + block, None]
        remaining = np.ones((s2_block.shape[0], n_pts), dtype=bool)
        for i in range(n_pts):
            rows = np.flatnonzero(remaining[:, i])
            if rows.size:
                counts[start + rows] += 1
                d2 = ((pts - pts[i][None, :]) ** 2) @ pi
                remaining[rows] &= d2 > s2_block[rows]
    return counts


def entropy_integral_breakpoints(points: np.ndarray, pi: np.ndarray, alphas
                                 ) -> list:
    """Exact entropy integral of a finite point set (piecewise-constant N(s)),
    one per alpha in `alphas`.

    Integrates (log N(s))^(1/alpha) over (0, diameter], evaluating the greedy
    cover count between consecutive pairwise distances; every alpha shares
    one set of cuts and one greedy_cover_counts pass.
    """
    pts = np.unique(np.atleast_2d(np.asarray(points, dtype=float)), axis=0)
    if pts.shape[0] <= 1:
        return [0.0] * len(alphas)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2 @ pi)
    dists = np.sqrt(d2[np.triu_indices(pts.shape[0], k=1)])
    cuts = np.concatenate([[0.0], np.unique(dists)])
    counts = greedy_cover_counts(pts, pi, 0.5 * (cuts[:-1] + cuts[1:])).tolist()
    totals = []
    for alpha in alphas:
        total = 0.0
        for lo, hi, count in zip(cuts[:-1], cuts[1:], counts):
            if count > 1:
                total += (hi - lo) * math.log(count) ** (1.0 / alpha)
        totals.append(total)
    return totals


# ---------------------------------------------------------------------------
# critical radius and burn-ins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalRadius:
    """Solution of the localization fixed point, with a boundary flag."""

    value: float
    flag: str   # 'interior' | 'floor' | 'saturated'


_R_MIN = 1e-6     # floor of the critical radius
# where the floor flag is tested: exp(log(_R_MIN)), two ulps above _R_MIN,
# the first point of a log grid from the floor
_R_FLOOR_TEST = float(np.exp(math.log(_R_MIN)))


def _linear_profile_radius(weak_variance: float, gamma2_at_one: float, n: int,
                           c1: float) -> CriticalRadius:
    """Smallest r in [_R_MIN, 1] with r >= c1 sqrt(V) gamma2(r) / (r sqrt(n))
    for a constant noise level V and a linear profile gamma2(r) = gamma2(1) r,
    as class_gamma_profiles builds: r* = c1 sqrt(V) gamma2(1) / sqrt(n). The
    flags test that crossing expression at r = 1 and at _R_FLOOR_TEST, so a
    tie within an ulp of a clip point gets the grid-plus-bisection flag."""
    sqrt_v = math.sqrt(max(weak_variance, 0.0))

    def crossing(r: float) -> float:
        return r - c1 * sqrt_v * (gamma2_at_one * r) / (r * math.sqrt(n))

    if crossing(1.0) < 0:
        return CriticalRadius(1.0, "saturated")
    if crossing(_R_FLOOR_TEST) >= 0:
        return CriticalRadius(_R_MIN, "floor")
    return CriticalRadius(c1 * sqrt_v * gamma2_at_one / math.sqrt(n), "interior")


@dataclass(frozen=True)
class BurnIns:
    """Minimal sample sizes for the bound to be sharp."""

    n_quad: int
    n_mult: int


def _smallest_n(predicate, n_guess: int) -> int:
    n = max(1, n_guess)
    while not predicate(n):
        n += 1
    while n > 1 and predicate(n - 1):
        n -= 1
    return n


def k_mix_from_chain(model: MarkovChainModel, n: int, delta: float) -> int:
    """Smallest k in [n] with k / beta(k) >= n / delta (beta = 0 passes),
    straight from the chain, with no per-lag loop.

    beta(k) never increases with k, so k / beta(k) only grows and the
    condition is monotone in k. A doubling search brackets the smallest
    passing k and bisection finds it, each beta(k) from one matrix power:
    O(S^3 log^2 n) work and no lag horizon.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = n / delta

    def passes(k: int) -> bool:
        b = beta_at_lag(model, k)
        return b == 0.0 or k / b >= target

    failed, k = 0, 1
    while not passes(k):
        if k == n:
            raise ValueError(_no_k_mix_message(model, n, delta))
        failed, k = k, min(2 * k, n)
    while k - failed > 1:
        mid = (failed + k) // 2
        if passes(mid):
            k = mid
        else:
            failed = mid
    return k


def _no_k_mix_message(model: MarkovChainModel, n: int, delta: float) -> str:
    unmet = (f"no k <= n = {n} satisfies k/beta(k) >= n/delta = {n / delta:.3g}, "
             f"since beta(n) = {beta_at_lag(model, n):.3g} > delta = {delta:g}")
    unit = int(np.sum(np.abs(np.linalg.eigvals(model.transition)) > 1.0 - 1e-9))
    if unit > 1:
        return (f"the chain does not mix within n = {n}: its transition matrix "
                f"has {unit} eigenvalues of modulus 1 within 1e-9 (periodic, or "
                f"within 1e-9 of periodic), so beta(k) barely decays over "
                f"k <= n; {unmet}")
    return f"the chain mixes too slowly for n = {n} and delta = {delta:g}: {unmet}"


def burn_ins(*, L: float, eta: float, p: float, q_prime: float, k: int,
             r_star: float, delta: float, noise_psi_norm: float,
             gamma_eta: float, gamma_quad: float) -> BurnIns:
    """Minimal sample sizes making the bound terms subordinate, given the
    chaining complexities gamma_eta and gamma_quad at r_star.

    n_quad: smallest n with the two-group quadratic remainder at most r^2.
    n_mult: smallest n with the moment-norm multiplier group at most r.

    The quadratic remainder uses the log factor log(4^(2/p + 1/2) L / r) in
    its printed burn-in form (the tolerance-dependent variant of the deviation
    bound reduces to it at tolerance 1/2).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if not (0 < r_star <= 1):
        raise ValueError("r_star must lie in (0, 1]")
    r = r_star
    log_d = math.log(1.0 / delta)
    lt = 1.0 if p == INF else math.log(4.0 ** (2.0 / p + 0.5) * L / r) ** (1.0 / p)
    g_quad, g_eta = float(gamma_quad), float(gamma_eta)

    t1 = (math.sqrt(k) * L ** 1.75 * r ** eta * lt
          * (g_quad + r ** ((1.0 + 3.0 * eta) / 4.0) * math.sqrt(log_d)))
    t2 = (L ** 2 * _pow_1_over_p(q_prime, p) * k * r ** eta * lt
          * (g_eta + r ** eta * log_d))
    target = r * r
    if t1 == 0 and t2 == 0:
        n_quad = 1
    else:
        # root of t2 x^2 + t1 x = r^2 in x = n^(-1/2)
        if t2 > 0:
            x = (-t1 + math.sqrt(t1 * t1 + 4.0 * t2 * target)) / (2.0 * t2)
        else:
            x = target / t1
        n_quad = _smallest_n(lambda m: t1 / math.sqrt(m) + t2 / m <= target,
                             int(1.0 / (x * x)))

    a = (_pow_1_over_p(q_prime * math.e, p) ** 2 * L * k * noise_psi_norm
         * (g_eta / r + r ** (eta - 1.0) * log_d))
    n_mult = 1 if a == 0 else _smallest_n(lambda m: a / m <= r, int(a / r))

    return BurnIns(n_quad=n_quad, n_mult=n_mult)


# ---------------------------------------------------------------------------
# assembled tail-bound right sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundBreakdown:
    """Total bound value with its per-term decomposition."""

    total: float
    terms: dict

    def group(self, *names: str) -> float:
        return sum(self.terms[name] for name in names)


def multiplier_bound_rhs(*, weak_variance: float, gamma2: float, gamma_eta: float,
                         L: float, eta: float, k: int, noise_psi_norm: float,
                         r: float, n: int, delta: float, p: float, q_prime: float,
                         c1: float = 1.0, c2: float = 1.0) -> BoundBreakdown:
    """Right side of the uniform multiplier-process deviation bound.

    Splits into a variance group (chaining + tail, mixing-free) and a
    moment-norm group (chaining + tail, carrying the block length k).
    """
    if not (0 < r <= 1):
        raise ValueError("r must lie in (0, 1]")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    log_d = math.log(1.0 / delta)
    sqrt_v = math.sqrt(max(weak_variance, 0.0))
    psi_coef = c1 * _pow_1_over_p(q_prime * math.e, p) ** 2 * L * k * noise_psi_norm
    terms = {
        "variance_chaining": c2 * sqrt_v * gamma2 / (r * math.sqrt(n)),
        "variance_tail": c2 * sqrt_v * math.sqrt(log_d / n),
        "psi_chaining": psi_coef * gamma_eta / (r * n),
        "psi_tail": psi_coef * r ** (eta - 1.0) * log_d / n,
    }
    return BoundBreakdown(sum(terms.values()), terms)


def quadratic_bound_rhs(*, gamma_quad: float, gamma_eta: float, L: float,
                        eta: float, k: int, r: float, n: int, delta: float,
                        p: float, q_prime: float, epsilon: float) -> BoundBreakdown:
    """Deficit subtracted from r^2 (1 - epsilon^2) in the lower uniform law.

    gamma_quad denotes the chaining complexity at index (2 + 6 eta)/4. At
    tolerance epsilon = 1/2 the log factor coincides with the burn-in form.
    """
    if not (0 < r <= 1):
        raise ValueError("r must lie in (0, 1]")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    log_d = math.log(1.0 / delta)
    lt = 1.0 if p == INF else math.log(4.0 ** (2.0 / p) * L / (epsilon * r)) ** (1.0 / p)
    c_sqrt = math.sqrt(k / n) * L ** 1.75 * r ** eta * lt
    c_lin = k / n * _pow_1_over_p(q_prime, p) * r ** eta * lt * L ** 2
    terms = {
        "sqrt_n_chaining": c_sqrt * gamma_quad,
        "sqrt_n_tail": c_sqrt * r ** ((1.0 + 3.0 * eta) / 4.0) * math.sqrt(log_d),
        "n_chaining": c_lin * gamma_eta,
        "n_tail": c_lin * r ** eta * log_d,
    }
    return BoundBreakdown(sum(terms.values()), terms)


def risk_bound(r_star: float, weak_variance: float, n: int, delta: float,
               c2: float = 1.0) -> float:
    """Assembled excess-risk bound c2 (r_star^2 + V log(1/delta) / n)."""
    if r_star < 0 or weak_variance < 0 or n < 1:
        raise ValueError("r_star, weak_variance must be nonnegative and n >= 1")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    return c2 * (r_star ** 2 + weak_variance * math.log(1.0 / delta) / n)


# ---------------------------------------------------------------------------
# weakly sub-Gaussian certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCertificate:
    """Certified (L, eta, p) triple: every witness member satisfies
    psi_p norm <= L * (L2 norm)^eta."""

    L: float
    eta: float
    p: float
    method: str
    n_witness: int
    upper_estimate: float | None = None

    def __post_init__(self):
        if self.L < 1.0:
            raise ValueError("certificate constant L must be >= 1")
        if not (0 < self.eta <= 1):
            raise ValueError("certificate exponent eta must lie in (0, 1]")


def _ratio_for_directions(dirs: np.ndarray, problem: RegressionProblem, p: float,
                          m_max: int) -> np.ndarray:
    pi = problem.chain.stationary
    tables = dirs @ problem.embedding.T
    psi = psi_norms_batch(tables, pi, p, m_max)
    l2 = np.sqrt((tables ** 2) @ pi)
    l2[l2 == 0] = np.inf
    return psi / l2


CERTIFY_METHODS = ("auto", "sampled-fit")
_REFINE_ROUNDS, _REFINE_SAMPLES = 3, 200    # linear-exact local refinement


def certify_weak_subgaussian(cls: HypothesisClass, problem: RegressionProblem,
                             p: float = 2.0, method: str = "auto",
                             m_max: int = 200, directions: int = 10_000,
                             seed: int = 0) -> ClassCertificate:
    """Certify the norm-comparison constant of a hypothesis class.

    auto takes the exact method of the class's kind. finite-exact: L is the
    exact maximum of psi_p / L2 over the member tables (eta = 1).
    linear-exact: L is the maximum ratio over a pseudo-uniform direction grid
    with local refinement around the best direction; the result is a
    certified lower bound on the true supremum, with a grid-resolution upper
    estimate reported alongside. sampled-fit regresses log psi on log L2 over
    the members (a linear class's `directions` random ones) and returns an
    (L, eta) pair covering every sample.
    """
    if method not in CERTIFY_METHODS:
        raise ValueError(f"unknown certification method {method!r}")
    pi = problem.chain.stationary
    if method == "auto":
        method = "finite-exact" if cls.kind == "finite" else "linear-exact"

    if method == "finite-exact":
        tables = cls.tables
        l2 = np.sqrt((tables ** 2) @ pi)
        if np.any(l2 == 0):
            raise ValueError("finite class member with zero L2 norm cannot be certified")
        psi = np.array([psi_p_norm(DiscreteLaw.of_function(t, pi), p, m_max).value
                        for t in tables])
        L = max(1.0, float(np.max(psi / l2)))
        return ClassCertificate(L=L, eta=1.0, p=p, method=method,
                                n_witness=tables.shape[0])

    if method == "linear-exact":
        sigma = problem.second_moment_matrix()
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise ValueError("linear certification requires lambda_min(E[X X^T]) > 0")
        d = problem.dim
        rng = np.random.default_rng(seed)
        dirs = np.vstack([np.eye(d), rng.standard_normal((directions, d))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ratios = _ratio_for_directions(dirs, problem, p, m_max)
        best = float(ratios.max())
        best_dir = dirs[int(np.argmax(ratios))]
        last_gain = 0.0
        for round_idx in range(_REFINE_ROUNDS):
            scale = 0.3 / (3.0 ** round_idx)
            local = best_dir[None, :] + scale * rng.standard_normal((_REFINE_SAMPLES, d))
            local /= np.linalg.norm(local, axis=1, keepdims=True)
            local_ratios = _ratio_for_directions(local, problem, p, m_max)
            cand = float(local_ratios.max())
            if cand > best:
                last_gain = (cand - best) / best
                best = cand
                best_dir = local[int(np.argmax(local_ratios))]
        L = max(1.0, best)
        upper = L * (1.0 + max(last_gain, 1.0 / math.sqrt(directions)))
        return ClassCertificate(L=L, eta=1.0, p=p, method=method,
                                n_witness=dirs.shape[0] + _REFINE_ROUNDS * _REFINE_SAMPLES,
                                upper_estimate=upper)

    # sampled-fit
    if cls.kind == "finite":
        tables = cls.tables
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((directions, problem.dim))
        tables = dirs @ problem.embedding.T
    l2 = np.sqrt((tables ** 2) @ pi)
    keep = l2 > 0
    if not np.any(keep):
        raise ValueError("no member with positive L2 norm to fit")
    tables, l2 = tables[keep], l2[keep]
    psi = psi_norms_batch(tables, pi, p, m_max)
    x = np.log(l2)
    y = np.log(np.maximum(psi, 1e-300))
    if np.ptp(x) < 1e-12:
        eta = 1.0
    else:
        slope = float(np.polyfit(x, y, 1)[0])
        eta = min(max(slope, 1e-6), 1.0)
    L = max(1.0, float(np.max(psi / l2 ** eta)))
    return ClassCertificate(L=L, eta=eta, p=p, method=method,
                            n_witness=tables.shape[0])


# ---------------------------------------------------------------------------
# assembled bound report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constants:
    """Configured universal constants (the analysis never exhibits them)."""

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c_alpha: float = 1.0


@dataclass(frozen=True)
class BoundReport:
    """Every bound-side quantity for one (problem, class, n) instance;
    noise_psi_norm is the psi_p norm of the stationary noise Y - f_star(X)."""

    n: int
    k: int
    delta: float
    q: float
    q_prime: float
    p: float
    L: float
    eta: float
    weak_variance: float
    noise_psi_norm: float
    gamma2: float
    gamma_eta: float
    r_star: float
    r_star_flag: str
    n_quad: int
    n_mult: int
    k_mix: int
    risk_bound: float
    constants: Constants

    def __post_init__(self):
        check_holder_pair(self.q, self.q_prime)
        if not (0 < self.r_star <= 1):
            raise ValueError("r_star must lie in (0, 1]")
        if self.risk_bound < self.constants.c2 * self.r_star ** 2 - 1e-12:
            raise ValueError("risk bound must be at least c2 * r_star^2")

    def multiplier_rhs(self) -> BoundBreakdown:
        """multiplier_bound_rhs at the report's own radius r*, noise level,
        complexities, certificate, block length and constants."""
        return multiplier_bound_rhs(
            weak_variance=self.weak_variance, gamma2=self.gamma2,
            gamma_eta=self.gamma_eta, L=self.L, eta=self.eta, k=self.k,
            noise_psi_norm=self.noise_psi_norm, r=self.r_star, n=self.n,
            delta=self.delta, p=self.p, q_prime=self.q_prime,
            c1=self.constants.c1, c2=self.constants.c2)


def class_gamma_profiles(cls: HypothesisClass, problem: RegressionProblem,
                         members: np.ndarray, eta: float, c_alpha: float = 1.0):
    """(gamma2, gamma_eta, gamma_quad) profiles as functions of the radius.

    Linear classes use the parametric closed form with d parameters; finite
    classes use exact breakpoint entropy integrals of `members`, the
    resolution set of `erm.sphere_tables`, scaled linearly in the radius.
    """
    alphas = (2.0, eta, (2.0 + 6.0 * eta) / 4.0)
    if cls.kind == "linear":
        d = cls.dim
        return tuple(
            (lambda r, a=a: gamma_alpha_parametric(a, r, d, c_alpha)) for a in alphas)
    integrals = entropy_integral_breakpoints(members, problem.chain.stationary, alphas)
    return tuple((lambda r, v=v: c_alpha * r * v) for v in integrals)


_MC_REPLICATES = 4000   # replicates of the Monte Carlo noise level (q > 1)


def compute_bound_report(problem: RegressionProblem, cls: HypothesisClass,
                         n: int, delta: float, q: float = 1.0,
                         p: float = INF, k: int | None = None,
                         constants: Constants = Constants(),
                         resolution: int = 64, seed: int = 0) -> BoundReport:
    """Wire the full pipeline: certificate, noise level, complexities, critical
    radius, burn-ins, and the assembled risk bound.

    The noise level uses the exact autocovariance formula when q = 1 and
    seeded Monte Carlo with _MC_REPLICATES replicates otherwise; the
    resolution set is `erm.sphere_tables`, unit-norm star-hull directions
    (`resolution` of them for a linear class). The critical radius is in
    closed form.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    check_q_p(q, p)
    if k is not None and k < 1:
        raise ValueError(f"block length k must be >= 1, got {k}")
    q_prime = holder_conjugate(q)
    pop = population_quantities(problem, cls)
    cert = certify_weak_subgaussian(cls, problem, p=p, seed=seed)

    members = sphere_tables(cls, pop.f_star_table, problem, count=resolution,
                            seed=seed)
    if members.shape[0] == 0:
        raise ValueError("empty resolution set: no class member differs from the optimum")
    if q == 1.0:
        wv = weak_variance_q1_exact(problem, pop.f_star_table, members, n)
    else:
        wv = weak_variance_2q(problem, pop.f_star_table, members, q, n,
                              mode="montecarlo", replicates=_MC_REPLICATES, seed=seed)

    gamma2_fn, gamma_eta_fn, gamma_quad_fn = class_gamma_profiles(
        cls, problem, members, cert.eta, constants.c_alpha)

    rad = _linear_profile_radius(wv.value, gamma2_fn(1.0), n, constants.c1)

    k_mix = k_mix_from_chain(problem.chain, n, delta)
    if k is None:
        k = k_mix
    noise_psi = _noise_psi_norm(problem, pop.f_star_table, p)
    gamma_eta = gamma_eta_fn(rad.value)
    burn = burn_ins(L=cert.L, eta=cert.eta, p=p, q_prime=q_prime, k=k,
                    r_star=rad.value, delta=delta, noise_psi_norm=noise_psi,
                    gamma_eta=gamma_eta, gamma_quad=gamma_quad_fn(rad.value))

    return BoundReport(
        n=n, k=k, delta=delta, q=q, q_prime=q_prime, p=p, L=cert.L, eta=cert.eta,
        weak_variance=wv.value, noise_psi_norm=noise_psi, gamma2=gamma2_fn(rad.value),
        gamma_eta=gamma_eta, r_star=rad.value, r_star_flag=rad.flag,
        n_quad=burn.n_quad, n_mult=burn.n_mult, k_mix=k_mix,
        risk_bound=risk_bound(rad.value, wv.value, n, delta, constants.c2),
        constants=constants)


def _noise_psi_norm(problem: RegressionProblem, f_star_table, p: float) -> float:
    """psi_p norm of the stationary noise W = Y - f_star(X)."""
    offsets = _noise_offsets(problem, f_star_table)
    values = (offsets[:, None] + problem.noise.values).ravel()
    probs = (problem.chain.stationary[:, None] * problem.noise.probs).ravel()
    keep = probs > 0
    return psi_p_norm(DiscreteLaw(values[keep], probs[keep] / probs[keep].sum()), p).value
