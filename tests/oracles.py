"""Plain loop forms of quantities `mixfree` derives a faster way; the tests
check the pipeline against them."""

import math

import numpy as np

from mixfree.bounds import CriticalRadius, _R_MIN
from mixfree.processgen import MarkovChainModel, _beta_of_power


def beta_coefficients(model: MarkovChainModel, horizon: int) -> np.ndarray:
    """Exact mixing coefficients beta(1..horizon) for a stationary chain.

    For a time-homogeneous stationary Markov chain the supremum over the
    conditioning time is constant, and the coefficient at lag i collapses to
    the pi-average of TV(P^i(x, .), pi). Values are nonincreasing in i and lie
    in [0, 1].
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    P = model.transition
    out = np.empty(horizon)
    Pi = np.eye(model.n_states)
    for i in range(horizon):
        Pi = Pi @ P
        out[i] = _beta_of_power(Pi, model.stationary)
    return out


def greedy_cover_count(points: np.ndarray, pi: np.ndarray, s: float) -> int:
    """Deterministic greedy covering of a finite point set in the L2(pi) metric."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    remaining = np.ones(pts.shape[0], dtype=bool)
    count = 0
    while remaining.any():
        center = pts[np.argmax(remaining)]
        d2 = ((pts - center[None, :]) ** 2) @ pi
        remaining &= d2 > s ** 2
        count += 1
    return count


def critical_radius(weak_variance_profile, gamma2_profile, n: int,
                    c1: float = 1.0, r_min: float = _R_MIN,
                    grid_points: int = 2048, xtol: float = 1e-10) -> CriticalRadius:
    """Smallest r in (0, 1] with r >= c1 sqrt(V(r)) gamma2(r) / (r sqrt(n)).

    Locates a sign change of the crossing function on a log grid and bisects
    to `xtol`; the returned endpoint satisfies the inequality. If the
    inequality already holds at the configured floor the floor is returned
    with a flag; if it fails at r = 1 the radius saturates at 1. The test
    oracle of _linear_profile_radius, which the pipeline uses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def h(r: float) -> float:
        v = weak_variance_profile(r)
        g = gamma2_profile(r)
        if not (np.isfinite(v) and np.isfinite(g)):
            raise ValueError(f"non-finite profile value at r = {r}")
        return r - c1 * math.sqrt(max(v, 0.0)) * g / (r * math.sqrt(n))

    grid = np.exp(np.linspace(math.log(r_min), 0.0, grid_points))
    hs = np.array([h(r) for r in grid])
    if hs[-1] < 0:
        return CriticalRadius(1.0, "saturated")
    if hs[0] >= 0:
        return CriticalRadius(r_min, "floor")
    j = int(np.argmax(hs >= 0))          # first grid point satisfying the inequality
    lo, hi = grid[j - 1], grid[j]
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return CriticalRadius(float(hi), "interior")


def k_mix_search(betas, n: int, delta: float) -> int:
    """Smallest k in [n] with k / beta(k) >= n / delta (beta = 0 passes)."""
    betas = np.asarray(betas, dtype=float)
    horizon = min(n, len(betas))
    for k in range(1, horizon + 1):
        b = betas[k - 1]
        if b == 0.0 or k / b >= n / delta:
            return k
    if len(betas) < n:
        raise ValueError(
            f"beta coefficients supplied only up to lag {len(betas)} < n = {n} "
            "and none satisfies the block condition; extend the horizon")
    raise ValueError(
        f"no k <= n = {n} satisfies k/beta(k) >= n/delta = {n / delta:.3g}; "
        f"the chain needs beta(k) <= k delta / n (best achieved "
        f"{max(k / b for k, b in enumerate(betas[:n], 1) if b > 0):.3g})")
