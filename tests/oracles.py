"""Reference forms the tests check `mixfree` against: plain loop forms of
quantities the pipeline derives a faster way (the Monte Carlo noise level's
per-member loop among them), the one-trajectory least-squares
fit, the entropy-integral quadrature, the radius-r star-hull sphere, both
sides of the basic inequality, and the trajectory CSV formatted as one block.
Also `problem_to_dict`, which writes the model documents the CLI tests use."""

import math

import numpy as np

from mixfree import bounds
from mixfree.bounds import CriticalRadius, WeakVariance, _R_MIN
from mixfree.erm import (HypothesisClass, excess_risks, multiplier_processes,
                         population_quantities, quadratic_processes, star_hull_tables,
                         _f_star_param)
from mixfree.processgen import (MarkovChainModel, RegressionProblem, Trajectory,
                                _seed_sequence_state, sample_path_batch)


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
        out[i] = model.stationary @ (0.5 * np.abs(Pi - model.stationary).sum(axis=1))
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


def weak_variance_montecarlo(problem: RegressionProblem, f_star_table, resolution_tables,
                             q: float, n: int, replicates: int, seed: int) -> WeakVariance:
    """weak_variance_2q(mode="montecarlo") as a per-member loop over sampled
    states and targets: each slice of at most bounds._MC_SLICE_STEPS
    replicate-steps is sample_path_batch's, and member g's replicate sums are
    (w * g[states]).sum(axis=1) with w = targets - f_star[states]."""
    tables = np.atleast_2d(np.asarray(resolution_tables, dtype=float))
    norms = np.sqrt((tables ** 2) @ problem.chain.stationary)
    seeds = _seed_sequence_state([seed], range(replicates), 1)[:, 0]
    f_star = np.asarray(f_star_table, dtype=float)
    sums = np.empty((tables.shape[0], replicates))
    rows = max(1, bounds._MC_SLICE_STEPS // n)
    for r0 in range(0, replicates, rows):
        states, targets = sample_path_batch(problem, n, seeds[r0:r0 + rows])
        w = targets - f_star[states]
        for gi, g in enumerate(tables):
            sums[gi, r0:r0 + rows] = (w * g[states]).sum(axis=1)
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


def quadratic_process_steps(g, traj: Trajectory, problem: RegressionProblem,
                            epsilon: float) -> float:
    """Quadratic process at a per-state table g, summed over the path's steps:
    ||g||_{L2}^2 - (1 + epsilon) mean(g[X]^2)."""
    g = np.asarray(g, dtype=float)
    pop = float(problem.chain.stationary @ g ** 2)
    emp = float(np.mean(g[traj.states] ** 2))
    return pop - (1.0 + epsilon) * emp


def multiplier_process_steps(g, f_star, traj: Trajectory, problem: RegressionProblem,
                             epsilon: float) -> float:
    """Multiplier process at a per-state table g, summed over the path's steps:
    (1 + epsilon) 2 [mean(W g[X]) - E W g(X)] with W = Y - f_star[X]."""
    g = np.asarray(g, dtype=float)
    f_star = np.asarray(f_star, dtype=float)
    w = traj.targets - f_star[traj.states]
    emp = float(np.mean(w * g[traj.states]))
    bias = problem.regression_mean() - f_star       # E[W | state]
    pop = float(problem.chain.stationary @ (bias * g))
    return (1.0 + epsilon) * 2.0 * (emp - pop)


def fit_erm_linear(traj: Trajectory) -> np.ndarray:
    """Least-squares parameter on the path's full design, the reference for
    the linear branch of `excess_risks` (which solves on per-state sums).

    lstsq returns the minimum-Euclidean-norm minimizer when the design is
    rank deficient; the gradient norm of the empirical risk is checked to be
    at most 1e-9 on the natural problem scale.
    """
    X, y = traj.covariates, traj.targets
    n = len(y)

    def grad_norm(beta):
        return float(np.linalg.norm((2.0 / n) * (X.T @ (X @ beta - y))))

    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    scale = max(1.0, float(np.linalg.norm(X.T @ y) / n))
    if grad_norm(beta) > 1e-9 * scale:
        beta = beta + np.linalg.lstsq(X, y - X @ beta, rcond=None)[0]
    if grad_norm(beta) > 1e-9 * scale:
        raise ArithmeticError(f"least-squares solve left gradient norm "
                              f"{grad_norm(beta):.3e}")
    return beta


def linear_excess_risks(problem: RegressionProblem, counts, ysums) -> np.ndarray:
    """Excess risk of the min-norm least-squares fit on each replicate's
    per-state counts and target sums, one pinv per replicate: the loop form
    of the linear branch of `excess_risks`, which takes every replicate in
    one stacked call and must match it bit for bit."""
    emb = problem.embedding
    beta_star = _f_star_param(problem)
    sigma = problem.second_moment_matrix()
    out = np.empty(counts.shape[0])
    for r in range(counts.shape[0]):
        gram = emb.T @ (counts[r][:, None] * emb)
        beta = np.linalg.pinv(gram) @ (emb.T @ ysums[r])
        diff = beta - beta_star
        out[r] = float(diff @ sigma @ diff)
    return out


def param_excess(beta, problem: RegressionProblem) -> float:
    """Exact excess risk of a linear parameter: the pi-weighted squared
    distance of its table from the population least-squares table."""
    g = problem.embedding @ (np.asarray(beta, dtype=float) - _f_star_param(problem))
    return float(problem.chain.stationary @ g ** 2)


def gamma_alpha_quadrature(alpha: float, r: float, log_covering,
                           c_alpha: float = 1.0) -> float:
    """Entropy-integral complexity c_alpha * int_0^r (log N(s))^(1/alpha) ds.

    `log_covering` supplies log N(s) on (0, r]; negative values are clamped to
    zero. Uses adaptive quadrature (the endpoint singularity at s -> 0 is
    integrable for covering profiles of polynomial classes). The reference
    for `gamma_alpha_parametric`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        return 0.0

    def integrand(s):
        return max(log_covering(s), 0.0) ** (1.0 / alpha)

    from scipy import integrate
    val, _ = integrate.quad(integrand, 0.0, r, epsrel=1e-6, limit=400)
    return c_alpha * val


def sphere_at_radius(cls: HypothesisClass, f_star_table, problem: RegressionProblem,
                     radius: float, count: int = 1000, seed: int = 0) -> np.ndarray:
    """Grid of star-hull members with population L2 norm exactly `radius`.

    Finite classes: each difference f - f_star with norm >= radius is rescaled
    onto the sphere (the exact intersection of its ray with the sphere).
    Linear classes: `count` pseudo-uniform directions rescaled to the sphere
    in the E[X X^T] geometry, returned as per-state tables.
    """
    pi = problem.chain.stationary
    if cls.kind == "finite":
        diffs = cls.tables - np.asarray(f_star_table, dtype=float)[None, :]
        norms = np.sqrt((diffs ** 2) @ pi)
        keep = norms >= radius
        return radius * diffs[keep] / norms[keep, None]
    rng = np.random.default_rng(seed)
    tables = rng.standard_normal((count, cls.dim)) @ problem.embedding.T
    norms = np.sqrt((tables ** 2) @ pi)
    norms[norms == 0] = 1.0
    return radius * tables / norms[:, None]


def basic_inequality_sides(problem: RegressionProblem, cls: HypothesisClass,
                           counts, ysums, n: int, r: float, epsilon: float,
                           linear_grid: int = 1000, rho_grid: int = 64,
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the localized deterministic risk decomposition, one pair
    per replicate row of the per-state statistics (counts, ysums).

    lhs is the exact excess risk of the fitted ERM; rhs is
    r^2 + r^-2 (sup M_n over the radius-r sphere grid)^2 + sup Q_n over the
    star-hull grid. Grid suprema are lower bounds on the true suprema (the
    zero function is always included in the quadratic-process grid, so that
    supremum is at least 0).
    """
    f_star = population_quantities(problem, cls).f_star_table
    if cls.kind == "finite":
        sphere = sphere_at_radius(cls, f_star, problem, r)
        hull = star_hull_tables(cls, f_star, rho_grid)
    else:
        sphere = sphere_at_radius(cls, f_star, problem, r, count=linear_grid, seed=seed)
        hull = sphere
    sup_m = multiplier_processes(sphere, f_star, counts, ysums, n, problem,
                                 epsilon).max(axis=1, initial=0.0)
    sup_q = quadratic_processes(np.vstack([hull, np.zeros((1, problem.n_states))]),
                                counts, n, problem, epsilon).max(axis=1)
    lhs = excess_risks(problem, cls, counts, ysums)
    return lhs, r ** 2 + (sup_m / r) ** 2 + sup_q


def trajectory_csv_one_block(traj: Trajectory, path) -> None:
    """The trajectory CSV of processgen.trajectory_to_csv with all rows in
    one block: each distinct value of a column formatted once, told apart by
    its int64 bit pattern, and one dense row key over the columns after t."""
    d = traj.covariates.shape[1]
    header = ["t", "state"] + [f"x_{j + 1}" for j in range(d)] + ["y"]
    columns = [np.asarray(traj.states, dtype=np.int64)]
    columns += list(np.asarray(traj.covariates, dtype=float).T)
    columns.append(np.asarray(traj.targets, dtype=float))
    texts, key = [""], np.zeros(traj.n, dtype=np.int64)
    for col in columns:
        values, code = np.unique(col.view(np.int64), return_inverse=True)
        cells = list(map(str, values.view(col.dtype).tolist()))   # str is repr for floats
        pairs, key = np.unique(key * len(cells) + code, return_inverse=True)
        texts = [f"{texts[k // len(cells)]},{cells[k % len(cells)]}" for k in pairs.tolist()]
    texts = [text + "\n" for text in texts]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{t}{texts[k]}" for t, k in enumerate(key.tolist(), 1))


def problem_to_dict(problem: RegressionProblem) -> dict:
    """The model document the CLI's model reader (`cli._model`) reads back
    into `problem`."""
    out = {
        "transition": problem.chain.transition.tolist(),
        "embedding": problem.embedding.tolist(),
        "mode": problem.mode,
        "noise": {
            "kind": problem.noise.kind,
            "values": problem.noise.values.tolist(),
            "probs": problem.noise.probs.tolist(),
            "bound": problem.noise.bound,
        },
    }
    if problem.mode == "linear":
        out["true_param"] = problem.true_param.tolist()
    else:
        out["true_table"] = problem.true_table.tolist()
    return out
