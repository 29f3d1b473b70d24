"""Hypothesis classes, least-squares ERM, and the two empirical processes.

Works over the finite-state models of `processgen`, so every population
quantity (best-in-class predictor, covariate second moment, noise level,
population risks) is an exact finite sum under the stationary law. The two
centered empirical processes tracked here are the one-sided gap between
population and inflated empirical squared norms, and the centered
noise-function inner-product average that dominates the excess-risk error.
ERM excess risks and both processes are evaluated on per-state visit counts
and target sums, a row per replicate (`processgen.stream_state_stats`); the
one-trajectory forms are one-row views built from that trajectory's bincounts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .processgen import RegressionProblem, Trajectory


@dataclass(frozen=True)
class HypothesisClass:
    """Either all linear functionals on R^d or a finite list of state tables."""

    kind: str                        # 'linear' | 'finite'
    dim: int | None = None
    tables: np.ndarray | None = None  # (M, S) for finite classes

    def __post_init__(self):
        if self.kind == "linear":
            if self.dim is None or self.dim < 1:
                raise ValueError("linear class requires dimension d >= 1")
        elif self.kind == "finite":
            tables = np.atleast_2d(np.asarray(self.tables, dtype=float))
            if tables.size == 0:
                raise ValueError("finite class must be nonempty")
            tables.flags.writeable = False
            object.__setattr__(self, "tables", tables)
        else:
            raise ValueError(f"kind must be 'linear' or 'finite', got {self.kind!r}")

    @classmethod
    def linear(cls, d: int) -> "HypothesisClass":
        return cls(kind="linear", dim=d)

    @classmethod
    def finite(cls, tables) -> "HypothesisClass":
        return cls(kind="finite", tables=np.asarray(tables, dtype=float))


@dataclass(frozen=True)
class ERMResult:
    """Fitted minimizer with its empirical risk and exact excess risk (if known)."""

    param: np.ndarray | None
    index: int | None
    empirical_risk: float
    excess_l2_squared: float | None
    tie_broken: bool

    def __post_init__(self):
        if self.empirical_risk < -1e-12:
            raise ValueError("empirical risk must be nonnegative")
        if self.excess_l2_squared is not None and self.excess_l2_squared < -1e-12:
            raise ValueError("excess risk must be nonnegative")


def _grad_norm(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    n = len(y)
    return float(np.linalg.norm((2.0 / n) * (X.T @ (X @ beta - y))))


def fit_erm_linear(traj: Trajectory, problem: RegressionProblem | None = None
                   ) -> ERMResult:
    """Least-squares fit over all linear functionals of the covariates.

    Returns the minimum-Euclidean-norm minimizer when the design is rank
    deficient (deterministic tie-break); the residual gradient norm of the
    empirical risk is checked to be at most 1e-9 on the natural problem scale.
    """
    X = traj.covariates
    y = traj.targets
    n, d = X.shape
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    scale = max(1.0, float(np.linalg.norm(X.T @ y) / n))
    if _grad_norm(X, y, beta) > 1e-9 * scale:
        beta = beta + np.linalg.lstsq(X, y - X @ beta, rcond=None)[0]
    gnorm = _grad_norm(X, y, beta)
    if gnorm > 1e-9 * scale:
        raise ArithmeticError(f"least-squares solve left gradient norm {gnorm:.3e}")
    risk = float(np.mean((X @ beta - y) ** 2))
    excess = None
    if problem is not None:
        excess = excess_l2(beta, _f_star_param(problem), problem)
    return ERMResult(param=beta, index=None, empirical_risk=risk,
                     excess_l2_squared=excess, tie_broken=bool(rank < d))


def _state_sums(traj: Trajectory, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory's per-state visit counts and target sums, as (1, S) rows
    of the statistics `stream_state_stats` gives for a batch."""
    counts = np.bincount(traj.states, minlength=n_states).astype(float)
    ysums = np.bincount(traj.states, weights=traj.targets, minlength=n_states)
    return counts[None, :], ysums[None, :]


def _finite_scores(tables: np.ndarray, counts, ysums) -> np.ndarray:
    """(M, R) ERM objective of every table on every replicate: n times the
    empirical risk, less the constant sum of y^2."""
    return tables ** 2 @ counts.T - 2.0 * (tables @ ysums.T)


def finite_empirical_risks(tables: np.ndarray, traj: Trajectory) -> np.ndarray:
    """Empirical risk of every table hypothesis, via per-state sufficient stats."""
    counts, ysums = _state_sums(traj, tables.shape[1])
    return (_finite_scores(tables, counts, ysums)[:, 0]
            + float(np.sum(traj.targets ** 2))) / traj.n


def fit_erm_finite(traj: Trajectory, cls: HypothesisClass,
                   problem: RegressionProblem | None = None) -> ERMResult:
    """Exhaustive empirical risk minimization over a finite class.

    Ties are broken toward the lowest index.
    """
    if cls.kind != "finite":
        raise ValueError("fit_erm_finite requires a finite class")
    counts, ysums = _state_sums(traj, cls.tables.shape[1])
    scores = _finite_scores(cls.tables, counts, ysums)[:, 0]
    idx = int(np.argmin(scores))
    tie = bool(np.sum(scores == scores[idx]) > 1)
    risk = (scores[idx] + float(np.sum(traj.targets ** 2))) / traj.n
    excess = None
    if problem is not None:
        excess = float(excess_risks(problem, cls, counts, ysums)[0])
    return ERMResult(param=None, index=idx, empirical_risk=float(max(risk, 0.0)),
                     excess_l2_squared=excess, tie_broken=tie)


def excess_risks(problem: RegressionProblem, cls: HypothesisClass, counts, ysums
                 ) -> np.ndarray:
    """Exact excess risk of the ERM fit on each replicate, from its per-state
    visit counts and target sums (rows of `counts`, `ysums`, each (R, S)).

    Linear classes fit the min-norm least-squares parameter on the visited
    design; finite classes pick the lowest-index minimizer of the empirical
    risk.
    """
    pi = problem.chain.stationary
    if cls.kind == "linear":
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
    idx = np.argmin(_finite_scores(cls.tables, counts, ysums), axis=0)
    f_star = population_quantities(problem, cls).f_star_table
    return ((cls.tables[idx] - f_star[None, :]) ** 2) @ pi


# ---------------------------------------------------------------------------
# exact population quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationQuantities:
    """Best-in-class predictor and the exact second-order statistics around it."""

    f_star_table: np.ndarray          # per-state values of the best predictor
    f_star_param: np.ndarray | None   # linear classes only
    f_star_index: int | None          # finite classes only
    second_moment: np.ndarray | None  # E[X X^T] (linear classes only)
    noise_variance: float             # Var(Y - f_star(X)) under the stationary law
    risk_star: float                  # population risk of the best predictor


def _f_star_param(problem: RegressionProblem) -> np.ndarray:
    """Population least-squares parameter (min-norm when E[XX^T] is singular)."""
    pi = problem.chain.stationary
    m = problem.regression_mean()
    w = np.sqrt(pi)
    beta, *_ = np.linalg.lstsq(w[:, None] * problem.embedding, w * m, rcond=None)
    return beta


def population_quantities(problem: RegressionProblem, cls: HypothesisClass
                          ) -> PopulationQuantities:
    """Exact best-in-class predictor, E[X X^T], noise variance, and optimal risk."""
    pi = problem.chain.stationary
    m = problem.regression_mean()
    var_y = problem.noise.var_per_state()

    if cls.kind == "linear":
        sigma = problem.second_moment_matrix()
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise ValueError(
                "covariate second moment E[X X^T] is singular; the linear class "
                "requires lambda_min(E[X X^T]) > 0")
        exy = problem.embedding.T @ (pi * m)
        beta = np.linalg.solve(sigma, exy)
        table = problem.embedding @ beta
        index = None
    else:
        risks = ((cls.tables - m[None, :]) ** 2 + var_y[None, :]) @ pi
        index = int(np.argmin(risks))
        table = np.array(cls.tables[index])
        beta = None
        sigma = None

    bias = m - table                      # E[W | state]
    w_mean = float(pi @ bias)
    w_second = float(pi @ (var_y + bias ** 2))
    noise_variance = w_second - w_mean ** 2
    risk_star = float(pi @ ((table - m) ** 2 + var_y))
    return PopulationQuantities(
        f_star_table=table, f_star_param=beta, f_star_index=index,
        second_moment=sigma, noise_variance=noise_variance, risk_star=risk_star)


def _to_table(f, problem: RegressionProblem) -> np.ndarray:
    """Interpret f as a parameter vector (linear mode) or a per-state table."""
    f = np.asarray(f, dtype=float)
    if problem.mode == "linear" and f.shape == (problem.dim,):
        return problem.embedding @ f
    if f.shape == (problem.n_states,):
        return f
    raise ValueError(f"cannot interpret hypothesis of shape {f.shape} for this problem")


def excess_l2(f, f_star, problem: RegressionProblem) -> float:
    """Exact squared population L2 distance between two hypotheses.

    In linear mode (parameter-vector inputs) this equals the quadratic form of
    the parameter difference in E[X X^T]; in tabular mode it is the
    pi-weighted squared table difference. Both are the same functional.
    """
    g = _to_table(f, problem) - _to_table(f_star, problem)
    return float(problem.chain.stationary @ g ** 2)


# ---------------------------------------------------------------------------
# empirical processes
# ---------------------------------------------------------------------------

def _check_epsilon(epsilon: float) -> None:
    """The processes' inflation epsilon must lie in [0, 1)."""
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")


def quadratic_processes(members, counts, n: int, problem: RegressionProblem,
                        epsilon: float) -> np.ndarray:
    """(R, M) quadratic process of each member table g on each replicate:
    ||g||_{L2}^2 - (1 + epsilon)/n * sum_i g(X_i)^2, from the replicates'
    per-state visit counts (R, S); the population term is exact."""
    _check_epsilon(epsilon)
    members = np.asarray(members, dtype=float)
    pop = (members ** 2) @ problem.chain.stationary
    return pop[None, :] - (1 + epsilon) * (counts @ (members ** 2).T / n)


def multiplier_processes(members, f_star, counts, ysums, n: int,
                         problem: RegressionProblem, epsilon: float) -> np.ndarray:
    """(R, M) multiplier process of each member table g on each replicate:
    (1 + epsilon) * 2 * [(1/n) sum_i W_i g(X_i) - E W g(X)] with
    W_i = Y_i - f_star(X_i), from per-state visit counts and target sums
    (R, S); the fresh-copy expectation is exact."""
    _check_epsilon(epsilon)
    members = np.asarray(members, dtype=float)
    f_star = np.asarray(f_star, dtype=float)
    wsums = ysums - counts * f_star[None, :]
    bias = problem.regression_mean() - f_star       # E[W | state]
    pop = members @ (problem.chain.stationary * bias)
    return (1 + epsilon) * 2.0 * (wsums @ members.T / n - pop[None, :])


def quadratic_process(f, f_star, traj: Trajectory, problem: RegressionProblem,
                      epsilon: float) -> float:
    """One-sided gap between the population and inflated empirical squared norms.

    Returns ||f - f_star||_{L2}^2 - (1 + epsilon)/n * sum_i (f - f_star)(X_i)^2,
    with the population term computed exactly under the stationary law.
    Nonpositive values mean the empirical norm dominates at this hypothesis.
    In linear mode f and f_star are parameter vectors.
    """
    g = _to_table(f, problem) - _to_table(f_star, problem)
    counts, _ = _state_sums(traj, problem.n_states)
    return float(quadratic_processes(g[None, :], counts, traj.n, problem, epsilon)[0, 0])


def multiplier_process(g, f_star, traj: Trajectory, problem: RegressionProblem,
                       epsilon: float) -> float:
    """Centered noise-function interaction term of the excess-risk decomposition.

    Evaluates (1 + epsilon) * 2 * [ (1/n) sum_i W_i g(X_i) - E W g(X) ] where
    W_i = Y_i - f_star(X_i) and the fresh-copy expectation is computed exactly
    from the model rather than sampled. In linear mode g and f_star are
    parameter vectors.
    """
    counts, ysums = _state_sums(traj, problem.n_states)
    return float(multiplier_processes(_to_table(g, problem)[None, :],
                                      _to_table(f_star, problem), counts, ysums,
                                      traj.n, problem, epsilon)[0, 0])


# ---------------------------------------------------------------------------
# localized star-hull grids
# ---------------------------------------------------------------------------

def star_hull_tables(cls: HypothesisClass, f_star_table, problem: RegressionProblem,
                     rho_grid: int = 64) -> np.ndarray:
    """Discretized star hull {rho (f - f_star)} of a finite class, as tables.

    rho runs over a uniform grid on [0, 1] including both endpoints, so the
    zero function is always a member.
    """
    if cls.kind != "finite":
        raise ValueError("star_hull_tables requires a finite class")
    if rho_grid < 2:
        raise ValueError(f"rho_grid must be >= 2 to hold both endpoints, got {rho_grid}")
    diffs = cls.tables - np.asarray(f_star_table, dtype=float)[None, :]
    rhos = np.linspace(0.0, 1.0, rho_grid)
    members = (rhos[:, None, None] * diffs[None, :, :]).reshape(-1, diffs.shape[1])
    return np.unique(members, axis=0)


def sphere_tables(cls: HypothesisClass, f_star_table, problem: RegressionProblem,
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
        if not np.any(keep):
            return np.empty((0, diffs.shape[1]))
        return radius * diffs[keep] / norms[keep, None]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, cls.dim))
    tables = dirs @ problem.embedding.T
    norms = np.sqrt((tables ** 2) @ pi)
    norms[norms == 0] = 1.0
    return radius * tables / norms[:, None]


def basic_inequality_sides(traj: Trajectory, problem: RegressionProblem,
                           cls: HypothesisClass, r: float, epsilon: float,
                           linear_grid: int = 1000, rho_grid: int = 64,
                           seed: int = 0) -> tuple[float, float]:
    """Both sides of the localized deterministic risk decomposition.

    lhs is the exact excess risk of the fitted ERM; rhs is
    r^2 + r^-2 (sup M_n over the radius-r sphere grid)^2 + sup Q_n over the
    star-hull grid. Grid suprema are lower bounds on the true suprema (the
    zero function is always included in the quadratic-process grid, so that
    supremum is at least 0).
    """
    pop = population_quantities(problem, cls)
    counts, ysums = _state_sums(traj, problem.n_states)
    if cls.kind == "finite":
        lhs = excess_risks(problem, cls, counts, ysums)[0]
        sphere = sphere_tables(cls, pop.f_star_table, problem, r)
        hull = star_hull_tables(cls, pop.f_star_table, problem, rho_grid)
    else:
        lhs = fit_erm_linear(traj, problem).excess_l2_squared
        sphere = sphere_tables(cls, pop.f_star_table, problem, r,
                               count=linear_grid, seed=seed)
        hull = sphere

    sup_m = multiplier_processes(sphere, pop.f_star_table, counts, ysums, traj.n,
                                 problem, epsilon).max(initial=0.0)
    sup_q = quadratic_processes(np.vstack([hull, np.zeros((1, problem.n_states))]),
                                counts, traj.n, problem, epsilon).max()
    rhs = r ** 2 + (sup_m / r) ** 2 + sup_q
    return float(lhs), float(rhs)
