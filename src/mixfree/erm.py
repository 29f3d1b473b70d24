"""Hypothesis classes, least-squares ERM, and the two empirical processes.

Works over the finite-state models of `processgen`, so every population
quantity (best-in-class predictor, covariate second moment, noise level,
population risks) is an exact finite sum under the stationary law. The two
centered empirical processes tracked here are the one-sided gap between
population and inflated empirical squared norms, and the centered
noise-function inner-product average that dominates the excess-risk error.
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


def finite_empirical_risks(tables: np.ndarray, traj: Trajectory) -> np.ndarray:
    """Empirical risk of every table hypothesis, via per-state sufficient stats."""
    n = traj.n
    n_states = tables.shape[1]
    counts = np.bincount(traj.states, minlength=n_states).astype(float)
    y_sums = np.bincount(traj.states, weights=traj.targets, minlength=n_states)
    y_sq = float(np.sum(traj.targets ** 2))
    # risk(f) = (1/n) [ sum_s c_s f(s)^2 - 2 f(s) Ysum_s ] + mean(y^2)
    risks = (tables ** 2 @ counts - 2.0 * (tables @ y_sums) + y_sq) / n
    return risks


def fit_erm_finite(traj: Trajectory, cls: HypothesisClass,
                   problem: RegressionProblem | None = None) -> ERMResult:
    """Exhaustive empirical risk minimization over a finite class.

    Ties are broken toward the lowest index.
    """
    if cls.kind != "finite":
        raise ValueError("fit_erm_finite requires a finite class")
    risks = finite_empirical_risks(cls.tables, traj)
    idx = int(np.argmin(risks))
    tie = bool(np.sum(risks == risks[idx]) > 1)
    excess = None
    if problem is not None:
        pop = population_quantities(problem, cls)
        excess = excess_l2(cls.tables[idx], pop.f_star_table, problem)
    return ERMResult(param=None, index=idx, empirical_risk=float(max(risks[idx], 0.0)),
                     excess_l2_squared=excess, tie_broken=tie)


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

def _quadratic_process_table(g_table, traj: Trajectory,
                             problem: RegressionProblem, epsilon: float) -> float:
    """Quadratic process at a difference function given as a per-state table."""
    g = np.asarray(g_table, dtype=float)
    pop = float(problem.chain.stationary @ g ** 2)
    emp = float(np.mean(g[traj.states] ** 2))
    return pop - (1.0 + epsilon) * emp


def _multiplier_process_table(g_table, f_star_table, traj: Trajectory,
                              problem: RegressionProblem, epsilon: float) -> float:
    """Multiplier process at a per-state table member of the star hull."""
    g = np.asarray(g_table, dtype=float)
    fstar = np.asarray(f_star_table, dtype=float)
    w = traj.targets - fstar[traj.states]
    emp = float(np.mean(w * g[traj.states]))
    bias = problem.regression_mean() - fstar       # E[W | state]
    pop = float(problem.chain.stationary @ (bias * g))
    return (1.0 + epsilon) * 2.0 * (emp - pop)


def quadratic_process(f, f_star, traj: Trajectory, problem: RegressionProblem,
                      epsilon: float) -> float:
    """One-sided gap between the population and inflated empirical squared norms.

    Returns ||f - f_star||_{L2}^2 - (1 + epsilon)/n * sum_i (f - f_star)(X_i)^2,
    with the population term computed exactly under the stationary law.
    Nonpositive values mean the empirical norm dominates at this hypothesis.
    In linear mode f and f_star are parameter vectors.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    g = _to_table(f, problem) - _to_table(f_star, problem)
    return _quadratic_process_table(g, traj, problem, epsilon)


def multiplier_process(g, f_star, traj: Trajectory, problem: RegressionProblem,
                       epsilon: float) -> float:
    """Centered noise-function interaction term of the excess-risk decomposition.

    Evaluates (1 + epsilon) * 2 * [ (1/n) sum_i W_i g(X_i) - E W g(X) ] where
    W_i = Y_i - f_star(X_i) and the fresh-copy expectation is computed exactly
    from the model rather than sampled. In linear mode g and f_star are
    parameter vectors.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    return _multiplier_process_table(_to_table(g, problem),
                                     _to_table(f_star, problem), traj, problem,
                                     epsilon)


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
    if cls.kind == "finite":
        fit = fit_erm_finite(traj, cls, problem)
        lhs = fit.excess_l2_squared
        sphere = sphere_tables(cls, pop.f_star_table, problem, r)
        hull = star_hull_tables(cls, pop.f_star_table, problem, rho_grid)
    else:
        fit = fit_erm_linear(traj, problem)
        lhs = fit.excess_l2_squared
        sphere = sphere_tables(cls, pop.f_star_table, problem, r,
                               count=linear_grid, seed=seed)
        hull = sphere

    zero = np.zeros((1, problem.n_states))
    sup_m = max((_multiplier_process_table(g, pop.f_star_table, traj, problem,
                                           epsilon) for g in sphere),
                default=0.0)
    sup_q = max(_quadratic_process_table(g, traj, problem, epsilon)
                for g in np.vstack([hull, zero]))
    rhs = r ** 2 + (max(sup_m, 0.0) / r) ** 2 + sup_q
    return float(lhs), float(rhs)

