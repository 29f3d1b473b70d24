"""Hypothesis classes, least-squares ERM, and the two empirical processes.

Works over the finite-state models of `processgen`, so every population
quantity (best-in-class predictor, covariate second moment, noise level,
population risks) is an exact finite sum under the stationary law. The two
centered empirical processes tracked here are the one-sided gap between
population and inflated empirical squared norms, and the centered
noise-function inner-product average that dominates the excess-risk error.
ERM excess risks and both processes are evaluated on per-state visit counts
and target sums, a row per replicate (`processgen.stream_state_stats`); one
trajectory is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .processgen import RegressionProblem, _reals


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
            tables = np.atleast_2d(_reals(self.tables, "finite class tables"))
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
        return cls(kind="finite", tables=tables)


def check_class_fits(problem: RegressionProblem, cls: HypothesisClass) -> None:
    """A linear class's dim must be the embedding width; finite tables need one
    value per state."""
    if cls.kind == "linear" and cls.dim != problem.dim:
        raise ValueError(f"linear class dim = {cls.dim}, embedding width {problem.dim}")
    if cls.kind == "finite" and cls.tables.shape[1] != problem.n_states:
        raise ValueError(f"finite class tables hold {cls.tables.shape[1]} values, "
                         f"the model has {problem.n_states} states")


def excess_risks(problem: RegressionProblem, cls: HypothesisClass, counts, ysums
                 ) -> np.ndarray:
    """Exact excess risk of the ERM fit on each replicate, from its per-state
    visit counts and target sums (rows of `counts`, `ysums`, each (R, S)).

    Linear classes fit the min-norm least-squares parameter on the visited
    design, every replicate in one stacked solve; finite classes pick the
    lowest-index minimizer of the empirical risk.
    """
    pi = problem.chain.stationary
    if cls.kind == "linear":
        emb = problem.embedding
        beta_star = _f_star_param(problem)
        sigma = problem.second_moment_matrix()
        # stacked forms that run each replicate through the same BLAS calls
        # as a loop over replicates; ysums @ emb or einsum can differ in the
        # last bit
        grams = emb.T @ (counts[:, :, None] * emb)
        beta = (np.linalg.pinv(grams) @ (emb.T @ ysums[:, :, None]))[..., 0]
        diff = (beta - beta_star)[:, None, :]
        return (diff @ sigma @ diff.transpose(0, 2, 1))[:, 0, 0]
    # (M, R) ERM objective: n times the empirical risk, less the sum of y^2
    scores = cls.tables ** 2 @ counts.T - 2.0 * (cls.tables @ ysums.T)
    idx = np.argmin(scores, axis=0)
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
    check_class_fits(problem, cls)
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


# ---------------------------------------------------------------------------
# localized star-hull grids
# ---------------------------------------------------------------------------

def star_hull_tables(cls: HypothesisClass, f_star_table, rho_grid: int = 64
                     ) -> np.ndarray:
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
                  count: int = 64, seed: int = 0) -> np.ndarray:
    """The resolution set: unit-norm star-hull directions, as per-state tables.

    Finite classes: every distinct normalized difference f - f_star of nonzero
    population L2 norm. Linear classes: `count` pseudo-uniform directions
    rescaled to the unit sphere in the E[X X^T] geometry.
    """
    pi = problem.chain.stationary
    if cls.kind == "finite":
        diffs = cls.tables - np.asarray(f_star_table, dtype=float)[None, :]
        norms = np.sqrt((diffs ** 2) @ pi)
        keep = norms > 0
        return np.unique(diffs[keep] / norms[keep, None], axis=0)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, cls.dim))
    tables = dirs @ problem.embedding.T
    norms = np.sqrt((tables ** 2) @ pi)
    norms[norms == 0] = 1.0
    return tables / norms[:, None]
