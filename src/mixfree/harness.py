"""Monte Carlo experiment orchestration: rate sweeps, coverage, diagnostics.

A sweep is a pure function of its configuration: per-replicate seeds derive
deterministically from (master seed, mixing level, n, replicate) (coverage
and diagnostics derive all their seeds in one vectorized pass), cells run
concurrently, and results reduce in (cell, replicate) order regardless of
completion order, so rerunning a sweep reproduces its CSV byte for byte.
Excess risks are summarized by cell medians (heavy upper tails at small n
would corrupt log-log fits). Excess risks and the empirical processes are
`erm`'s, evaluated on the sampler's per-state statistics; this module only
draws seeds, samples and reduces.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .processgen import (RegressionProblem, MarkovChainModel, NoiseSpec,
                         block_sum_second_moment, stream_state_stats,
                         _seed_sequence_state)
from .erm import (HypothesisClass, check_class_fits, excess_risks,
                  multiplier_processes, population_quantities, quadratic_processes,
                  star_hull_tables, _check_epsilon)
from .blocking import blocked_bernstein_bound
from .bounds import INF, Constants, compute_bound_report


def worker_count() -> int:
    """Worker cap from MIXFREE_THREADS, defaulting to hardware parallelism."""
    env = os.environ.get("MIXFREE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"MIXFREE_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def cell_seed(master_seed: int, level_index: int, n: int, replicate: int) -> int:
    """Stable 64-bit seed for one (cell, replicate) coordinate: the first
    uint64 word of SeedSequence([master_seed, level_index, n, replicate])."""
    return int(np.random.SeedSequence([master_seed, level_index, n, replicate])
               .generate_state(1, np.uint64)[0])


def _cell_seeds(master_seed: int, level_index: int, n: int, replicates) -> np.ndarray:
    """cell_seed(master_seed, level_index, n, r) for every r in `replicates`,
    all derived in one vectorized pass (uint64)."""
    return _seed_sequence_state([master_seed, level_index, n], replicates, 1,
                                dtype=np.uint64)[:, 0]


# ---------------------------------------------------------------------------
# sweep configuration and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid of (mixing level, n) cells with seeded replicates."""

    problems: tuple
    labels: tuple
    hypothesis: HypothesisClass
    n_grid: tuple
    replicates: int
    master_seed: int
    delta: float = 0.05
    q: float = 1.0
    p: float = INF
    constants: Constants = Constants()
    block_rule: object = "kmix"       # 'kmix' or a fixed block length >= 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if len(self.problems) != len(self.labels) or not self.problems:
            raise ValueError("need one label per mixing level")
        if not len(self.n_grid):
            raise ValueError("n_grid must hold at least one sample size")
        if any(int(n) < 1 for n in self.n_grid):
            raise ValueError("n grid entries must be positive")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        repeated = sorted({x for x in self.labels if self.labels.count(x) > 1})
        if repeated:
            raise ValueError(f"level labels must be distinct, repeated: {repeated}")
        for problem in self.problems:
            check_class_fits(problem, self.hypothesis)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        repeated = sorted({n for n in self.n_grid if self.n_grid.count(n) > 1})
        if repeated:
            raise ValueError(f"n_grid entries must be distinct, repeated: {repeated}")
        if self.block_rule != "kmix":
            if (isinstance(self.block_rule, bool)
                    or not isinstance(self.block_rule, int) or self.block_rule < 1):
                raise ValueError("block_rule must be 'kmix' or a positive integer, "
                                 f"got {self.block_rule!r}")
            bad = [n for n in self.n_grid if n % (2 * self.block_rule) != 0]
            if bad:
                raise ValueError(
                    f"fixed block length {self.block_rule} must divide n/2 for "
                    f"every grid point; offending n = {bad}")


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    excess: dict            # (level, n) -> np.ndarray of replicate excess risks
    reports: dict           # (level, n) -> BoundReport

    def medians(self, level: int) -> np.ndarray:
        return np.array([float(np.median(self.excess[(level, n)]))
                         for n in self.config.n_grid])


def run_sweep(config: SweepConfig, max_workers: int | None = None) -> SweepResult:
    """Execute every cell of the sweep; concurrent but deterministically reduced."""
    cells = [(li, n) for li in range(len(config.problems)) for n in config.n_grid]

    def one_cell(cell):
        li, n = cell
        seeds = [cell_seed(config.master_seed, li, n, r)
                 for r in range(config.replicates)]
        exc = excess_risks(config.problems[li], config.hypothesis,
                           *stream_state_stats(config.problems[li], n, seeds))
        k = None if config.block_rule == "kmix" else config.block_rule
        report = compute_bound_report(
            config.problems[li], config.hypothesis, n, config.delta, q=config.q,
            p=config.p, k=k, constants=config.constants,
            seed=config.master_seed)
        return cell, exc, report

    workers = max_workers or worker_count()
    results = {}
    # largest n first, so that no long cell starts last and runs alone
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for cell, exc, report in pool.map(one_cell, sorted(cells, key=lambda c: c[1],
                                                           reverse=True)):
            results[cell] = (exc, report)

    excess = {cell: results[cell][0] for cell in cells}
    reports = {cell: results[cell][1] for cell in cells}
    return SweepResult(config=config, excess=excess, reports=reports)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Emit one row per replicate with the per-cell bound quantities attached."""
    cfg = result.config
    with open(path, "w") as fh:
        fh.write("nGrid,mixingLevel,replicate,excessRisk,k,nQuad,nMult,kMix,"
                 "rStar,riskBound\n")
        for li, label in enumerate(cfg.labels):
            for n in cfg.n_grid:
                rep_vals = result.excess[(li, n)]
                rep = result.reports[(li, n)]
                for r, val in enumerate(rep_vals):
                    fh.write(f"{n},{label},{r},{float(val)!r},{rep.k},"
                             f"{rep.n_quad},{rep.n_mult},{rep.k_mix},"
                             f"{float(rep.r_star)!r},{float(rep.risk_bound)!r}\n")


# ---------------------------------------------------------------------------
# rate fitting and the mixing-free comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(median excess) against log(n)."""

    exponent: float
    log_constant: float
    r_squared: float
    n_values: tuple
    medians: tuple

    def __post_init__(self):
        if len(self.n_values) < 3:
            raise ValueError("rate fits require at least 3 grid points")
        if not (0 <= self.r_squared <= 1 + 1e-12):
            raise ValueError("r_squared must lie in [0, 1]")


def fit_rate(n_values, medians) -> RateFit:
    """Ordinary least squares on (log n, log median)."""
    n_values = np.asarray(n_values, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if len(n_values) < 3:
        raise ValueError("rate fits require at least 3 grid points")
    if np.any(medians <= 0):
        raise ValueError("medians must be positive for a log-log fit")
    x = np.log(n_values)
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(float(slope), float(intercept), min(max(r2, 0.0), 1.0),
                   tuple(int(v) for v in n_values), tuple(float(m) for m in medians))


@dataclass(frozen=True)
class MixingFreeReport:
    """Leading-constant comparison across mixing levels past the burn-ins."""

    constant_ratio: float          # slowest / fastest fitted leading constant
    naive_block_ratio: float       # ratio of block lengths k_mix
    window: tuple                  # n values past every level's burn-in
    fits: tuple                    # RateFit per level
    k_mix: tuple                   # per level, at the largest n
    slow_level: int
    fast_level: int


def mixing_free_check(result: SweepResult) -> MixingFreeReport:
    """Compare fitted leading constants between the slowest- and fastest-mixing
    levels on the common post-burn-in window.

    The window keeps grid points n with n >= c3 * max(n_quad, n_mult) for all
    levels, so both fits use the same n values. The naive-blocking prediction
    for contrast is the ratio of block lengths.
    """
    cfg = result.config
    c3 = cfg.constants.c3
    levels = range(len(cfg.problems))
    window = [n for n in cfg.n_grid
              if all(n >= c3 * max(result.reports[(li, n)].n_quad,
                                   result.reports[(li, n)].n_mult)
                     for li in levels)]
    if len(window) < 3:
        n_top = max(cfg.n_grid)
        worst = max(max(result.reports[(li, n_top)].n_quad,
                        result.reports[(li, n_top)].n_mult) for li in levels)
        raise ValueError(
            f"only {len(window)} grid points past the burn-ins (threshold "
            f"~{c3 * worst:.0f} at n = {n_top}); extend the n grid upward "
            "(need >= 3 for a fit)")
    fits = []
    for li in levels:
        meds = [float(np.median(result.excess[(li, n)])) for n in window]
        fits.append(fit_rate(window, meds))
    n_top = max(cfg.n_grid)
    kmix = [result.reports[(li, n_top)].k_mix for li in levels]
    slow, fast = kmix.index(max(kmix)), kmix.index(min(kmix))
    ratio = math.exp(fits[slow].log_constant - fits[fast].log_constant)
    naive = kmix[slow] / kmix[fast]
    return MixingFreeReport(constant_ratio=ratio, naive_block_ratio=naive,
                            window=tuple(window), fits=tuple(fits),
                            k_mix=tuple(kmix), slow_level=slow, fast_level=fast)


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    kind: str
    replicates: int
    delta: float
    frequency: float
    std_error: float
    threshold: float
    realized: np.ndarray
    bounds: np.ndarray
    c2: float | None = None

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("trial,blockedMean,bound,exceeded\n")
            for t, (m, b) in enumerate(zip(self.realized, self.bounds)):
                fh.write(f"{t},{float(m)!r},{float(b)!r},{int(m > b)}\n")


def _functional_problem(model: MarkovChainModel, values) -> RegressionProblem:
    """Wrap a per-state functional as a noiseless problem so the streaming
    sampler can drive it (targets equal values[state])."""
    values = np.asarray(values, dtype=float)
    return RegressionProblem(chain=model, embedding=values[:, None], mode="linear",
                             noise=NoiseSpec.zero(model.n_states),
                             true_param=np.array([1.0]))


def centered_values(model: MarkovChainModel, values) -> np.ndarray:
    """values as one float per state of `model`, checked to have zero
    stationary mean (to 1e-9)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (model.n_states,):
        raise ValueError(f"functional needs one value per state ({model.n_states}), "
                         f"got shape {values.shape}")
    mean_v = float(model.stationary @ values)
    if not abs(mean_v) <= 1e-9:
        raise ValueError(f"functional must be centered under the stationary law, "
                         f"got mean {mean_v:.3e}")
    return values


def blocked_bernstein_coverage(model: MarkovChainModel, values, n: int, k: int,
                               delta: float, replicates: int,
                               master_seed: int) -> CoverageReport:
    """Exceedance frequency of the blocked deviation bound on k-wise
    independent data V_t = values[X_t].

    The bound controls centered data, so the functional must have zero
    stationary mean; the block-sum second moment is computed exactly from the
    kernel. Frequency should not exceed delta plus binomial noise.
    """
    values = centered_values(model, values)
    if k < 1 or n % k != 0:
        raise ValueError("k must divide n")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    problem = _functional_problem(model, values)
    seeds = _cell_seeds(master_seed, 0, n, range(replicates))
    counts, _ = stream_state_stats(problem, n, seeds, block_len=k)
    means = (counts @ values) / n
    b = float(np.max(np.abs(values)))
    bsm = block_sum_second_moment(model, values, k)
    bound = blocked_bernstein_bound(b, bsm, n, k, delta)
    exceeded = means > bound
    freq = float(np.mean(exceeded))
    se = math.sqrt(delta * (1 - delta) / replicates)
    return CoverageReport(kind="blockedBernstein", replicates=replicates,
                          delta=delta, frequency=freq, std_error=se,
                          threshold=delta + 3 * se, realized=means,
                          bounds=np.full(replicates, bound))


def risk_bound_coverage(problem: RegressionProblem, cls: HypothesisClass, n: int,
                        delta: float, cal_replicates: int, val_replicates: int,
                        master_seed: int, q: float = 1.0, p: float = INF,
                        constants: Constants = Constants()) -> CoverageReport:
    """Calibrated coverage of the assembled excess-risk bound at level 1 - 4 delta.

    The theorem guarantee carries failure probability 4 delta, so coverage is
    tested at that level: c2 is the smallest constant putting the calibration
    exceedance at or below 4 delta (an empirical quantile of excess / base
    ratios), then validated on fresh disjoint seeds.
    """
    if not 0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 0.25) for riskBound coverage, "
                         f"which tests at level 4 * delta, got {delta}")
    if min(cal_replicates, val_replicates) < 1:
        raise ValueError("cal_replicates and val_replicates must be >= 1, got "
                         f"{cal_replicates} and {val_replicates}")
    report = compute_bound_report(problem, cls, n, delta, q=q, p=p,
                                  constants=Constants(c1=constants.c1, c2=1.0,
                                                      c3=constants.c3,
                                                      c_alpha=constants.c_alpha),
                                  seed=master_seed)
    base = report.risk_bound          # r_star^2 + V log(1/delta) / n  (c2 = 1)
    cal, val = (excess_risks(problem, cls, *stream_state_stats(problem, n, seeds))
                for seeds in (_cell_seeds(master_seed, 0, n, range(cal_replicates)),
                              _cell_seeds(master_seed, 1, n, range(val_replicates))))

    level = 4 * delta
    allowed = int(math.floor(level * cal_replicates))
    ratios = np.sort(cal / base)
    c2 = float(ratios[cal_replicates - allowed - 1])
    bound = c2 * base
    exceeded = val > bound
    freq = float(np.mean(exceeded))
    se = math.sqrt(level * (1 - level) / val_replicates)
    return CoverageReport(kind="riskBound", replicates=val_replicates, delta=delta,
                          frequency=freq, std_error=se,
                          threshold=level + 3 * se, realized=val,
                          bounds=np.full(val_replicates, bound), c2=c2)


# ---------------------------------------------------------------------------
# process diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsReport:
    """Sign behaviour of the quadratic process and magnitude of the multiplier
    process against the bound engine's own predictions."""

    n: int
    replicates: int
    epsilon: float
    r_star: float
    n_quad: int
    members_outside: int
    q_positive_fraction: float
    multiplier_coverage: float
    multiplier_constant: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def process_diagnostics(problem: RegressionProblem, cls: HypothesisClass, n: int,
                        replicates: int, epsilon: float, delta: float,
                        master_seed: int, q: float = 1.0, p: float = INF,
                        constants: Constants = Constants(),
                        rho_grid: int = 64) -> DiagnosticsReport:
    """Empirical check that the quadratic process is nonpositive outside the
    critical ball and that the multiplier supremum obeys a calibrated bound.

    Works over the discretized star hull of a finite class (the zero function
    is excluded from the sphere by construction). Multiplier coverage is
    calibrated on the first half of the replicates and validated on the rest.
    """
    if cls.kind != "finite":
        raise ValueError("diagnostics currently require a finite class")
    if replicates < 2:
        raise ValueError("replicates must be >= 2 (the multiplier constant is "
                         f"calibrated on half of them), got {replicates}")
    _check_epsilon(epsilon)
    report = compute_bound_report(problem, cls, n, delta, q=q, p=p,
                                  constants=constants, seed=master_seed)
    f_star = population_quantities(problem, cls).f_star_table
    hull = star_hull_tables(cls, f_star, rho_grid=rho_grid)
    norms = np.sqrt((hull ** 2) @ problem.chain.stationary)
    outside = hull[norms > report.r_star]
    sphere_keep = norms >= report.r_star
    sphere = report.r_star * hull[sphere_keep] / norms[sphere_keep, None]
    rhs = report.multiplier_rhs().total if sphere.shape[0] else None
    if rhs == 0:
        raise ValueError("the multiplier bound is 0 (noiseless data, or c1 = c2 = 0): "
                         "no multiplier constant can be calibrated against it")

    seeds = _cell_seeds(master_seed, 2, n, range(replicates))
    counts, ysums = stream_state_stats(problem, n, seeds)
    q_pos = int(np.sum(quadratic_processes(outside, counts, n, problem, epsilon) > 0))
    q_frac = q_pos / max(1, replicates * outside.shape[0])

    mult_cov = 1.0
    c_mult = 0.0
    if sphere.shape[0]:
        sup_m = multiplier_processes(sphere, f_star, counts, ysums, n, problem,
                                     epsilon).max(axis=1)
        half = replicates // 2
        cal, val = sup_m[:half], sup_m[half:]
        allowed = int(math.floor(delta * len(cal)))
        c_mult = float(np.sort(cal / rhs)[len(cal) - allowed - 1])
        mult_cov = float(np.mean(val <= c_mult * rhs))

    return DiagnosticsReport(n=n, replicates=replicates, epsilon=epsilon,
                             r_star=report.r_star, n_quad=report.n_quad,
                             members_outside=outside.shape[0],
                             q_positive_fraction=float(q_frac),
                             multiplier_coverage=mult_cov,
                             multiplier_constant=c_mult)


# ---------------------------------------------------------------------------
# minimal SVG plotting (log-log medians per level)
# ---------------------------------------------------------------------------

_SVG_WIDTH, _SVG_HEIGHT, _SVG_TITLE = 640, 480, "median excess risk"


def svg_loglog(path, n_values, series: dict) -> None:
    """Write a dependency-free SVG log-log plot of per-level medians.

    A log axis has no place for a median of 0, so nonpositive points are left
    out, and so is a level that has none (as sweep_summary skips its rate
    fit); each level keeps its color either way."""
    width, height, title = _SVG_WIDTH, _SVG_HEIGHT, _SVG_TITLE
    xs = np.log10(np.asarray(n_values, dtype=float))
    curves = {}
    for i, (label, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        keep = ys > 0
        if keep.any():
            curves[label] = (i, xs[keep], np.log10(ys[keep]))
    all_y = np.concatenate([c[2] for c in curves.values()] or [np.zeros(1)])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = all_y.min(), all_y.max()
    y0, y1 = y0 - 0.05 * (y1 - y0 + 1e-9), y1 + 0.05 * (y1 - y0 + 1e-9)
    pad = 50

    def sx(x):
        return pad + (x - x0) / max(x1 - x0, 1e-9) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / max(y1 - y0, 1e-9) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-family="monospace">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>',
             f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
             f'font-family="monospace" font-size="12">log10 n</text>']
    for label, (i, px, py) in curves.items():
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(px, py))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{sy(py[-1]):.1f}" '
                     f'font-family="monospace" font-size="12" fill="{color}">'
                     f'{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def sweep_summary(result: SweepResult) -> dict:
    """JSON-ready summary: per-level fits over the full grid plus medians."""
    cfg = result.config
    out = {"n_grid": list(cfg.n_grid), "labels": list(cfg.labels),
           "replicates": cfg.replicates, "master_seed": cfg.master_seed,
           "levels": []}
    for li, label in enumerate(cfg.labels):
        meds = result.medians(li)
        entry = {"label": label, "medians": [float(m) for m in meds]}
        if len(cfg.n_grid) >= 3 and np.all(meds > 0):
            fit = fit_rate(cfg.n_grid, meds)
            entry["exponent"] = fit.exponent
            entry["log_constant"] = fit.log_constant
            entry["r_squared"] = fit.r_squared
        out["levels"].append(entry)
    return out
