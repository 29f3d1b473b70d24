"""Stationary finite-state Markov data generators with exact mixing coefficients.

This module builds the data-generating side of the lab:

- ``MarkovChainModel``: finite-state kernel with a validated stationary law.
- ``NoiseSpec`` / ``RegressionProblem``: covariate embedding, true parameter or
  table, and finite-support noise per state.
- ``sample_trajectory`` / ``kwise_independent_surrogate``: seeded, bit-reproducible
  samplers (stationary start), rows of the batched sampler; it and the
  streaming statistics used by the experiment harness are views of one core
  that walks all replicates through time chunks of one fixed length: the
  merged CDF breakpoints cut [0, 1) into cells, within a cell each step is a
  fixed map from state to state, so every time step is one cell-table lookup
  over all replicates. A guide table finds each uniform's cell in O(1), and
  noise maps to targets in one lookup per group of replicates. One
  SeedSequence/PCG64 seeding pass derives every replicate's streams, and one
  Generator per sampler call draws them all.
- ``beta_at_lag`` / ``lag_weighted_sum``: exact mixing coefficients and lag
  sums, each from one matrix power. TV uses the (1/2)-l1 convention; the
  per-lag loop over all coefficients is the test oracle in tests/oracles.py.

Only finite-state chains get exact coefficients here; continuous processes are
out of scope. All types are immutable after construction and safe to share
across threads; sampling is a pure function of the seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10

NOISE_KINDS = ("bounded-iid", "martingale-difference", "state-dependent-bias")


def _as_matrix(transition) -> np.ndarray:
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValueError(f"transition matrix must be square, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("transition matrix has non-finite entries")
    if np.any(P < -ROW_SUM_TOL) or np.any(P > 1 + ROW_SUM_TOL):
        raise ValueError("transition probabilities must lie in [0, 1]")
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst row error "
                         f"{np.max(np.abs(rows - 1.0)):.3e}")
    return P


def stationary_distribution(transition) -> np.ndarray:
    """Unique stationary law of a row-stochastic matrix.

    Solves the left fixed-point equation directly (eigen-solve plus a
    least-squares polish), which also handles periodic chains where power
    iteration would oscillate. Raises if the stationary law is not unique
    (reducible chain) or puts zero mass on some state (transient states
    present, so the chain is not irreducible).
    """
    P = _as_matrix(transition)
    S = P.shape[0]
    if S == 1:
        return np.ones(1)

    eigvals = np.linalg.eigvals(P.T)
    n_unit = int(np.sum(np.abs(eigvals - 1.0) < 1e-8))
    if n_unit != 1:
        raise ValueError(
            "no unique stationary distribution: eigenvalue 1 of the transition "
            f"matrix has multiplicity {n_unit} (chain is reducible)")

    # (P^T - I) pi = 0 with sum(pi) = 1, solved in the least-squares sense.
    A = np.vstack([P.T - np.eye(S), np.ones((1, S))])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = pi / pi.sum()

    residual = np.max(np.abs(pi @ P - pi))
    if residual > STATIONARY_TOL:
        raise ValueError(f"stationary solve failed: fixed-point residual {residual:.3e}")
    if np.min(pi) <= 1e-14:
        raise ValueError(
            "stationary law is not strictly positive (transient states present; "
            "an irreducible chain is required)")
    return pi


@dataclass(frozen=True)
class MarkovChainModel:
    """Finite-state row-stochastic kernel with its stationary law."""

    transition: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        P = _as_matrix(self.transition)
        pi = np.asarray(self.stationary, dtype=float)
        if pi.shape != (P.shape[0],):
            raise ValueError("stationary vector length must match the state count")
        if abs(pi.sum() - 1.0) > 1e-10 or np.min(pi) <= 0:
            raise ValueError("stationary law must be a strictly positive probability vector")
        if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
            raise ValueError("stationary vector is not a left fixed point of the kernel")
        P.flags.writeable = False
        pi.flags.writeable = False
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def from_transition(cls, transition) -> "MarkovChainModel":
        P = _as_matrix(transition)
        return cls(P, stationary_distribution(P))


def two_state_chain(p: float, q: float) -> MarkovChainModel:
    """Two-state chain with flip probabilities p (0 -> 1) and q (1 -> 0)."""
    return MarkovChainModel.from_transition([[1 - p, p], [q, 1 - q]])


def iid_chain(pi) -> MarkovChainModel:
    """Chain whose every row equals pi: consecutive states are independent."""
    pi = np.asarray(pi, dtype=float)
    return MarkovChainModel.from_transition(np.tile(pi, (len(pi), 1)))


def product_chain(base: MarkovChainModel, copies: int) -> MarkovChainModel:
    """Kernel of `copies` independent replicas of `base`, states enumerated in
    mixed radix (coordinate 0 most significant)."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    P = base.transition
    out = P
    for _ in range(copies - 1):
        out = np.kron(out, P)
    pi = base.stationary
    pi_out = pi
    for _ in range(copies - 1):
        pi_out = np.kron(pi_out, pi)
    return MarkovChainModel(out, pi_out)


def product_embedding(values, copies: int) -> np.ndarray:
    """Coordinate embedding for `product_chain`: state -> per-copy scalar values.

    `values` holds the scalar attached to each base state; the resulting
    (S^copies, copies) matrix maps each product state to its coordinate tuple.
    """
    values = np.asarray(values, dtype=float)
    s = len(values)
    n = s ** copies
    emb = np.empty((n, copies))
    for j in range(copies):
        period = s ** (copies - 1 - j)
        emb[:, j] = values[(np.arange(n) // period) % s]
    return emb


def beta_at_lag(model: MarkovChainModel, lag: int) -> float:
    """Exact mixing coefficient beta(lag) of a stationary chain: the
    pi-average of TV(P^lag(x, .), pi), since for a time-homogeneous
    stationary chain the supremum over the conditioning time is constant.
    It is nonincreasing in lag and lies in [0, 1]. P^lag comes from one
    matrix power by repeated squaring: O(S^3 log lag) work, no per-lag
    loop."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    return _beta_of_power(np.linalg.matrix_power(model.transition, lag),
                          model.stationary)


def _beta_of_power(Pk: np.ndarray, pi: np.ndarray) -> float:
    """pi-average of TV(P^k(x, .), pi), given P^k."""
    tv = 0.5 * np.abs(Pk - pi[None, :]).sum(axis=1)
    return float(pi @ tv)


@dataclass(frozen=True)
class NoiseSpec:
    """Finite-support noise table, one (value, probability) row per state.

    `kind` is one of 'bounded-iid' (same law at every state),
    'martingale-difference' (zero conditional mean per state), or
    'state-dependent-bias' (arbitrary per-state tables). `bound` is an optional
    declared almost-sure bound on |W|.
    """

    kind: str
    values: np.ndarray      # (S, V)
    probs: np.ndarray       # (S, V), rows sum to 1
    bound: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        probs = np.atleast_2d(np.asarray(self.probs, dtype=float))
        if values.shape != probs.shape:
            raise ValueError("noise values and probs must have the same shape")
        if np.any(probs < 0) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("noise probabilities must be nonnegative rows summing to 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("noise values must be finite")
        if self.kind == "martingale-difference":
            means = (values * probs).sum(axis=1)
            if np.max(np.abs(means)) > 1e-12:
                raise ValueError("martingale-difference noise needs zero conditional "
                                 f"mean per state, worst |mean| = {np.max(np.abs(means)):.3e}")
        if self.kind == "bounded-iid":
            if np.any(values != values[0]) or np.any(probs != probs[0]):
                raise ValueError("bounded-iid noise must use the same table at every state")
            if self.bound is None:
                raise ValueError("bounded-iid noise must declare a bound")
        if self.bound is not None:
            support = np.abs(values)[probs > 0]
            if support.size and np.max(support) > self.bound + 1e-12:
                raise ValueError(f"noise values exceed the declared bound {self.bound}")
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    def mean_per_state(self) -> np.ndarray:
        return (self.values * self.probs).sum(axis=1)

    def second_moment_per_state(self) -> np.ndarray:
        return (self.values ** 2 * self.probs).sum(axis=1)

    def var_per_state(self) -> np.ndarray:
        return self.second_moment_per_state() - self.mean_per_state() ** 2

    @classmethod
    def zero(cls, n_states: int) -> "NoiseSpec":
        return cls("martingale-difference",
                   np.zeros((n_states, 1)), np.ones((n_states, 1)), bound=0.0)

    @classmethod
    def symmetric(cls, sigma: float, n_states: int) -> "NoiseSpec":
        """+/- sigma with equal probability at every state (bounded mds)."""
        v = np.tile([-sigma, sigma], (n_states, 1))
        p = np.full((n_states, 2), 0.5)
        return cls("martingale-difference", v, p, bound=abs(sigma))

    @classmethod
    def iid(cls, values, probs, n_states: int, bound: float) -> "NoiseSpec":
        v = np.tile(np.asarray(values, dtype=float), (n_states, 1))
        p = np.tile(np.asarray(probs, dtype=float), (n_states, 1))
        return cls("bounded-iid", v, p, bound=bound)


@dataclass(frozen=True)
class RegressionProblem:
    """Stationary covariate/target model: chain, embedding, truth, and noise.

    mode 'linear': targets Y = <true_param, X> + W with X the state embedding.
    mode 'tabular': targets Y = true_table[state] + W.
    """

    chain: MarkovChainModel
    embedding: np.ndarray           # (S, d)
    mode: str                       # 'linear' | 'tabular'
    noise: NoiseSpec
    true_param: np.ndarray | None = None
    true_table: np.ndarray | None = None

    def __post_init__(self):
        S = self.chain.n_states
        emb = np.atleast_2d(np.asarray(self.embedding, dtype=float))
        if emb.shape[0] != S:
            raise ValueError(f"embedding must have one row per state ({S}), got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embedding must be finite")
        if self.mode not in ("linear", "tabular"):
            raise ValueError(f"mode must be 'linear' or 'tabular', got {self.mode!r}")
        if self.noise.n_states != S:
            raise ValueError("noise table state count does not match the chain")
        if self.mode == "linear":
            if self.true_param is None:
                raise ValueError("linear mode requires true_param")
            beta = np.asarray(self.true_param, dtype=float)
            if beta.shape != (emb.shape[1],):
                raise ValueError("true_param length must match the embedding dimension")
            beta.flags.writeable = False
            object.__setattr__(self, "true_param", beta)
        else:
            if self.true_table is None:
                raise ValueError("tabular mode requires true_table")
            tab = np.asarray(self.true_table, dtype=float)
            if tab.shape != (S,):
                raise ValueError("true_table must have one value per state")
            tab.flags.writeable = False
            object.__setattr__(self, "true_table", tab)
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def structural_mean(self) -> np.ndarray:
        """Per-state target mean before noise."""
        if self.mode == "linear":
            return self.embedding @ self.true_param
        return np.array(self.true_table)

    def regression_mean(self) -> np.ndarray:
        """Per-state conditional mean E[Y | state]."""
        return self.structural_mean() + self.noise.mean_per_state()

    def second_moment_matrix(self) -> np.ndarray:
        """Population covariate second moment E[X X^T] under the stationary law."""
        pi = self.chain.stationary
        return self.embedding.T @ (pi[:, None] * self.embedding)


@dataclass(frozen=True)
class Trajectory:
    """One sampled path: states, covariates, targets, and the seed that made it."""

    n: int
    states: np.ndarray
    covariates: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        if not (len(self.states) == len(self.targets) == self.covariates.shape[0] == self.n):
            raise ValueError("trajectory field lengths disagree")
        for name in ("states", "covariates", "targets"):
            getattr(self, name).flags.writeable = False


def _cumulative_rows(P: np.ndarray) -> np.ndarray:
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0  # guard float drift so every uniform lands in a state
    return cum


# numpy's SeedSequence hash-mix and output constants (numpy/random/bit_generator.pyx)
# and the PCG64 LCG multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words(x: int) -> list[int]:
    """x as SeedSequence reads an int: 32-bit words, low word first, with 0
    as the one word 0."""
    if x < 0:
        raise ValueError(f"seed must be a non-negative integer, got {x}")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _int_words(values) -> tuple[np.ndarray, np.ndarray]:
    """_words of every value at once: (words (R, W) uint64, counts (R,)),
    row r holding counts[r] words, then zeros."""
    ints = [operator.index(v) for v in values]
    if ints and min(ints) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {min(ints)}")
    x = np.array(ints, dtype=object if ints and max(ints) > _M64 else np.uint64)
    cols, counts = [], np.ones(len(ints), dtype=np.intp)
    while True:
        cols.append((x & _M32).astype(np.uint64))
        x = x >> 32
        live = x != 0
        if not live.any():
            return np.stack(cols, axis=1), counts
        counts += live


def _seed_sequence_state(parts, n_words: int, spawn_key: int | None = None,
                         dtype=np.uint32) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=(spawn_key,)).generate_state(n_words,
    dtype) for every row at once, as an (R, n_words) array.

    Row r's entropy is the words of each part in turn: an int part is shared
    by every row (its words are Python ints), a sequence part gives row r its
    r-th value (its words are uint64 columns). With a spawn key, the entropy
    is zero-padded to the 4-word pool and the key appended, as
    SeedSequence.spawn does. The hash constant's course depends only on the
    word count, so rows whose per-row parts take the same word counts (one
    layout) mix in lock step, one pass per layout; with no per-row part there
    is one row, mixed on ints alone.
    """
    split = [_words(operator.index(p)) if isinstance(p, (int, np.integer))
             else _int_words(p) for p in parts]
    per_row = [s for s in split if isinstance(s, tuple)]
    dims = [int(c.max(initial=0)) + 1 for _, c in per_row]
    key = np.atleast_1d(np.ravel_multi_index([c for _, c in per_row], dims))
    wide = np.dtype(dtype).itemsize // 4
    out = np.empty((len(key), n_words), dtype=dtype)
    for layout in np.unique(key).tolist():
        rows = key == layout
        counts = iter(np.unravel_index(layout, dims))
        lanes = []
        for s in split:
            lanes += s if isinstance(s, list) else [s[0][rows, j] for j in range(next(counts))]
        lanes += [0] * (4 - len(lanes)) + ([] if spawn_key is None else [spawn_key])
        words = _hash_mix(lanes, n_words * wide)
        if wide == 2:   # uint64 words are pairs of uint32 words, low word first
            words = [lo | hi << 32 for lo, hi in zip(words[0::2], words[1::2])]
        for i, word in enumerate(words):
            out[rows, i] = word
    return out


def _hash_mix(lanes: list, n_words: int) -> list:
    """SeedSequence's mix of 4 or more lanes (ints or uint64 columns): n_words words."""
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & _M32
        v = v * hc & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = (x * _MIX_L - y * _MIX_R) & _M32
        return v ^ v >> 16

    pool = [hashmix(lanes[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for lane in lanes[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(lane))
    hc = _INIT_B
    out = []
    for i in range(n_words):
        v = pool[i % 4] ^ hc
        hc = hc * _MULT_B & _M32
        v = v * hc & _M32
        out.append(v ^ v >> 16)
    return out


def _pcg64_states(seeds) -> list[list[tuple[int, int]]]:
    """PCG64 (state, inc) of default_rng(SeedSequence(s).spawn(2)[k]) for
    every seed s, as streams[k][r], k = 0 (states) and 1 (noise).

    PCG64 takes four uint64 words w from its SeedSequence, sets
    inc = (w2 w3) << 1 | 1 and, from state 0, steps the LCG, adds
    initstate = (w0 w1) and steps again: state = (initstate + inc) * M + inc,
    all mod 2^128.
    """
    streams = []
    for key in (0, 1):
        stream = []
        for w0, w1, w2, w3 in _seed_sequence_state([seeds], 4, key, np.uint64).tolist():
            inc = ((w2 << 64 | w3) << 1 | 1) & _M128
            stream.append((((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128, inc))
        streams.append(stream)
    return streams


class _Streams:
    """The state (0) and noise (1) uniform streams of every replicate.

    One Generator, owned by one sampler call, draws them all: each draw
    assigns the stream's PCG64 state and fills one row. When a later time
    chunk continues the streams (resume), the state is read back after each
    draw. Never share an instance across threads.
    """

    def __init__(self, seeds, resume: bool):
        self._streams = _pcg64_states(seeds)
        self._gen = np.random.Generator(np.random.PCG64(0))
        self._inner = {"state": 0, "inc": 0}
        self._state = {"bit_generator": "PCG64", "state": self._inner,
                       "has_uint32": 0, "uinteger": 0}
        self._resume = resume

    def fill(self, stream: int, r0: int, out: np.ndarray) -> None:
        """Draw each row out[i] from replicate r0 + i's stream."""
        states, bitgen, inner = self._streams[stream], self._gen.bit_generator, self._inner
        for i in range(len(out)):
            inner["state"], inner["inc"] = states[r0 + i]
            bitgen.state = self._state
            self._gen.random(out=out[i])
            if self._resume:
                states[r0 + i] = (bitgen.state["state"]["state"], inner["inc"])


_GUIDE = 1 << 12    # guide-table bins over [0, 1)


def _cell_table(cum: np.ndarray):
    """Inverse-CDF draws of every row of `cum`, tabulated per cell of u, and
    the guide table that finds a uniform's cell.

    `breaks` merges the values of all rows. A uniform u in [0, 1) falls in
    cell c = searchsorted(breaks, u, side="right"), and every comparison
    u < cum[i, k] is the same for all u of one cell, so row i draws
    tab[c, i] = argmax(u < cum[i]) throughout it. The running maximum keeps
    this exact for rows that float drift makes non-monotone. Only cells below
    1.0 = cum[:, -1] are listed, since u < 1.

    The guide (Chen & Asau 1974; Devroye 1986, III.2) splits [0, 1) into
    _GUIDE bins. Bin b holds the cell of b/_GUIDE; it is marked ambiguous
    when the double just below (b+1)/_GUIDE lies in another cell. Cells grow
    with u, so every u of an unmarked bin has the bin's cell.
    """
    breaks = np.unique(cum)
    pos = np.maximum.accumulate(np.searchsorted(breaks, cum), axis=1)
    cells = np.arange(np.searchsorted(breaks, 1.0) + 1)
    tab = np.stack([np.searchsorted(p, cells) for p in pos], axis=1)
    edges = np.arange(_GUIDE + 1) / _GUIDE
    lo = np.searchsorted(breaks, edges[:-1], side="right")
    hi = np.searchsorted(breaks, np.nextafter(edges[1:], 0), side="right")
    return breaks, tab, (lo.astype(np.min_scalar_type(len(tab))), lo != hi)


def _cell_ids(breaks: np.ndarray, guide, u: np.ndarray) -> np.ndarray:
    """searchsorted(breaks, u, side="right") through the guide table: exact,
    since u * _GUIDE scales by a power of two, and only uniforms in
    ambiguous bins are searched."""
    cell, ambiguous = guide
    b = (u * _GUIDE).astype(np.intp)
    out = cell[b]
    amb = np.flatnonzero(ambiguous[b])
    out.flat[amb] = np.searchsorted(breaks, u.flat[amb], side="right")
    return out


_SUB_BLOCK = 1 << 16    # replicate-steps per walk sub-block and per replicate group
_TIME_CHUNK = 1 << 16   # time steps per chunk of every sampler


def _sample_paths(problem: RegressionProblem, n: int, seeds, block_len: int | None):
    """Yield (t0, r0, states, targets) for each group of replicates r0, r0 + 1,
    ... of each time chunk t0, t0 + 1, ..., one row per replicate.

    The one core of every sampler. Replicate r consumes its own state and
    noise streams in order, so its path has the same bits whatever
    _TIME_CHUNK is. Each group's state uniforms become cell ids as soon as
    they are drawn, and each time step is one lookup over all replicates,
    states[t] = table[cell[t], states[t - 1]], where t = 0 and every multiple
    of block_len use the stationary rows. A group's noise is one lookup too:
    its uniforms become noise cells, and the target table holds
    mean[s] + values[s, draw] per (state s, noise cell). Groups hold about
    _SUB_BLOCK replicate-steps, so per-call costs are shared by many
    replicates on short paths and buffers stay small on long ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    streams = _Streams(seeds, resume=n > _TIME_CHUNK)
    R, S = len(seeds), problem.n_states
    breaks, tab, guide = _cell_table(np.vstack([
        _cumulative_rows(problem.chain.transition),
        _cumulative_rows(problem.chain.stationary[None, :])]))
    C = len(tab)
    # row c < C maps each state to its successor for a uniform in cell c; row
    # C + c is the constant map of a stationary draw, taken at restarts
    flat = np.concatenate([tab[:, :S], np.repeat(tab[:, S:], S, axis=1)]).ravel()
    noise_breaks, noise_tab, noise_guide = _cell_table(_cumulative_rows(problem.noise.probs))
    mean = problem.structural_mean()
    # ytab[s, c] = mean[s] + values[s, draw]: the target of state s for a noise
    # uniform in noise cell c, the same sum the per-step formula takes
    ytab = (mean[:, None] + problem.noise.values[np.arange(S)[:, None], noise_tab.T]).ravel()
    period = block_len or n
    sub = max(1, _SUB_BLOCK // max(R, 1))
    x = np.zeros(R, dtype=np.intp)           # previous states; t = 0 restarts
    for t0 in range(0, n, _TIME_CHUNK):
        T = min(_TIME_CHUNK, n - t0)
        group = max(1, _SUB_BLOCK // T)
        u = np.empty((min(group, R), T))
        cid = np.empty((R, T), dtype=guide[0].dtype)
        for r0 in range(0, R, group):
            block = u[:R - r0]
            streams.fill(0, r0, block)
            cid[r0:r0 + len(block)] = _cell_ids(breaks, guide, block)
        states = np.empty((R, T), dtype=np.intp)
        for a in range(0, T, sub):
            idx = cid[:, a:a + sub].T.astype(np.intp, order="C")   # (steps, R)
            idx[-(t0 + a) % period::period] += C
            idx *= S
            for row in idx:
                row += x
                flat.take(row, out=x, mode="clip")   # in range; "raise" buffers out
            states[:, a:a + sub] = flat.take(idx).T
        del cid
        for r0 in range(0, R, group):
            block = u[:R - r0]
            streams.fill(1, r0, block)
            rows = states[r0:r0 + len(block)]
            at = rows * len(noise_tab)
            at += _cell_ids(noise_breaks, noise_guide, block)
            yield t0, r0, rows, ytab.take(at)


def sample_trajectory(problem: RegressionProblem, n: int, seed: int) -> Trajectory:
    """Sample a stationary trajectory of length n; pure function of the seed."""
    return kwise_independent_surrogate(problem, n, n, seed)


def kwise_independent_surrogate(problem: RegressionProblem, n: int, k: int,
                                seed: int) -> Trajectory:
    """Concatenate n/k independent stationary blocks of length k.

    Each block has the chain's joint law; blocks are mutually independent by
    construction. k = n is sample_trajectory (same stream, one block).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1 or n % k != 0:
        raise ValueError(f"block length k = {k} must divide n = {n}")
    states, targets = sample_path_batch(problem, n, [seed], k)
    return Trajectory(n, states[0], problem.embedding[states[0]], targets[0], seed)


def sample_path_batch(problem: RegressionProblem, n: int, seeds,
                      block_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched sampler: states and targets for many seeds, no covariate matrix.

    Row r is the trajectory of seeds[r] (sample_trajectory, or the k-wise
    surrogate when block_len is given): each replicate consumes its own
    streams in order.
    """
    seeds = list(seeds)
    states = np.empty((len(seeds), n), dtype=np.int64)
    targets = np.empty((len(seeds), n))
    for t0, r0, rows, y in _sample_paths(problem, n, seeds, block_len):
        at = np.s_[r0:r0 + len(rows), t0:t0 + rows.shape[1]]
        states[at], targets[at] = rows, y
    return states, targets


def stream_state_stats(problem: RegressionProblem, n: int, seeds,
                       block_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate sufficient statistics of a path batch, in O(R * chunk) memory.

    Walks the replicated chain through time chunks and accumulates, per
    replicate, the state visit counts and the per-state target sums. These
    determine least-squares and finite-class excess risks exactly, so long
    trajectories never need materializing. Replicate r consumes the same
    streams as sample_trajectory(problem, n, seeds[r]); returns
    (counts (R,S), target_sums (R,S)). Each replicate group is one bincount
    over r * S + state, which adds every (replicate, state) bin's targets in
    time order, as a bincount per replicate would.
    """
    seeds = list(seeds)
    S = problem.n_states
    counts = np.zeros((len(seeds), S))
    ysums = np.zeros((len(seeds), S))
    for _, r0, rows, y in _sample_paths(problem, n, seeds, block_len):
        g = len(rows)
        key = (rows + S * np.arange(g)[:, None]).ravel()
        counts[r0:r0 + g] += np.bincount(key, minlength=g * S).reshape(g, S)
        ysums[r0:r0 + g] += np.bincount(key, weights=y.ravel(),
                                        minlength=g * S).reshape(g, S)
    return counts, ysums


# ---------------------------------------------------------------------------
# exact chain moments
# ---------------------------------------------------------------------------

def lag_weighted_sum(model: MarkovChainModel, k: int) -> np.ndarray:
    """sum_{l=1}^{k-1} (k - l) Q^l for the centered kernel Q = P - 1 pi^T.

    Q^l = P^l - 1 pi^T, so this carries every lag's covariance in a
    length-k stationary block. It is block (2, 0) of B^(k-1) for the block
    matrix B = [[Q, 0, 0], [Q, I, 0], [Q, I, I]], whose powers keep Q^m, the
    running sum of Q^l and the running sum of those sums: one matrix power
    of a 3S x 3S matrix by repeated squaring, O(S^3 log k) work. It takes no
    inverse: the closed form through (I - Q)^(-1) is badly conditioned on
    near-reducible chains and can be wrong there in every digit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    S = model.n_states
    Q = model.transition - model.stationary[None, :]
    eye, zero = np.eye(S), np.zeros((S, S))
    B = np.block([[Q, zero, zero], [Q, eye, zero], [Q, eye, eye]])
    return np.linalg.matrix_power(B, k - 1)[2 * S:, :S]


def block_sum_second_moment(model: MarkovChainModel, values, k: int) -> float:
    """Exact E[(V_1 + ... + V_k)^2] for V_t = values[X_t] on a stationary block."""
    values = np.asarray(values, dtype=float)
    pi = model.stationary
    mean = float(pi @ values)
    return (k * float(pi @ values ** 2)
            + 2.0 * float((pi * values) @ lag_weighted_sum(model, k) @ values)
            + k * (k - 1) * mean ** 2)


# ---------------------------------------------------------------------------
# structured-document interface (JSON model specs, CSV trajectories)
# ---------------------------------------------------------------------------

_PROBLEM_KEYS = {"transition", "embedding", "mode", "true_param", "true_table", "noise"}
_NOISE_KEYS = {"kind", "values", "probs", "bound"}


def problem_from_dict(spec: dict) -> RegressionProblem:
    """Build a RegressionProblem from a parsed JSON document; unknown keys rejected."""
    if not isinstance(spec, dict):
        raise ValueError("model spec must be a JSON object")
    unknown = set(spec) - _PROBLEM_KEYS
    if unknown:
        raise ValueError(f"unknown model key(s): {sorted(unknown)}")
    for key in ("transition", "mode", "noise"):
        if key not in spec:
            raise ValueError(f"model spec is missing required key {key!r}")
    nspec = spec["noise"]
    if not isinstance(nspec, dict):
        raise ValueError("noise spec must be a JSON object")
    unknown = set(nspec) - _NOISE_KEYS
    if unknown:
        raise ValueError(f"unknown noise key(s): {sorted(unknown)}")
    for key in ("kind", "values", "probs"):
        if key not in nspec:
            raise ValueError(f"noise spec is missing required key {key!r}")
    chain = MarkovChainModel.from_transition(spec["transition"])
    S = chain.n_states
    noise = NoiseSpec(nspec["kind"], np.asarray(nspec["values"], dtype=float),
                      np.asarray(nspec["probs"], dtype=float), nspec.get("bound"))
    embedding = spec.get("embedding")
    if embedding is None:
        embedding = np.eye(S)  # one-hot default for tabular problems
    return RegressionProblem(
        chain=chain,
        embedding=np.asarray(embedding, dtype=float),
        mode=spec["mode"],
        noise=noise,
        true_param=None if spec.get("true_param") is None
        else np.asarray(spec["true_param"], dtype=float),
        true_table=None if spec.get("true_table") is None
        else np.asarray(spec["true_table"], dtype=float),
    )


def problem_to_dict(problem: RegressionProblem) -> dict:
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


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with columns (t, state, x_1..x_d, y).

    Floats are written with repr (shortest round-trip form); each column is
    converted to a Python list once and the rows are joined from those lists.
    """
    d = traj.covariates.shape[1]
    header = ["t", "state"] + [f"x_{j + 1}" for j in range(d)] + ["y"]
    columns = [map(str, range(1, traj.n + 1)),
               map(str, np.asarray(traj.states, dtype=np.int64).tolist())]
    columns += [map(repr, col)
                for col in np.asarray(traj.covariates, dtype=float).T.tolist()]
    columns.append(map(repr, np.asarray(traj.targets, dtype=float).tolist()))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
