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
  over all lanes, walked through time-major blocks that are copied in and
  out a cache-sized strip of lanes at a time. Many replicates are one lane
  each. With few, on a chain whose composed maps fit the closure budget, a
  replicate's chunk of T steps is cut into about sqrt(2T) blocks, one lane
  each, that enter at states found by composing the blocks' maps (one pass
  that carries each block's map as an id into the problem's closure table,
  and a loop that chains the blocks), so even a single path takes
  O(sqrt(T)) numpy steps per chunk, not T. A guide table finds
  each uniform's cell in O(1), and noise maps to targets in one lookup per
  group of replicates; a noise table of one cell (noiseless problems)
  draws no noise stream, since every uniform would fall in that cell. The
  tables are built once per problem. One vectorized SeedSequence pass
  derives the words that every replicate's PCG64 streams seed from; a
  replicate's Generator is built when its row is filled and kept only
  while another time chunk follows.
- ``beta_at_lag`` / ``lag_weighted_sum``: exact mixing coefficients and lag
  sums, each from one matrix power. TV uses the (1/2)-l1 convention; the
  per-lag loop over all coefficients is the test oracle in tests/oracles.py.

Only finite-state chains get exact coefficients here; continuous processes are
out of scope. All types are immutable after construction and safe to share
across threads; sampling is a pure function of the seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10

NOISE_KINDS = ("bounded-iid", "martingale-difference", "state-dependent-bias")
_REPAIR_LAG = 4096      # beta_at_lag repairs squares of this lag and above


def _reals(x, name: str) -> np.ndarray:
    """x as a float array; a boolean, a string or a non-finite entry is
    refused, naming `name` (numpy would read True as 1 and "0.5" as 0.5)."""
    try:
        if (x.dtype == bool if isinstance(x, np.ndarray) else not {bool, str}.isdisjoint(
                map(type, np.asarray(x, dtype=object).ravel()))):
            raise TypeError
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold numbers only") from None
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_matrix(transition) -> np.ndarray:
    P = _reals(transition, "transition matrix")
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValueError(f"transition matrix must be square, got shape {P.shape}")
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


def _centered_kernel(model: MarkovChainModel) -> np.ndarray:
    """Q = P - 1 pi^T, with Q^k = P^k - 1 pi^T for k >= 1 since P Pi = Pi P = Pi^2
    = Pi for Pi = 1 pi^T (Levin, Peres & Wilmer, Markov Chains and Mixing Times)."""
    return model.transition - model.stationary[None, :]


def beta_at_lag(model: MarkovChainModel, lag: int) -> float:
    """Exact mixing coefficient beta(lag) of a stationary chain: the
    pi-average of TV(P^lag(x, .), pi), nonincreasing in lag and in [0, 1] (for
    a time-homogeneous stationary chain the supremum over the conditioning
    time is constant). P^lag - 1 pi^T = Q^lag is one power of the centered
    kernel by repeated squaring, O(S^3 log lag); powers of P drift by a
    rounding per step (beta(2^62) read 0.5 on a chain whose beta is 0 there).
    Bare powers of Q drift too on periodic chains, whose Q keeps eigenvalues
    of modulus 1 (past 1e-12 near lag 2^16). So squares from lag _REPAIR_LAG
    on are put back where Q^m lies: Q^m + 1 pi^T is row-stochastic, so
    negative entries are cut to 0 and rows rescaled to sum 1; below it, a
    matrix within ROW_SUM_TOL of stochastic keeps its own powers."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    pi = model.stationary
    Q, power, m = _centered_kernel(model), None, 1
    while lag:
        if lag & 1:
            power = Q if power is None else power @ Q
        lag >>= 1
        if lag:
            Q, m = Q @ Q, 2 * m
            if m >= _REPAIR_LAG:
                W = np.maximum(Q + pi, 0.0)
                Q = W / W.sum(axis=1, keepdims=True) - pi
    return float(pi @ (0.5 * np.abs(power).sum(axis=1)))


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
        values = np.atleast_2d(_reals(self.values, "noise values"))
        probs = np.atleast_2d(_reals(self.probs, "noise probs"))
        if values.shape != probs.shape:
            raise ValueError("noise values and probs must have the same shape")
        if np.any(probs < 0) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("noise probabilities must be nonnegative rows summing to 1")
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
            if _reals(self.bound, "noise bound").ndim:
                raise ValueError(f"noise bound must be one number, got {self.bound!r}")
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
        emb = np.atleast_2d(_reals(self.embedding, "embedding"))
        if emb.shape[0] != S:
            raise ValueError(f"embedding must have one row per state ({S}), got {emb.shape}")
        if self.mode not in ("linear", "tabular"):
            raise ValueError(f"mode must be 'linear' or 'tabular', got {self.mode!r}")
        if self.noise.n_states != S:
            raise ValueError("noise table state count does not match the chain")
        if self.mode == "linear":
            if self.true_param is None:
                raise ValueError("linear mode requires true_param")
            beta = _reals(self.true_param, "true_param")
            if beta.shape != (emb.shape[1],):
                raise ValueError("true_param length must match the embedding dimension")
            beta.flags.writeable = False
            object.__setattr__(self, "true_param", beta)
        else:
            if self.true_table is None:
                raise ValueError("tabular mode requires true_table")
            tab = _reals(self.true_table, "true_table")
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

    @cached_property
    def _sampler(self) -> "_Tables":
        """The sampler's tables, built on first use and kept, since the
        problem never changes; two threads may both build them, to the same
        value."""
        return _Tables(self)


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
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _int_words(values) -> tuple[np.ndarray, np.ndarray]:
    """Every value as SeedSequence reads an int, 32-bit words, low word first
    (0 is the one word 0): (words (R, W) uint64, counts (R,)), row r holding
    counts[r] words, then zeros."""
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


def _seed_sequence_state(shared, rows, n_words: int, spawn_keys=None,
                         dtype=np.uint32) -> np.ndarray:
    """SeedSequence([*shared, rows[r]], spawn_key=(spawn_keys[r],)).generate_state(
    n_words, dtype) for every row r at once, as an (R, n_words) array.

    Row r's entropy is the words of each shared int (Python ints, the same
    for every row), then the words of rows[r] (uint64 columns). With spawn
    keys, one per row, the entropy is zero-padded to the 4-word pool and the
    row's key appended, as SeedSequence.spawn does. The hash constant's
    course depends only on the word count, so rows whose value takes the
    same number of words mix in lock step, one pass per word count.
    """
    lead, lead_counts = _int_words(shared)
    lead = [w for row, c in zip(lead.tolist(), lead_counts) for w in row[:c]]
    words, counts = _int_words(rows)
    keys = [] if spawn_keys is None else [np.asarray(spawn_keys, dtype=np.uint64)]
    wide = np.dtype(dtype).itemsize // 4
    out = np.empty((len(counts), n_words), dtype=dtype)
    for count in np.unique(counts).tolist():
        at = counts == count
        lanes = lead + [words[at, j] for j in range(count)]
        lanes += [0] * (4 - len(lanes)) + [key[at] for key in keys]
        mixed = _hash_mix(lanes, n_words * wide)
        if wide == 2:   # uint64 words are pairs of uint32 words, low word first
            mixed = [lo | hi << 32 for lo, hi in zip(mixed[0::2], mixed[1::2])]
        for i, word in enumerate(mixed):
            out[at, i] = word
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


class _Words(ISeedSequence):
    """Four uint64 words, handed to PCG64 as a SeedSequence would hand them."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype):
        return self._words


def _stream_words(seeds, keys) -> np.ndarray:
    """The words that PCG64 seeds from in default_rng(SeedSequence(s).spawn(2)[k])
    for each key k of keys and each seed s, as (len(keys), R, 4) uint64: key
    0 is the state stream and key 1 the noise stream. One vectorized pass
    derives them all, the spawn key a per-row lane."""
    R = len(seeds)
    words = _seed_sequence_state([], list(seeds) * len(keys), 4,
                                 np.repeat(keys, R), np.uint64)
    return words.reshape(len(keys), R, 4)


_DROPPED = object()   # a stream row whose Generator was let go after its last fill


class _Streams:
    """The state (0) and noise (1) uniform streams of every replicate of one
    sampler call, keys the streams it draws (a problem whose noise table
    has one cell never derives its noise stream).

    The words every replicate's PCG64 seeds from are derived once, for all
    replicates and streams (_stream_words). A replicate's Generator is
    built when its row is first filled and kept only when the fill says
    another fill follows (another time chunk), so a call on paths of one
    chunk never holds a Generator per replicate. A row let go refuses a
    further fill rather than restart its stream. Never share an instance
    across threads.
    """

    def __init__(self, seeds, keys):
        self._words = _stream_words(seeds, keys)
        self._gens = [[None] * len(seeds) for _ in keys]

    def fill(self, stream: int, r0: int, out: np.ndarray, keep: bool) -> None:
        """Draw each row out[i] from replicate r0 + i's stream, keeping its
        Generator for a further fill only if keep."""
        gens = self._gens[stream]
        for r, (row, words) in enumerate(zip(out, self._words[stream, r0:]), r0):
            gen = gens[r]
            if gen is None:
                gen = np.random.Generator(np.random.PCG64(_Words(words)))
            elif gen is _DROPPED:
                raise RuntimeError(f"stream {stream} of replicate {r} was let go "
                                   f"after its last fill")
            gen.random(out=row)
            gens[r] = gen if keep else _DROPPED


_GUIDE = 1 << 12    # guide-table bins over [0, 1)


def _cell_table(cum: np.ndarray, breaks: np.ndarray):
    """Inverse-CDF draws of every row of `cum`, tabulated per cell of u, and
    the guide table that finds a uniform's cell.

    `breaks` = np.unique(cum) merges the values of all rows. A uniform u in
    [0, 1) falls in cell c = searchsorted(breaks, u, side="right"), and every
    comparison u < cum[i, k] is the same for all u of one cell, so row i draws
    tab[c, i] = argmax(u < cum[i]) throughout it. The running maximum keeps
    this exact for rows that float drift makes non-monotone. Only cells below
    1.0 = cum[:, -1] are listed, since u < 1.

    The guide (Chen & Asau 1974; Devroye 1986, III.2) splits [0, 1) into
    _GUIDE bins. Bin b holds the cell of b/_GUIDE; it is marked ambiguous
    when the double just below (b+1)/_GUIDE lies in another cell. Cells grow
    with u, so every u of an unmarked bin has the bin's cell.
    """
    pos = np.maximum.accumulate(np.searchsorted(breaks, cum), axis=1)
    cells = np.arange(np.searchsorted(breaks, 1.0) + 1)
    tab = np.empty((len(pos), len(cells)), dtype=np.intp)   # one copy, filled in place
    for row, p in zip(tab, pos):
        row[:] = np.searchsorted(p, cells)
    edges = np.arange(_GUIDE + 1) / _GUIDE
    lo = np.searchsorted(breaks, edges[:-1], side="right")
    hi = np.searchsorted(breaks, np.nextafter(edges[1:], 0), side="right")
    return tab.T, (lo.astype(np.min_scalar_type(len(cells))), lo != hi)


def _cell_ids(breaks: np.ndarray, guide, u: np.ndarray) -> np.ndarray:
    """searchsorted(breaks, u, side="right") through the guide table: exact,
    since u * _GUIDE scales by a power of two, and only uniforms in
    ambiguous bins are searched."""
    cell, ambiguous = guide
    b = np.multiply(u, _GUIDE, out=np.empty(u.shape, dtype=np.intp), casting="unsafe")
    out = cell.take(b)
    amb = np.flatnonzero(ambiguous.take(b))
    out.flat[amb] = np.searchsorted(breaks, u.flat[amb], side="right")
    return out


_SUB_BLOCK = 1 << 16        # lane-steps per walk sub-block, replicate-steps per group,
                            # and ids per bounds.weak_variance_2q member block
_TIME_CHUNK = 1 << 16       # time steps per chunk of every sampler
_TM_STEPS = 256             # time steps per time-major block of the walk
_STRIP = 32                 # lanes per strip of its transposes
_WALK_CROSSOVER = 128       # most replicates walked in blocks
_TABLE_BYTES = 1 << 29      # largest step table and cell table of a chain, together
_CLOSURE_BUDGET = 1 << 16   # largest composition table, in entries G * K


def _closure(gens: np.ndarray, budget: int):
    """The maps that the step maps gens (G, S) compose to from the identity,
    and their composition table: (maps (K, S), comp (G, K)) with
    maps[comp[g, m]] = gens[g][maps[m]], map 0 the identity; None once
    G * K exceeds budget.

    Built by frontier: each round applies every step map to the maps that
    the round before found, and one np.unique over the rows (as byte
    strings) of the known and the candidate maps tells the new ones. Maps
    keep their order of discovery, so each round's frontier is a run of ids
    and fills a run of comp's columns. A round over F <= K maps touches
    G * F * S <= budget * S entries.
    """
    G, S = gens.shape
    gens = gens.astype(np.min_scalar_type(S - 1), copy=False)
    row = np.dtype((np.void, S * gens.itemsize))
    maps, comp, start = np.arange(S, dtype=gens.dtype)[None, :], [], 0
    while G * len(maps) <= budget:
        K = len(maps)
        if start == K:
            return maps, np.concatenate(comp, axis=1)
        both = np.ascontiguousarray(np.concatenate([maps,
                                                    gens[:, maps[start:]].reshape(-1, S)]))
        _, first, inv = np.unique(both.view(row).ravel(), return_index=True,
                                  return_inverse=True)
        new = np.sort(first[first >= K])
        ids = np.where(first < K, first, K + np.searchsorted(new, first))
        comp.append(ids[inv[K:]].reshape(G, K - start))
        maps, start = np.concatenate([maps, both[new]]), K
    return None


class _Tables:
    """A problem's sampler tables, built once (RegressionProblem._sampler).

    The state side merges the cells of the S transition rows and the
    stationary row into G = 2C + 1 step maps over the states, the rows of
    `gens`: row c < C maps each state to its successor for a uniform in cell
    c; row C + c is the constant map of a stationary draw, taken at
    restarts; row 2C is the identity, which pads a chunk that nb does not
    divide. The one step table `flat_g` lists them state-major and times G,
    flat_g[s * G + g] = G * gens[g, s], so a walk's lanes hold G times their
    state and a step of all lanes is one add of its row ids and one take.
    The noise side is one lookup: ytab[s, c] = mean[s] + values[s, draw],
    the target of state s for a noise uniform in noise cell c, the same sum
    the per-step formula takes.

    Their size is checked before they are built: a chain whose step table
    and the cell table it is filled from pass _TABLE_BYTES together is
    refused with a ValueError that names S. Every chain of up to 256 states
    fits.
    """

    def __init__(self, problem: RegressionProblem):
        S = self.S = problem.n_states
        cum = np.vstack([_cumulative_rows(problem.chain.transition),
                         _cumulative_rows(problem.chain.stationary[None, :])])
        self.breaks = np.unique(cum)
        C = self.C = int(np.searchsorted(self.breaks, 1.0)) + 1
        G = self.G = 2 * C + 1
        size = (G * S + C * (S + 1)) * np.dtype(np.intp).itemsize
        if size > _TABLE_BYTES:
            raise ValueError(f"a {S}-state chain needs {size / 2 ** 20:.0f} MiB of sampler "
                             f"tables ({C} cells), over the limit of "
                             f"{_TABLE_BYTES / 2 ** 20:.0f} MiB")
        tab, self.guide = _cell_table(cum, self.breaks)
        flat_g = np.empty((S, G), dtype=np.intp)
        flat_g[:, :C] = tab[:, :S].T
        flat_g[:, C:2 * C] = tab[:, S]
        flat_g[:, 2 * C] = np.arange(S)
        flat_g *= G
        self.flat_g = flat_g.ravel()
        noise_cum = _cumulative_rows(problem.noise.probs)
        self.noise_breaks = np.unique(noise_cum)
        noise_tab, self.noise_guide = _cell_table(noise_cum, self.noise_breaks)
        self.n_noise = len(noise_tab)
        self.ytab = (problem.structural_mean()[:, None]
                     + problem.noise.values[np.arange(S)[:, None], noise_tab.T]).ravel()

    @property
    def gens(self) -> np.ndarray:
        """The step maps (G, S), in the smallest dtype that holds a state."""
        S, G = self.S, self.G
        return np.floor_divide(self.flat_g.reshape(S, G).T, G, casting="unsafe",
                               out=np.empty((G, S), dtype=np.min_scalar_type(S - 1)))

    @cached_property
    def closure(self):
        """(maps (K, S), comp_g) with comp_g[m * G + g] = G * comp[g, m] (see
        _closure), or None over _CLOSURE_BUDGET. Built on the first chunk of
        1 to _WALK_CROSSOVER replicates and two or more blocks, since
        _walk_blocks needs it to decide whether to block; a chain over the
        budget builds it once, to the budget, and then walks such chunks as
        one block. Two threads may both build it, to the same value."""
        closure = _closure(self.gens, _CLOSURE_BUDGET)
        if closure is None:
            return None
        maps, comp = closure
        return maps, (self.G * comp.T).ravel()


def _walk_blocks(R: int, T: int, tables: _Tables) -> tuple[int, int]:
    """(nb, L): a T-step chunk of R replicates is walked as nb blocks of L
    steps, only the last one short.

    Each step of a walk costs numpy calls over its lanes, so few lanes leave
    the per-step overhead to dominate. Up to R = _WALK_CROSSOVER, a chunk is
    walked in about sqrt(2T) blocks, which balances the 2L steps of the two
    passes against the nb steps that chain them, if the problem's closure
    fits its budget; otherwise, above the crossover and with no replicates,
    the chunk is one block.
    """
    L = -(-T // math.isqrt(2 * T))
    nb = -(-T // L)
    if nb == 1 or not 0 < R <= _WALK_CROSSOVER or tables.closure is None:
        return 1, T
    return nb, L


def _strips(dst: np.ndarray, src: np.ndarray) -> None:
    """dst = src, both (lanes, steps) with one the transpose of a time-major
    buffer, copied a strip of _STRIP lanes at a time to keep both sides of
    each copy in cache."""
    for q in range(0, len(dst), _STRIP):
        dst[q:q + _STRIP] = src[q:q + _STRIP]


def _entry_states(tables: _Tables, blocks: list, x: np.ndarray) -> np.ndarray:
    """G times the state at which each lane of a chunk of nb > 1 blocks
    enters (_walk), replicate r entering at state x[r]; blocks are the
    chunk's (lanes, time-major buffer) pairs, each copied in here.

    A block's steps compose to one map (Propp & Wilson 1996), so the blocks
    are walked as a prefix (Blelloch 1990): one pass over the chunk steps
    each lane's map, as G times its id in the problem's closure, through
    comp_g, and a loop over the blocks chains each block's entry state from
    the one before.
    """
    S, G = tables.S, tables.G
    maps, comp_g = tables.closure
    lanes = np.zeros(blocks[0][1].shape[1], dtype=np.intp)
    buf = np.empty_like(lanes)
    for blk, steps in blocks:
        _strips(steps.T, blk)
        for step in steps:
            np.add(lanes, step, out=buf)
            comp_g.take(buf, out=lanes, mode="clip")   # in range; "raise" buffers out
    # block b takes state s to ends[key[r, b] + s]
    ends, key = maps.ravel(), lanes.reshape(len(x), -1) // G * S
    entry = buf.reshape(key.shape)   # buf is free now
    entry[:, 0] = x
    for b in range(entry.shape[1] - 1):
        entry[:, b + 1] = ends[key[:, b] + entry[:, b]]
    return G * entry.ravel()


def _walk(tables: _Tables, cid: np.ndarray, x: np.ndarray, nb: int) -> None:
    """Overwrite the row ids cid (R, nb * L) of a chunk of nb blocks of L
    steps (_walk_blocks) with its states in place, replicate r entering the
    chunk at state x[r].

    Lane r * nb + b is block b of replicate r, so cid is (R * nb, L)
    lane-major. Each block of _TM_STEPS steps is copied into a time-major
    buffer of cid's dtype and back (_strips), and walked there in sub-blocks
    of about _SUB_BLOCK lane-steps cast to intp, G times each state: a step
    is one add of its row ids and one take from flat_g. Steps past the
    chunk's end have the identity's row id, so the last block ends on the
    chunk's last state.
    """
    R, G, L = len(cid), tables.G, cid.shape[1] // nb
    lanes = cid.reshape(R * nb, L)
    tm = np.empty((min(_TM_STEPS, L), R * nb), dtype=cid.dtype)
    blocks = [(lanes[:, a0:a0 + _TM_STEPS], tm[:min(_TM_STEPS, L - a0)])
              for a0 in range(0, L, _TM_STEPS)]
    x = G * x if nb == 1 else _entry_states(tables, blocks, x)
    sub = max(1, _SUB_BLOCK // max(R * nb, 1))
    for blk, steps in blocks:
        if nb == 1 or len(blocks) > 1:   # else _entry_states left it in tm
            _strips(steps.T, blk)
        for a in range(0, len(steps), sub):
            idx = steps[a:a + sub].astype(np.intp)
            for row in idx:   # each step overwrites its own row ids
                row += x
                tables.flat_g.take(row, out=row, mode="clip")
                x = row
            np.floor_divide(idx, G, out=steps[a:a + sub], casting="unsafe")   # states < S
        _strips(blk, steps.T)


def _sample_paths(problem: RegressionProblem, n: int, seeds, block_len: int | None):
    """Yield (t0, r0, states, ids) for each group of replicates r0, r0 + 1,
    ... of each time chunk t0, t0 + 1, ..., one row per replicate, where ids
    are the (state, noise cell) pair ids at = state * V + cell of the
    problem's V noise cells: the targets are ytab.take(ids) (_Tables).

    The one core of every sampler. Replicate r consumes its own state and
    noise streams in order, so its path has the same bits whatever
    _TIME_CHUNK is. Each group's state uniforms become cell ids as soon as
    they are drawn, and each time step is one lookup over all replicates,
    states[t] = table[cell[t], states[t - 1]], where t = 0 and every multiple
    of block_len use the stationary rows: C is added to those cell ids once
    per chunk. A group's noise uniforms become noise cell ids the same way.
    When the noise table has one cell, every noise uniform falls in it, so
    no noise is drawn (nor its stream derived) and the ids are the states
    themselves. Groups hold about _SUB_BLOCK replicate-steps, so
    per-call costs are shared by many replicates on short paths and buffers
    stay small on long ones.

    A chunk has one buffer: its row ids, filled replicate-major in the
    smallest unsigned dtype that holds both 2C and S - 1, which the walk
    (_walk) overwrites in place with the states, so a chunk takes R * T
    bytes when 2C < 256, and each group's rows are a view of it. Up to
    _WALK_CROSSOVER replicates walk a chunk as nb blocks of composed maps
    (_walk_blocks), more as one block. The uniforms' buffer is let go while
    the chunk is walked, and the chunk's buffer before the next chunk's is
    allocated: a chunk's last group, which the consumer still holds then, is
    yielded as a copy when another chunk follows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = problem._sampler
    streams = _Streams(seeds, (0,) if tables.n_noise == 1 else (0, 1))
    R, S, C = len(seeds), problem.n_states, tables.C
    period = block_len or n
    x = np.zeros(R, dtype=np.intp)           # previous states; t = 0 restarts
    for t0 in range(0, n, _TIME_CHUNK):
        T = min(_TIME_CHUNK, n - t0)
        more = t0 + T < n   # another chunk follows, so the streams are kept
        nb, L = _walk_blocks(R, T, tables)
        group = max(1, _SUB_BLOCK // T)
        u = np.empty((min(group, R), T))
        cid = np.empty((R, nb * L), dtype=np.min_scalar_type(max(2 * C, S - 1)))
        for r0 in range(0, R, group):
            streams.fill(0, r0, u[:R - r0], more)
            cid[r0:r0 + group, :T] = _cell_ids(tables.breaks, tables.guide, u[:R - r0])
        cid[:, -t0 % period:T:period] += C
        cid[:, T:] = 2 * C
        del u   # let go while the chunk is walked
        _walk(tables, cid, x, nb)
        x = cid[:, -1].astype(np.intp)
        u = np.empty((min(group, R), T))
        for r0 in range(0, R, group):
            rows = cid[r0:r0 + group, :T]
            if r0 + group >= R and more:   # held while the next chunk is made
                rows = rows.copy()
            if tables.n_noise == 1:   # every noise uniform falls in the one cell
                yield t0, r0, rows, rows
                continue
            streams.fill(1, r0, u[:len(rows)], more)
            at = np.multiply(rows, tables.n_noise, dtype=np.intp)
            at += _cell_ids(tables.noise_breaks, tables.noise_guide, u[:len(rows)])
            yield t0, r0, rows, at
        del cid, u   # free the chunk before the next one is allocated


def _pair_rows(problem: RegressionProblem, n: int, seeds):
    """(ids (R, n), pair_state, pair_target): the pair ids of the paths of
    seeds as whole rows, and the state and target of each pair id, so that
    the targets are pair_target.take(ids) and the states
    pair_state.take(ids). The ids are in the smallest unsigned dtype that
    holds every pair id; take casts them to intp, so a caller that takes by
    them many times casts a cache-sized block once."""
    tables = problem._sampler
    ids = np.empty((len(seeds), n), dtype=np.min_scalar_type(len(tables.ytab) - 1))
    for t0, r0, rows, at in _sample_paths(problem, n, seeds, None):
        ids[r0:r0 + len(rows), t0:t0 + rows.shape[1]] = at
    return ids, np.arange(len(tables.ytab)) // tables.n_noise, tables.ytab


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
    for t0, r0, rows, ids in _sample_paths(problem, n, seeds, block_len):
        at = np.s_[r0:r0 + len(rows), t0:t0 + rows.shape[1]]
        states[at], targets[at] = rows, problem._sampler.ytab.take(ids)
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
    return _state_sums(problem, n, seeds, block_len, targets=True)


def _state_sums(problem: RegressionProblem, n: int, seeds, block_len: int | None,
                targets: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """stream_state_stats's (counts, target_sums); with targets False,
    (counts, None), the same counts without a target lookup or sum."""
    seeds = list(seeds)
    S = problem.n_states
    counts = np.zeros((len(seeds), S))
    ysums = np.zeros((len(seeds), S)) if targets else None
    for _, r0, rows, ids in _sample_paths(problem, n, seeds, block_len):
        g = len(rows)
        key = (rows + S * np.arange(g)[:, None]).ravel()
        counts[r0:r0 + g] += np.bincount(key, minlength=g * S).reshape(g, S)
        if targets:
            y = problem._sampler.ytab.take(ids)
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
    Q = _centered_kernel(model)
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
# trajectory CSV
# ---------------------------------------------------------------------------

_CSV_ROWS = 1 << 14   # rows per block of trajectory_to_csv


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with columns (t, state, x_1..x_d, y).

    Floats are written with repr (shortest round-trip form). The rows are
    formatted in blocks of _CSV_ROWS, so the work arrays stay small on long
    trajectories. Within a block, each distinct value of a column is
    formatted once: values are told apart by their int64 bit pattern, so
    -0.0 and 0.0, or two NaNs, keep their own strings. One row key over the
    columns after t, renumbered densely after each column so it stays below
    the block's length squared, indexes the text of each distinct row, and
    each line is t followed by its row's text.
    """
    d = traj.covariates.shape[1]
    header = ["t", "state"] + [f"x_{j + 1}" for j in range(d)] + ["y"]
    columns = [np.asarray(traj.states, dtype=np.int64)]
    columns += list(np.asarray(traj.covariates, dtype=float).T)
    columns.append(np.asarray(traj.targets, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t0 in range(0, traj.n, _CSV_ROWS):
            texts, key = [""], np.zeros(min(_CSV_ROWS, traj.n - t0), dtype=np.int64)
            for col in (column[t0:t0 + _CSV_ROWS] for column in columns):
                values, code = np.unique(col.view(np.int64), return_inverse=True)
                cells = list(map(str, values.view(col.dtype).tolist()))   # str is repr for floats
                pairs, key = np.unique(key * len(cells) + code, return_inverse=True)
                texts = [f"{texts[k // len(cells)]},{cells[k % len(cells)]}"
                         for k in pairs.tolist()]
            texts = [text + "\n" for text in texts]
            fh.writelines(f"{t}{texts[k]}" for t, k in enumerate(key.tolist(), t0 + 1))
