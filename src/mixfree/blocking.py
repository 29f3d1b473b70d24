"""Blocking partitions, the decoupling gap, and the blocked Bernstein bound.

A trajectory of length n is split into consecutive equal blocks of length k.
Alternate (odd/even) blocks of the decoupled version (sampled by
processgen.kwise_independent_surrogate) are mutually independent with the
original per-block marginals, at an additive total-variation cost
controlled by the mixing coefficient at lag k. The blocked Bernstein bound
gives the deviation rate for means of centered, b-bounded, k-wise independent
data in terms of the second moment of a block sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .processgen import MarkovChainModel, beta_at_lag


@dataclass(frozen=True)
class BlockingScheme:
    """Partition of range(n) into 2m consecutive blocks of length k.

    Block j (0-based) covers [j*k, (j+1)*k). Odd blocks are the 1st, 3rd, ...
    in 1-based counting, i.e. 0-based blocks 0, 2, 4, ...
    """

    n: int
    k: int
    m: int
    odd_indices: np.ndarray
    even_indices: np.ndarray

    def __post_init__(self):
        if 2 * self.m * self.k != self.n:
            raise ValueError("blocking must satisfy 2*m*k = n")
        union = np.concatenate([self.odd_indices, self.even_indices])
        if len(union) != self.n or len(np.unique(union)) != self.n:
            raise ValueError("odd and even index sets must partition range(n)")
        self.odd_indices.flags.writeable = False
        self.even_indices.flags.writeable = False

    def block(self, j: int) -> np.ndarray:
        """Indices of 0-based block j."""
        return np.arange(j * self.k, (j + 1) * self.k)

    @property
    def n_blocks(self) -> int:
        return 2 * self.m


def make_blocks(n: int, k: int) -> BlockingScheme:
    """Equal-length consecutive blocking of range(n) with 2m blocks of length k."""
    if k < 1:
        raise ValueError("block length k must be >= 1")
    if n < 2 or n % 2 != 0 or (n // 2) % k != 0:
        raise ValueError(f"k = {k} must divide n/2 (n = {n}) to form 2m equal blocks")
    m = n // (2 * k)
    idx = np.arange(n).reshape(2 * m, k)
    odd = idx[0::2].ravel()
    even = idx[1::2].ravel()
    return BlockingScheme(n=n, k=k, m=m, odd_indices=odd, even_indices=even)


def decoupling_gap_bound(betas, scheme: BlockingScheme) -> float:
    """Additive decoupling cost for functionals of one parity of blocks.

    With equal block lengths, decoupling the m odd (or m even) blocks skips
    m - 1 separating blocks of length k, each contributing beta(k):
    the bound is (m - 1) * beta(k). `betas` must cover lags up to k
    (betas[i-1] = beta(i)).
    """
    betas = np.asarray(betas, dtype=float)
    if len(betas) < scheme.k:
        raise ValueError(f"betas must cover lags up to k = {scheme.k}")
    return float((scheme.m - 1) * betas[scheme.k - 1])


def mixing_failure_term(n: int, k: int, beta_k: float) -> float:
    """Additive failure-probability correction (n/k) * beta(k) paid by blocking."""
    return (n / k) * beta_k


# ---------------------------------------------------------------------------
# exact verification engine for the decoupling gap on tiny chains
# ---------------------------------------------------------------------------

def _block_marginal(model: MarkovChainModel, k: int) -> dict[tuple, float]:
    """Exact law of a stationary length-k path, as {state tuple: probability}."""
    P = model.transition
    pi = model.stationary
    out: dict[tuple, float] = {}
    for path in itertools.product(range(model.n_states), repeat=k):
        p = pi[path[0]]
        for a, b in zip(path[:-1], path[1:]):
            p *= P[a, b]
        if p > 0:
            out[path] = out.get(path, 0.0) + p
    return out


def odd_block_decoupling_gap_exact(model: MarkovChainModel, n: int, k: int
                                   ) -> tuple[float, float]:
    """Largest gap |E f(odd data) - E f(decoupled odd data)| over {0,1}-valued f.

    Enumerates the exact joint law of the odd-block data under the chain and
    under the blockwise-decoupled law; the maximum over indicator functionals
    equals the total-variation distance between the two. Returns (gap, bound)
    where bound = (number of odd blocks - 1) * beta(k). Requires k | n and a
    state space small enough for S^n enumeration.
    """
    if n % k != 0:
        raise ValueError("k must divide n")
    S = model.n_states
    if S ** n > 4_000_000:
        raise ValueError("joint-law enumeration infeasible for this (S, n)")
    n_blocks = n // k
    odd_blocks = list(range(0, n_blocks, 2))
    odd_pos = [t for j in odd_blocks for t in range(j * k, (j + 1) * k)]

    P = model.transition
    pi = model.stationary
    law: dict[tuple, float] = {}
    for path in itertools.product(range(S), repeat=n):
        p = pi[path[0]]
        for a, b in zip(path[:-1], path[1:]):
            p *= P[a, b]
            if p == 0.0:
                break
        if p > 0:
            key = tuple(path[t] for t in odd_pos)
            law[key] = law.get(key, 0.0) + p

    marg = _block_marginal(model, k)
    decoupled: dict[tuple, float] = {}
    for combo in itertools.product(marg.items(), repeat=len(odd_blocks)):
        key = tuple(s for block, _ in combo for s in block)
        p = math.prod(p for _, p in combo)
        decoupled[key] = decoupled.get(key, 0.0) + p

    keys = set(law) | set(decoupled)
    gap = 0.5 * sum(abs(law.get(z, 0.0) - decoupled.get(z, 0.0)) for z in keys)
    beta_k = beta_at_lag(model, k)
    bound = (len(odd_blocks) - 1) * beta_k
    return gap, bound


# ---------------------------------------------------------------------------
# blocked Bernstein inequality
# ---------------------------------------------------------------------------

def blocked_bernstein_terms(b: float, block_second_moment: float, n: int, k: int,
                            delta: float) -> tuple[float, float]:
    """(leading, tail) terms of the blocked Bernstein deviation bound.

    For centered b-bounded data that is k-wise independent with k | n, the mean
    (1/n) sum V_i exceeds leading + tail with probability at most delta, where

        leading = 2 * sqrt(k^-1 E[(block sum)^2] log(1/delta) / n)
        tail    = 4 b k log(1/delta) / (3 n).

    For iid data E[(block sum)^2] = k Var(V), so the k's cancel in the leading
    term and nothing is lost by blocking.
    """
    if b <= 0:
        raise ValueError("bound b must be positive")
    if block_second_moment < 0:
        raise ValueError("block second moment must be nonnegative")
    if n < 1 or k < 1 or n % k != 0:
        raise ValueError("k must divide n")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    log_term = math.log(1.0 / delta)
    leading = 2.0 * math.sqrt(block_second_moment * log_term / (k * n))
    tail = 4.0 * b * k * log_term / (3.0 * n)
    return leading, tail


def blocked_bernstein_bound(b: float, block_second_moment: float, n: int, k: int,
                            delta: float) -> float:
    """Full blocked Bernstein deviation bound (sum of leading and tail terms)."""
    leading, tail = blocked_bernstein_terms(b, block_second_moment, n, k, delta)
    return leading + tail
