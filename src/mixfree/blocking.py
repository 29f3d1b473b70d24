"""The decoupling gap and the blocked Bernstein bound.

A trajectory of length n is split into consecutive equal blocks of length k.
Alternate (odd/even) blocks of the decoupled version (sampled by
processgen.kwise_independent_surrogate) are mutually independent with the
original per-block marginals, at an additive total-variation cost of
(number of blocks of one parity - 1) * beta(k); on tiny chains
odd_block_decoupling_gap_exact enumerates that gap exactly. The blocked
Bernstein bound gives the deviation rate for means of centered, b-bounded,
k-wise independent data in terms of the second moment of a block sum.
"""

from __future__ import annotations

import itertools
import math

from .processgen import MarkovChainModel, _path_law, beta_at_lag


def mixing_failure_term(n: int, k: int, beta_k: float) -> float:
    """Additive failure-probability correction (n/k) * beta(k) paid by blocking."""
    return (n / k) * beta_k


# ---------------------------------------------------------------------------
# exact verification engine for the decoupling gap on tiny chains
# ---------------------------------------------------------------------------

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

    law: dict[tuple, float] = {}
    for path, p in _path_law(model, n):
        key = tuple(path[t] for t in odd_pos)
        law[key] = law.get(key, 0.0) + p

    marg = dict(_path_law(model, k))   # the law of one block
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
