"""Golden SHA-256 digests of the sampler's streams.

The samplers promise bit-identical output for a given seed across releases:
sweep CSVs, coverage tables and trajectories are compared byte for byte. These
digests were recorded before the seed derivation and the cell-id lookup were
vectorized, so any drift in how seeds become streams, how uniforms become
states or noise draws, or how chunks and blocks are cut fails here.
"""

import hashlib

import numpy as np
import pytest

import mixfree as mf
from mixfree import harness
from mixfree.bounds import weak_variance_2q

SEEDS = [0, 1, 2 ** 63 + 7, 2 ** 64 - 1, 2 ** 64, 2 ** 128 + 1]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def _problem():
    """Three states, and a three-value noise table whose law differs by state."""
    P = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
    noise = mf.NoiseSpec("state-dependent-bias",
                         np.array([[-1.0, 0.0, 2.0], [-0.5, 0.25, 1.5], [-2.0, 0.5, 3.0]]),
                         np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [1 / 3, 1 / 3, 1 / 3]]))
    return mf.RegressionProblem(chain=mf.MarkovChainModel.from_transition(P),
                                embedding=np.eye(3), mode="tabular", noise=noise,
                                true_table=np.array([0.5, -1.0, 0.25]))


def _batch(block_len):
    states, targets = mf.sample_path_batch(_problem(), 240, SEEDS, block_len=block_len)
    return _digest(states.astype(np.int64), targets)


def _stream(block_len, time_chunk):
    counts, ysums = mf.stream_state_stats(_problem(), 1000, SEEDS, block_len=block_len,
                                          time_chunk=time_chunk)
    return _digest(counts, ysums)


def _cell_seeds():
    coords = [(0, 0, 1, 0), (7, 3, 4096, 63), (2 ** 32 - 1, 1, 2048, 4999),
              (2 ** 32, 0, 1024, 17), (2 ** 63 + 7, 2, 8192, 1), (2 ** 64 - 1, 0, 1, 0),
              (2 ** 64, 1, 256, 9), (2 ** 128 + 1, 0, 65536, 123)]
    return _digest(np.array([harness.cell_seed(*c) for c in coords], dtype=np.uint64))


def _weak_variance_seeds():
    problem = _problem()
    wv = weak_variance_2q(problem, np.array([0.5, -1.0, 0.25]), np.eye(3), 2.0, 16,
                          mode="montecarlo", replicates=40, seed=2 ** 40 + 3)
    return _digest(np.array(wv.per_member))


CASES = {
    "batch": (lambda: _batch(None),
              "cb8d874f14c5e242d39f2b3bcdffbd6ae1dca30b087a9699cac3f8cddf80433c"),
    "batch-block16": (lambda: _batch(16),
                      "554e33fd0a1e96e42b8c9a8476caecab4fd1653af05f9deb212f1cebf52e66e9"),
    "stream-chunk37": (lambda: _stream(None, 37),
                       "7d4cabdf07d375c476e9fa4bda1de3011cd0c29928a84bfe37262089e450f1fb"),
    "stream-block40-chunk300": (lambda: _stream(40, 300),
                                "10b6575a32bd3bdced3c3896572d08ae356dd1c0c8b5a31964e45764821d4a8e"),
    "cell-seed": (_cell_seeds,
                  "ebbc2a9c74ea7d787ac6175acc9588239f2bb0cea2274aa2860bd580a6feb83d"),
    "weak-variance-2q": (_weak_variance_seeds,
                         "14a8cd6f09e6542345fbe9640c971ff6ff7c09187d8e4118f416dc4b9a4250c0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest_unchanged(name):
    compute, expected = CASES[name]
    assert compute() == expected
