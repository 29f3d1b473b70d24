"""Golden SHA-256 digests of the sampler's streams.

The samplers promise bit-identical output for a given seed across releases:
sweep CSVs, coverage tables and trajectories are compared byte for byte. These
digests were recorded before the seed derivation and the cell-id lookup were
vectorized, so any drift in how seeds become streams, how uniforms become
states or noise draws, or how chunks and blocks are cut fails here. The
chunked-batch and sliced noise-level cases expect the digests of their
unchunked and unsliced counterparts, and the mixed-word PCG64 states were
recorded before seeding moved to one pass per word layout. The excess-risk,
coverage and diagnostics cases were recorded before the empirical processes
and ERM excess risks moved into `erm`, and pin the arithmetic on the
per-state statistics as well as the streams. The `simulate` CSV cases were
recorded before long single-replicate paths were walked in blocks and before
the CSV writer formatted each distinct value once, and pin both. The
one-cell noise cases (zero noise, one value, and two values of which one has
probability 0) were recorded before such noise tables stopped drawing their
noise stream, and pin that the targets keep their bits without it.
"""

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mixfree as mf
from mixfree import bounds, harness, processgen
from mixfree.bounds import weak_variance_2q
from mixfree.cli import run

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


def _one_cell_problem(noise):
    """The same chain and truth, with a noise table of one cell: every noise
    uniform draws the same value."""
    base = _problem()
    return mf.RegressionProblem(chain=base.chain, embedding=np.eye(3), mode="tabular",
                                noise=noise, true_table=base.true_table)


_ZERO_NOISE = mf.NoiseSpec.zero(3)
_ONE_VALUE_NOISE = mf.NoiseSpec.iid([0.5], [1.0], 3, bound=0.5)
# two values per state, but the second has probability 0: still one cell
_ONE_CELL_TWO_VALUES = mf.NoiseSpec("state-dependent-bias",
                                    np.array([[0.5, 9.0], [-0.25, 9.0], [1.5, 9.0]]),
                                    np.array([[1.0, 0.0]] * 3))


def _batch(block_len, time_chunk=None, noise=None, seeds=SEEDS, n=240):
    problem = _problem() if noise is None else _one_cell_problem(noise)
    with mock.patch.object(processgen, "_TIME_CHUNK", time_chunk or processgen._TIME_CHUNK):
        states, targets = mf.sample_path_batch(problem, n, seeds, block_len=block_len)
    return _digest(states.astype(np.int64), targets)


def _stream(block_len, time_chunk, noise=None):
    problem = _problem() if noise is None else _one_cell_problem(noise)
    with mock.patch.object(processgen, "_TIME_CHUNK", time_chunk):
        counts, ysums = mf.stream_state_stats(problem, 1000, SEEDS, block_len=block_len)
    return _digest(counts, ysums)


def _blocked_bernstein():
    # 200 replicates: past the blocked walk's crossover, so one block per chunk
    chain = _problem().chain
    values = np.array([1.0, -0.5, 0.25])
    values -= chain.stationary @ values
    report = harness.blocked_bernstein_coverage(chain, values, 512, 8, 0.1, 200,
                                                master_seed=2 ** 40 + 3)
    return _digest(report.realized)


def _cell_seeds():
    coords = [(0, 0, 1, 0), (7, 3, 4096, 63), (2 ** 32 - 1, 1, 2048, 4999),
              (2 ** 32, 0, 1024, 17), (2 ** 63 + 7, 2, 8192, 1), (2 ** 64 - 1, 0, 1, 0),
              (2 ** 64, 1, 256, 9), (2 ** 128 + 1, 0, 65536, 123)]
    return _digest(np.array([harness.cell_seed(*c) for c in coords], dtype=np.uint64))


def _pcg64_states():
    # 1-, 2- and 5-word seeds in one call: rows of three word layouts
    seeds = [3, 2 ** 40 + 5, 2 ** 130 + 9, 0, 2 ** 64 - 1, 2 ** 159]
    limbs = [[v >> 64, v & (2 ** 64 - 1)] for key in (0, 1)
             for g in processgen._generators(seeds, key)
             for v in (g.bit_generator.state["state"][name] for name in ("state", "inc"))]
    return _digest(np.array(limbs, dtype=np.uint64))


def _linear_problem():
    """The same chain and noise, seen through a two-feature embedding."""
    base = _problem()
    return mf.RegressionProblem(chain=base.chain,
                                embedding=np.array([[1.0, 0.0], [0.5, 1.0], [-1.0, 0.5]]),
                                mode="linear", noise=base.noise,
                                true_param=np.array([0.5, -1.0]))


_TABLES = np.array([[0.5, -1.0, 0.25], [0.75, 0.25, -0.5], [1.0, -0.5, 0.5],
                    [0.25, -1.5, 1.0], [-0.5, 1.0, 0.0]])


def _run_cells(problem, cls):
    # n = 1 and 2 leave the visited design rank deficient
    return _digest(np.array([
        mf.excess_risks(problem, cls, *mf.stream_state_stats(
            problem, n, [mf.cell_seed(2 ** 64 + 5, 0, n, r)]))[0]
        for n in (1, 2, 64, 300) for r in range(6)]))


def _risk_coverage(problem, cls, n):
    report = harness.risk_bound_coverage(problem, cls, n, 0.05, 30, 20,
                                         master_seed=2 ** 40 + 3)
    return _digest(report.realized)


def _diagnostics():
    report = mf.process_diagnostics(_problem(), mf.HypothesisClass.finite(_TABLES), 40,
                                    24, 0.25, 0.1, master_seed=9, rho_grid=7)
    return _digest(np.array([report.epsilon, report.r_star, report.q_positive_fraction,
                             report.multiplier_coverage, report.multiplier_constant]))


def _weak_variance_seeds(slice_rows=None):
    # n = 16 steps per replicate, so slice_rows rows take 16 * slice_rows steps
    steps = 16 * slice_rows if slice_rows else bounds._MC_SLICE_STEPS
    with mock.patch.object(bounds, "_MC_SLICE_STEPS", steps):
        wv = weak_variance_2q(_problem(), np.array([0.5, -1.0, 0.25]), np.eye(3), 2.0, 16,
                              mode="montecarlo", replicates=40, seed=2 ** 40 + 3)
    return _digest(np.array(wv.per_member))


def _simulate_csv(**overrides):
    """SHA-256 of the `simulate` CLI's trajectory.csv for the demo config."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs"
    cfg = dict(json.loads((demo / "simulate_trajectory.json").read_text()), **overrides)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(path), "--out", out, "--quiet"]) == 0
        return hashlib.sha256((Path(out) / "trajectory.csv").read_bytes()).hexdigest()


CASES = {
    "batch": (lambda: _batch(None),
              "cb8d874f14c5e242d39f2b3bcdffbd6ae1dca30b087a9699cac3f8cddf80433c"),
    "batch-block16": (lambda: _batch(16),
                      "554e33fd0a1e96e42b8c9a8476caecab4fd1653af05f9deb212f1cebf52e66e9"),
    # chunked batches must give the unchunked bytes: the digests above
    "batch-chunk37": (lambda: _batch(None, 37),
                      "cb8d874f14c5e242d39f2b3bcdffbd6ae1dca30b087a9699cac3f8cddf80433c"),
    "batch-block16-chunk37": (
        lambda: _batch(16, 37),
        "554e33fd0a1e96e42b8c9a8476caecab4fd1653af05f9deb212f1cebf52e66e9"),
    "stream-chunk37": (lambda: _stream(None, 37),
                       "7d4cabdf07d375c476e9fa4bda1de3011cd0c29928a84bfe37262089e450f1fb"),
    "stream-block40-chunk300": (lambda: _stream(40, 300),
                                "10b6575a32bd3bdced3c3896572d08ae356dd1c0c8b5a31964e45764821d4a8e"),
    # one-cell noise tables
    "batch-zero-noise-block16-chunk37": (
        lambda: _batch(16, 37, _ZERO_NOISE),
        "fb3f9a3c3492b42ed65c20b9cbff3a74dae1492c00856cafa551326a715f5cf2"),
    "batch-zero-noise-300-replicates": (
        lambda: _batch(40, 700, _ZERO_NOISE, range(300), 1000),
        "6f020ad118a6ed2932ffa117d729a755d6e56a0a98708c5501203f33d470e3d7"),
    "stream-zero-noise-block40-chunk300": (
        lambda: _stream(40, 300, _ZERO_NOISE),
        "2b9867f85373a232aa81029b71b570c079b4a5b0cf6f9e9bb75180aba9d8609a"),
    "stream-one-value-noise-chunk300": (
        lambda: _stream(None, 300, _ONE_VALUE_NOISE),
        "b1930aaa75db5db6d1962a369484bda3af2b9e32bae96962d3728dc17dc58ebd"),
    "stream-one-cell-two-values-block40-chunk300": (
        lambda: _stream(40, 300, _ONE_CELL_TWO_VALUES),
        "1b7b45f16323465a5ce39011c54e7a265aa59f8c2b83510e8dc4335be0f10f55"),
    "blocked-bernstein-realized": (
        _blocked_bernstein,
        "bcc7802aaa72b81346cdf4ea4dbf5f1bdc76d54d90e1852a5614150a1317cd63"),
    "cell-seed": (_cell_seeds,
                  "ebbc2a9c74ea7d787ac6175acc9588239f2bb0cea2274aa2860bd580a6feb83d"),
    "weak-variance-2q": (_weak_variance_seeds,
                         "14a8cd6f09e6542345fbe9640c971ff6ff7c09187d8e4118f416dc4b9a4250c0"),
    # sampled in slices of 7 replicates, the noise level keeps its bytes
    "weak-variance-2q-slices7": (
        lambda: _weak_variance_seeds(7),
        "14a8cd6f09e6542345fbe9640c971ff6ff7c09187d8e4118f416dc4b9a4250c0"),
    "pcg64-states-mixed-words": (
        _pcg64_states,
        "aedd7becdeef36f700b4c2a9f911944904b7b62099e47ae4e2bb96e84b1197e6"),
    "run-cell-linear": (
        lambda: _run_cells(_linear_problem(), mf.HypothesisClass.linear(2)),
        "55d8940f8d37d820577b49f8518e1542b2b31763ab83cc7d1e9a123dc0401060"),
    "run-cell-finite": (
        lambda: _run_cells(_problem(), mf.HypothesisClass.finite(_TABLES)),
        "faa4f8f4cbecf2944d6cb809b1398726a80a2840d79efa9a02bb1f691c7786c7"),
    "risk-bound-coverage-linear": (
        lambda: _risk_coverage(_linear_problem(), mf.HypothesisClass.linear(2), 200),
        "7888c6afa2b5ca64b95731287dfa3b57203bc1ac858e9352806cfc1e9e86b5b2"),
    "risk-bound-coverage-finite": (
        lambda: _risk_coverage(_problem(), mf.HypothesisClass.finite(_TABLES), 20),
        "36bbb9b513f472880f414442fdfa785b27ca3af429f2f85673032942549d7c88"),
    "process-diagnostics": (_diagnostics, "97314dbeb2658e3303d71439d4157215ff6c3c7003347b6d8be9f35ddcd1a023"),
    # past one time chunk; neither chunk's length is a multiple of its block count
    "simulate-csv-long": (
        lambda: _simulate_csv(n=2 ** 16 + 3),
        "0038ded1fd3b19ae736088f610ef23e44499864936ecb64653c1c49a75b3047b"),
    # k-wise restarts every 1000 steps, across the chunk boundary at 2^16
    "simulate-csv-kwise": (
        lambda: _simulate_csv(n=66000, kwise=1000),
        "b73349b00e42a6352d29de44533fef7d21aa2e31f4322815823463e5774b6d9f"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest_unchanged(name):
    compute, expected = CASES[name]
    assert compute() == expected
