"""Data-generator tests: stationary laws, mixing coefficients, samplers."""

import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mixfree as mf
from mixfree import harness, processgen
from oracles import beta_coefficients, k_mix_search, trajectory_csv_one_block


def _power_iteration_pi(P, iters=200_000, tol=1e-13):
    """Independent oracle: power iteration on the transition matrix."""
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        nxt = pi @ P
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def _brute_force_beta(P, pi, horizon):
    """Independent oracle: beta(i) = sum_x pi(x) (1/2) sum_y |P^i(x,y) - pi(y)|."""
    out = np.empty(horizon)
    for i in range(1, horizon + 1):
        Pi = np.linalg.matrix_power(P, i)
        out[i - 1] = sum(pi[x] * 0.5 * np.abs(Pi[x] - pi).sum()
                         for x in range(P.shape[0]))
    return out


def _argmax_walk(cum_rows, cum_pi, U, s_prev, t0, block_len):
    """Reference walk: one inverse-CDF draw per replicate and step.

    U has shape (R, T) and drives global times t0 .. t0+T-1; t = 0 and every
    multiple of block_len draw from the stationary law. Returns (chunk
    states, final state vector). This is the sampler's original per-step loop.
    """
    R, T = U.shape
    states = np.empty((R, T), dtype=np.int64)
    pi_rows = np.broadcast_to(cum_pi, (R, len(cum_pi)))
    for j in range(T):
        t = t0 + j
        if t == 0 or (block_len is not None and t % block_len == 0):
            rows = pi_rows
        else:
            rows = cum_rows[s_prev]
        s_prev = (U[:, j][:, None] < rows).argmax(axis=1)
        states[:, j] = s_prev
    return states, s_prev


def _argmax_noise(noise, states, V):
    """Reference noise draw: inverse CDF of each state's noise table."""
    cum = np.cumsum(noise.probs, axis=1)
    cum[:, -1] = 1.0
    idx = (V[:, None] < cum[states]).argmax(axis=1)
    return noise.values[states, idx]


def _two_state_problem(p=0.3, q=0.2, sigma=0.5, d=2):
    chain = mf.two_state_chain(p, q)
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])[:, :d]
    return mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                noise=mf.NoiseSpec.symmetric(sigma, 2),
                                true_param=np.arange(1.0, d + 1.0))


class TestStationaryDistribution:
    def test_doubly_stochastic_uniform(self):
        pi = mf.stationary_distribution(np.full((3, 3), 1.0 / 3.0))
        assert np.allclose(pi, 1.0 / 3.0, atol=1e-13)

    def test_two_state_closed_form_and_power_iteration(self):
        for p, q in [(0.3, 0.2), (0.05, 0.6), (0.9, 0.9)]:
            P = np.array([[1 - p, p], [q, 1 - q]])
            pi = mf.stationary_distribution(P)
            closed = np.array([q / (p + q), p / (p + q)])
            assert np.max(np.abs(pi - closed)) < 1e-12
            assert np.max(np.abs(pi - _power_iteration_pi(P))) < 1e-10

    def test_identity_matrix_rejected(self):
        with pytest.raises(ValueError, match="no unique stationary"):
            mf.stationary_distribution(np.eye(3))

    def test_transient_state_rejected(self):
        # state 0 leaks to the absorbing pair {1, 2}; unique pi but pi[0] = 0
        P = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        with pytest.raises(ValueError, match="strictly positive|irreducible"):
            mf.stationary_distribution(P)

    def test_periodic_chain_has_unique_law(self):
        pi = mf.stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pi, 0.5, atol=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mf.stationary_distribution(np.array([[0.5, 0.4], [0.2, 0.8]]))


class TestBetaCoefficients:
    def test_iid_chain_is_zero(self):
        model = mf.iid_chain([0.2, 0.5, 0.3])
        assert np.max(beta_coefficients(model, 20)) < 1e-14

    def test_two_state_closed_form(self):
        for p, q in [(0.3, 0.2), (0.7, 0.8), (0.05, 0.05)]:
            model = mf.two_state_chain(p, q)
            pi = model.stationary
            betas = beta_coefficients(model, 30)
            closed = 2 * pi[0] * pi[1] * np.abs(1 - p - q) ** np.arange(1, 31)
            assert np.max(np.abs(betas - closed)) < 1e-12
            brute = _brute_force_beta(model.transition, pi, 30)
            assert np.max(np.abs(betas - brute)) < 1e-12

    def test_sticky_chain_limit(self):
        # P = (1-eps) I + eps 1 pi^T has beta(i) = (1-eps)^i sum_x pi(x)(1-pi(x))
        pi = np.array([0.6, 0.3, 0.1])
        target = float(np.sum(pi * (1 - pi)))
        for eps in (1e-3, 1e-5):
            P = (1 - eps) * np.eye(3) + eps * np.tile(pi, (3, 1))
            model = mf.MarkovChainModel(P, pi)   # pi is exact for this kernel
            betas = beta_coefficients(model, 5)
            expected = (1 - eps) ** np.arange(1, 6) * target
            assert np.max(np.abs(betas - expected)) < 1e-12
        assert abs(betas[0] - target) < 1e-4       # eps -> 0 limit

    def test_random_chains_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            S = int(rng.integers(2, 9))
            P = rng.gamma(1.0, 1.0, size=(S, S)) + 0.01
            P /= P.sum(axis=1, keepdims=True)
            model = mf.MarkovChainModel.from_transition(P)
            betas = beta_coefficients(model, 50)
            brute = _brute_force_beta(model.transition, model.stationary, 50)
            assert np.max(np.abs(betas - brute)) < 1e-12
            assert np.all(betas >= -1e-15) and np.all(betas <= 1.0 + 1e-12)
            assert np.all(np.diff(betas) <= 1e-12)


class TestSampling:
    def test_noiseless_linear_targets_exact(self):
        chain = mf.two_state_chain(0.4, 0.3)
        problem = mf.RegressionProblem(
            chain=chain, embedding=np.array([[1.0, -1.0], [2.0, 0.5]]),
            mode="linear", noise=mf.NoiseSpec.zero(2),
            true_param=np.array([0.7, -1.3]))
        traj = mf.sample_trajectory(problem, 400, 3)
        assert np.array_equal(traj.targets, traj.covariates @ problem.true_param)

    def test_same_seed_identical(self):
        problem = _two_state_problem()
        a = mf.sample_trajectory(problem, 300, 99)
        b = mf.sample_trajectory(problem, 300, 99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.covariates, b.covariates)

    def test_state_frequencies_match_pi(self):
        # lightly dependent chain so the binomial oracle is a fair yardstick
        chain = mf.two_state_chain(0.4, 0.4)
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(2),
                                       mode="linear", noise=mf.NoiseSpec.zero(2),
                                       true_param=np.zeros(2))
        n = 1_000_000
        traj = mf.sample_trajectory(problem, n, 2024)
        freq = np.mean(traj.states == 0)
        se = np.sqrt(0.5 * 0.5 / n)
        assert abs(freq - 0.5) <= 3 * se * np.sqrt(1.5 / 0.5)  # autocorr factor (1+lam)/(1-lam)

    def test_stationary_marginals_spot_check(self):
        problem = _two_state_problem(0.2, 0.6)
        pi = problem.chain.stationary
        states, _ = mf.sample_path_batch(problem, 64, range(4000))
        for t in (0, 32, 63):
            freq = np.mean(states[:, t] == 0)
            se = np.sqrt(pi[0] * pi[1] / 4000)
            assert abs(freq - pi[0]) <= 4 * se

    def test_batch_matches_single(self):
        problem = _two_state_problem()
        seeds = [5, 17, 901]
        states, targets = mf.sample_path_batch(problem, 257, seeds)
        for r, seed in enumerate(seeds):
            traj = mf.sample_trajectory(problem, 257, seed)
            assert np.array_equal(states[r], traj.states)
            assert np.array_equal(targets[r], traj.targets)

    @pytest.mark.parametrize("sampler", [
        lambda problem, n: mf.sample_trajectory(problem, n, 1),
        lambda problem, n: mf.kwise_independent_surrogate(problem, n, 1, 1),
        lambda problem, n: mf.stream_state_stats(problem, n, [1])])
    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_is_named(self, sampler, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sampler(_two_state_problem(), n)

    @pytest.mark.parametrize("n, block_len", [(1, None), (300, None), (300, 10)])
    def test_no_seeds_give_empty_batches(self, n, block_len):
        states, targets = mf.sample_path_batch(_two_state_problem(), n, [], block_len)
        counts, _ = mf.stream_state_stats(_two_state_problem(), n, [], block_len)
        assert states.shape == targets.shape == (0, n) and counts.shape == (0, 2)

    def test_stream_stats_match_trajectory(self):
        problem = _two_state_problem()
        with mock.patch.object(processgen, "_TIME_CHUNK", 37):
            counts, ysums = mf.stream_state_stats(problem, 500, [42])
        traj = mf.sample_trajectory(problem, 500, 42)
        assert np.array_equal(counts[0], np.bincount(traj.states, minlength=2))
        assert np.allclose(ysums[0], np.bincount(traj.states, weights=traj.targets,
                                                 minlength=2), atol=1e-10)


@st.composite
def _chains(draw):
    """Random, periodic (deterministic rows), single-state and near-reducible
    chains, plus rows whose tiny negative entries make the CDF non-monotone."""
    kind = draw(st.sampled_from(["random", "periodic", "single", "near-reducible",
                                 "negative-entry"]))
    S = 1 if kind == "single" else draw(st.integers(2, 6))
    if kind in ("random", "negative-entry"):
        W = draw(hnp.arrays(float, (S, S), elements=st.floats(0.0, 1.0)))
        W += 1e-3 * np.roll(np.eye(S), 1, axis=1)       # one cycle keeps it irreducible
        P = W / W.sum(axis=1, keepdims=True)
        if kind == "negative-entry":                   # off the cycle edge 0 -> 1
            j = draw(st.sampled_from([0] + list(range(2, S))))
            P[0, j], P[0, 1] = -1e-13, P[0, 1] + P[0, j] + 1e-13
        return mf.MarkovChainModel.from_transition(P)
    if kind == "near-reducible":
        # two uniform blocks coupled by 1e-12 entries; symmetric, so pi is uniform
        a = draw(st.integers(1, S - 1))
        A = np.zeros((S, S))
        A[:a, :a] = 1.0 / a
        A[a:, a:] = 1.0 / (S - a)
        P = (1 - 1e-12) * A + 1e-12 / S
    else:
        P = np.eye(S)[draw(st.permutations(range(S)))]
    return mf.MarkovChainModel(P, np.full(S, 1.0 / S))


class _Replay:
    """Stand-in for processgen._Streams that hands out fixed uniforms: row r
    of U (state stream) or V (noise stream), in order. A fill must keep its
    rows' streams exactly when more of them is drawn later."""

    def __init__(self, U, V):
        self.values, self.pos = (U, V), np.zeros((2, len(U)), dtype=int)

    def fill(self, stream, r0, out, keep):
        for i, row in enumerate(out):
            at = self.pos[stream, r0 + i]
            row[:] = self.values[stream][r0 + i, at:at + len(row)]
            self.pos[stream, r0 + i] += len(row)
            assert keep == (self.pos[stream, r0 + i] < self.values[stream].shape[1])


def _near(points):
    """The points and their two float neighbours, kept in [0, 1)."""
    points = np.unique(np.concatenate([points, [0.0]]))
    points = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1)])
    return points[(points >= 0) & (points < 1)]


_GUIDE_EDGES = _near(np.arange(processgen._GUIDE + 1) / processgen._GUIDE)


def _edges(cdfs):
    """Every CDF value in [0, 1), 0 and every guide-bin edge b / 4096, each with
    its two float neighbours: where an off-by-one cell id, guide bin or table
    entry would show."""
    return np.unique(np.concatenate([_near(np.concatenate([c.ravel() for c in cdfs])),
                                     _GUIDE_EDGES]))


def _uniforms(rng, shape, cdfs):
    """Uniforms in [0, 1): a quarter near the CDF values, a quarter near the
    guide-bin edges."""
    u = rng.random(shape)
    pick = rng.random(shape)
    near_cdf, near_guide = pick < 0.25, (pick >= 0.25) & (pick < 0.5)
    u[near_cdf] = rng.choice(_near(np.concatenate([c.ravel() for c in cdfs])),
                             size=int(near_cdf.sum()))
    u[near_guide] = rng.choice(_GUIDE_EDGES, size=int(near_guide.sum()))
    return u


def _check_walk(problem, U, V, block_len, time_chunk, sub_block, strip, tm_steps):
    """_sample_paths, fed the state uniforms U and noise uniforms V (R, n),
    gives the argmax oracle's states and, through ytab, its targets, walked
    with each chunk as one block and in _walk_blocks's nb > 1 blocks, both
    through time-major blocks of tm_steps steps transposed in strips of
    strip lanes."""
    chain, noise = problem.chain, problem.noise
    R, n = U.shape
    cum_rows = processgen._cumulative_rows(chain.transition)
    cum_pi = processgen._cumulative_rows(chain.stationary[None, :])[0]
    expected, s_prev = [], None
    for t0 in range(0, n, time_chunk):
        chunk, s_prev = _argmax_walk(cum_rows, cum_pi, U[:, t0:t0 + time_chunk],
                                     s_prev, t0, block_len)
        expected.append(chunk)
    expected = np.concatenate(expected, axis=1)
    expected_targets = np.array([problem.true_table[expected[r]]
                                 + _argmax_noise(noise, expected[r], V[r])
                                 for r in range(R)])

    # crossover 0 walks every chunk as one block; a large one, with a closure
    # budget large enough for most small chains, walks every chunk of two or
    # more steps in _walk_blocks's nb > 1 blocks. Each run samples a fresh
    # copy of the problem, whose tables are built under its budget.
    for crossover, budget in ((0, 1 << 16), (10 ** 6, 1 << 20)):
        rows, ys = [[] for _ in range(R)], [[] for _ in range(R)]
        with mock.patch.object(processgen, "_Streams", lambda seeds, keys: _Replay(U, V)), \
                mock.patch.object(processgen, "_SUB_BLOCK", sub_block), \
                mock.patch.object(processgen, "_TIME_CHUNK", time_chunk), \
                mock.patch.object(processgen, "_STRIP", strip), \
                mock.patch.object(processgen, "_TM_STEPS", tm_steps), \
                mock.patch.object(processgen, "_WALK_CROSSOVER", crossover), \
                mock.patch.object(processgen, "_CLOSURE_BUDGET", budget):
            fresh = dataclasses.replace(problem)
            for t0, r0, group, ids in processgen._sample_paths(fresh, n, range(R),
                                                               block_len):
                for i in range(len(group)):
                    assert sum(map(len, rows[r0 + i])) == t0
                    rows[r0 + i].append(group[i].copy())
                    ys[r0 + i].append(fresh._sampler.ytab.take(ids[i]))
        states = np.array([np.concatenate(chunks) for chunks in rows])
        targets = np.array([np.concatenate(chunks) for chunks in ys])

        assert np.array_equal(states, expected)
        assert np.array_equal(states[:, -1], s_prev)
        assert np.array_equal(targets, expected_targets)


class TestCellTableWalk:
    @settings(max_examples=200, deadline=None)
    @given(chain=_chains(), data=st.data())
    def test_matches_argmax_oracle(self, chain, data):
        S = chain.n_states
        probs = data.draw(hnp.arrays(float, (S, data.draw(st.integers(1, 3))),
                                     elements=st.floats(0.0, 1.0)))
        probs[:, 0] += 1e-9
        probs /= probs.sum(axis=1, keepdims=True)
        noise = mf.NoiseSpec("state-dependent-bias",
                             np.arange(probs.size, dtype=float).reshape(probs.shape), probs)
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(S), mode="tabular",
                                       noise=noise, true_table=np.linspace(-1, 1, S))
        n = data.draw(st.integers(1, 120))
        R = data.draw(st.integers(1, 5))
        block_len = data.draw(st.none() | st.integers(1, n))
        time_chunk = data.draw(st.integers(1, n + 2))
        sub_block = data.draw(st.integers(1, 64))
        strip = data.draw(st.integers(1, 5))
        tm_steps = data.draw(st.integers(1, 5))

        cum_rows = processgen._cumulative_rows(chain.transition)
        cum_pi = processgen._cumulative_rows(chain.stationary[None, :])[0]
        cum_noise = processgen._cumulative_rows(noise.probs)
        for cum in (np.vstack([cum_rows, cum_pi]), cum_noise):
            breaks = np.unique(cum)
            tab, guide = processgen._cell_table(cum, breaks)
            u = _edges([cum])
            cells = np.searchsorted(breaks, u, side="right")
            assert np.array_equal(processgen._cell_ids(breaks, guide, u), cells)
            assert np.array_equal(tab[cells], (u[:, None, None] < cum).argmax(axis=2))

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        U = _uniforms(rng, (R, n), [cum_rows, cum_pi])
        V = _uniforms(rng, (R, n), [cum_noise])

        _check_walk(problem, U, V, block_len, time_chunk, sub_block, strip, tm_steps)

    def test_row_ids_past_uint8(self):
        # past 127 cells, the identity row 2C and restart rows C + c need
        # uint16 ids. 12 dense states merge into 144 cells and compose to more
        # maps than the closure budget, so 3 replicates walk each chunk of 100
        # steps as one block; 100 independent states (197 cells, as float
        # drift parts the stationary row from the others) compose to the
        # identity and 100 constant maps, so they walk it in 13 blocks of 8,
        # the last padding 4 steps. Restarts every 7 steps fall in every block.
        rng = np.random.default_rng(5)
        P = rng.random((12, 12))
        dense = mf.MarkovChainModel.from_transition(P / P.sum(axis=1, keepdims=True))
        pi = np.random.default_rng(6).random(100)
        for chain, blocks in ((dense, (1, 100)), (mf.iid_chain(pi / pi.sum()), (13, 8))):
            S = chain.n_states
            noise = mf.NoiseSpec("state-dependent-bias", np.arange(2.0 * S).reshape(S, 2),
                                 np.full((S, 2), 0.5))
            problem = mf.RegressionProblem(chain=chain, embedding=np.eye(S), mode="tabular",
                                           noise=noise, true_table=np.linspace(-1, 1, S))
            tables = problem._sampler
            assert 128 <= tables.C < 256
            assert processgen._walk_blocks(3, 100, tables) == blocks
            U, V = rng.random((3, 300)), rng.random((3, 300))
            _check_walk(problem, U, V, block_len=7, time_chunk=100, sub_block=64,
                        strip=2, tm_steps=30)

    def test_uint8_states_in_uint16_buffer(self):
        # 256 states, each stepping to its successor or to two random states,
        # merge into about 770 cells: the row ids need uint16 while every
        # state, 255 included, fits uint8. The chunk's one buffer holds both,
        # so the states come out as uint16. The step maps outnumber the
        # closure budget, so both runs walk each chunk as one block.
        rng = np.random.default_rng(7)
        S = 256
        P = np.zeros((S, S))
        P[np.arange(S), (np.arange(S) + 1) % S] = 1.0
        P[np.arange(S)[:, None], rng.integers(0, S, (S, 2))] += rng.random((S, 2))
        chain = mf.MarkovChainModel.from_transition(P / P.sum(axis=1, keepdims=True))
        noise = mf.NoiseSpec("state-dependent-bias", np.arange(2.0 * S).reshape(S, 2),
                             np.full((S, 2), 0.5))
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(S), mode="tabular",
                                       noise=noise, true_table=np.linspace(-1, 1, S))
        tables = problem._sampler
        assert 2 * tables.C > 255 >= S - 1
        _, _, rows, _ = next(processgen._sample_paths(problem, 10, range(3), None))
        assert rows.dtype == np.uint16
        U, V = rng.random((3, 300)), rng.random((3, 300))
        U[:, ::7] = 1.0 - 2.0 ** -53       # every restart draws state 255
        _check_walk(problem, U, V, block_len=7, time_chunk=100, sub_block=64,
                    strip=2, tm_steps=30)

    def test_block_count_crossover(self):
        # with its closure, a sweep cell (S = 4, 64 replicates) is walked in
        # about sqrt(2T) blocks, as one long replicate is, up to
        # _WALK_CROSSOVER replicates; over its closure budget, in one block
        problem = _two_state_problem()
        tables = problem._sampler
        assert tables.closure is not None
        for R in (1, 64, 128):
            nb, L = processgen._walk_blocks(R, 2 ** 16, tables)
            assert 256 <= nb <= 512
        assert processgen._walk_blocks(129, 2 ** 16, tables) == (1, 2 ** 16)
        for T in range(1, 3000):
            nb, L = processgen._walk_blocks(1, T, tables)
            assert (nb - 1) * L < T <= nb * L     # only the last block is short
        with mock.patch.object(processgen, "_CLOSURE_BUDGET", 0):
            tables = dataclasses.replace(problem)._sampler
            assert processgen._walk_blocks(1, 2 ** 16, tables) == (1, 2 ** 16)
            assert tables.closure is None

    def test_closure_is_built_only_for_chunks_it_may_block(self):
        problem = _two_state_problem()
        mf.sample_path_batch(problem, 300, range(129))
        mf.sample_path_batch(problem, 1, range(3))
        assert "closure" not in vars(problem._sampler)
        mf.sample_path_batch(problem, 300, range(3))
        assert vars(problem._sampler)["closure"] is not None

    @settings(max_examples=100, deadline=None)
    @given(chain=_chains())
    def test_closure_composes_its_maps(self, chain):
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(chain.n_states),
                                       mode="tabular", noise=mf.NoiseSpec.zero(chain.n_states),
                                       true_table=np.zeros(chain.n_states))
        tables = problem._sampler
        gens, G, S = tables.gens, tables.G, tables.S
        closure = processgen._closure(gens, 1 << 16)
        if closure is None:
            return
        maps, comp = closure
        K = len(maps)
        assert G * K <= 1 << 16 and comp.shape == (G, K)
        assert np.array_equal(maps[0], np.arange(S))
        assert len(np.unique(maps, axis=0)) == K
        for g in range(G):
            assert np.array_equal(maps[comp[g]], gens[g][maps])
        assert np.array_equal(maps[comp[:, 0]], gens)     # every one-step map
        _, comp_g = tables.closure
        assert np.array_equal(comp_g.reshape(K, G), G * comp.T)

    def test_closure_stops_at_its_budget(self):
        # five independent two-state copies: 32 states, far more composed maps
        # than the budget allows; no round may work on more than it
        problem = mf.RegressionProblem(
            chain=mf.product_chain(mf.two_state_chain(0.25, 0.25), 5),
            embedding=np.eye(32), mode="tabular", noise=mf.NoiseSpec.zero(32),
            true_table=np.zeros(32))
        gens = problem._sampler.gens
        G = len(gens)
        for budget in (0, G, 4096, processgen._CLOSURE_BUDGET):
            with mock.patch.object(np, "unique", wraps=np.unique) as spy:
                assert processgen._closure(gens, budget) is None
            assert all(len(c.args[0]) <= budget // G + budget for c in spy.call_args_list)
        assert problem._sampler.closure is None

    def test_table_budget_refuses_before_building(self):
        problem = _two_state_problem()
        with mock.patch.object(processgen, "_TABLE_BYTES", 64), \
                mock.patch.object(processgen, "_cell_table") as cell_table:
            with pytest.raises(ValueError, match=r"a 2-state chain needs .* MiB"):
                mf.sample_trajectory(problem, 10, 0)
            cell_table.assert_not_called()
        assert mf.sample_trajectory(problem, 10, 0).n == 10

    def test_table_budget_admits_256_states(self):
        # a dense 256-state chain, about 2^16 cells, passes the check; its
        # tables are not built here
        class Checked(Exception):
            pass

        P = np.random.default_rng(0).random((256, 256))
        chain = mf.MarkovChainModel.from_transition(P / P.sum(axis=1, keepdims=True))
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(256), mode="tabular",
                                       noise=mf.NoiseSpec.zero(256), true_table=np.zeros(256))
        with mock.patch.object(processgen, "_cell_table", side_effect=Checked):
            with pytest.raises(Checked):
                problem._sampler

    def test_threads_building_tables_agree(self):
        # more threads than cores sample fresh problems at once, with a short
        # switch interval so that table and closure builds interleave
        expected = mf.stream_state_stats(_two_state_problem(), 3000, range(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                problem = _two_state_problem()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(mf.stream_state_stats, problem, 3000, range(8))
                               for _ in range(4)]
                    results = [f.result(timeout=60) for f in futures]
                for counts, ysums in results:
                    assert np.array_equal(counts, expected[0])
                    assert np.array_equal(ysums, expected[1])
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=100, deadline=None)
    @given(bins=st.lists(st.integers(0, processgen._GUIDE), min_size=1, max_size=6),
           shift=st.lists(st.sampled_from([-1, 0, 1]), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_guide_matches_searchsorted_at_bin_edges(self, bins, shift, seed):
        # breaks on, or one float off, guide-bin edges make bins ambiguous
        edges = np.array(bins) / processgen._GUIDE
        for i, step in enumerate(shift[:len(edges)]):
            if step:
                edges[i] = np.nextafter(edges[i], step)
        cum = np.append(np.sort(np.clip(edges, 0.0, 1.0)), 1.0)[None, :]
        breaks = np.unique(cum)
        _, guide = processgen._cell_table(cum, breaks)
        u = np.concatenate([_edges([cum]), np.random.default_rng(seed).random(4096)])
        assert np.array_equal(processgen._cell_ids(breaks, guide, u),
                              np.searchsorted(breaks, u, side="right"))


def _numpy_streams(seed):
    """PCG64 (state, inc) of the two spawned streams, by numpy itself."""
    return [tuple(np.random.PCG64(child).state["state"][key] for key in ("state", "inc"))
            for child in np.random.SeedSequence(seed).spawn(2)]


_WORD_SIZES = st.sampled_from([0, 1, 32, 33, 63, 64, 65, 96, 128, 129, 200])


def _ints(draw, count):
    """Non-negative ints spread over 1 to 7 words, with their word edges."""
    out = []
    for _ in range(count):
        bits = draw(_WORD_SIZES)
        out.append(draw(st.sampled_from([0, (1 << bits) - 1, 1 << bits, (1 << bits) + 7]))
                   if draw(st.booleans()) else draw(st.integers(0, (1 << bits) - 1 or 1)))
    return out


def _stream_states(seeds):
    """PCG64 (state, inc) of both streams of every seed, as _Streams seeds
    them: streams[k][r]."""
    return [[tuple(np.random.PCG64(processgen._Words(w)).state["state"][key]
                   for key in ("state", "inc")) for w in words]
            for words in processgen._stream_words(seeds, (0, 1))]


class TestSeedDerivation:
    """The vectorized SeedSequence and PCG64 seeding against numpy's own."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stream_states_match_numpy(self, data):
        seeds = _ints(data.draw, data.draw(st.integers(1, 5)))
        got = _stream_states(seeds)
        for r, seed in enumerate(seeds):
            assert [got[0][r], got[1][r]] == _numpy_streams(seed)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 7,
                                      2 ** 64 - 1, 2 ** 64, 2 ** 128 + 1])
    def test_stream_states_at_word_edges(self, seed):
        got = _stream_states([seed, 3])
        assert [got[0][0], got[1][0]] == _numpy_streams(seed)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cell_seeds_match_numpy(self, data):
        master, level, n = _ints(data.draw, 3)
        first = data.draw(st.integers(0, 2 ** 33))
        count = data.draw(st.integers(1, 4))
        got = harness._cell_seeds(master, level, n, range(first, first + count))
        for i, value in enumerate(got.tolist()):
            want = np.random.SeedSequence([master, level, n, first + i])
            assert value == int(want.generate_state(1, np.uint64)[0])
        assert harness.cell_seed(master, level, n, first) == got.tolist()[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_weak_variance_words_match_numpy(self, data):
        seed, = _ints(data.draw, 1)
        got = processgen._seed_sequence_state([seed], range(6), 1)[:, 0]
        assert got.tolist() == [int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
                                for r in range(6)]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mixed_parts_match_numpy(self, data):
        # a shared prefix of every word count, per-row values of several word
        # counts in one call, and more than 4 words out
        shared = _ints(data.draw, data.draw(st.integers(0, 3)))
        rows = _ints(data.draw, data.draw(st.integers(1, 4)))
        n_words = data.draw(st.integers(1, 9))
        got = processgen._seed_sequence_state(shared, rows, n_words)
        assert len(got) == len(rows)
        for r, value in enumerate(rows):
            want = np.random.SeedSequence([*shared, value]).generate_state(n_words)
            assert got[r].tolist() == want.tolist()

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer, got -3"):
            processgen._Streams([4, -3], (0,))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_continued_streams_match_numpy(self, data):
        # several fills of random lengths per replicate, as time chunks and
        # replicate groups draw them, continue each stream where it stopped
        seeds = [data.draw(st.integers(1 << 32 * words - 32 if words > 1 else 0,
                                       (1 << 32 * words) - 1))
                 for words in data.draw(st.lists(st.sampled_from([1, 2, 5]),
                                                 min_size=1, max_size=4))]
        streams = processgen._Streams(seeds, (0, 1))
        drawn = [[[] for _ in seeds] for _ in (0, 1)]
        for _ in range(data.draw(st.integers(1, 8))):
            stream = data.draw(st.sampled_from([0, 1]))
            r0 = data.draw(st.integers(0, len(seeds) - 1))
            rows = data.draw(st.integers(1, len(seeds) - r0))
            out = np.empty((rows, data.draw(st.integers(0, 70))))
            streams.fill(stream, r0, out, keep=True)
            for i in range(rows):
                drawn[stream][r0 + i].append(out[i])
        for k in (0, 1):
            for seed, parts in zip(seeds, drawn[k]):
                got = np.concatenate([np.empty(0), *parts])
                rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[k])
                assert np.array_equal(got, rng.random(len(got)))

    def test_row_let_go_refuses_a_refill(self):
        # a kept row continues its stream; a row let go raises, never restarts
        streams = processgen._Streams([5, 6], (0, 1))
        out = np.empty((2, 3))
        streams.fill(1, 0, out, keep=True)
        streams.fill(1, 1, out[1:], keep=False)
        streams.fill(1, 0, out[:1], keep=False)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1])
        assert np.array_equal(out[0], rng.random(6)[3:])
        with pytest.raises(RuntimeError, match="stream 1 of replicate 1 was let go"):
            streams.fill(1, 1, out[1:], keep=True)
        with pytest.raises(RuntimeError, match="replicate 0"):
            streams.fill(1, 0, out, keep=True)

    @pytest.mark.parametrize("noise,keys", [
        (mf.NoiseSpec.zero(2), [0]),
        (mf.NoiseSpec.iid([0.5], [1.0], 2, bound=0.5), [0]),
        (mf.NoiseSpec("state-dependent-bias", [[0.5, 9.0]] * 2, [[1.0, 0.0]] * 2), [0]),
        (mf.NoiseSpec("state-dependent-bias", [[0.5, 9.0]] * 2, [[0.0, 1.0]] * 2),
         [0, 1]),
        (mf.NoiseSpec.symmetric(0.5, 2), [0, 1]),
    ], ids=["zero", "one-value", "one-cell", "empty-first-cell", "symmetric"])
    def test_noise_stream_derived_only_for_two_or_more_cells(self, noise, keys):
        # past one time chunk, so the streams continue across chunks
        problem = mf.RegressionProblem(chain=mf.two_state_chain(0.3, 0.2),
                                       embedding=np.eye(2), mode="tabular", noise=noise,
                                       true_table=np.array([1.0, -1.0]))
        derived = []

        def spy(seeds, stream_keys):
            derived.append(list(stream_keys))
            return stream_words(seeds, stream_keys)

        stream_words = processgen._stream_words
        with mock.patch.object(processgen, "_stream_words", spy), \
                mock.patch.object(processgen, "_TIME_CHUNK", 16):
            states, targets = mf.sample_path_batch(problem, 40, range(3))
        assert derived == [keys]   # one pass for every stream drawn
        if keys == [0]:
            assert np.array_equal(targets, problem.regression_mean()[states])


class TestKMixFromChain:
    @settings(max_examples=200, deadline=None)
    @given(chain=_chains(), n=st.integers(1, 2048),
           delta=st.sampled_from([0.5, 0.05, 1e-3]) | st.floats(1e-3, 0.99))
    def test_matches_per_lag_search(self, chain, n, delta):
        # beta_at_lag agrees with the per-lag loop up to rounding, which can
        # tip a tie k / beta(k) = n / delta either way; so the linear scan
        # reads the same beta_at_lag values the search does
        betas = np.array([processgen.beta_at_lag(chain, k) for k in range(1, n + 1)])
        assert np.max(np.abs(betas - beta_coefficients(chain, n))) <= 1e-12

        def outcome(search):
            try:
                return search()
            except ValueError:
                return "raises"

        assert (outcome(lambda: mf.k_mix_from_chain(chain, n, delta))
                == outcome(lambda: k_mix_search(betas, n, delta)))

    @settings(max_examples=150, deadline=None)
    @given(chain=_chains().filter(lambda chain: chain.transition.min() >= 0))
    def test_beta_never_increases_up_to_lag_2_62(self, chain):
        # powers of P drift by about one rounding per step, and bare powers of
        # the centered kernel blow up on periodic chains; a tiny negative entry
        # makes P no Markov kernel, and its exact beta can grow
        betas = np.array([processgen.beta_at_lag(chain, 2 ** j) for j in range(63)])
        assert np.all(np.isfinite(betas)) and np.all(betas >= 0) and np.all(betas <= 1)
        assert np.all(np.diff(betas) <= 1e-12)

    def test_fast_chain_mixes_at_n_1e18(self):
        # the 4-state chain of demos/configs/realizable_regression_bound.json:
        # powers of P read beta(2^62) = 0.5 and found no k_mix at n = 1e18
        chain = mf.product_chain(mf.two_state_chain(0.05, 0.05), 2)
        assert processgen.beta_at_lag(chain, 2 ** 62) == 0.0
        k = mf.k_mix_from_chain(chain, 10 ** 18, 0.05)
        assert 1 <= k < 10 ** 4
        assert k / processgen.beta_at_lag(chain, k - 1) < 10 ** 18 / 0.05

    @pytest.mark.parametrize("S", [2, 3, 5])
    def test_periodic_chain_beta_is_exact(self, S):
        chain = mf.MarkovChainModel(np.roll(np.eye(S), 1, axis=1), np.full(S, 1.0 / S))
        for lag in (1, 7, 2 ** 40 + 1, 2 ** 62):
            assert abs(processgen.beta_at_lag(chain, lag) - (1 - 1 / S)) < 1e-15
        message = mf.bounds._no_k_mix_message(chain, 10 ** 18, 0.05)
        assert f"has {S} eigenvalues of modulus 1" in message
        assert f"beta(n) = {1 - 1 / S:.3g}" in message


class TestKwiseSurrogate:
    def test_k_equals_n_reproduces_plain_sampler(self):
        problem = _two_state_problem()
        a = mf.kwise_independent_surrogate(problem, 128, 128, 7)
        b = mf.sample_trajectory(problem, 128, 7)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.targets, b.targets)

    def test_divisibility_enforced(self):
        problem = _two_state_problem()
        with pytest.raises(ValueError, match="divide"):
            mf.kwise_independent_surrogate(problem, 10, 3, 0)

    def test_k1_kills_lag_one_correlation(self):
        # sticky chain: the dependent sampler has lag-1 correlation ~ 0.8
        chain = mf.two_state_chain(0.1, 0.1)
        problem = mf.RegressionProblem(chain=chain,
                                       embedding=np.array([[-1.0], [1.0]]),
                                       mode="linear", noise=mf.NoiseSpec.zero(2),
                                       true_param=np.array([1.0]))
        n = 60_000
        traj = mf.kwise_independent_surrogate(problem, n, 1, 91)
        v = traj.targets
        corr = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)
        dep = mf.sample_trajectory(problem, n, 91).targets
        assert np.corrcoef(dep[:-1], dep[1:])[0, 1] > 0.5

    def test_block_boundary_pairs_independent(self):
        from scipy import stats
        chain = mf.two_state_chain(0.15, 0.15)
        problem = mf.RegressionProblem(chain=chain, embedding=np.eye(2),
                                       mode="linear", noise=mf.NoiseSpec.zero(2),
                                       true_param=np.zeros(2))
        k, n = 8, 4096
        crit = stats.chi2.ppf(0.99, df=1)
        rejections = 0
        runs = 100
        for run in range(runs):
            traj = mf.kwise_independent_surrogate(problem, n, k, 1000 + run)
            left = traj.states[k - 1:n - 1:k]
            right = traj.states[k:n:k]
            table = np.zeros((2, 2))
            np.add.at(table, (left, right), 1.0)
            expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
            chi2 = float(np.sum((table - expected) ** 2 / expected))
            rejections += chi2 > crit
        assert rejections <= int(0.05 * runs)


def _row_by_row_csv(traj, path):
    """Oracle: the trajectory CSV formatted one row at a time."""
    d = traj.covariates.shape[1]
    header = ["t", "state"] + [f"x_{j + 1}" for j in range(d)] + ["y"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(traj.n):
            row = [str(t + 1), str(int(traj.states[t]))]
            row += [repr(float(x)) for x in traj.covariates[t]]
            row.append(repr(float(traj.targets[t])))
            fh.write(",".join(row) + "\n")


class TestTrajectoryCsv:
    def test_trajectory_csv_columns(self, tmp_path):
        problem = _two_state_problem()
        traj = mf.sample_trajectory(problem, 20, 1)
        path = tmp_path / "traj.csv"
        mf.trajectory_to_csv(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,state,x_1,x_2,y"
        assert len(lines) == 21
        row = lines[3].split(",")
        t, state = int(row[0]), int(row[1])
        assert t == 3 and state == traj.states[2]
        assert float(row[-1]) == traj.targets[2]

    def test_bytes_match_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 257
        states = rng.integers(0, 5, n)
        covariates = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-30, 30, (n, 4))
        covariates[:, 3] = rng.permutation(n) / 7.0     # every value distinct
        covariates[:4, :3] = [[-0.0, 1e-300, -2.5e-7], [1.5e300, -1.0, 0.1],
                              [3.0, -7e22, 5e-324], [1e16, 123456789.0, -1e-5]]
        targets = -np.abs(rng.standard_cauchy(n)) * 10.0 ** rng.integers(-20, 20, n)
        # the special values, twice each, and NaNs of both signs
        targets[4:18] = [np.nan, np.inf, -np.inf, -0.0, 0.0, -np.nan, 0.0,
                         -0.0, np.inf, -np.inf, np.nan, 2.5, -0.0, -np.nan]
        assert len(np.unique(covariates[:, 3])) == n
        traj = mf.Trajectory(n=n, states=states, covariates=covariates,
                             targets=targets, seed=0)
        mf.trajectory_to_csv(traj, tmp_path / "new.csv")
        _row_by_row_csv(traj, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert b"e-" in new and b"e+" in new and b"-" in new
        assert all(f",{text}\n".encode() in new
                   for text in ("nan", "inf", "-inf", "-0.0", "0.0"))
        assert new == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(d=st.sampled_from([1, 3]), n=st.integers(2, 40), data=st.data())
    def test_blocks_match_one_block_writer(self, tmp_path_factory, d, n, data):
        # values from a small pool, so rows repeat within and across blocks;
        # zeros of both signs and NaNs of several payloads share their text
        # but not their bits
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001], dtype=np.uint64).view(float)
        pool = np.concatenate([[0.0, -0.0, 1.5, -2.25e-300, np.inf], nans])
        pick = hnp.arrays(np.intp, (n, d + 1), elements=st.integers(0, len(pool) - 1))
        values = pool[data.draw(pick)]
        states = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
        traj = mf.Trajectory(n=n, states=states, covariates=values[:, :d],
                             targets=values[:, d], seed=0)
        path = tmp_path_factory.mktemp("csv")
        trajectory_csv_one_block(traj, path / "one.csv")
        expected = (path / "one.csv").read_bytes()
        for rows in (1, 3, n - 1, n, processgen._CSV_ROWS):
            with mock.patch.object(processgen, "_CSV_ROWS", rows):
                mf.trajectory_to_csv(traj, path / "blocks.csv")
            assert (path / "blocks.csv").read_bytes() == expected

    def test_empty_trajectory_has_header_only(self, tmp_path):
        traj = mf.Trajectory(n=0, states=np.zeros(0, dtype=np.int64),
                             covariates=np.zeros((0, 2)), targets=np.zeros(0), seed=0)
        mf.trajectory_to_csv(traj, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == "t,state,x_1,x_2,y\n"


def _traced_peak(fn, *args) -> float:
    """The tracemalloc peak of fn(*args), in MiB, counted from the call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestSamplerMemory:
    """The traced peaks of a long-path sweep cell, of a many-replicate walk,
    of the Monte Carlo noise level and of a long trajectory CSV: a chunk's
    cell ids and states share one buffer, freed before the next chunk's, a
    replicate's Generators live only while its streams continue, the noise
    level's members sum blocks of rows, and the CSV is formatted a block of
    rows at a time."""

    @staticmethod
    def _dep09_problem():
        chain = mf.product_chain(mf.two_state_chain(0.05, 0.05), 2)
        return mf.RegressionProblem(chain=chain, embedding=mf.product_embedding([-1.0, 1.0], 2),
                                    mode="linear", noise=mf.NoiseSpec.symmetric(0.5, 4),
                                    true_param=np.array([1.0, -0.5]))

    def test_sweep_cell_peak(self):
        # 64 replicates of 2^16 steps, walked in blocks: a 4 MiB chunk of cell
        # ids, its time-major copy while it is walked, and small lane buffers
        peak = _traced_peak(mf.stream_state_stats, self._dep09_problem(), 2 ** 16, range(64))
        assert peak <= 12.0

    def test_chunks_do_not_stack(self):
        # a second chunk's 4 MiB buffer replaces the first one's; what stays
        # is the consumer's last group of targets and keys (about 1.5 MiB).
        # The consumer's last group of the first chunk would otherwise be a
        # view that holds it
        problem = self._dep09_problem()
        mf.stream_state_stats(problem, 64, range(2))   # builds the tables outside the peaks
        one, two = (_traced_peak(mf.stream_state_stats, problem, n, range(64))
                    for n in (2 ** 16, 2 ** 17))
        assert two <= one + 2.0
        # 500 replicates in two chunks, the second one step long or whole:
        # both keep each replicate's Generators across the first chunk, so
        # only a chunk buffer kept into the next chunk tells the peaks apart
        with mock.patch.object(processgen, "_TIME_CHUNK", 2 ** 13):
            one, two = (_traced_peak(mf.stream_state_stats, problem, n, range(500))
                        for n in (2 ** 13 + 1, 2 ** 14))
        assert two <= one + 0.5

    def test_many_replicate_walk_peak(self):
        # 5000 replicates of 1024 steps: a 5 MiB chunk, its 1.25 MiB
        # time-major block buffer and the seed words of both streams; each
        # replicate's Generator is let go once its row is filled, where
        # holding two per replicate took another 9 MiB
        peak = _traced_peak(mf.stream_state_stats, self._dep09_problem(), 1024, range(5000))
        assert peak <= 11.0

    def test_noise_level_montecarlo_peak(self):
        # the q = 2 noise level at the benchmark's shape, 4000 paths of 256
        # steps and 64 members: a 1 MiB slice of uint8 pair ids, a 1 MiB
        # chunk and 2 MiB of replicate sums; the members take and sum a
        # 0.5 MiB block of rows at a time, where an intp slice and a take
        # of the whole slice per member needed another 16 MiB
        problem = self._dep09_problem()
        members = np.random.default_rng(0).normal(size=(64, 4))
        peak = _traced_peak(mf.weak_variance_2q, problem, problem.regression_mean(), members,
                            2.0, 256, "montecarlo", 4000, 0)
        assert peak <= 9.0

    def test_trajectory_csv_peak(self, tmp_path):
        traj = mf.sample_trajectory(self._dep09_problem(), 2 ** 17, 82)
        assert _traced_peak(mf.trajectory_to_csv, traj, tmp_path / "t.csv") <= 3.0


class TestDocumentEntries:
    """The constructors refuse booleans, strings and non-finite numbers,
    naming the entry; numpy alone would read True as 1.0 and let NaN pass
    every range check. (Model documents: tests/test_cli.py.)"""

    def test_constructors_check_arrays(self):
        with pytest.raises(ValueError, match="noise probs has non-finite"):
            mf.NoiseSpec("state-dependent-bias", [[0.0, 1.0]], [[np.nan, 1.0]])
        with pytest.raises(ValueError, match="embedding must hold numbers"):
            dataclasses.replace(_two_state_problem(), embedding=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="finite class tables must hold numbers"):
            mf.HypothesisClass.finite([[0.5, True]])
        with pytest.raises(ValueError, match="finite class tables has non-finite"):
            mf.HypothesisClass.finite([[0.5, np.inf]])


class TestNoiseSpec:
    def test_martingale_difference_mean_checked(self):
        with pytest.raises(ValueError, match="zero conditional mean"):
            mf.NoiseSpec("martingale-difference", np.array([[0.5, 1.0]]),
                         np.array([[0.5, 0.5]]))

    def test_bound_checked(self):
        with pytest.raises(ValueError, match="exceed"):
            mf.NoiseSpec("martingale-difference", np.array([[-2.0, 2.0]]),
                         np.array([[0.5, 0.5]]), bound=1.0)

    def test_bounded_iid_rows_must_match(self):
        with pytest.raises(ValueError, match="same table"):
            mf.NoiseSpec("bounded-iid", np.array([[1.0], [2.0]]),
                         np.array([[1.0], [1.0]]), bound=3.0)


def _lag_loop(chain, k):
    """sum_{l=1}^{k-1} (k - l) Q^l with Q = P - 1 pi^T, one product per lag."""
    Q = chain.transition - chain.stationary[None, :]
    total, Ql = np.zeros_like(Q), np.eye(chain.n_states)
    for lag in range(1, k):
        Ql = Ql @ Q
        total += (k - lag) * Ql
    return total


EPS = np.finfo(float).eps


class TestLagWeightedSum:
    @settings(max_examples=200, deadline=None)
    @given(chain=_chains(), k=st.integers(1, 8) | st.integers(1, 3000))
    def test_matches_lag_loop(self, chain, k):
        want = _lag_loop(chain, k)
        # the loop's own rounding grows with the k - 1 terms it adds
        assert (np.max(np.abs(processgen.lag_weighted_sum(chain, k) - want))
                <= 2 * k * EPS * np.max(np.abs(want)))

    def test_near_reducible_chain_defeats_the_inverse_formula(self):
        # Q (I - Q)^-1 [(k - 1) I - Q (I - Q^(k-1)) (I - Q)^-1] is the same sum
        # in exact arithmetic, but I - Q is within 2e-12 of singular here
        flip = 1e-12
        chain = mf.MarkovChainModel(np.array([[1 - flip, flip], [flip, 1 - flip]]),
                                    np.array([0.5, 0.5]))
        eye = np.eye(2)
        Q = chain.transition - chain.stationary[None, :]
        R = np.linalg.inv(eye - Q)
        for k in (64, 4097):
            want = _lag_loop(chain, k)
            scale = np.max(np.abs(want))
            inverse = Q @ R @ ((k - 1) * eye
                               - Q @ (eye - np.linalg.matrix_power(Q, k - 1)) @ R)
            assert np.max(np.abs(inverse - want)) > 0.5 * scale
            assert (np.max(np.abs(processgen.lag_weighted_sum(chain, k) - want))
                    <= 2 * k * EPS * scale)


class TestChainMoments:
    def test_block_sum_second_moment_matches_monte_carlo(self):
        chain = mf.two_state_chain(0.25, 0.25)
        values = np.array([-1.0, 1.0])
        exact = mf.block_sum_second_moment(chain, values, 8)
        problem = mf.RegressionProblem(chain=chain, embedding=values[:, None],
                                       mode="linear", noise=mf.NoiseSpec.zero(2),
                                       true_param=np.array([1.0]))
        states, _ = mf.sample_path_batch(problem, 8, range(40_000))
        sums = values[states].sum(axis=1)
        mc = np.mean(sums ** 2)
        se = np.std(sums ** 2, ddof=1) / np.sqrt(len(sums))
        assert abs(exact - mc) <= 3.5 * se

    def test_iid_block_second_moment_is_k_var(self):
        chain = mf.iid_chain([0.5, 0.5])
        values = np.array([-1.0, 1.0])
        assert abs(mf.block_sum_second_moment(chain, values, 16) - 16.0) < 1e-12
