"""Blocking, decoupled resampling, and blocked Bernstein tests."""

import math

import numpy as np
import pytest

import mixfree as mf
from oracles import beta_coefficients


def _problem(chain, d=1, sigma=0.0):
    emb = np.linspace(-1.0, 1.0, chain.n_states)[:, None]
    noise = mf.NoiseSpec.zero(chain.n_states) if sigma == 0 \
        else mf.NoiseSpec.symmetric(sigma, chain.n_states)
    return mf.RegressionProblem(chain=chain, embedding=emb, mode="linear",
                                noise=noise, true_param=np.array([1.0]))


class TestDecoupleResample:
    def test_two_blocks_uncorrelated(self):
        # k = n/2: one odd and one even block, independent by construction
        chain = mf.two_state_chain(0.05, 0.05)   # very sticky, strong dependence
        problem = _problem(chain)
        reps = 4000
        firsts, seconds = np.empty(reps), np.empty(reps)
        dep_f, dep_s = np.empty(reps), np.empty(reps)
        for r in range(reps):
            traj = mf.kwise_independent_surrogate(problem, 64, 32, 10_000 + r)
            firsts[r] = traj.targets[:32].mean()
            seconds[r] = traj.targets[32:].mean()
            dep = mf.sample_trajectory(problem, 64, 10_000 + r)
            dep_f[r] = dep.targets[:32].mean()
            dep_s[r] = dep.targets[32:].mean()
        cov = np.mean((firsts - firsts.mean()) * (seconds - seconds.mean()))
        se = np.std((firsts - firsts.mean()) * (seconds - seconds.mean()),
                    ddof=1) / math.sqrt(reps)
        assert abs(cov) <= 3 * se
        dep_cov = np.mean((dep_f - dep_f.mean()) * (dep_s - dep_s.mean()))
        assert dep_cov > 10 * se   # the coupled sampler is visibly correlated

    def test_iid_chain_law_preserved(self):
        # permutation two-sample test on block means, 1% level
        chain = mf.iid_chain([0.3, 0.7])
        problem = _problem(chain)
        rng = np.random.default_rng(5)
        runs, rejections = 100, 0
        for run in range(runs):
            orig = np.array([mf.sample_trajectory(problem, 32, 7000 + 31 * run + j
                                                  ).targets.mean() for j in range(24)])
            deco = np.array([mf.kwise_independent_surrogate(
                problem, 32, 8, 9000 + 31 * run + j).targets.mean()
                for j in range(24)])
            stat = abs(orig.mean() - deco.mean())
            pooled = np.concatenate([orig, deco])
            perm_stats = np.empty(200)
            for b in range(200):
                rng.shuffle(pooled)
                perm_stats[b] = abs(pooled[:24].mean() - pooled[24:].mean())
            p_value = np.mean(perm_stats >= stat)
            rejections += p_value < 0.01
        assert rejections <= int(0.05 * runs)

    def test_single_state_chain_identical(self):
        chain = mf.MarkovChainModel(np.array([[1.0]]), np.array([1.0]))
        problem = _problem(chain)
        a = mf.kwise_independent_surrogate(problem, 16, 4, 3)
        b = mf.sample_trajectory(problem, 16, 3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.targets, b.targets)

    def test_per_block_marginals_preserved(self):
        chain = mf.two_state_chain(0.2, 0.4)
        problem = _problem(chain)
        reps = 3000
        states, _ = mf.sample_path_batch(problem, 12, range(reps))
        dstates, _ = mf.sample_path_batch(problem, 12, range(reps), block_len=3)
        for t in range(12):
            f_orig = np.mean(states[:, t] == 0)
            f_dec = np.mean(dstates[:, t] == 0)
            assert abs(f_orig - f_dec) <= 4 * math.sqrt(0.25 / reps) * 2


class TestDecouplingGap:
    def test_zero_betas_zero_gap(self):
        # a single-state chain has beta(k) = 0 at every lag
        chain = mf.MarkovChainModel(np.array([[1.0]]), np.array([1.0]))
        assert mf.odd_block_decoupling_gap_exact(chain, 20, 5) == (0.0, 0.0)

    def test_m3_arithmetic(self):
        # n = 12, k = 2: six blocks, m = 3 of each parity, so (m - 1) beta(k)
        model = mf.two_state_chain(0.3, 0.2)
        _, bound = mf.odd_block_decoupling_gap_exact(model, 12, 2)
        assert abs(bound - 2 * beta_coefficients(model, 2)[1]) < 1e-15

    def test_exact_enumeration_small_chains(self):
        for p, q in [(0.3, 0.2), (0.6, 0.7)]:
            model = mf.two_state_chain(p, q)
            for n, k in [(8, 2), (8, 4), (6, 3), (10, 5)]:
                gap, bound = mf.odd_block_decoupling_gap_exact(model, n, k)
                assert gap <= bound + 1e-12
                if n // k == 2:
                    assert gap < 1e-14   # single odd block: marginal preserved

    def test_enumeration_agrees_with_scheme_bound(self):
        # n = 8, k = 2: blocks 0 and 2 are the odd ones, m = 2
        model = mf.two_state_chain(0.3, 0.2)
        betas = beta_coefficients(model, 2)
        _, bound = mf.odd_block_decoupling_gap_exact(model, 8, 2)
        assert abs(bound - (2 - 1) * betas[2 - 1]) < 1e-15

    def test_mixing_failure_term(self):
        assert abs(mf.mixing_failure_term(100, 10, 0.05) - 0.5) < 1e-15


class TestBlockedBernstein:
    def test_delta_one_gives_zero(self):
        assert mf.blocked_bernstein_bound(1.0, 4.0, 64, 4, 1.0) == 0.0

    def test_k1_reduces_to_standard_form(self):
        b, var, n, delta = 2.0, 1.3, 256, 0.07
        ln = math.log(1 / delta)
        standard = 2 * math.sqrt(var * ln / n) + 4 * b * ln / (3 * n)
        assert abs(mf.blocked_bernstein_bound(b, var, n, 1, delta) - standard) < 1e-15

    def test_iid_leading_term_identity(self):
        # with E[(block sum)^2] = k Var(V), the k's cancel in the leading term
        var, n, delta = 0.37, 1024, 0.05
        lead1, _ = mf.blocked_bernstein_terms(1.0, var, n, 1, delta)
        for k in (2, 8, 32):
            leadk, _ = mf.blocked_bernstein_terms(1.0, k * var, n, k, delta)
            assert abs(leadk - lead1) <= 1e-12 * lead1

    def test_monotonicity(self):
        base = mf.blocked_bernstein_bound(1.0, 8.0, 512, 8, 0.05)
        assert mf.blocked_bernstein_bound(2.0, 8.0, 512, 8, 0.05) > base
        assert mf.blocked_bernstein_bound(1.0, 16.0, 512, 8, 0.05) > base
        assert mf.blocked_bernstein_bound(1.0, 8.0, 512, 8, 0.01) > base
        assert mf.blocked_bernstein_bound(1.0, 8.0, 1024, 8, 0.05) < base
        assert mf.blocked_bernstein_bound(1.0, 2 * 8.0, 512, 16, 0.05) > base

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mf.blocked_bernstein_bound(-1.0, 1.0, 64, 4, 0.05)
        with pytest.raises(ValueError, match="divide"):
            mf.blocked_bernstein_bound(1.0, 1.0, 65, 4, 0.05)
        with pytest.raises(ValueError):
            mf.blocked_bernstein_bound(1.0, 1.0, 64, 4, 1.5)

    def test_quick_coverage(self):
        from mixfree.harness import blocked_bernstein_coverage
        model = mf.two_state_chain(0.25, 0.25)
        report = blocked_bernstein_coverage(model, np.array([-1.0, 1.0]),
                                            n=256, k=8, delta=0.05,
                                            replicates=1000, master_seed=17)
        assert report.frequency <= 0.05 + 3 * report.std_error
