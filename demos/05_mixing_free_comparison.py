# Demo: the headline experiment, scaled down.
#
# Two data-generating chains share the same hypothesis class, noise, and
# dimension; one is iid, the other has per-coordinate dependence 0.9 so its
# required block length is two orders of magnitude larger. A naive blocking
# argument predicts the slow chain's excess risk should be worse by that
# block-length factor. Past the engine's own burn-ins, the fitted leading
# constants instead agree to within a small factor: the leading term is
# mixing-free.
#
# The acceptance suite runs dependence 0.9 with a grid up to n = 2^21; this
# demo uses dependence 0.85 and a lighter grid so it finishes in a few
# seconds. The block-length contrast is already two orders of magnitude.

import numpy as np

import mixfree as mf


def make(flip):
    base = mf.two_state_chain(flip, flip)
    chain = mf.product_chain(base, 2)
    return mf.RegressionProblem(
        chain=chain, embedding=mf.product_embedding([-1.0, 1.0], 2),
        mode="linear", noise=mf.NoiseSpec.symmetric(0.5, 4),
        true_param=np.array([1.0, -0.5]))


config = mf.SweepConfig(
    problems=(make(0.5), make(0.075)), labels=("iid", "dependence-0.85"),
    hypothesis=mf.HypothesisClass.linear(2),
    n_grid=tuple(2 ** i for i in range(14, 21)), replicates=32, master_seed=12)
result = mf.run_sweep(config)

print(f"{'n':>8} {'median iid':>14} {'median dep':>14} {'ratio':>8}")
for n in config.n_grid:
    a = float(np.median(result.excess[(0, n)]))
    b = float(np.median(result.excess[(1, n)]))
    print(f"{n:>8} {a:>14.3e} {b:>14.3e} {b / a:>8.2f}")

report = mf.mixing_free_check(result)
window_ratios = [float(np.median(result.excess[(report.slow_level, n)])
                       / np.median(result.excess[(report.fast_level, n)]))
                 for n in report.window]
geo = float(np.exp(np.mean(np.log(window_ratios))))
print(f"\npost-burn-in window: {report.window}")
print(f"median-excess ratio (slow / fast) on the window: "
      f"geometric mean {geo:.2f}, range "
      f"[{min(window_ratios):.2f}, {max(window_ratios):.2f}]")
print(f"fitted leading-constant ratio (exp-intercept, noisier on short "
      f"windows): {report.constant_ratio:.2f}")
print(f"naive blocking prediction (block-length ratio): "
      f"{report.naive_block_ratio:.0f}")
print(f"the observed ratios stay O(1) while the naive prediction is "
      f"{report.naive_block_ratio:.0f}x: the leading term does not pay for mixing")
