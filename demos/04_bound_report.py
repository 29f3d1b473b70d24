# Demo: the full bound pipeline on one instance.
#
# For a realizable linear problem the engine certifies the class's
# norm-comparison constant, computes the exact noise level, evaluates the
# chaining complexity in closed form, solves the critical-radius fixed point,
# and derives the burn-in sample sizes and block length. The per-term
# breakdown of the multiplier tail bound shows the variance group (which
# ignores the block length) dominating the moment-norm group past the burn-in.

import numpy as np

import mixfree as mf

base = mf.two_state_chain(0.05, 0.05)          # per-coordinate dependence 0.9
chain = mf.product_chain(base, 2)
problem = mf.RegressionProblem(
    chain=chain, embedding=mf.product_embedding([-1.0, 1.0], 2), mode="linear",
    noise=mf.NoiseSpec.symmetric(0.5, chain.n_states),
    true_param=np.array([1.0, -0.5]))
cls = mf.HypothesisClass.linear(2)

for n in (65_536, 1_048_576):
    report = mf.compute_bound_report(problem, cls, n=n, delta=0.05)
    print(f"n = {n}:")
    print(f"  certificate        L = {report.L:.4f}, eta = {report.eta}")
    print(f"  noise level        {report.weak_variance:.4f} (noise variance 0.25)")
    print(f"  critical radius    {report.r_star:.6f} ({report.r_star_flag})")
    print(f"  block length       k_mix = {report.k_mix}")
    print(f"  burn-ins           n_quad = {report.n_quad}, n_mult = {report.n_mult}")
    print(f"  risk bound         {report.risk_bound:.3e}")

    rhs = report.multiplier_rhs()
    var_group = rhs.group("variance_chaining", "variance_tail")
    psi_group = rhs.group("psi_chaining", "psi_tail")
    print(f"  multiplier rhs     variance group {var_group:.3e}, "
          f"moment-norm group {psi_group:.3e} "
          f"({'variance-dominated' if var_group > psi_group else 'below burn-in'})")
    print()
