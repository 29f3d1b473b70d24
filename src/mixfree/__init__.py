"""mixfree: a simulation and bound-calculus lab for least-squares learning on
dependent (beta-mixing) data.

The package pairs exactly analyzable finite-state Markov data generators with
numerical evaluations of every bound-side object of the localized analysis:
moment norms, blocked concentration inequalities, chaining complexities,
critical radii, burn-in sample sizes, and the assembled excess-risk bound.
The experiment harness then checks the headline behaviour empirically: past
the computed burn-ins, the leading excess-risk term of empirical risk
minimization does not deflate with the mixing time.
"""

from .processgen import (MarkovChainModel, NoiseSpec, RegressionProblem,
                         Trajectory, block_sum_second_moment, iid_chain,
                         kwise_independent_surrogate, product_chain,
                         product_embedding, sample_path_batch, sample_trajectory,
                         stationary_distribution, stream_state_stats,
                         trajectory_to_csv, two_state_chain)
from .blocking import (blocked_bernstein_bound, blocked_bernstein_terms,
                       mixing_failure_term, odd_block_decoupling_gap_exact)
from .erm import (HypothesisClass, PopulationQuantities, check_class_fits,
                  excess_risks, multiplier_processes, population_quantities,
                  quadratic_processes, sphere_tables, star_hull_tables)
from .bounds import (INF, BoundBreakdown, BoundReport, BurnIns, ClassCertificate,
                     Constants, CriticalRadius, DiscreteLaw, PsiNormEstimate,
                     WeakVariance, bernstein_mgf_rhs, burn_ins,
                     certify_weak_subgaussian, check_holder_pair,
                     compute_bound_report, gamma_alpha_parametric,
                     greedy_cover_counts, holder_conjugate, k_mix_from_chain,
                     multiplier_bound_rhs, psi_p_norm, psi_product_bound,
                     quadratic_bound_rhs, risk_bound, weak_variance_2q,
                     weak_variance_q1_exact)
from .harness import (CoverageReport, DiagnosticsReport, MixingFreeReport,
                      RateFit, SweepConfig, SweepResult, cell_seed,
                      fit_rate, mixing_free_check,
                      process_diagnostics, run_sweep, sweep_summary,
                      sweep_to_csv)

__version__ = "0.1.0"
