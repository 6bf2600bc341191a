"""Multigrid-accelerated proximal gradient solvers for nonsmooth convex problems.

The library minimizes composite objectives F(x) = f(x) + g(x) with smooth
strongly convex f and a separable nonsmooth g through a full-approximation
multigrid scheme whose smoother is the proximal gradient step, with adaptive
transfer operators that mask nondifferentiable coordinates.  It ships the
penalized elastic obstacle benchmark, an accelerated variant, first-order
baselines, and a certificate suite that checks the methods' descent and rate
guarantees at runtime.
"""

from .accelerated import (FastState, fast_step, fastmgprox_solve,
                          lambda_rate_bound, phi_bar_update, solve_alpha)
from .baselines import fista_solve, proxgrad_solve
from .certificates import (SCOPES, CertificateResult,
                           certify_run, check_angle_condition, check_converged,
                           check_fast_certificates, check_fixed_point,
                           check_linear_rate, check_lipschitz_bound,
                           check_mgprox_sufficient_descent, check_one_over_k,
                           check_smoothing_descent, check_stage_monotonicity,
                           check_work_units)
from .grid import GridLevel, ij_to_k
from .hierarchy import (Level, LevelStack, LevelWork, build_obstacle_hierarchy,
                        build_tau, workspace)
from .membrane import (MembraneEnergy, build_difference_operators,
                       lipschitz_upper_bound, make_obstacle_problem,
                       obstacle_values)
from .multigrid import (CycleConfig, CycleTrace, SolverTrace, StoppingRule,
                        cycle_work_units, mgprox_solve, naive_line_search,
                        vcycle)
from .nonsmooth import IntervalVec, SeparableNonsmooth, select_subgradient
from .oracles import (Reference, brute_force_prox, build_chain_hierarchy,
                      chain_constants, fd_gradient, golden_section,
                      make_chain_problem, reference_solution)
from .problems import (CompositeProblem, QuadraticForm, laplacian_1d,
                       start_points, tilted_objective, tilted_value_change)
from .smoothing import backtrack_L, prox_grad_map, prox_grad_step, run_smoothing
from .transfer import (TransferPair, adaptive_mask, build_full_weighting,
                       build_line_weighting, prolong_adaptive,
                       restrict_adaptive)

__version__ = "0.1.0"
