"""Entropy-annealed policy mirror descent for exit-time control on a 1D grid."""

__version__ = "0.1.0"

from .bounds import (GrowthIntegrals, growth_integrals,
                     growth_integrals_quadrature, optimization_bound,
                     reproduce_figure, total_bound)
from .domain import (ActionSpace, ControlProblem, Grid, LQCoefficients,
                     build_grid, lq_benchmark, make_action_space,
                     make_lq_problem, make_problem, manufactured_problem)
from .elliptic import (SolverError, ValueField, average_coefficients,
                       optimal_feature, pde_residual,
                       performance_difference_check, solve_on_policy_bellman)
from .flow import (FlowTrajectory, Scheduler, UnstableFlowError,
                   error_decomposition, integrate_flow, mirror_rhs)
from .hamiltonian import (hard_hamiltonian, interval_quadratic_softmin,
                          soft_hamiltonian)
from .hjb import (ConvergenceError, HjbSolution, solve_regularized_hjb,
                  solve_unregularized_hjb)
from .montecarlo import McEstimate, PathCapError, simulate_exit_value
from .policy import Policy, gibbs_policy, kl_between, kl_to_reference, uniform_policy
