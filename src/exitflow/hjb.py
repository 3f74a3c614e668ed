"""Semilinear HJB solves: policy iteration for tau > 0, Howard for tau = 0.

For tau > 0 the fixed point alternates a linear on-policy solve with the
exact improvement map Z <- -(b*Dv - c*v + f)/tau, whose Gibbs image is
the softmin-optimal policy; convergence is measured by the semilinear
residual (sigma^2/2) v'' + H_tau(x, v, Dv), with H_tau = -tau times the
log-partition of that Gibbs image, so each iteration exponentiates its
feature table once.  The tau = 0 solve is Howard iteration with hard
per-node argmins from ``hamiltonian.hard_minimum``, the same node-wise
minimum that ``hard_hamiltonian`` evaluates at one point: the node
argmin of the coefficient table on discrete action sets, the clamped
vertex from the per-node LQ values on interval LQ problems, and a
golden-section refinement of each node's minimum elsewhere, in which the
b, c and f closures receive Python floats.  Each argmin step also returns
b, c and f at the selected actions, which the next linear solve takes.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elliptic import (ValueField, average_coefficients, diffusion,
                       optimal_feature, solve_linear, solve_on_policy_bellman)
from .hamiltonian import hard_minimum
from .policy import Policy, _check_tau, gibbs_policy, uniform_policy


# iteration cap of both solvers; also the default of solver.max_iter
MAX_ITER = 200


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass
class HjbSolution:
    v_star: ValueField
    iterations: int
    final_residual: float
    optimal_policy: Policy
    residual_history: list = field(default_factory=list)
    argmin_actions: Optional[np.ndarray] = None  # tau = 0, per interior node


def default_tolerance(problem):
    return 1e-9 * (1.0 + problem.f_sup)


def _residual(problem, vf, ham):
    """Max-norm of (sigma^2/2) v'' + H with per-node Hamiltonian values."""
    return float(np.max(np.abs(diffusion(problem, vf) + ham)))


def solve_regularized_hjb(problem, tau, tol=None, max_iter=MAX_ITER,
                          z0=None) -> HjbSolution:
    """Fixed point of the softmin HJB for tau > 0.

    Starts from the uniform policy (or the Gibbs image of ``z0``) and
    iterates linear solve / feature improvement until the semilinear
    residual drops below tol.
    """
    _check_tau(tau, positive=True)
    if tol is None:
        tol = default_tolerance(problem)
    n = problem.n_interior
    if z0 is None:
        pol = uniform_policy(n, problem.actions)
    else:
        pol = gibbs_policy(z0, problem.actions)
    history = []
    for it in range(1, max_iter + 1):
        vf = solve_on_policy_bellman(problem, pol, tau)
        # -F/tau in F's own array: IEEE division is sign-symmetric, so
        # F / -tau has the bits of -F / tau
        feature = optimal_feature(problem, vf)
        feature /= -tau
        improved = gibbs_policy(feature, problem.actions)
        res = _residual(problem, vf, -tau * improved.log_partition)
        history.append(res)
        if res <= tol:
            return HjbSolution(v_star=vf, iterations=it,
                               final_residual=res, optimal_policy=pol,
                               residual_history=history)
        pol = improved
    raise ConvergenceError(
        f"policy iteration did not reach tol={tol:.3g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3g})", history)


def _one_hot_policy(problem, actions_selected):
    """Deterministic selection stored in policy form: unit weight on the
    nearest action node.  Off the support the log-density is stored as 0,
    a finite placeholder: the zero weights mark the support, so KL values
    and policy averages never read it."""
    acts = problem.actions.actions
    w = problem.actions.mu_weights
    n = problem.n_interior
    cols = np.argmin(np.abs(acts[None, :] - actions_selected[:, None]), axis=1)
    weights = np.zeros((n, acts.size))
    logd = np.zeros((n, acts.size))
    weights[np.arange(n), cols] = 1.0
    logd[np.arange(n), cols] = -np.log(w[cols])
    return Policy(weights=weights, log_density=logd)


def solve_unregularized_hjb(problem, tol=None,
                            max_iter=MAX_ITER) -> HjbSolution:
    """Howard iteration for the hard-min HJB (tau = 0).

    Bootstraps from the uniform-policy averages, then alternates linear
    solves under the current per-node action selection with hard argmin
    reselection.  Stops on the semilinear residual or a stationary
    selection.  Each iteration after the first takes the coefficients of
    the previous selection, so a selection seen before (other than the
    previous one) repeats the iterations since: it is reported as cycling.
    """
    if tol is None:
        tol = default_tolerance(problem)
    coefficients = average_coefficients(
        problem, uniform_policy(problem.n_interior, problem.actions), 0.0)
    history = []
    seen = {}
    acts = None
    for it in range(1, max_iter + 1):
        vf = solve_linear(problem, *coefficients)
        ham, new_acts, selected = hard_minimum(
            problem, problem.grid.interior, vf.interior, vf.dv,
            problem.coef_tab, problem.lq_tab)
        res = _residual(problem, vf, ham)
        history.append(res)
        stationary = acts is not None and np.array_equal(new_acts, acts)
        if res <= tol or stationary:
            return HjbSolution(v_star=vf, iterations=it,
                               final_residual=res,
                               optimal_policy=_one_hot_policy(problem, new_acts),
                               residual_history=history,
                               argmin_actions=new_acts)
        key = new_acts.tobytes()
        if key in seen:
            raise ConvergenceError(
                f"Howard iteration is cycling: selection repeated at "
                f"iteration {it} (first seen {seen[key]}), residual "
                f"{res:.3g}", history)
        seen[key] = it
        acts, coefficients = new_acts, selected
    raise ConvergenceError(
        f"Howard iteration did not reach tol={tol:.3g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3g})", history)

