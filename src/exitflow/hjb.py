"""Semilinear HJB solves by policy iteration, and the regularization bias.

For tau > 0 the fixed point alternates a linear on-policy solve with the
exact improvement map Z <- -(b*Dv - c*v + f)/tau, whose Gibbs image is
the softmin-optimal policy; convergence is measured by the semilinear
residual (sigma^2/2) v'' + H_tau(x, v, Dv).  The tau = 0 solve is Howard
iteration with hard per-node argmins (exact vertex clamping on interval
LQ problems, node argmin on discrete ones).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain import DISCRETE
from .elliptic import (CENTRAL, ValueField, average_coefficients, diffusion,
                       optimal_feature, solve_linear, solve_on_policy_bellman)
from .hamiltonian import hard_hamiltonian, softmin_table
from .policy import Policy, gibbs_policy, uniform_policy


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass
class HjbSolution:
    v_star: ValueField
    tau: float
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


def solve_regularized_hjb(problem, tau, tol=None, max_iter=200,
                          scheme=CENTRAL, z0=None) -> HjbSolution:
    """Fixed point of the softmin HJB for tau > 0.

    Starts from the uniform policy (or the Gibbs image of ``z0``) and
    iterates linear solve / feature improvement until the semilinear
    residual drops below tol.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if tol is None:
        tol = default_tolerance(problem)
    n = problem.n_interior
    if z0 is None:
        pol = uniform_policy(n, problem.actions)
    else:
        pol = gibbs_policy(z0, problem.actions)
    history = []
    vf = None
    for it in range(1, max_iter + 1):
        vf = solve_on_policy_bellman(problem, pol, tau, scheme)
        z = optimal_feature(problem, vf)
        res = _residual(problem, vf,
                        softmin_table(z, problem.actions.mu_weights, tau))
        history.append(res)
        if res <= tol:
            return HjbSolution(v_star=vf, tau=float(tau), iterations=it,
                               final_residual=res, optimal_policy=pol,
                               residual_history=history)
        pol = gibbs_policy(-z / tau, problem.actions)
    raise ConvergenceError(
        f"policy iteration did not reach tol={tol:.3g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3g})", history)


def _hard_minimum(problem, vf):
    """Per-node minimum of b*Dv - c*v + f, a minimizing action, and its
    column on discrete action sets (None on intervals)."""
    if problem.actions.kind == DISCRETE:
        z = optimal_feature(problem, vf)
        cols = np.argmin(z, axis=1)
        return z[np.arange(cols.size), cols], problem.actions.actions[cols], \
            cols
    ham, acts = np.array([hard_hamiltonian(problem, x, u, p) for x, u, p
                          in zip(problem.grid.interior, vf.interior,
                                 vf.dv)]).T
    return ham, acts, None


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


def _selected_coefficients(problem, acts):
    xs = problem.grid.interior
    b = np.array([problem.b(x, a) for x, a in zip(xs, acts)])
    c = np.array([problem.c(x, a) for x, a in zip(xs, acts)])
    f = np.array([problem.f(x, a) for x, a in zip(xs, acts)])
    return b, c, f


def solve_unregularized_hjb(problem, tol=None, max_iter=200,
                            scheme=CENTRAL) -> HjbSolution:
    """Howard iteration for the hard-min HJB (tau = 0).

    Bootstraps from the uniform-policy averages, then alternates linear
    solves under the current per-node action selection with hard argmin
    reselection.  Stops on the semilinear residual or a stationary
    selection; a repeated non-adjacent selection without residual
    progress is reported as cycling.
    """
    if tol is None:
        tol = default_tolerance(problem)
    coefficients = average_coefficients(
        problem, uniform_policy(problem.n_interior, problem.actions), 0.0)
    history = []
    seen = {}
    best = math.inf
    acts = None
    for it in range(1, max_iter + 1):
        vf = solve_linear(problem, *coefficients, scheme)
        ham, new_acts, cols = _hard_minimum(problem, vf)
        res = _residual(problem, vf, ham)
        history.append(res)
        stationary = acts is not None and np.array_equal(new_acts, acts)
        if res <= tol or stationary:
            return HjbSolution(v_star=vf, tau=0.0, iterations=it,
                               final_residual=res,
                               optimal_policy=_one_hot_policy(problem, new_acts),
                               residual_history=history,
                               argmin_actions=new_acts)
        if cols is not None:
            key = cols.tobytes()
            if key in seen and res >= best - 1e-15:
                raise ConvergenceError(
                    f"Howard iteration is cycling: selection repeated at "
                    f"iteration {it} (first seen {seen[key]}) without "
                    f"residual decrease (residual {res:.3g})", history)
            seen[key] = it
        best = min(best, res)
        acts = new_acts
        coefficients = _selected_coefficients(problem, acts)
    raise ConvergenceError(
        f"Howard iteration did not reach tol={tol:.3g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3g})", history)


def regularization_bias(problem, tau_list, tol=None, scheme=CENTRAL):
    """(tau, sup|v*_tau - v*_0|) for a descending list of taus."""
    taus = [float(t) for t in tau_list]
    if any(t <= 0.0 for t in taus):
        raise ValueError("taus must be positive")
    if any(t1 <= t2 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("taus must be sorted in descending order")
    base = solve_unregularized_hjb(problem, tol=tol, scheme=scheme)
    out = []
    for tau in taus:
        sol = solve_regularized_hjb(problem, tau, tol=tol, scheme=scheme)
        out.append((tau, float(np.max(np.abs(sol.v_star.v - base.v_star.v)))))
    return out
