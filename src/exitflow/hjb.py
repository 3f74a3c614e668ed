"""Semilinear HJB solves: policy iteration for tau > 0, Howard for tau = 0.

For tau > 0 the fixed point alternates a linear on-policy solve with the
exact improvement map Z <- -(b*Dv - c*v + f)/tau, whose Gibbs image is
the softmin-optimal policy; convergence is measured by the semilinear
residual (sigma^2/2) v'' + H_tau(x, v, Dv), with H_tau = -tau times the
log-partition of that Gibbs image, so each iteration exponentiates its
feature table once.  On interval LQ problems b*Dv - c*v + f is
k0 + k1*a + k2*a^2 per node (``domain.lq_feature``): the features are
-(k1*a + k2*a^2)/tau, one (n, 2) x (2, N) product, H_tau takes k0 back,
and the next value solve reads the policy through its two action
moments, so no b, c, f table is formed and no weights are read.
``regularized_path`` solves a list of tau in order, each from the
previous optimum: its first solve starts from the uniform policy, each
later one from the Gibbs image of -F(v*_prev)/tau, formed by the same
improvement step (``_improvement_feature``) that the iteration takes.
Policy iteration is Newton's method on the HJB, so from the optimum at a
nearby tau it converges in about two iterations.

The tau = 0 solve is Howard iteration; its step is
``hamiltonian._hard_minimum`` on the problem's tables, the node-wise
minimum that ``hard_hamiltonian`` takes on the tables at one point: the
node argmin of the coefficient table on discrete action sets, the
clamped vertex from the per-node LQ values on interval LQ problems, and
a golden-section refinement of each node's minimum elsewhere, in which
the b, c and f closures receive Python floats.  Each step also returns b, c and f at
the selected actions, which the next linear solve takes.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain import _count, lq_feature
from .elliptic import (ValueField, average_coefficients, diffusion,
                       optimal_feature, solve_linear, solve_on_policy_bellman)
from .hamiltonian import _hard_minimum
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


def _solver_args(problem, tol, max_iter):
    """Both solvers' ``tol`` and ``max_iter``, checked: tol=None is
    ``default_tolerance(problem)``, any other tol must be positive and
    finite, and max_iter must be an integer >= 1."""
    if tol is None:
        tol = default_tolerance(problem)
    elif not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol, _count(max_iter, "max_iter", 1)


def _residual(problem, vf, ham):
    """Max-norm of (sigma^2/2) v'' + H with per-node Hamiltonian values."""
    return float(np.max(np.abs(diffusion(problem, vf) + ham)))


def _improvement_feature(problem, vf, tau):
    """Features of the improvement step at the value ``vf``, and the part
    k0 of F = b*Dv - c*v + f that they leave out.

    On interval LQ problems the features are -(k1*a + k2*a^2)/tau and k0
    is F's action-free term; elsewhere they are -F/tau and k0 is 0.  Either
    way their Gibbs image is that of -F/tau, and the softmin Hamiltonian at
    ``vf`` is k0 - tau times its log-partition.  The features are a fresh
    array, which the Gibbs map may take over.
    """
    if problem._interval_lq:
        # F = k0 + k1*a + k2*a^2: the Gibbs image of -(k1*a + k2*a^2)/tau
        # is that of -F/tau.  The product is laid out column by column, so
        # the row maximum runs over contiguous columns
        k0, k1, k2 = lq_feature(problem.lq_tab, vf.dv, vf.interior)
        slopes = np.array([k1, k2])
        slopes /= -tau
        return (problem.actions._powers.T @ slopes).T, k0
    # -F/tau in F's own array: IEEE division is sign-symmetric, so
    # F / -tau has the bits of -F / tau
    feature = optimal_feature(problem, vf)
    feature /= -tau
    return feature, 0.0


def solve_regularized_hjb(problem, tau, tol=None, max_iter=MAX_ITER,
                          z0=None) -> HjbSolution:
    """Fixed point of the softmin HJB for tau > 0.

    Starts from the uniform policy (or the Gibbs image of ``z0``) and
    iterates linear solve / feature improvement until the semilinear
    residual drops below tol.  tol=None is ``default_tolerance(problem)``;
    a tol that is not positive and finite, or a max_iter that is not an
    integer >= 1, is a ValueError before any solve.
    """
    _check_tau(tau, positive=True)
    tol, max_iter = _solver_args(problem, tol, max_iter)
    actions = problem.actions
    if z0 is None:
        pol = uniform_policy(problem.n_interior, actions)
    else:
        pol = gibbs_policy(z0, actions)
    history = []
    for it in range(1, max_iter + 1):
        vf = solve_on_policy_bellman(problem, pol, tau)
        feature, k0 = _improvement_feature(problem, vf, tau)
        improved = gibbs_policy(feature, actions, overwrite=True)
        ham = k0 - tau * improved.log_partition
        res = _residual(problem, vf, ham)
        history.append(res)
        if res <= tol:
            return HjbSolution(v_star=vf, iterations=it,
                               final_residual=res, optimal_policy=pol,
                               residual_history=history)
        pol = improved
    raise ConvergenceError(
        f"policy iteration did not reach tol={tol:.3g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3g})", history)


def regularized_path(problem, taus, tol=None, max_iter=MAX_ITER):
    """Softmin HJB solutions for ``taus``, yielded in the given order.

    The first solve starts from the uniform policy; each later one from
    the improvement step at the previous optimum, the Gibbs image of
    -F(v*_prev)/tau.  Policy iteration is Newton's method on the HJB, so
    from an optimum at a nearby tau it needs few iterations.  Every tau,
    and tol and max_iter as ``solve_regularized_hjb`` takes them, are
    checked before the first solve, so a bad one is a ValueError from the
    first ``next()``.  The generator keeps no solution once it has
    yielded it, only the next start's features.
    """
    taus = list(taus)
    for tau in taus:
        _check_tau(tau, positive=True)
    _solver_args(problem, tol, max_iter)
    z0 = None
    for k, tau in enumerate(taus):
        sol = solve_regularized_hjb(problem, tau, tol=tol, max_iter=max_iter,
                                    z0=z0)
        if k + 1 < len(taus):
            z0 = _improvement_feature(problem, sol.v_star, taus[k + 1])[0]
        yield sol
        del sol


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
    return Policy(weights=weights, log_density=logd, actions=problem.actions)


def solve_unregularized_hjb(problem, tol=None,
                            max_iter=MAX_ITER) -> HjbSolution:
    """Howard iteration for the hard-min HJB (tau = 0).

    Bootstraps from the uniform-policy averages, then alternates linear
    solves under the current per-node action selection with hard argmin
    reselection.  Stops on the semilinear residual or a stationary
    selection.  Each iteration after the first takes the coefficients of
    the previous selection, so a selection seen before (other than the
    previous one) repeats the iterations since: it is reported as cycling.
    tol and max_iter are taken and checked as by ``solve_regularized_hjb``.
    """
    tol, max_iter = _solver_args(problem, tol, max_iter)
    coefficients = average_coefficients(
        problem, uniform_policy(problem.n_interior, problem.actions), 0.0)
    history = []
    seen = {}
    acts = None
    for it in range(1, max_iter + 1):
        vf = solve_linear(problem, *coefficients)
        ham, new_acts, selected = _hard_minimum(
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

