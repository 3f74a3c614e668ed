"""Identities of policy evaluation that only the tests check, the
comparison bound between two HJB solutions, and the non-LQ problem
several test modules share.

The residual and the performance-difference check start from
``elliptic.average_coefficients`` and the bands of
``elliptic.assemble_system``, the one policy-evaluation path of the
library, so each identity holds at the level of linear algebra and its
check reads solver roundoff.
"""

import math
from dataclasses import replace

import numpy as np

from exitflow.domain import build_grid, make_action_space, make_problem
from exitflow.elliptic import (assemble_system, average_coefficients,
                               diffusion, optimal_feature, solve_linear,
                               solve_on_policy_bellman)
from exitflow.policy import _check_tau


def kl_between(p, q):
    """KL(p | q) per interior node.

    Raises if q is degenerate (weight below 1e-300 where p has mass),
    which would make the divergence infinite.
    """
    if p.weights.shape != q.weights.shape:
        raise ValueError("policy shapes differ")
    support = p.weights > 0.0
    if np.any(q.weights[support] < 1e-300):
        raise ValueError("KL(p|q) is infinite: q vanishes on the support of p")
    return np.einsum("ik,ik->i", p.weights, p.log_density - q.log_density)


def on_policy_residual(problem, p, tau, vf):
    """Max-norm of A v - rhs, the discrete on-policy equation at ``vf``,
    with the tridiagonal A and rhs that the value solve assembles."""
    lower, diag, upper, rhs = assemble_system(
        problem, *average_coefficients(problem, p, tau))
    v = vf.v[1:-1]
    av = diag * v
    av[1:] += lower[1:] * v[:-1]
    av[:-1] += upper[:-1] * v[1:]
    return float(np.max(np.abs(av - rhs)))


def performance_difference_check(problem, p, q, tau):
    """Residual of the exact policy-difference identity.

    Builds the advantage-plus-KL forcing h of q's value under the signed
    kernel (p - q), solves the linear equation under p with zero boundary
    data, and returns the max deviation from v_p - v_q.  The solves and
    the generator table share one central-difference operator, so this is
    a linear-algebra identity and the result is solver roundoff.
    """
    _check_tau(tau, positive=True)
    b_p, c_p, forcing_p = average_coefficients(problem, p, tau)
    vp = solve_linear(problem, b_p, c_p, forcing_p)
    vq = solve_on_policy_bellman(problem, q, tau)
    # (L^a v_q)(x_i) + f(x_i, a) for every action column
    adv = diffusion(problem, vq)[:, None] + optimal_feature(problem, vq) \
        + tau * q.log_density
    forcing = np.einsum("ik,ik->i", p.weights - q.weights, adv) \
        + tau * kl_between(p, q)
    # w has zero boundary data
    w = solve_linear(replace(problem, g_left=0.0, g_right=0.0), b_p, c_p,
                     forcing)
    return float(np.max(np.abs(w.interior - (vp.interior - vq.interior))))


def comparison_slack(problem, tol):
    """2*tol/c_min: how far apart two HJB solutions with the same boundary
    data can lie when each has a semilinear residual of at most tol.

    The Hamiltonian (softmin or hard min) is a minimum over policies of
    functions affine in (v, Dv), so it is concave: with p and q the
    minimizing policies at u and w, A_p e <= R[u] - R[w] <= A_q e for
    e = u - w, where R is the residual and A_pi the on-policy operator
    (sigma^2/2) D^2 + b_pi D - c_pi with zero boundary data.  When every
    action's cell Peclet number is at most 1, A_pi is tridiagonal with
    nonnegative off-diagonal bands and row sums -c_pi <= -c_min.  At a
    positive maximum of e - 2*tol/c_min, A_q (e - 2*tol/c_min) is then
    negative, yet it is at least A_q e + 2*tol >= 0: so e <= 2*tol/c_min,
    and A_p e <= 2*tol gives e >= -2*tol/c_min the same way.

    The premises are checked on the action nodes and, on an interval, at
    its ends, which a hard minimum may select and where the b and c of an
    LQ problem take their extremes.
    """
    actions = problem.actions.actions.tolist()
    if problem.actions.kind == "interval":
        actions += [problem.actions.alpha, problem.actions.beta]
    xs = problem.grid.interior.tolist()
    b, c = (np.array([[fn(x, a) for a in actions] for x in xs])
            for fn in (problem.b, problem.c))
    peclet = np.abs(b) * problem.grid.spacing / problem._stencil.sig2[:, None]
    c_min = float(np.min(c))
    assert np.max(peclet) <= 1.0 and c_min > 0.0
    return 2.0 * tol / c_min


def non_lq_problem(kind="interval"):
    """A 15-node problem convex in the action on [-1, 1] but not of LQ
    form: 64 Gauss-Legendre actions (``kind="interval"``), so Howard runs
    a golden-section refinement at every node, and 64 nodes are more
    than the about 46 evaluations that search makes; or 7 uniform
    actions (``kind="discrete"``)."""
    actions = make_action_space(alpha=-1.0, beta=1.0, n_quad=64) \
        if kind == "interval" else make_action_space(
            values=np.linspace(-1.0, 1.0, 7))
    return make_problem(build_grid(0.0, 1.0, 15), actions,
                        b=lambda x, a: 0.5 * a + 0.2 * x,
                        c=lambda x, a: 0.1,
                        f=lambda x, a: 1.0 + (1.2 + x) * a * a
                        + 0.1 * math.cos(3.0 * a),
                        sigma=lambda x: 1.0, g=lambda x: 0.0)
