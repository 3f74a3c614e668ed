"""Regularized (softmin) and unregularized (hard-min) Hamiltonians.

The softmin at weight tau is -tau*log of the mu-average of exp(-z/tau)
with z(a) = b(x,a)*p - c(x,a)*u + f(x,a); it sandwiches the hard minimum
from above by tau*ln(N) on N-point uniform action sets.  On discrete
action sets it is -tau times the log-partition of the Gibbs policy of
-z/tau, the one log-sum-exp that policy iteration also takes.  For
quadratic-in-action problems on an interval the softmin reduces, after
dividing out the curvature, to a scalar profile evaluated in closed form
via (scaled) error functions at every tau.

The hard minimum has one rule per kind of action set: the node minimum
of the feature row on discrete sets, the clamped quadratic vertex
(``lq_hard_minimum``) on intervals with LQ structure, and a golden-section
search around the node minimum (``interval_argmin``) on other intervals.
``hard_minimum`` applies it to per-node rows of the coefficient tables
for Howard iteration; ``hard_hamiltonian`` applies it at one point, to
the seven LQ map values there or to the one feature row its rule reads,
with no (3, 1, N) table.  The golden-section search runs on Python
floats, so the b, c and f closures receive Python floats here as in
``domain``'s tabulation: arithmetic on numpy scalars costs several times
as much.  The feature table b*p - c*u + f and the LQ rows are read only
through ``domain``.
"""

import math

import numpy as np

from .domain import (DISCRETE, _feature_row, _feature_table,
                     _gauss_legendre, lq_coefficients, lq_feature)
from .policy import _check_tau, gibbs_policy


def soft_hamiltonian(problem, x, u, p, tau):
    """Regularized Hamiltonian at a single (x, u, p).

    Discrete action sets take the softmin of the tabulated z at x.  Interval
    problems need LQ structure (ValueError otherwise), where z(a) = const +
    2*f_hat*(p~*a + a^2/2): H_tau is const + 2*f_hat times the exact
    error-function profile at p~ = slope/(2*f_hat), weight tau/(2*f_hat).
    """
    _check_tau(tau, positive=True)
    actions = problem.actions
    if actions.kind == DISCRETE:
        z = _feature_row(problem, x, u, p)
        return float(-tau * gibbs_policy(-z[None] / tau, actions)
                     .log_partition[0])
    if problem.lq is None:
        raise ValueError("problem has no LQ structure")
    const, slope, f_hat = lq_feature(problem.lq.at(x), p, u)
    two_fhat = 2.0 * f_hat
    return float(const + two_fhat * interval_quadratic_softmin(
        slope / two_fhat, tau / two_fhat, actions.alpha, actions.beta))


def hard_hamiltonian(problem, x, u, p):
    """Unregularized Hamiltonian and a minimizing action at one (x, u, p),
    by ``hard_minimum``'s rule: bit for bit its value at a grid node."""
    x, u, p = float(x), float(u), float(p)
    actions = problem.actions
    if actions.kind != DISCRETE and problem.lq is not None:
        ham, a, _ = lq_hard_minimum(problem.lq.at(x), p, u, actions.alpha,
                                    actions.beta)
        return float(ham), float(a)
    z = _feature_row(problem, x, u, p)
    k = int(np.argmin(z))
    if actions.kind == DISCRETE:
        return float(z[k]), float(actions.actions[k])
    a = interval_argmin(problem, x, u, p, k)
    return float(problem.b(x, a) * p - problem.c(x, a) * u
                 + problem.f(x, a)), a


def hard_minimum(problem, xs, u, p, coef, lq_rows):
    """Per-node minimum over the actions of b*p - c*u + f, a minimizing
    action, and the coefficients (b, c, f) there, at the nodes ``xs`` with
    per-node ``u``, ``p``, coefficient table ``coef`` of shape (3, n, N)
    and LQ map values ``lq_rows`` of shape (7, n), or None.

    Discrete: node argmin of the table, ties to the first node.  Interval
    with LQ structure: quadratic vertex clamped to [alpha, beta].  Other
    intervals: golden-section search around each row's node minimum, on
    Python floats.
    """
    actions = problem.actions
    if actions.kind != DISCRETE and lq_rows is not None:
        return lq_hard_minimum(lq_rows, p, u, actions.alpha, actions.beta)
    z = _feature_table(coef, u, p)
    if actions.kind == DISCRETE:
        rows = np.arange(xs.size)
        cols = np.argmin(z, axis=1)
        return z[rows, cols], actions.actions[cols], coef[:, rows, cols]
    x_list = xs.tolist()
    acts = np.array([interval_argmin(problem, x, ui, pi, k)
                     for x, ui, pi, k in zip(x_list, u.tolist(), p.tolist(),
                                             np.argmin(z, axis=1).tolist())])
    b, c, f = (np.array([fn(x, a) for x, a in zip(x_list, acts.tolist())])
               for fn in (problem.b, problem.c, problem.f))
    return b * p - c * u + f, acts, (b, c, f)


def interval_argmin(problem, x, u, p, k):
    """Minimizer over [alpha, beta] of b*p - c*u + f at x: golden-section
    search between the action nodes either side of node k, the node
    minimum of the feature row.  x, u and p are Python floats, and so are
    the bracket ends, so the search and the closures run on them."""
    actions = problem.actions
    lo = actions.alpha if k == 0 else float(actions.actions[k - 1])
    hi = actions.beta if k == actions.n_actions - 1 \
        else float(actions.actions[k + 1])
    b, c, f = problem.b, problem.c, problem.f

    def z_at(a):
        return b(x, a) * p - c(x, a) * u + f(x, a)
    return _golden_section(z_at, lo, hi, tol=1e-10)


def lq_hard_minimum(t, p, u, alpha, beta):
    """Minimum over [alpha, beta] of b*p - c*u + f, its minimizer (the
    vertex -slope/(2*f_hat) clamped to the interval) and (b, c, f) there,
    from the seven LQ map values ``t``: scalars at one x, or per-node rows
    with per-node p, u.

    The clamp orders ties and signed zeros as Python's max(a, alpha) and
    min(a, beta) do, so scalar and per-node calls agree bit for bit.
    """
    _, slope, f_hat = lq_feature(t, p, u)
    a = -slope / (2.0 * f_hat)
    a = np.where(alpha > a, alpha, a)
    a = np.where(beta < a, beta, a)
    b, c, f = lq_coefficients(t, a)
    return b * p - c * u + f, a, (b, c, f)


def _golden_section(fn, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def interval_quadratic_min(p, alpha, beta):
    """min over [alpha, beta] of p*a + a^2/2 (vertex clamped)."""
    a = min(max(-p, alpha), beta)
    return p * a + 0.5 * a * a


def interval_quadratic_softmin(p, tau, alpha, beta):
    """-tau*ln of the uniform average of exp(-(p*a + a^2/2)/tau) on
    [alpha, beta], evaluated through error functions.

    Completing the square turns the average into a Gaussian integral over
    [(alpha+p)/sqrt(2 tau), (beta+p)/sqrt(2 tau)]; when both limits share a
    sign the difference of erfs cancels catastrophically, so those branches
    run on scaled complementary error functions instead, or, where the
    integrand varies by less than a factor e and those cancel too, on a
    fixed Gauss-Legendre rule.
    """
    # imported here, so that importing the package leaves scipy unloaded
    from scipy.special import erf, erfcx

    _check_tau(tau, positive=True)
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    s = math.sqrt(2.0 * tau)
    lo = (alpha + p) / s
    hi = (beta + p) / s
    log_pref = 0.5 * math.log(2.0 * tau) - math.log(beta - alpha) \
        + 0.5 * math.log(math.pi) - math.log(2.0)
    if lo >= 0.0:
        # hard minimum at a = alpha; integral = e^{-lo^2}(erfcx(lo) - e^{lo^2-hi^2} erfcx(hi))
        hard = p * alpha + 0.5 * alpha * alpha
        if (hi - lo) * (hi + lo) <= 1.0:
            return hard - tau * _log_flat_mean(lo, hi)
        # e^{lo^2 - hi^2} as a product: lo*lo - hi*hi is inf - inf once
        # hi^2 overflows
        rest = erfcx(lo) - math.exp(-(hi - lo) * (hi + lo)) * erfcx(hi)
        return hard - tau * (log_pref + math.log(rest))
    if hi <= 0.0:
        # hard minimum at a = beta: the mirror image a -> -a of the first branch
        return interval_quadratic_softmin(-p, tau, -beta, -alpha)
    # interior minimum at a = -p; erf arguments straddle zero, no cancellation
    hard = -0.5 * p * p
    rest = erf(hi) - erf(lo)
    return hard - tau * (log_pref + math.log(rest))


def _log_flat_mean(lo, hi):
    """ln of the mean of exp(lo^2 - t^2) over t in [lo, hi], 0 <= lo, where
    the exponent stays within [-1, 0]: the 16-node Gauss-Legendre rule is
    exact to rounding there.  Written in the distance d = t - lo, so that
    it keeps its accuracy when hi - lo is far below lo."""
    x, w = _gauss_legendre(16)
    d = 0.5 * (hi - lo) * (x + 1.0)
    return math.log(0.5 * float(w @ np.exp(-d * (2.0 * lo + d))))


def bias_sweep_rows(tau_list, p_list, alpha, beta):
    """Rows (tau, p, soft, hard, gap, gap_over_tau_log) for the interval
    quadratic profile; feeds the bias-sweep CSV."""
    rows = []
    for tau in tau_list:
        denom = tau * math.log(1.0 / tau) if tau < 1.0 else math.nan
        for p in p_list:
            soft = interval_quadratic_softmin(p, tau, alpha, beta)
            hard = interval_quadratic_min(p, alpha, beta)
            gap = soft - hard
            rows.append((tau, p, soft, hard, gap,
                         gap / denom if denom == denom else math.nan))
    return rows
