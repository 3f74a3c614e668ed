"""Regularized (softmin) and unregularized (hard-min) Hamiltonians.

The softmin at weight tau is -tau*log of the mu-average of exp(-z/tau)
with z(a) = b(x,a)*p - c(x,a)*u + f(x,a); it sandwiches the hard minimum
from above by tau*ln(N) on N-point uniform action sets.  For quadratic-
in-action problems on an interval the softmin reduces, after dividing
out the curvature, to a scalar profile evaluated in closed form via
(scaled) error functions; that path takes over from quadrature when tau
is small enough that exp(-z/tau) turns into an unresolved spike.
"""

import math

import numpy as np

from .domain import DISCRETE, lq_coefficients, make_action_space

# below this tau, interval quadrature under-resolves the softmin spike and
# LQ problems switch to the closed form
TAU_CLOSED_FORM = 1e-3


def softmin_table(z, weights, tau):
    """Row-wise -tau*ln(sum_k w_k exp(-z_k/tau)), stabilized at the row min."""
    z = np.atleast_2d(z)
    m = z.min(axis=1)
    acc = np.exp(-(z - m[:, None]) / tau) @ weights
    return m - tau * np.log(acc)


def _z_at(problem, x, u, p, a):
    """b(x, a)*p - c(x, a)*u + f(x, a) at one action."""
    return problem.b(x, a) * p - problem.c(x, a) * u + problem.f(x, a)


def _z_values(problem, x, u, p, acts):
    """b(x, a)*p - c(x, a)*u + f(x, a) at each action node in ``acts``."""
    return np.array([_z_at(problem, x, u, p, a) for a in acts])


def _escalated_order(z, tau, alpha, beta, base):
    """Quadrature order that resolves the exp(-z/tau) spike.

    The feature scale is sqrt(tau/curvature) for an interior minimum and
    tau/slope at an endpoint one; both are estimated from the spread of z
    over the interval.  Capped at 4096 nodes.
    """
    span = beta - alpha
    z_range = float(np.max(z) - np.min(z))
    if z_range <= 0.0:
        return base
    curvature = 4.0 * z_range / span ** 2
    width = max(math.sqrt(tau / curvature), tau * span / z_range)
    needed = int(math.ceil(4.0 * span / width))
    return max(base, min(4096, needed))


def soft_hamiltonian(problem, x, u, p, tau):
    """Regularized Hamiltonian at a single (x, u, p).

    Interval LQ problems switch to the exact error-function profile below
    TAU_CLOSED_FORM; other interval evaluations raise the quadrature
    order as tau shrinks so the spike stays resolved.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    actions = problem.actions
    if actions.kind == DISCRETE:
        z = _z_values(problem, x, u, p, actions.actions)
        return float(softmin_table(z, actions.mu_weights, tau)[0])
    if problem.lq is not None and tau < TAU_CLOSED_FORM:
        const, two_fhat, p_t, tau_t = lq_reduction(problem, x, u, p, tau)
        return const + two_fhat * interval_quadratic_softmin(
            p_t, tau_t, actions.alpha, actions.beta)
    z = _z_values(problem, x, u, p, actions.actions)
    n_quad = _escalated_order(z, tau, actions.alpha, actions.beta,
                              actions.n_actions)
    if n_quad != actions.n_actions:
        actions = make_action_space(alpha=actions.alpha, beta=actions.beta,
                                    n_quad=n_quad)
        z = _z_values(problem, x, u, p, actions.actions)
    return float(softmin_table(z, actions.mu_weights, tau)[0])


def hard_hamiltonian(problem, x, u, p):
    """Unregularized Hamiltonian and a minimizing action.

    Discrete: exact node minimum, ties to the smallest action.  Interval
    with LQ structure: quadratic vertex clamped to [alpha, beta].  Other
    intervals: node scan refined by golden-section search.
    """
    actions = problem.actions
    if actions.kind == DISCRETE:
        z = _z_values(problem, x, u, p, actions.actions)
        k = int(np.argmin(z))
        return float(z[k]), float(actions.actions[k])

    if problem.lq is not None:
        ham, a = lq_hard_minimum(problem.lq.at(x), p, u, actions.alpha,
                                 actions.beta)
        return float(ham), float(a)

    a = interval_argmin(problem, x, u, p,
                        _z_values(problem, x, u, p, actions.actions))
    return float(_z_at(problem, x, u, p, a)), float(a)


def interval_argmin(problem, x, u, p, z):
    """Minimizer over [alpha, beta] of b*p - c*u + f at x: golden-section
    search between the action nodes either side of the node minimum of
    ``z``, the values at the action nodes."""
    actions = problem.actions
    k = int(np.argmin(z))
    lo = actions.alpha if k == 0 else actions.actions[k - 1]
    hi = actions.beta if k == actions.n_actions - 1 else actions.actions[k + 1]
    return _golden_section(lambda a: _z_at(problem, x, u, p, a), lo, hi,
                           tol=1e-10)


def _lq_slope(t, p, u):
    """Linear coefficient b_hat*p - c_hat*u + f_tilde of b*p - c*u + f in
    the action, from the seven LQ map values ``t``."""
    return t[1] * p - t[3] * u + t[5]


def lq_hard_minimum(t, p, u, alpha, beta):
    """Minimum over [alpha, beta] of b*p - c*u + f and its minimizer, the
    vertex -slope/(2*f_hat) clamped to the interval, from the seven LQ map
    values ``t``: scalars at one x, or per-node rows with per-node p, u.

    The clamp orders ties and signed zeros as Python's max(a, alpha) and
    min(a, beta) do, so scalar and per-node calls agree bit for bit.
    """
    a = -_lq_slope(t, p, u) / (2.0 * t[6])
    a = np.where(alpha > a, alpha, a)
    a = np.where(beta < a, beta, a)
    b, c, f = lq_coefficients(t, a)
    return b * p - c * u + f, a


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


def lq_reduction(problem, x, u, p, tau):
    """Rewrite the LQ integrand so the softmin matches the interval profile.

    z(a) = const + 2*f_hat*(p_tilde*a + a^2/2), hence
    H_tau = const + 2*f_hat * profile(p_tilde) at weight tau/(2*f_hat).
    Returns (const, 2*f_hat, p_tilde, tau_scaled).
    """
    lq = problem.lq
    if lq is None:
        raise ValueError("problem has no LQ structure")
    t = lq.at(x)
    const = t[0] * p - t[2] * u + t[4]
    two_fhat = 2.0 * t[6]
    return const, two_fhat, _lq_slope(t, p, u) / two_fhat, tau / two_fhat


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
    run on scaled complementary error functions instead.
    """
    # imported here, so that importing the package leaves scipy unloaded
    from scipy.special import erf, erfcx

    if tau <= 0.0:
        raise ValueError("tau must be positive")
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
        rest = erfcx(lo) - math.exp(lo * lo - hi * hi) * erfcx(hi)
        return hard - tau * (log_pref + math.log(rest))
    if hi <= 0.0:
        # hard minimum at a = beta; mirror the first branch
        hard = p * beta + 0.5 * beta * beta
        rest = erfcx(-hi) - math.exp(hi * hi - lo * lo) * erfcx(-lo)
        return hard - tau * (log_pref + math.log(rest))
    # interior minimum at a = -p; erf arguments straddle zero, no cancellation
    hard = -0.5 * p * p
    rest = erf(hi) - erf(lo)
    return hard - tau * (log_pref + math.log(rest))


def discrete_bias_gap(problem, samples, tau):
    """Max over (x, u, p) samples of softmin minus hard minimum.

    Only defined for discrete action spaces, where the gap is bounded by
    tau*ln(N) under uniform reference weights.
    """
    if problem.actions.kind != DISCRETE:
        raise ValueError("discrete_bias_gap needs a discrete action space")
    gap = -math.inf
    for (x, u, p) in samples:
        soft = soft_hamiltonian(problem, x, u, p, tau)
        hard, _ = hard_hamiltonian(problem, x, u, p)
        gap = max(gap, soft - hard)
    return gap


def bias_sweep_rows(tau_list, p_list, alpha=-1.0, beta=1.0):
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
