"""Correctness checks computed apart from exitflow.

Every check takes plain numbers and arrays and returns a list of problems,
empty when the output is correct.  The reference values come from numpy,
scipy and closed forms, never from exitflow itself, so a fault in the
program cannot hide in the check.  ``test_checks.py`` shows that each
check rejects a wrong answer.
"""

import math

import numpy as np
from scipy.special import logsumexp, zeta

# First-order overshoot constant of a discretely monitored Brownian exit
# (Broadie, Glasserman & Kou 1997; Gobet 2000): beta_1 = -zeta(1/2)/sqrt(2 pi).
BETA1 = float(-zeta(0.5) / math.sqrt(2.0 * math.pi))

# standard errors allowed on either side of a Monte Carlo estimate
MC_K = 5.0
# relative agreement of the flow's value with the dense solve
VALUE_REL = 1e-10
# the semilinear residual may reach this many times the solver tolerance
RESIDUAL_FACTOR = 10.0
# slack of v*_0 <= v*_tau
ORDER_SLACK = 1e-8


def _fail(cond, message):
    return [] if cond else [message]


def horizon_reached(last_s, horizon):
    """The flow's last record sits at the configured horizon."""
    return _fail(abs(last_s - horizon) <= 1e-9 * horizon,
                 f"last record at s={last_s!r}, horizon is {horizon!r}")


def decomposition_signs(kl_term, optimization, bias):
    """kl_term <= 0, optimization >= -1e-8 and bias >= -1e-8 at every record."""
    out = []
    if np.max(kl_term) > 0.0:
        out.append(f"kl_term reaches {np.max(kl_term):.3g} > 0")
    if np.min(optimization) < -1e-8:
        out.append(f"optimization error reaches {np.min(optimization):.3g}")
    if np.min(bias) < -1e-8:
        out.append(f"regularization bias reaches {np.min(bias):.3g}")
    return out


def error_decreased(total_first, total_last):
    """The plain-value error at the last record is below that at s=0."""
    return _fail(np.all(np.asarray(total_last) < np.asarray(total_first)),
                 f"plain-value error went from {total_first} to {total_last}")


def gibbs_from_features(z, mu):
    """Softmax of a feature matrix against reference weights mu.

    Returns (weights, log-density w.r.t. mu), rows of weights sum to 1.
    """
    log_norm = logsumexp(z, b=mu[None, :], axis=1)
    log_density = z - log_norm[:, None]
    return mu[None, :] * np.exp(log_density), log_density


def dense_policy_value(z, mu, b_tab, c_tab, f_tab, sigma, h, g_left, g_right,
                       tau):
    """Value of the Gibbs policy of z at entropy weight tau, by a dense solve.

    Central differences on interior nodes:
    (sigma^2/2) v'' + b v' - c v = -(f + tau*KL), v = g at both ends.
    Returns the interior values.
    """
    weights, log_density = gibbs_from_features(z, mu)
    b = np.sum(weights * b_tab, axis=1)
    c = np.sum(weights * c_tab, axis=1)
    f = np.sum(weights * f_tab, axis=1)
    kl = np.sum(weights * log_density, axis=1)
    n = b.size
    diff = 0.5 * sigma ** 2 / h ** 2
    lower = diff - b / (2.0 * h)
    upper = diff + b / (2.0 * h)
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = -2.0 * diff - c
    a[np.arange(1, n), np.arange(n - 1)] = lower[1:]
    a[np.arange(n - 1), np.arange(1, n)] = upper[:-1]
    rhs = -(f + tau * kl)
    rhs[0] -= lower[0] * g_left
    rhs[-1] -= upper[-1] * g_right
    return np.linalg.solve(a, rhs)


def value_matches(v_program, v_reference):
    v_program = np.asarray(v_program)
    v_reference = np.asarray(v_reference)
    err = np.max(np.abs(v_program - v_reference)
                 / np.maximum(np.abs(v_reference), 1e-300))
    return _fail(err <= VALUE_REL, f"value deviates from the dense solve by "
                                   f"{err:.3g} relative (limit {VALUE_REL:g})")


def mc_band(mean, stderr, v, dt, sigma_boundary, dv_boundary):
    """v - k*se <= mean <= v + beta_1*sigma*sqrt(dt)*max|v'(boundary)| + k*se
    with k = MC_K.

    A discretely monitored path overshoots the boundary before it is
    stopped, so with positive running cost and zero exit cost the estimate
    is biased upward by at most the first-order overshoot term.
    """
    lo = v - MC_K * stderr
    hi = v + BETA1 * sigma_boundary * math.sqrt(dt) * dv_boundary \
        + MC_K * stderr
    return _fail(lo <= mean <= hi,
                 f"estimate {mean:.6g} (se {stderr:.3g}) outside "
                 f"[{lo:.6g}, {hi:.6g}] around v={v:.6g}")


def feature_table(v, b_tab, c_tab, f_tab, h):
    """b*Dv - c*v + f on interior nodes x actions, Dv central."""
    dv = (v[2:] - v[:-2]) / (2.0 * h)
    return b_tab * dv[:, None] - c_tab * v[1:-1][:, None] + f_tab


def semilinear_residual(v, tau, b_tab, c_tab, f_tab, mu, sigma, h):
    """max |(sigma^2/2) v'' + H_tau| with the softmin taken by logsumexp."""
    z = feature_table(v, b_tab, c_tab, f_tab, h)
    ham = -tau * logsumexp(-z / tau, b=mu[None, :], axis=1)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    return float(np.max(np.abs(0.5 * sigma ** 2 * d2 + ham)))


def residual_within(residual, tol):
    return _fail(residual <= RESIDUAL_FACTOR * tol,
                 f"semilinear residual {residual:.3g} exceeds "
                 f"{RESIDUAL_FACTOR:g} x tol = {RESIDUAL_FACTOR * tol:.3g}")


def ordered_below(v_tau, v_0):
    """v*_0 <= v*_tau + ORDER_SLACK everywhere."""
    gap = float(np.max(np.asarray(v_0) - np.asarray(v_tau)))
    return _fail(gap <= ORDER_SLACK, f"v*_0 exceeds v*_tau by {gap:.3g}")


def strictly_decreasing(previous, current):
    return _fail(current < previous,
                 f"sup|v*_tau - v*_0| did not decrease: {previous:.6g} -> "
                 f"{current:.6g}")


def discrete_selection(selected, actions, v, b_tab, c_tab, f_tab, h):
    """Howard's per-node actions equal the argmin of b*Dv - c*v + f."""
    z = feature_table(v, b_tab, c_tab, f_tab, h)
    expected = actions[np.argmin(z, axis=1)]
    bad = np.flatnonzero(np.asarray(selected) != expected)
    return _fail(bad.size == 0,
                 f"selection differs from the argmin at {bad.size} nodes "
                 f"(first at node {bad[0] if bad.size else -1})")


def interval_selection(selected, z_of, alpha, beta):
    """Each selected action minimizes z_of(i, a) over [alpha, beta] to 1e-9.

    ``z_of(i, a)`` is the per-node action cost; the minimum is found by a
    bounded scalar search independent of the program's own.
    """
    from scipy.optimize import minimize_scalar
    worst = 0.0
    for i, a in enumerate(selected):
        res = minimize_scalar(lambda s: z_of(i, s), bounds=(alpha, beta),
                              method="bounded", options={"xatol": 1e-12})
        best = min(res.fun, z_of(i, alpha), z_of(i, beta))
        worst = max(worst, z_of(i, a) - best)
    return _fail(worst <= 1e-9,
                 f"a selected action is {worst:.3g} above the minimum")


def sandwich(soft, hard, tau, n_actions):
    """0 <= soft - hard <= tau*ln(N) + 1e-10 on a uniform N-point set."""
    gap = soft - hard
    return _fail(0.0 <= gap <= tau * math.log(n_actions) + 1e-10,
                 f"soft - hard = {gap:.3g} outside [0, tau ln N = "
                 f"{tau * math.log(n_actions):.3g}]")


def close(values, reference, rel, what):
    """|values - reference| <= rel * max(|reference|, 1), elementwise;
    scalars too."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    err = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
    return _fail(np.all(err <= rel), f"{what} {values.ravel()[:3]} differs "
                                     f"from {reference.ravel()[:3]} by up to "
                                     f"{np.max(err):.3g} (limit {rel:g})")


def quadratic_softmin_quad(k0, k1, k2, tau, alpha, beta):
    """-tau ln of the uniform average over [alpha, beta] of exp(-z/tau) for
    z(a) = k0 + k1*a + k2*a^2 (k2 > 0), by adaptive quadrature.

    Returns (softmin, hard min).  The integrand is shifted by the minimum
    so it peaks at 1, and the vertex is passed to quad as a break point.
    """
    from scipy.integrate import quad
    vertex = min(max(-k1 / (2.0 * k2), alpha), beta)
    zmin = k0 + k1 * vertex + k2 * vertex * vertex
    points = [vertex] if alpha < vertex < beta else None
    integral, _ = quad(
        lambda a: math.exp(-((k0 - zmin) + k1 * a + k2 * a * a) / tau),
        alpha, beta, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
    return zmin - tau * math.log(integral / (beta - alpha)), zmin


def growth_closed_form(kind, s):
    """(ln I1, ln I2) for the 1/(1+s) and 1/sqrt(1+s) schedules.

    inverse_linear: I1 = s + s^2/2, I2 = s.
    inverse_sqrt, with r = sqrt(1+s) and y = 2r - 2:
    I1 = (e^y (2r - 1) - 1)/2, I2 = e^y - 1.
    """
    if kind == "inverse_linear":
        return math.log(s + 0.5 * s * s), math.log(s)
    r = math.sqrt(1.0 + s)
    y = 2.0 * r - 2.0
    log_i1 = y + math.log(2.0 * r - 1.0) - math.log(2.0) \
        + math.log1p(-math.exp(-y) / (2.0 * r - 1.0))
    log_i2 = y + math.log1p(-math.exp(-y))
    return log_i1, log_i2


def finite_row(beta, s, bound, expected_beta, expected_s):
    out = _fail(math.isfinite(bound), f"bound at beta={beta}, S={s} is "
                                      f"{bound!r}")
    out += _fail(beta == expected_beta and s == expected_s,
                 f"row ({beta}, {s}) answers ({expected_beta}, {expected_s})")
    return out
