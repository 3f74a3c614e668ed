"""Theoretical error-bound curves evaluated in overflow-safe log arithmetic.

The optimization-error bound for a scheduler involves the growth integrals

    I1(s) = int_0^s exp(int_0^s' tau_r dr) ds',
    I2(s) = int_0^s tau_s' exp(int_0^s' tau_r dr) ds',

whose integrands reach exp(thousands) at long horizons.  Everything here
works with ln(I1) and ln(I2): closed forms where the scheduler admits
them, otherwise panel-doubling Gauss quadrature accumulated by streaming
log-sum-exp.  Nothing ever exponentiates the integrated schedule
directly, so horizons of 1e4 and beyond stay finite.

With T(s) = int_0^s tau_r dr, the integrand of I2 is the derivative of
exp(T), so I2(s) = exp(T(s)) - 1 exactly for every scheduler.  The
integrand of I1 carries its mass within O(1/tau_s) of s, so power-law
schedules integrate it only over that window, and the bound forms
I2/I1 - tau_s from J = ln(I1) - T(s), not from ln(I1) - ln(I2), whose
size T(s) would cost it digits (see ``_growth_exponents``);
``growth_integrals_quadrature`` keeps the full [0, s] domain for both
integrals as the independent cross-check.

A bound point is a few scalar evaluations of the schedule and one small
quadrature, so numpy's per-call overhead, not arithmetic, sets its cost.
``Scheduler.value`` and ``Scheduler.integral`` take a Python float in and
give one back through the same ufunc expression as an array (the same
bits), and reject non-finite times with ValueError, which every function
here inherits.  ``total_bound`` evaluates tau_S and T(S) once.  The
quadrature forms its panel edges with the arithmetic of ``np.linspace``,
hands ``log_f`` the (panels, 16) node array and broadcasts the log
weights over it, and reduces through the ufuncs themselves.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import _gauss_legendre
from .flow import _CONSTANT_KINDS, INVERSE_SQRT, POWER_LAW, Scheduler


# default grids of the bound-vs-beta figure: power-law exponents and horizons
BETA_GRID = tuple(round(0.05 * k, 10) for k in range(1, 20))
S_GRID = (10.0, 100.0, 1000.0, 10000.0)


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class GrowthIntegrals:
    s: float
    log_I1: float
    log_I2: float


def _logsumexp(values):
    """ln sum exp of a 1-d array, reduced by the ufuncs that np.max and
    np.sum call, without their wrappers."""
    m = np.maximum.reduce(values)
    return float(m + np.log(np.add.reduce(np.exp(values - m))))


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)
_REL_TOL = 1e-10
_MAX_DOUBLINGS = 14


def _panel_edges(start, s, n):
    """``np.linspace(start, s, n + 1)`` bit for bit, by the arithmetic
    linspace uses, for Python floats start and s."""
    delta = s - start
    step = delta / n
    edges = np.arange(n + 1.0)
    if step == 0.0:
        # linspace divides first where the step underflows
        edges /= n
        edges *= delta
    else:
        edges *= step
    edges += start
    edges[-1] = s
    return edges


def _log_integral(log_f, s, start=0.0):
    """ln int_start^s exp(log_f(x)) dx by panel doubling with 16-point panels.

    ``log_f`` receives the nodes as an (n_panels, 16) array.  The
    log-domain panel sums are combined by streaming log-sum-exp;
    doubling stops when the log value moves by at most
    _REL_TOL * (1 + |value|), or fails after _MAX_DOUBLINGS doublings.
    """
    prev = None
    n_panels = 8
    for _ in range(_MAX_DOUBLINGS):
        edges = _panel_edges(start, s, n_panels)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        logs = log_f(mids[:, None] + half * _GL_NODES) \
            + np.log(_GL_WEIGHTS * half)
        total = _logsumexp(logs.ravel())
        if prev is not None and abs(total - prev) <= _REL_TOL * (1.0 + abs(total)):
            return total
        prev = total
        n_panels *= 2
    raise QuadratureError(
        f"log-domain quadrature did not stabilize to {_REL_TOL:g} "
        f"on [{start}, {s}]")


def _growth_exponents(sched: Scheduler, s):
    """tau_s, T(s) and J = ln(I1) - T(s), apart, so that J keeps its digits.

    I1 is I2/tau on constant schedules and a closed form on inverse_sqrt
    and at beta = 1.  Other power laws integrate e^{T(s-u) - T(s)}, with
    T(s) - T(s-u) written without cancellation, over u <= w = min(s,
    L/tau_s), L = 40 + ln(1+s).  As tau is nonincreasing, T(s) - T(s-u)
    >= tau_s u, so the mass beyond w is at most s e^{T(s) - L}, below
    e^{T(s) - 40}; as tau <= tau_0 = 1, I1 >= (1 - 1/e) e^{T(s)} once
    w < s (then s > 40), so the share dropped is < e^{-40}/(1-1/e) < 7e-18.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("s must be positive")
    tau = sched.value(s)
    t = sched.integral(s)
    if sched.kind in _CONSTANT_KINDS:
        j = math.log(-math.expm1(-t)) - math.log(sched.tau)
    elif sched.kind == INVERSE_SQRT:
        # I1 = (e^t (1 + t) - 1)/2 = e^t (t - expm1(-t))/2
        j = math.log(t - math.expm1(-t)) - math.log(2.0)
    elif sched.beta == 1.0:
        j = math.log(0.5 * s * (s + 2.0) / (1.0 + s))  # I1 = s^2/2 + s
    else:
        p = 1.0 - sched.beta
        scale = (1.0 + s) ** p / p
        width = min(s, (40.0 + math.log1p(s)) / tau)
        j = _log_integral(
            lambda u: scale * np.expm1(p * np.log1p(-u / (1.0 + s))), width)
    return tau, t, j


def growth_integrals(sched: Scheduler, s) -> GrowthIntegrals:
    """ln(I1) = T(s) + J and ln(I2) = ln(e^{T(s)} - 1) at time s."""
    _, t, j = _growth_exponents(sched, s)
    return GrowthIntegrals(float(s), t + j, t + math.log(-math.expm1(-t)))


def growth_integrals_quadrature(sched: Scheduler, s) -> GrowthIntegrals:
    """Quadrature of both growth integrals over all of [0, s], any
    scheduler: the independent cross-check of ``growth_integrals``."""
    s = float(s)
    if s <= 0.0:
        raise ValueError("s must be positive")
    sched.value(s)  # rejects a non-finite s before any node is formed
    log_I1 = _log_integral(lambda x: sched.integral(x), s)
    log_I2 = _log_integral(
        lambda x: sched.integral(x) + np.log(sched.value(x)), s)
    return GrowthIntegrals(s=s, log_I1=log_I1, log_I2=log_I2)


def optimization_bound(sched: Scheduler, s, C=1.0, discrete=False):
    """Scheduler-explicit bound on the optimization error at time s.

    Continuous action spaces: (C/tau_s)((1+tau_s)/I1 + (I2/I1 - tau_s));
    finite action spaces drop the 1/tau_s prefactor and the (1+tau_s)
    factor.
    """
    return _optimization_bound(sched, s, C, discrete)[0]


def _optimization_bound(sched, s, C, discrete):
    """``optimization_bound`` and the tau_s it used."""
    tau, t, j = _growth_exponents(sched, s)
    inv_I1 = math.exp(-t - j)
    ratio = -math.expm1(-t) * math.exp(-j) - tau
    if discrete:
        return C * (inv_I1 + ratio), tau
    return (C / tau) * ((1.0 + tau) * inv_I1 + ratio), tau


def total_bound(sched: Scheduler, S, C=1.0, alpha=1.0):
    """Optimization bound at tau_S plus the bias term C*tau*(ln(1/tau))^alpha."""
    if S <= 1.0:
        raise ValueError("S must exceed 1")
    opt, tau_S = _optimization_bound(sched, S, C, False)
    return opt + C * tau_S * math.log(1.0 / tau_S) ** alpha


def reproduce_figure(beta_grid=BETA_GRID, s_grid=S_GRID, C=1.0, alpha=1.0):
    """Bound-vs-beta curves for power-law annealing at several horizons.

    Returns rows (beta, S, bound), one curve per S, all finite thanks to
    the log-domain growth integrals.
    """
    beta_grid = list(beta_grid)
    s_grid = list(s_grid)
    if not beta_grid or not s_grid:
        raise ValueError("beta_grid and s_grid must be nonempty")
    rows = []
    for S in s_grid:
        for beta in beta_grid:
            sched = Scheduler(kind=POWER_LAW, beta=float(beta))
            rows.append((float(beta), float(S), total_bound(sched, S, C, alpha)))
    return rows
