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
schedules integrate it only over that window (see ``growth_integrals``);
``growth_integrals_quadrature`` keeps the full [0, s] domain for both
integrals as the independent cross-check.
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
    m = np.max(values)
    return float(m + np.log(np.sum(np.exp(values - m))))


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)
_REL_TOL = 1e-10
_MAX_DOUBLINGS = 14


def _log_integral(log_f, s, start=0.0):
    """ln int_start^s exp(log_f(x)) dx by panel doubling with 16-point panels.

    The log-domain panel sums are combined by streaming log-sum-exp;
    doubling stops when the log value moves by at most
    _REL_TOL * (1 + |value|), or fails after _MAX_DOUBLINGS doublings.
    """
    prev = None
    n_panels = 8
    for _ in range(_MAX_DOUBLINGS):
        edges = np.linspace(start, s, n_panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = mids[:, None] + half * _GL_NODES[None, :]
        logs = log_f(xs.ravel()) + np.log(_GL_WEIGHTS * half)[None, :] \
            .repeat(n_panels, axis=0).ravel()
        total = _logsumexp(logs)
        if prev is not None and abs(total - prev) <= _REL_TOL * (1.0 + abs(total)):
            return total
        prev = total
        n_panels *= 2
    raise QuadratureError(
        f"log-domain quadrature did not stabilize to {_REL_TOL:g} "
        f"on [{start}, {s}]")


def growth_integrals(sched: Scheduler, s) -> GrowthIntegrals:
    """ln(I1), ln(I2) for the scheduler at time s.

    Every schedule takes I2 = e^{T(s)} - 1.  I1 is I2/tau on constant
    schedules and a closed form on inverse_sqrt and on power laws with
    beta = 1; other power laws integrate it by log-domain quadrature over
    the window [max(0, s - L/tau_s), s] with L = 40 + ln(1 + s).  As tau
    is nonincreasing, T(s) - T(x) >= tau_s (s - x), so the mass left of
    the window is at most s e^{T(s) - L} < e^{T(s) - 40}; as tau <= tau_0
    = 1, I1 >= (1 - 1/e) e^{T(s)} once the window starts after 0 (then
    s > 40).  The share of I1 dropped is therefore below
    e^{-40}/(1 - 1/e) < 7e-18.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("s must be positive")
    t = sched.integral(s)
    log_I2 = t + math.log(-math.expm1(-t))
    if sched.kind in _CONSTANT_KINDS:
        log_I1 = log_I2 - math.log(sched.tau)
    elif sched.kind == INVERSE_SQRT:
        # I1 = (e^t (1 + t) - 1)/2 = e^t (t - expm1(-t))/2
        log_I1 = -math.log(2.0) + t + math.log(t - math.expm1(-t))
    elif sched.beta == 1.0:
        log_I1 = math.log(0.5 * s * s + s)
    else:
        start = max(0.0, s - (40.0 + math.log1p(s)) / sched.value(s))
        log_I1 = _log_integral(sched.integral, s, start)
    return GrowthIntegrals(s=s, log_I1=log_I1, log_I2=log_I2)


def growth_integrals_quadrature(sched: Scheduler, s) -> GrowthIntegrals:
    """Quadrature of both growth integrals over all of [0, s], any
    scheduler: the independent cross-check of ``growth_integrals``."""
    s = float(s)
    if s <= 0.0:
        raise ValueError("s must be positive")
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
    tau = float(sched.value(s))
    gi = growth_integrals(sched, s)
    inv_I1 = math.exp(-gi.log_I1)
    ratio = math.exp(gi.log_I2 - gi.log_I1) - tau
    if discrete:
        return C * (inv_I1 + ratio)
    return (C / tau) * ((1.0 + tau) * inv_I1 + ratio)


def total_bound(sched: Scheduler, S, C=1.0, alpha=1.0):
    """Optimization bound at tau_S plus the bias term C*tau*(ln(1/tau))^alpha."""
    if S <= 1.0:
        raise ValueError("S must exceed 1")
    tau_S = float(sched.value(S))
    bias = C * tau_S * math.log(1.0 / tau_S) ** alpha
    return optimization_bound(sched, S, C=C) + bias


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
