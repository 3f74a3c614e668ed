"""Mirror descent in feature space under an annealing scheduler.

The feature matrix evolves by dZ/ds = -(b*Dv - c*v + f + tau_s * Z) where
v is the entropy-weighted value of the current Gibbs policy, re-solved at
every Runge-Kutta stage.  The driving term is linear in the fixed tables
b, c and f, with per-node weights (Dv, -v, 1), so every feature matrix on
the path lies in their span plus a multiple of the start:

    Z_s = w0(s)*b + w1(s)*c + w2(s)*f + a(s)*Z_0,

each weight a vector over the interior nodes, and the four vectors theta
obey dtheta/ds = (-Dv, v, -1, 0) - tau_s*theta from theta_0 = (0, 0, 0, 1).
An RK4 step forms only linear combinations of the state and of stage
slopes, so it maps a state of this form to one of this form, and running
RK4 on theta is running it on Z.  The flow therefore steps theta, O(n)
numbers, and contracts it with the four tables into Z only where a stage,
a record or the final state needs the feature matrix.

Each point s = k*dt of the flow is evaluated once (features, Gibbs
policy, value at tau_s) for the first RK4 stage from s, the record at s
and, at s = 0, the stability estimate.  Trajectories record both the
regularized and the plain value of the running policy at probe nodes;
the plain value costs one extra linear solve with the KL forcing
dropped.  The error decomposition of a trajectory solves its own
reference HJBs: the hard-min optimum once and the softmin optimum once
per distinct recorded tau, along one regularized path
(``hjb.regularized_path``): in record order, each solve from the
previous tau's optimum.

A stage goes through the one Gibbs map (``policy.gibbs_policy``) and the
one value solve (``elliptic.solve_on_policy_bellman``) that every other
caller uses.  On a few dozen nodes its cost is numpy's per-call overhead
more than arithmetic, so the stage keeps its calls few: the contraction
into Z skips ``np.einsum``'s dispatch layers, and the slope
(-Dv, v, -1, 0) - tau*theta is formed into one preallocated array, with
-Dv negated in place.  Every operation that produces a bit keeps its
operands and its order.
"""
import math
from dataclasses import dataclass

import numpy as np

from .domain import _count
from .elliptic import optimal_feature, solve_on_policy_bellman
from .hjb import regularized_path, solve_unregularized_hjb
from ._compat import einsum
from .policy import gibbs_policy

CONSTANT = "constant"
HORIZON_CONSTANT = "horizon_constant"
INVERSE_LINEAR = "inverse_linear"
INVERSE_SQRT = "inverse_sqrt"
POWER_LAW = "power_law"

# the Scheduler fields each kind takes; it refuses the others
SCHEDULER_PARAMS = {CONSTANT: ("tau",), HORIZON_CONSTANT: ("horizon",),
                    INVERSE_LINEAR: (), INVERSE_SQRT: (), POWER_LAW: ("beta",)}
SCHEDULER_KINDS = tuple(SCHEDULER_PARAMS)
_CONSTANT_KINDS = (CONSTANT, HORIZON_CONSTANT)


class UnstableFlowError(RuntimeError):
    pass


@dataclass(frozen=True)
class Scheduler:
    """Closed family of positive nonincreasing regularization schedules.

    constant: tau; horizon_constant: ln(S+1)/S for a fixed horizon S;
    inverse_linear: 1/(1+s); inverse_sqrt: 1/sqrt(1+s);
    power_law: 1/(1+s)^beta.  Construction stores horizon_constant's tau
    and inverse_linear's beta = 1, so tau_s follows one of three laws:
    a constant tau, 1/sqrt(1+s) or a power law.

    NaN means "not given".  A parameter that the kind does not take
    raises ValueError, unless it is the kind's stored value given back
    (as ``dataclasses.replace`` does), so inverse_linear with beta = 0.5
    or horizon_constant with a tau of its own is refused.  A new horizon
    through ``replace`` therefore needs ``tau=math.nan`` beside it.

    ``value`` and ``integral`` take a time or an array of times.  A scalar
    time comes back as a Python float, computed by the same numpy ufunc
    expression as an array of times (so bit for bit the same number) but
    without the cost of wrapping it in an array.  Negative and non-finite
    times raise ValueError.
    """
    kind: str
    tau: float = math.nan
    horizon: float = math.nan
    beta: float = math.nan

    def __post_init__(self):
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        stored = {}
        if self.kind == HORIZON_CONSTANT:
            if not 0.0 < self.horizon < math.inf:
                raise ValueError("horizon_constant scheduler needs "
                                 "finite S > 0")
            stored["tau"] = math.log(self.horizon + 1.0) / self.horizon
        elif self.kind == INVERSE_LINEAR:
            stored["beta"] = 1.0
        for name in ("tau", "horizon", "beta"):
            given = getattr(self, name)
            if name not in SCHEDULER_PARAMS[self.kind] \
                    and not math.isnan(given) and given != stored.get(name):
                raise ValueError(f"{self.kind} scheduler takes no {name}, "
                                 f"got {name}={given!r}")
        for name, value in stored.items():
            object.__setattr__(self, name, value)
        if self.kind in _CONSTANT_KINDS and not 0.0 < self.tau < math.inf:
            raise ValueError(f"{self.kind} scheduler needs finite tau > 0")
        if self.kind == POWER_LAW and not 0.0 < self.beta < math.inf:
            raise ValueError("power_law scheduler needs finite beta > 0")

    def value(self, s):
        """tau_s: a Python float for a scalar s, an array for an array."""
        s = _times(s)
        if self.kind in _CONSTANT_KINDS:
            out = np.full_like(s, self.tau) if isinstance(s, np.ndarray) \
                else self.tau
        elif self.kind == INVERSE_SQRT:
            out = 1.0 / np.sqrt(1.0 + s)
        else:
            out = np.power(1.0 + s, -self.beta)
        return out if isinstance(s, np.ndarray) else float(out)

    def integral(self, s):
        """T(s) = int_0^s tau_r dr in closed form, float or array as
        ``value``."""
        s = _times(s)
        if self.kind in _CONSTANT_KINDS:
            out = self.tau * s
        elif self.kind == INVERSE_SQRT:
            # 2 (sqrt(1+s) - 1), without its cancellation at small s
            out = 2.0 * s / (1.0 + np.sqrt(1.0 + s))
        elif self.beta == 1.0:
            out = np.log1p(s)
        else:
            # expm1 keeps full precision for beta near 1, where
            # ((1+s)^(1-beta) - 1)/(1-beta) cancels
            out = np.expm1((1.0 - self.beta) * np.log1p(s)) / (1.0 - self.beta)
        return out if isinstance(s, np.ndarray) else float(out)


def _times(s):
    """Scheduler times as a Python float (scalars and 0-d arrays) or a
    float64 array, each time checked finite and nonnegative."""
    if not isinstance(s, (float, int)):
        s = np.asarray(s, dtype=np.float64)
        if s.ndim:
            ok = (s >= 0.0) & (s < math.inf)
            if not ok.all():
                raise ValueError(f"s must be finite and nonnegative, got "
                                 f"{float(s[~ok][0])!r}")
            return s
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s!r}")
    return s


@dataclass
class FlowTrajectory:
    times: np.ndarray
    tau_values: np.ndarray
    values_at_probe: np.ndarray        # (n_records, n_probes), weight tau_s
    unregularized_values: np.ndarray   # (n_records, n_probes), weight 0
    kl_mass: np.ndarray                # occupancy-weighted KL, probe average
    z_final: np.ndarray
    step_count: int
    probe_indices: np.ndarray
    probe_x: np.ndarray


def estimate_rhs_lipschitz(problem, z0, tau, vf0):
    """max|F(z0 + delta) - F(z0)|/max|delta| for one random delta: a crude
    local Lipschitz bound of F = ``optimal_feature``, the slope without
    -tau*Z.  ``vf0`` is the value of z0's Gibbs policy at tau."""
    rng = np.random.default_rng(181181)
    delta = 1e-3 * (1.0 + np.max(np.abs(z0))) * rng.standard_normal(z0.shape)
    vf1 = solve_on_policy_bellman(
        problem, gibbs_policy(z0 + delta, problem.actions), tau)
    num = float(np.max(np.abs(optimal_feature(problem, vf1)
                              - optimal_feature(problem, vf0))))
    return num / float(np.max(np.abs(delta)))


def integrate_flow(problem, z0, sched: Scheduler, S, dt, probes,
                   record_every=1) -> FlowTrajectory:
    """Integrate the feature flow to time S with fixed-step RK4.

    ``probes`` are interior node indices; values are recorded at s = 0 and
    every ``record_every`` steps (the final step is always recorded).
    The flow takes round(S/dt) steps, so it ends at S only when S is a
    whole multiple of dt; run configs with any other horizon are rejected
    by ``config.resolve_config``.
    """
    z = np.array(z0, dtype=np.float64)
    shape = problem.coef_tab.shape[1:]
    if z.shape != shape:
        raise ValueError(f"initial feature matrix of shape {z.shape} does "
                         f"not match the problem's (n_interior, n_actions) "
                         f"= {shape}")
    if not np.isfinite(z).all():
        raise ValueError("initial feature matrix has non-finite entries")
    if not 0.0 < dt <= S < math.inf:
        raise ValueError(f"need finite 0 < dt <= S, got S={S!r}, dt={dt!r}")
    record_every = _count(record_every, "record_every", 1)
    probes = np.asarray(probes)
    if probes.size and probes.dtype.kind not in "iu":
        # 1.7 would record node 1; True would record node 1 as well
        raise ValueError(f"probes must be integer interior node indices, "
                         f"got {probes.tolist()!r}")
    if probes.size == 0 or probes.min() < 0 or probes.max() >= problem.n_interior:
        raise ValueError("probes must be interior node indices")
    probes = probes.astype(np.int64)
    n_steps = int(round(S / dt))
    # tau at each flow point k*dt; a step's end i*dt + dt is not (i+1)*dt
    points = np.arange(n_steps + 1) * dt
    tau_at = sched.value(points).tolist()
    tau_mid = sched.value(points[:-1] + 0.5 * dt).tolist()
    tau_end = sched.value(points[:-1] + dt).tolist()
    records = []
    # Z = theta . tables, with the start as the fourth table (module doc)
    tables = np.concatenate([problem.coef_tab, z[None]])
    drive = np.zeros((4, problem.n_interior))
    drive[2] = -1.0
    minus_dv = drive[0]

    def features(theta):
        return einsum("ji,jik->ik", theta, tables)

    def evaluate(theta, tau):
        pol = gibbs_policy(features(theta), problem.actions, overwrite=True)
        return pol, solve_on_policy_bellman(problem, pol, tau)

    def rhs(theta, tau, vf=None):
        if vf is None:
            vf = evaluate(theta, tau)[1]
        # (-Dv, v) in the first two rows of drive
        np.negative(vf.dv, out=minus_dv)
        drive[1] = vf.v[1:-1]
        return drive - tau * theta

    def record(s, tau_s, pol, vf):
        vr = vf.interior[probes]
        vu = solve_on_policy_bellman(problem, pol, 0.0).interior[probes]
        records.append((s, tau_s, vr, vu, np.mean((vr - vu) / tau_s)))

    theta = np.zeros((4, problem.n_interior))
    theta[3] = 1.0
    tau0 = tau_at[0]
    pol, vf = evaluate(theta, tau0)
    lip = estimate_rhs_lipschitz(problem, z, tau0, vf)
    if dt * (tau0 + lip) > 1.0:
        raise UnstableFlowError(
            f"dt={dt:g} fails the stability check dt*(tau0 + L) <= 1 "
            f"with tau0={tau0:g}, L~{lip:.3g}; use dt <= "
            f"{1.0 / (tau0 + lip):.3g}")
    record(0.0, tau0, pol, vf)
    for step, (tau_0, tau_h, tau_1) in enumerate(
            zip(tau_at, tau_mid, tau_end), start=1):
        k1 = rhs(theta, tau_0, vf)
        k2 = rhs(theta + 0.5 * dt * k1, tau_h)
        k3 = rhs(theta + 0.5 * dt * k2, tau_h)
        k4 = rhs(theta + dt * k3, tau_1)
        theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = step * dt
        if not np.isfinite(theta).all():
            raise UnstableFlowError(
                f"non-finite feature state at step {step} (s={s:g})")
        pol, vf = evaluate(theta, tau_at[step])
        if step % record_every == 0 or step == n_steps:
            record(s, tau_at[step], pol, vf)
    times, taus, vals, unregs, kls = map(np.array, zip(*records))
    return FlowTrajectory(times=times, tau_values=taus, values_at_probe=vals,
                          unregularized_values=unregs, kl_mass=kls,
                          z_final=features(theta),
                          step_count=n_steps, probe_indices=probes,
                          probe_x=problem.grid.interior[probes])


@dataclass
class ErrorDecomposition:
    """Split of the plain-value error at each trajectory record into the
    (negative) KL part, the optimization error, and the regularization bias."""
    kl_term: np.ndarray        # (n_records, n_probes) <= 0
    optimization: np.ndarray   # >= -1e-8
    bias: np.ndarray           # >= -1e-8
    total: np.ndarray


def error_decomposition(problem, traj: FlowTrajectory,
                        **solver) -> ErrorDecomposition:
    """Split v_0^pi - v_0^* at the probes at every record.

    Solves the unregularized HJB once and the regularized HJB once per
    distinct recorded tau, so a constant schedule makes one solve of each.
    The regularized solves run along ``hjb.regularized_path`` in record
    order, each from the previous tau's optimum, so the values agree with
    lone solves of each tau within the solver tolerance, not bit for bit.
    ``solver`` (tol, max_iter) goes to every solve.
    """
    def at_probes(sol):
        return sol.v_star.v[1:-1][traj.probe_indices]

    taus = traj.tau_values.tolist()
    v0_star = at_probes(solve_unregularized_hjb(problem, **solver))
    distinct = list(dict.fromkeys(taus))
    by_tau = dict(zip(distinct, map(at_probes, regularized_path(
        problem, distinct, **solver))))
    v_tau_star = np.array([by_tau[tau] for tau in taus])
    v_reg, v_unreg = traj.values_at_probe, traj.unregularized_values
    return ErrorDecomposition(kl_term=v_unreg - v_reg,
                              optimization=v_reg - v_tau_star,
                              bias=v_tau_star - v0_star,
                              total=v_unreg - v0_star)
