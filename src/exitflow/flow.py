"""Mirror descent in feature space under an annealing scheduler.

The feature matrix evolves by dZ/ds = -(b*Dv - c*v + f + tau_s * Z) where
v is the entropy-weighted value of the current Gibbs policy, re-solved at
every Runge-Kutta stage.  Trajectories record both the regularized value
and the plain value of the running policy at probe nodes; the plain value
costs one extra linear solve with the KL forcing dropped.  The error
decomposition of a trajectory solves its own reference HJBs: the hard-min
optimum once and the softmin optimum once per distinct recorded tau.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elliptic import optimal_feature, solve_on_policy_bellman
from .hjb import solve_regularized_hjb, solve_unregularized_hjb
from .policy import gibbs_policy

CONSTANT = "constant"
HORIZON_CONSTANT = "horizon_constant"
INVERSE_LINEAR = "inverse_linear"
INVERSE_SQRT = "inverse_sqrt"
POWER_LAW = "power_law"

SCHEDULER_KINDS = (CONSTANT, HORIZON_CONSTANT, INVERSE_LINEAR, INVERSE_SQRT,
                   POWER_LAW)
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
    """
    kind: str
    tau: float = math.nan
    horizon: float = math.nan
    beta: float = math.nan

    def __post_init__(self):
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.kind == HORIZON_CONSTANT:
            if not 0.0 < self.horizon < math.inf:
                raise ValueError("horizon_constant scheduler needs "
                                 "finite S > 0")
            object.__setattr__(self, "tau", math.log(self.horizon + 1.0)
                               / self.horizon)
        elif self.kind == INVERSE_LINEAR:
            object.__setattr__(self, "beta", 1.0)
        if self.kind in _CONSTANT_KINDS and not 0.0 < self.tau < math.inf:
            raise ValueError(f"{self.kind} scheduler needs finite tau > 0")
        if self.kind == POWER_LAW and not 0.0 < self.beta < math.inf:
            raise ValueError("power_law scheduler needs finite beta > 0")

    def value(self, s):
        """tau_s; accepts scalars or arrays."""
        s = _times(s)
        if self.kind in _CONSTANT_KINDS:
            out = np.full_like(s, self.tau)
        elif self.kind == INVERSE_SQRT:
            out = 1.0 / np.sqrt(1.0 + s)
        else:
            out = np.power(1.0 + s, -self.beta)
        return out if out.ndim else float(out)

    def integral(self, s):
        """T(s) = int_0^s tau_r dr in closed form."""
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
        return out if out.ndim else float(out)


def _times(s):
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0.0):
        raise ValueError("s must be nonnegative")
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


def mirror_rhs(problem, z, vf, tau):
    """Descent direction -(b*Dv - c*v + f + tau*Z)."""
    return -(optimal_feature(problem, vf) + tau * z)


def _rhs(problem, z, tau):
    vf = solve_on_policy_bellman(problem, gibbs_policy(z, problem.actions),
                                 tau)
    return mirror_rhs(problem, z, vf, tau)


def estimate_rhs_lipschitz(problem, z0, tau):
    """Crude local Lipschitz bound of the rhs from one random perturbation."""
    rng = np.random.default_rng(181181)
    delta = 1e-3 * (1.0 + np.max(np.abs(z0))) * rng.standard_normal(z0.shape)
    f0 = _rhs(problem, z0, tau)
    f1 = _rhs(problem, z0 + delta, tau)
    num = float(np.max(np.abs(f1 - f0 + tau * delta)))  # strip the -tau*Z part
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
    if not np.all(np.isfinite(z)):
        raise ValueError("initial feature matrix has non-finite entries")
    if dt <= 0.0 or S < dt:
        raise ValueError("need 0 < dt <= S")
    if not isinstance(record_every, numbers.Integral) or record_every < 1:
        raise ValueError(f"record_every must be an integer >= 1, "
                         f"got {record_every!r}")
    probes = np.asarray(probes, dtype=np.int64)
    if probes.size == 0 or probes.min() < 0 or probes.max() >= problem.n_interior:
        raise ValueError("probes must be interior node indices")
    tau0 = float(sched.value(0.0))
    lip = estimate_rhs_lipschitz(problem, z, tau0)
    if dt * (tau0 + lip) > 1.0:
        raise UnstableFlowError(
            f"dt={dt:g} fails the stability check dt*(tau0 + L) <= 1 "
            f"with tau0={tau0:g}, L~{lip:.3g}; use dt <= "
            f"{1.0 / (tau0 + lip):.3g}")
    n_steps = int(round(S / dt))
    times, taus, vals, unregs, kls = [], [], [], [], []

    def record(s, z_now):
        tau_s = float(sched.value(s))
        pol = gibbs_policy(z_now, problem.actions)
        vf = solve_on_policy_bellman(problem, pol, tau_s)
        vf0 = solve_on_policy_bellman(problem, pol, 0.0)
        vr = vf.v[1:-1][probes]
        vu = vf0.v[1:-1][probes]
        times.append(s)
        taus.append(tau_s)
        vals.append(vr)
        unregs.append(vu)
        kls.append(float(np.mean((vr - vu) / tau_s)))

    # tau at the stage times s, s + dt/2 and s + dt of every step
    starts = np.arange(n_steps) * dt
    stage_taus = zip(sched.value(starts).tolist(),
                     sched.value(starts + 0.5 * dt).tolist(),
                     sched.value(starts + dt).tolist())

    record(0.0, z)
    for step, (tau_0, tau_h, tau_1) in enumerate(stage_taus, start=1):
        k1 = _rhs(problem, z, tau_0)
        k2 = _rhs(problem, z + 0.5 * dt * k1, tau_h)
        k3 = _rhs(problem, z + 0.5 * dt * k2, tau_h)
        k4 = _rhs(problem, z + dt * k3, tau_1)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = step * dt
        if not np.all(np.isfinite(z)):
            raise UnstableFlowError(
                f"non-finite feature state at step {step} (s={s:g}, "
                f"max|Z| before failure unavailable)")
        if step % record_every == 0 or step == n_steps:
            record(s, z)
    return FlowTrajectory(times=np.array(times), tau_values=np.array(taus),
                          values_at_probe=np.array(vals),
                          unregularized_values=np.array(unregs),
                          kl_mass=np.array(kls), z_final=z,
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
    distinct recorded tau, so a constant schedule makes one solve of each;
    ``solver`` (tol, max_iter) goes to every solve.
    """
    def at_probes(sol):
        return sol.v_star.v[1:-1][traj.probe_indices]

    taus = traj.tau_values.tolist()
    v0_star = at_probes(solve_unregularized_hjb(problem, **solver))
    by_tau = {tau: at_probes(solve_regularized_hjb(problem, tau, **solver))
              for tau in dict.fromkeys(taus)}
    v_tau_star = np.array([by_tau[tau] for tau in taus])
    v_reg, v_unreg = traj.values_at_probe, traj.unregularized_values
    return ErrorDecomposition(kl_term=v_unreg - v_reg,
                              optimization=v_reg - v_tau_star,
                              bias=v_tau_star - v0_star,
                              total=v_unreg - v0_star)
