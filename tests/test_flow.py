import math

import numpy as np
import pytest

from exitflow import (Scheduler, error_decomposition, integrate_flow,
                      lq_benchmark, make_action_space, make_problem,
                      mirror_rhs, optimal_feature,
                      solve_on_policy_bellman, solve_regularized_hjb,
                      solve_unregularized_hjb, uniform_policy)
from exitflow.domain import build_grid
from exitflow.flow import UnstableFlowError


@pytest.fixture(scope="module")
def lq():
    return lq_benchmark("discrete")


def _zero_data_problem(n=7):
    grid = build_grid(0.0, 1.0, n)
    acts = make_action_space(values=[-1.0, 1.0])
    return make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: 0.0, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)


def test_scheduler_values():
    assert Scheduler(kind="inverse_linear").value(0.0) == 1.0
    assert Scheduler(kind="inverse_sqrt").value(3.0) == 0.5
    hc = Scheduler(kind="horizon_constant", horizon=math.e - 1.0)
    assert abs(hc.value(5.0) - 0.58197670686932642) <= 1e-15
    pl = Scheduler(kind="power_law", beta=0.5)
    assert abs(pl.value(3.0) - 0.5) <= 1e-15


def test_scheduler_positive_nonincreasing():
    scheds = [Scheduler(kind="constant", tau=0.7),
              Scheduler(kind="horizon_constant", horizon=50.0),
              Scheduler(kind="inverse_linear"),
              Scheduler(kind="inverse_sqrt"),
              Scheduler(kind="power_law", beta=0.3)]
    s = np.logspace(-3, 6, 200)
    for sched in scheds:
        vals = sched.value(s)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 1e-15)


def test_scheduler_integral_matches_quadrature():
    from scipy.integrate import quad
    scheds = [Scheduler(kind="constant", tau=0.7),
              Scheduler(kind="inverse_linear"),
              Scheduler(kind="inverse_sqrt"),
              Scheduler(kind="power_law", beta=0.35),
              Scheduler(kind="power_law", beta=1.0)]
    for sched in scheds:
        for s in (0.5, 3.0, 42.0):
            ref, _ = quad(lambda r: float(sched.value(r)), 0.0, s,
                          epsabs=1e-12, epsrel=1e-12)
            assert abs(sched.integral(s) - ref) <= 1e-9 * (1.0 + ref)


def test_scheduler_validation():
    with pytest.raises(ValueError):
        Scheduler(kind="nope")
    with pytest.raises(ValueError):
        Scheduler(kind="constant", tau=0.0)
    with pytest.raises(ValueError):
        Scheduler(kind="power_law", beta=0.0)


def test_mirror_rhs_zero_data_is_linear_decay():
    prob = _zero_data_problem()
    z = np.ones((7, 2))
    from exitflow import gibbs_policy
    vf = solve_on_policy_bellman(prob, gibbs_policy(z, prob.actions), 0.5)
    rhs = mirror_rhs(prob, z, vf, 0.5)
    assert np.max(np.abs(rhs + 0.5 * z)) <= 1e-12


def test_mirror_rhs_vanishes_at_fixed_point(lq):
    tau = 0.5
    sol = solve_regularized_hjb(lq, tau, tol=1e-12 * (1.0 + lq.f_sup))
    z_star = -optimal_feature(lq, sol.v_star) / tau
    vf = solve_on_policy_bellman(lq, sol.optimal_policy, tau)
    rhs = mirror_rhs(lq, z_star, vf, tau)
    assert np.max(np.abs(rhs)) <= 1e-8


def test_mirror_rhs_constant_in_action_freezes_policy():
    grid = build_grid(0.0, 1.0, 5)
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.3, c=lambda x, a: 0.1,
                        f=lambda x, a: 1.0, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    sched = Scheduler(kind="constant", tau=0.5)
    traj = integrate_flow(prob, np.zeros((5, 3)), sched, S=2.0, dt=0.05,
                          probes=[2])
    # rhs constant across actions: softmax stays uniform, value frozen
    assert np.max(np.abs(np.diff(traj.values_at_probe[:, 0]))) <= 1e-12
    z = traj.z_final
    assert np.max(np.abs(z - z[:, :1])) <= 1e-10


def test_zero_data_exponential_decay():
    prob = _zero_data_problem()
    z0 = np.full((7, 2), 0.0)
    z0[:, 0] = 1.0
    z0 -= z0.mean(axis=1, keepdims=True)
    tau = 0.5
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(prob, z0, sched, S=4.0, dt=0.01, probes=[3])
    decay = np.max(np.abs(traj.z_final - z0 * math.exp(-tau * 4.0)))
    assert decay <= 1e-8  # RK4 error O(dt^4) on a linear problem


def test_flow_monotone_descent_constant(lq):
    sched = Scheduler(kind="constant", tau=0.5)
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=5.0, dt=0.02,
                          probes=[7, 14, 21])
    increases = np.diff(traj.values_at_probe, axis=0)
    assert increases.max() <= 1e-8


def test_flow_stationarity_at_optimum(lq):
    tau = 0.5
    sol = solve_regularized_hjb(lq, tau, tol=1e-13 * (1.0 + lq.f_sup))
    z0 = -optimal_feature(lq, sol.v_star) / tau
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(lq, z0, sched, S=5.0, dt=0.05, probes=[14])
    drift = np.max(np.abs(traj.z_final - z0))
    assert drift <= 1e-6 * (1.0 + np.max(np.abs(z0)))


def test_rk4_self_consistency(lq):
    sched = Scheduler(kind="constant", tau=0.5)
    a = integrate_flow(lq, np.zeros((29, 5)), sched, S=2.0, dt=0.01,
                       probes=[14], record_every=200)
    b = integrate_flow(lq, np.zeros((29, 5)), sched, S=2.0, dt=0.005,
                       probes=[14], record_every=400)
    assert abs(a.values_at_probe[-1, 0] - b.values_at_probe[-1, 0]) <= 1e-8


def test_times_and_finiteness(lq):
    sched = Scheduler(kind="inverse_linear")
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=1.0, dt=0.05,
                          probes=[14], record_every=5)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(np.isfinite(traj.values_at_probe))
    assert np.all(np.isfinite(traj.unregularized_values))
    assert np.all(traj.kl_mass >= -1e-12)


def test_stability_check_rejects_huge_dt(lq):
    sched = Scheduler(kind="constant", tau=30.0)
    with pytest.raises(UnstableFlowError, match="stability"):
        integrate_flow(lq, np.zeros((29, 5)), sched, S=10.0, dt=0.5,
                       probes=[14])


def test_error_decomposition_identity(lq):
    tau = 0.5
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=3.0, dt=0.05,
                          probes=[7, 21], record_every=10)
    reg = solve_regularized_hjb(lq, tau)
    unreg = solve_unregularized_hjb(lq)
    dec = error_decomposition(lq, traj, reg, unreg)
    s = dec.kl_term + dec.optimization + dec.bias
    assert np.max(np.abs(s - dec.total)) <= 1e-10
    assert np.all(dec.kl_term <= 1e-12)
    assert np.all(dec.optimization >= -1e-8)
    assert np.all(dec.bias >= -1e-8)


def test_error_decomposition_zero_data():
    prob = _zero_data_problem()
    sched = Scheduler(kind="constant", tau=0.5)
    traj = integrate_flow(prob, np.ones((7, 2)), sched, S=1.0, dt=0.05,
                          probes=[3], record_every=10)
    reg = solve_regularized_hjb(prob, 0.5)
    unreg = solve_unregularized_hjb(prob)
    dec = error_decomposition(prob, traj, reg, unreg)
    assert np.max(np.abs(dec.total)) <= 1e-10


def test_error_decomposition_optimal_start(lq):
    tau = 0.5
    sol = solve_regularized_hjb(lq, tau, tol=1e-12 * (1.0 + lq.f_sup))
    z0 = -optimal_feature(lq, sol.v_star) / tau
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(lq, z0, sched, S=0.1, dt=0.05, probes=[14])
    dec = error_decomposition(lq, traj, sol, solve_unregularized_hjb(lq))
    assert abs(dec.optimization[0, 0]) <= 1e-9


def test_error_decomposition_tau_mismatch(lq):
    sched = Scheduler(kind="constant", tau=0.5)
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=1.0, dt=0.05,
                          probes=[14], record_every=10)
    wrong = solve_regularized_hjb(lq, 0.4)
    with pytest.raises(ValueError, match="tau mismatch"):
        error_decomposition(lq, traj, wrong, solve_unregularized_hjb(lq))
