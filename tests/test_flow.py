import dataclasses
import hashlib
import math
import os
from unittest import mock

import numpy as np
import pytest

from exitflow import elliptic, flow
from exitflow import (Scheduler, error_decomposition, gibbs_policy,
                      growth_integrals, integrate_flow, lq_benchmark,
                      make_action_space, make_problem,
                      optimal_feature, solve_on_policy_bellman,
                      solve_regularized_hjb, solve_unregularized_hjb,
                      uniform_policy)
from exitflow.config import build_problem, load_config, probe_indices
from exitflow.domain import build_grid
from exitflow.flow import UnstableFlowError


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


@pytest.mark.parametrize("kind, params", [
    ("inverse_linear", {"beta": 0.5}),
    ("horizon_constant", {"tau": 0.3, "horizon": 10.0}),
    ("constant", {"tau": 0.3, "beta": 7.0})])
def test_scheduler_rejects_parameter_of_other_kind(kind, params):
    # each was once dropped or overwritten without a word
    with pytest.raises(ValueError, match=f"{kind} scheduler takes no"):
        Scheduler(kind=kind, **params)


def test_scheduler_stored_parameters_survive_replace():
    hc = Scheduler(kind="horizon_constant", horizon=10.0)
    il = Scheduler(kind="inverse_linear")
    assert hc.tau == math.log(11.0) / 10.0 and il.beta == 1.0
    for sched in (hc, il, Scheduler(kind="constant", tau=0.3),
                  Scheduler(kind="power_law", beta=0.4)):
        assert dataclasses.replace(sched) == sched
    assert il == Scheduler(kind="inverse_linear", beta=1.0)
    # the stored tau belongs to the old horizon
    with pytest.raises(ValueError, match="takes no tau"):
        dataclasses.replace(hc, horizon=20.0)
    assert dataclasses.replace(hc, horizon=20.0, tau=math.nan) \
        == Scheduler(kind="horizon_constant", horizon=20.0)


def test_scheduler_integral_rejects_negative_time():
    sched = Scheduler(kind="constant", tau=0.5)
    for s in (-0.5, np.array([0.0, 1.0, -1e-300])):
        with pytest.raises(ValueError, match="nonnegative"):
            sched.integral(s)


@pytest.mark.parametrize("kind, params", [
    ("constant", {"tau": math.inf}), ("constant", {"tau": math.nan}),
    ("horizon_constant", {"horizon": math.inf}),
    ("horizon_constant", {"horizon": math.nan}),
    ("power_law", {"beta": math.inf}), ("power_law", {"beta": math.nan})])
def test_scheduler_rejects_non_finite_parameters(kind, params):
    with pytest.raises(ValueError, match="finite"):
        Scheduler(kind=kind, **params)


# scalars, a 0-d array, and arrays spanning tiny to huge times
_TIMES = [0.0, 1e-300, 0.37, 5.0, 1e6, np.array(2.5),
          np.logspace(-12, 12, 97), np.linspace(0.0, 50.0, 101)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("S", [0.5, math.e - 1.0, 50.0, 1e4])
def test_horizon_constant_is_constant_law(S):
    hc = Scheduler(kind="horizon_constant", horizon=S)
    const = Scheduler(kind="constant", tau=math.log(S + 1.0) / S)
    for s in _TIMES:
        assert _same_bits(hc.value(s), const.value(s))
        assert _same_bits(hc.integral(s), const.integral(s))


def test_inverse_linear_is_power_law_one():
    il = Scheduler(kind="inverse_linear")
    pl = Scheduler(kind="power_law", beta=1.0)
    for s in _TIMES:
        assert _same_bits(il.value(s), pl.value(s))
        assert _same_bits(il.value(s), 1.0 / (1.0 + np.asarray(s)))
        assert _same_bits(il.integral(s), pl.integral(s))


_ALL_KINDS = [Scheduler(kind="constant", tau=0.7),
              Scheduler(kind="horizon_constant", horizon=50.0),
              Scheduler(kind="inverse_linear"),
              Scheduler(kind="inverse_sqrt"),
              Scheduler(kind="power_law", beta=0.37)]


@pytest.mark.parametrize("sched", _ALL_KINDS, ids=lambda s: s.kind)
def test_scheduler_float_matches_one_element_array(sched):
    # a Python float skips the array but takes the same ufunc expression
    times = [0.0, 5e-324, 1e-300, 0.37, 5.0, 1e6, 1e300] \
        + np.logspace(-12, 12, 49).tolist()
    for s in times:
        for fn in (sched.value, sched.integral):
            got = fn(s)
            assert type(got) is float
            assert _same_bits(got, fn(np.array([s]))[0])


@pytest.mark.parametrize("sched", _ALL_KINDS, ids=lambda s: s.kind)
def test_scheduler_rejects_non_finite_time(sched):
    for s in (math.nan, math.inf, np.float64(math.nan), np.array(math.inf),
              np.array([0.0, 1.0, math.nan]), np.array([[2.0, math.inf]])):
        for fn in (sched.value, sched.integral):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fn(s)


def test_flow_constant_in_action_freezes_policy():
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


@pytest.mark.parametrize("record_every", [0, -1, 2.5])
def test_integrate_flow_rejects_bad_record_every(lq, record_every):
    # rejected before any value solve
    sched = Scheduler(kind="constant", tau=0.5)
    with mock.patch.object(flow, "solve_on_policy_bellman",
                           side_effect=AssertionError("value solve ran")), \
            pytest.raises(ValueError, match="record_every"):
        integrate_flow(lq, np.zeros((29, 5)), sched, S=1.0, dt=0.1,
                       probes=[14], record_every=record_every)


@pytest.mark.parametrize("S, dt", [(math.inf, 0.1), (math.nan, 0.1),
                                   (1.0, math.nan), (1.0, math.inf),
                                   (1.0, -math.inf)])
def test_integrate_flow_rejects_non_finite_horizon_or_step(lq, S, dt):
    sched = Scheduler(kind="constant", tau=0.5)
    with mock.patch.object(flow, "solve_on_policy_bellman",
                           side_effect=AssertionError("value solve ran")), \
            pytest.raises(ValueError, match="need finite 0 < dt <= S"):
        integrate_flow(lq, np.zeros((29, 5)), sched, S=S, dt=dt, probes=[14])


@pytest.mark.parametrize("entry, probes, message", [
    (math.inf, [14], "non-finite entries"),
    (math.nan, [14], "non-finite entries"),
    (0.0, [-1], "interior node indices"),
    (0.0, [29], "interior node indices"),
    (0.0, [], "interior node indices"),
    # 1.7 and 4.2 used to record nodes 1 and 4, True node 1
    (0.0, [1.7, 4.2], "integer interior node indices"),
    (0.0, [14.0], "integer interior node indices"),
    (0.0, [True], "integer interior node indices"),
    (0.0, np.array([1, 0], dtype=bool), "integer interior node indices")])
def test_integrate_flow_rejects_bad_start_or_probe(lq, entry, probes,
                                                   message):
    z0 = np.zeros((29, 5))
    z0[3, 2] = entry
    sched = Scheduler(kind="constant", tau=0.5)
    with mock.patch.object(flow, "solve_on_policy_bellman",
                           side_effect=AssertionError("value solve ran")), \
            pytest.raises(ValueError, match=message):
        integrate_flow(lq, z0, sched, S=1.0, dt=0.1, probes=probes)


@pytest.mark.parametrize("record_every", [1, 3])
def test_integrate_flow_evaluates_each_point_once(lq, record_every):
    # one Gibbs map and one value solve at each of the n + 1 flow points,
    # three more per step for the later RK4 stages, one more of each for
    # the perturbed stability point, and one plain solve per record
    sched = Scheduler(kind="inverse_linear")
    with mock.patch.object(flow, "gibbs_policy",
                           wraps=gibbs_policy) as gibbs, \
            mock.patch.object(flow, "solve_on_policy_bellman",
                              wraps=solve_on_policy_bellman) as solve:
        traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=1.0, dt=0.1,
                              probes=[14], record_every=record_every)
    n, r = traj.step_count, len(traj.times)
    assert (n, r) == (10, 11 if record_every == 1 else 5)
    assert gibbs.call_count == 4 * n + 2
    assert solve.call_count == 4 * n + 2 + r


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
    dec = error_decomposition(lq, traj)
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
    dec = error_decomposition(prob, traj)
    assert np.max(np.abs(dec.total)) <= 1e-10


def test_error_decomposition_optimal_start(lq):
    tau = 0.5
    sol = solve_regularized_hjb(lq, tau, tol=1e-12 * (1.0 + lq.f_sup))
    z0 = -optimal_feature(lq, sol.v_star) / tau
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(lq, z0, sched, S=0.1, dt=0.05, probes=[14])
    dec = error_decomposition(lq, traj, tol=1e-12 * (1.0 + lq.f_sup))
    assert abs(dec.optimization[0, 0]) <= 1e-9


@pytest.mark.parametrize("kind,params", [("constant", {"tau": 0.5}),
                                         ("inverse_linear", {})])
def test_error_decomposition_solves_once_per_distinct_tau(monkeypatch, lq,
                                                          kind, params):
    import exitflow.flow
    import exitflow.hjb
    sched = Scheduler(kind=kind, **params)
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=1.0, dt=0.05,
                          probes=[7, 21], record_every=5)
    calls = []

    def counting(name, fn):
        def wrapped(problem, *args, **kwargs):
            sol = fn(problem, *args, **kwargs)
            calls.append((name, args, kwargs, sol))
            return sol
        return wrapped

    monkeypatch.setattr(exitflow.flow, "solve_unregularized_hjb",
                        counting("howard", solve_unregularized_hjb))
    monkeypatch.setattr(exitflow.hjb, "solve_regularized_hjb",
                        counting("pi", solve_regularized_hjb))
    dec = error_decomposition(lq, traj, max_iter=50)
    # five records: one tau under the constant schedule, five otherwise
    distinct = list(dict.fromkeys(traj.tau_values.tolist()))
    assert len(distinct) == (1 if kind == "constant" else 5)
    assert calls[0][:3] == ("howard", (), {"max_iter": 50})
    # then one policy-iteration solve per distinct tau, in record order:
    # the first from the uniform policy, each later one from the Gibbs
    # image of -F/tau at the previous optimum
    pis = calls[1:]
    assert [(name, args) for name, args, _, _ in pis] \
        == [("pi", (tau,)) for tau in distinct]
    for k, (_, (tau,), kwargs, _) in enumerate(pis):
        z0 = kwargs.pop("z0")
        assert kwargs == {"tol": None, "max_iter": 50}
        if k == 0:
            assert z0 is None
        else:
            warm = optimal_feature(lq, pis[k - 1][3].v_star) / -tau
            assert np.array_equal(z0, warm)
    assert dec.total.shape == (5, 2)


# integrate_flow outputs pinned to values computed before the policy-evaluation
# refactor: S = 1, dt = 0.1, zero start, probes [1, 4, 7], record_every 5
FLOW_DISCRETE = {
    'z_final': [
        [-1.0729247488730473, -0.7215908340710503, -0.7452569192690535,
          -1.1439230044670567, -1.91758908966506],
        [-1.1737112357782864, -0.7701322961851832, -0.7415533565920799,
          -1.0879744169989767, -1.8093954774058734],
        [-1.2764785358381585, -0.8201893063454682, -0.7389000768527778,
          -1.0326108473600872, -1.7013216178673969],
        [-1.3809348305704252, -0.8716198781711063, -0.7373049257717874,
          -0.9779899733724685, -1.5936750209731498],
        [-1.4867726749487502, -0.9242726749487505, -0.7367726749487504,
          -0.9242726749487505, -1.4867726749487504],
        [-1.5936750209731498, -0.9779899733724685, -0.7373049257717874,
          -0.8716198781711063, -1.3809348305704254],
        [-1.7013216178673969, -1.0326108473600872, -0.7389000768527778,
          -0.8201893063454682, -1.2764785358381585],
        [-1.8093954774058734, -1.0879744169989767, -0.7415533565920799,
          -0.7701322961851832, -1.1737112357782864],
        [-1.9175890896650598, -1.143923004467057, -0.7452569192690535,
          -0.7215908340710503, -1.0729247488730473]],
    'values_at_probe': [
        [0.11884175995129254, 0.18555123016906566, 0.11884175995129256],
        [0.11274002119620405, 0.17656757007138885, 0.11274002119620405],
        [0.10919993470477836, 0.17121978169082877, 0.10919993470477835]],
    'unregularized_values': [
        [0.11884175995129254, 0.18555123016906566, 0.11884175995129256],
        [0.11179475443850226, 0.17516710942346128, 0.11179475443850226],
        [0.10714674697185984, 0.16813304818899966, 0.10714674697185983]],
    'kl_mass': [0.0, 0.0016454970816655728, 0.0047954059784440966],
}


FLOW_INTERVAL = {
    'z_final': [
        [-8.38666284010638, -6.999645459164216, -4.912127750922485,
          -2.716274631222859, -1.0591480520775103, -0.47560615186179406,
          -1.2480877754602369, -3.328055981152534, -6.339048556235794,
          -9.661145403986954, -12.576543624165243, -14.441257707527749],
        [-9.102764260880242, -7.658710422519048, -5.472344697684638,
          -3.1420193237010867, -1.3232426434829503, -0.5610290990616427,
          -1.1490438213475191, -3.0503403828342255, -5.899682856844698,
          -9.08730745031193, -11.903857653897543, -13.711535279841014],
        [-9.849274929236637, -8.34593393445939, -6.056819580303706,
          -3.5867155816629737, -1.59990997291999, -0.651974274696131,
          -1.0482429011234433, -2.7638173088075986, -5.445130854293224,
          -8.492976823103275, -11.20677839736761, -12.955168866895034],
        [-10.617645953740794, -9.05344652788323, -6.658860419739819,
          -4.045273273830149, -1.8859855022664767, -0.747405496227231,
          -0.946846221551683, -2.471776321420451, -4.980607704085388,
          -7.884970525626503, -10.49330034590311, -12.180832384350218],
        [-11.398240517863563, -9.772374785711225, -7.270916821501214,
          -4.511941837775823, -2.1778822606615176, -0.8461272077075113,
          -0.846127207707511, -2.1778822606615176, -4.511941837775822,
          -7.270916821501214, -9.772374785711229, -11.398240517863558],
        [-12.18083238435022, -10.493300345903107, -7.884970525626503,
          -4.98060770408539, -2.4717763214204505, -0.9468462215516834,
          -0.7474054962272308, -1.8859855022664764, -4.045273273830148,
          -6.658860419739819, -9.053446527883235, -10.61764595374079],
        [-12.95516886689504, -11.206778397367607, -8.492976823103273,
          -5.445130854293225, -2.763817308807598, -1.048242901123444,
          -0.651974274696131, -1.59990997291999, -3.5867155816629728,
          -6.056819580303707, -8.345933934459394, -9.849274929236632],
        [-13.711535279841021, -11.90385765389754, -9.08730745031193,
          -5.899682856844699, -3.0503403828342255, -1.1490438213475196,
          -0.5610290990616427, -1.3232426434829503, -3.142019323701086,
          -5.472344697684638, -7.65871042251905, -9.102764260880239],
        [-14.441257707527754, -12.576543624165241, -9.661145403986954,
          -6.339048556235796, -3.3280559811525343, -1.2480877754602373,
          -0.47560615186179406, -1.0591480520775103, -2.7162746312228583,
          -4.912127750922485, -6.999645459164218, -8.386662840106377]],
    'values_at_probe': [
        [0.5017763197943463, 0.7834385273804996, 0.5017763197943466],
        [0.20577260547533133, 0.3241750632814102, 0.20577260547533133],
        [0.17731127136202265, 0.27902184768513194, 0.17731127136202263]],
    'unregularized_values': [
        [0.5017763197943463, 0.7834385273804996, 0.5017763197943466],
        [0.17270601938450533, 0.27125841699359315, 0.17270601938450536],
        [0.13441193765316442, 0.210625026019585, 0.1344119376531644]],
    'kl_mass': [0.0, 0.04860188487019395, 0.07268845063943456],
}


@pytest.mark.parametrize("kind, scheduler, golden", [
    ("discrete", "inverse_linear", FLOW_DISCRETE),
    ("interval", "inverse_sqrt", FLOW_INTERVAL)])
def test_flow_golden_values(kind, scheduler, golden):
    if kind == "discrete":
        problem = lq_benchmark("discrete", n_interior=9)
    else:
        problem = lq_benchmark("interval", n_interior=9, n_quad=12)
    z0 = np.zeros((problem.n_interior, problem.actions.n_actions))
    traj = integrate_flow(problem, z0, Scheduler(kind=scheduler), S=1.0,
                          dt=0.1, probes=[1, 4, 7], record_every=5)
    assert traj.times.tolist() == [0.0, 0.5, 1.0]
    for name, expected in golden.items():
        np.testing.assert_allclose(getattr(traj, name), expected,
                                   rtol=1e-12, atol=1e-15)


# one scheduler of each kind
_SCHEDULERS = [Scheduler(kind="constant", tau=0.5),
               Scheduler(kind="horizon_constant", horizon=5.0),
               Scheduler(kind="inverse_linear"),
               Scheduler(kind="inverse_sqrt"),
               Scheduler(kind="power_law", beta=0.5)]


# The first 16 hex digits of the SHA-256 of the little-endian float64
# bytes of z_final, values_at_probe, unregularized_values and kl_mass, for
# a flow from zero features on each shipped config's problem (29 nodes,
# its probes) to S = 1 at dt = 0.05 with a record every 5 steps, under
# each scheduler of _SCHEDULERS.  Any change to a bit of the Gibbs map, the
# value solve or the RK4 loop shows here.
FLOW_BITS = {
    ("lq_discrete", "constant"): (
        "db3ca3ea8bfe9cef", "940d0a752311f4da",
        "cadbf3f2f284de44", "368e946bab303860"),
    ("lq_discrete", "horizon_constant"): (
        "469d0c28b862c46d", "0ea018bbc47db570",
        "3329fedce3d03456", "01b71eebaf147316"),
    ("lq_discrete", "inverse_linear"): (
        "1902b5ec9d8e1577", "5af6ead9948aeba4",
        "f28dc1b4ab0e7399", "ea6233a6dcedd6ad"),
    ("lq_discrete", "inverse_sqrt"): (
        "035b047a6f52c62a", "1052a0946dba6c09",
        "553af96f4948ca2e", "9d55bce6baa17f4a"),
    ("lq_discrete", "power_law"): (
        "035b047a6f52c62a", "1052a0946dba6c09",
        "553af96f4948ca2e", "dfd5bfa6b1170f87"),
    ("lq_interval", "constant"): (
        "862c9a729b820e56", "417b892da6552533",
        "b3ce49c12853fe4b", "8761609a36275e3f"),
    ("lq_interval", "horizon_constant"): (
        "86a1866ca3f2eb9a", "e27c57ef8e0e2149",
        "c80258508a230acc", "a17ec5b2f5ef7456"),
    ("lq_interval", "inverse_linear"): (
        "2cb722a3b4cc857f", "4a0639b025b8d39b",
        "669932bb47bf3745", "1885b5fd688a147f"),
    ("lq_interval", "inverse_sqrt"): (
        "e6ebd16d56ef677d", "ed541307b45e56ed",
        "337ea63788d94e07", "816305bc0ce2c53d"),
    ("lq_interval", "power_law"): (
        "e7852a8d9efdcb1b", "ed541307b45e56ed",
        "337ea63788d94e07", "d470b32f135fcb29"),
}
_TRAJECTORY_ARRAYS = ("z_final", "values_at_probe", "unregularized_values",
                      "kl_mass")


def _digest(a):
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("config", ["lq_discrete", "lq_interval"])
@pytest.mark.parametrize("sched", _SCHEDULERS, ids=lambda s: s.kind)
def test_flow_bits_on_shipped_configs(config, sched):
    # also one tridiagonal solve per value solve, 4n + 2 + r of them, each
    # through the module attribute elliptic.thomas_solve
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    resolved = load_config(os.path.join(root, "configs", config + ".json"))
    problem = build_problem(resolved)
    probes = probe_indices(problem.grid, resolved["flow"]["probes"])
    z0 = np.zeros((problem.n_interior, problem.actions.n_actions))
    with mock.patch.object(elliptic, "thomas_solve",
                           wraps=elliptic.thomas_solve) as thomas:
        traj = integrate_flow(problem, z0, sched, S=1.0, dt=0.05,
                              probes=probes, record_every=5)
    n, r = traj.step_count, len(traj.times)
    assert (n, r) == (20, 5)
    assert thomas.call_count == 4 * n + 2 + r
    assert [_digest(getattr(traj, name)) for name in _TRAJECTORY_ARRAYS] \
        == list(FLOW_BITS[config, sched.kind])


def _stage_taus(sched, n_steps, dt):
    """tau at s, s + dt/2 and s + dt of every step, as integrate_flow
    takes them."""
    starts = np.arange(n_steps) * dt
    return zip(sched.value(starts).tolist(),
               sched.value(starts + 0.5 * dt).tolist(),
               sched.value(starts + dt).tolist())


def _matrix_flow(problem, z0, sched, S, dt, probes):
    """RK4 on the full feature matrix with the slope
    -(b*Dv - c*v + f + tau*Z): the final features and, after every step,
    the regularized and plain values at the probes."""
    def rhs(z, tau):
        vf = solve_on_policy_bellman(problem,
                                     gibbs_policy(z, problem.actions), tau)
        return -(optimal_feature(problem, vf) + tau * z)

    def values(s, z):
        pol = gibbs_policy(z, problem.actions)
        return [solve_on_policy_bellman(problem, pol, tau).interior[probes]
                for tau in (float(sched.value(s)), 0.0)]

    n_steps = int(round(S / dt))
    z = np.array(z0, dtype=np.float64)
    recs = [values(0.0, z)]
    for step, (tau_0, tau_h, tau_1) in enumerate(
            _stage_taus(sched, n_steps, dt), start=1):
        k1 = rhs(z, tau_0)
        k2 = rhs(z + 0.5 * dt * k1, tau_h)
        k3 = rhs(z + 0.5 * dt * k2, tau_h)
        k4 = rhs(z + dt * k3, tau_1)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        recs.append(values(step * dt, z))
    return z, np.array(recs)


def _deviation(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0)))


@pytest.mark.parametrize("start", ["zero", "restart"])
@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_node_weight_flow_is_the_matrix_flow(kind, start):
    # integrate_flow steps the four node vectors of the span identity
    # Z = w0*b + w1*c + w2*f + a*Z_0; in exact arithmetic that is RK4 on Z
    # itself, so the two loops differ only in the order of roundings.
    # Measured worst deviation over all cases: 1.25e-15 relative to
    # max(|x|, 1).  The bound 1e-13 leaves room for other summation
    # orders (SIMD widths, BLAS), while a change to the scheme moves these
    # values far more: the midpoint tau on the third stage replaced by
    # the start's tau, under a decaying schedule, by 7e-4 or more; a
    # dropped -tau*Z term by 0.7.
    problem = lq_benchmark(kind, n_quad=32)
    shape = (problem.n_interior, problem.actions.n_actions)
    z0 = np.zeros(shape) if start == "zero" \
        else np.random.default_rng(5).standard_normal(shape)
    probes = [3, 14, 25]
    for sched in _SCHEDULERS:
        traj = integrate_flow(problem, z0, sched, S=5.0, dt=0.05,
                              probes=probes)
        z, recs = _matrix_flow(problem, z0, sched, 5.0, 0.05, probes)
        assert _deviation(z, traj.z_final) <= 1e-13
        assert _deviation(recs[:, 0], traj.values_at_probe) <= 1e-13
        assert _deviation(recs[:, 1], traj.unregularized_values) <= 1e-13


def _control_in_cost(kind):
    """b and c free of the action: discrete {0, 1}, or the interval
    [-1, 1] with 32 nodes and a quadratic cost whose vertex moves with x."""
    grid = build_grid(0.0, 1.0, 29)
    if kind == "discrete":
        acts = make_action_space(values=[0.0, 1.0])

        def f(x, a):
            return 1.0 + 0.2 * x + 0.5 * a
    else:
        acts = make_action_space(alpha=-1.0, beta=1.0, n_quad=32)

        def f(x, a):
            vertex = 0.5 * math.sin(2.0 * x)
            return 1.0 + (a - vertex) ** 2 - vertex ** 2
    return make_problem(grid, acts, b=lambda x, a: 0.3 * math.sin(3.0 * x),
                        c=lambda x, a: 0.1, f=f,
                        sigma=lambda x: math.sqrt(2.0), g=lambda x: 0.0)


def _rk4_weight(sched, S, dt):
    """RK4 on B' = -1 - tau_s*B from B(0) = 0, the flow's w2 row."""
    B = 0.0
    for tau_0, tau_h, tau_1 in _stage_taus(sched, int(round(S / dt)), dt):
        k1 = -1.0 - tau_0 * B
        k2 = -1.0 - tau_h * (B + 0.5 * dt * k1)
        k3 = -1.0 - tau_h * (B + 0.5 * dt * k2)
        k4 = -1.0 - tau_1 * (B + dt * k3)
        B = B + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return B


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_control_in_cost_flow_is_gibbs_of_growth_weight(kind):
    # With b and c free of the action, Z_S = A + B(S)*f where A is
    # constant along each row, so the Gibbs map drops A and the policy is
    # Gibbs(B*f) with B = -e^{-T}*I1, the growth integral of bounds.
    # The flow's B is RK4 on the scalar ODE B' = -1 - tau*B, whose error
    # e_B scales as dt^4 (16 times smaller per halving of dt; at most
    # 5.6e-10 at dt = 0.1 here).  A weight moves by w*(f - f_bar) per
    # unit of B, at most the row's spread of f, so the weights may differ
    # by spread*e_B plus rounding.  Measured: at most 2.8e-11 at
    # dt = 0.1 and 1.8e-12 at dt = 0.05.
    problem = _control_in_cost(kind)
    spread = float(np.max(np.ptp(problem.f_tab, axis=1)))
    S, dt = 20.0, 0.1
    z0 = np.zeros((problem.n_interior, problem.actions.n_actions))
    for sched in _SCHEDULERS:
        traj = integrate_flow(problem, z0, sched, S, dt, probes=[14],
                              record_every=1000)
        B = -math.exp(growth_integrals(sched, S).log_I1 - sched.integral(S))
        e_B = abs(_rk4_weight(sched, S, dt) - B)
        assert e_B <= 1e-5 * dt ** 4
        weights = gibbs_policy(traj.z_final, problem.actions).weights
        expected = gibbs_policy(B * problem.f_tab, problem.actions).weights
        assert np.max(np.abs(weights - expected)) <= spread * e_B + 1e-13
