import math

import numpy as np
import pytest

from exitflow import bounds
from exitflow import (Scheduler, growth_integrals,
                      growth_integrals_quadrature, integrate_flow,
                      lq_benchmark, optimization_bound, reproduce_figure,
                      solve_regularized_hjb, total_bound)


def test_inverse_linear_closed_forms():
    gi = growth_integrals(Scheduler(kind="inverse_linear"), 2.0)
    assert abs(math.exp(gi.log_I1) - 4.0) <= 1e-12
    assert abs(math.exp(gi.log_I2) - 2.0) <= 1e-12


def test_constant_closed_form():
    gi = growth_integrals(Scheduler(kind="constant", tau=1.0), math.log(2.0))
    assert abs(math.exp(gi.log_I1) - 1.0) <= 1e-12
    assert abs(math.exp(gi.log_I2) - 1.0) <= 1e-12


def test_inverse_sqrt_closed_form():
    gi = growth_integrals(Scheduler(kind="inverse_sqrt"), 3.0)
    # I1 = (3 e^2 - 1)/2, I2 = e^2 - 1
    assert abs(math.exp(gi.log_I1) - 10.583584148395975) <= 1e-10
    assert abs(math.exp(gi.log_I2) - 6.3890560989306502) <= 1e-11


@pytest.mark.parametrize("kind,param", [
    ("constant", {"tau": 0.7}),
    ("inverse_linear", {}),
    ("inverse_sqrt", {}),
    ("horizon_constant", {"horizon": 40.0}),
])
def test_closed_forms_match_quadrature(kind, param):
    sched = Scheduler(kind=kind, **param)
    for s in (1.0, 10.0, 100.0):
        cf = growth_integrals(sched, s)
        q = growth_integrals_quadrature(sched, s)
        assert abs(cf.log_I1 - q.log_I1) <= 1e-9 * (1.0 + abs(cf.log_I1))
        assert abs(cf.log_I2 - q.log_I2) <= 1e-9 * (1.0 + abs(cf.log_I2))


@pytest.mark.parametrize("kind,param", [
    ("constant", {"tau": 0.7}),
    ("inverse_sqrt", {}),
    ("horizon_constant", {"horizon": 40.0}),
])
def test_closed_forms_at_small_s(kind, param):
    # I1 = s + O(s^2) for every scheduler with tau_0 <= 1; ln(1 - e^{-x})
    # must neither raise nor lose digits once x is near machine epsilon
    sched = Scheduler(kind=kind, **param)
    gi = growth_integrals(sched, 1e-17)
    assert math.isfinite(gi.log_I1) and math.isfinite(gi.log_I2)
    assert abs(gi.log_I1 - math.log(1e-17)) <= 1e-15 * abs(math.log(1e-17))
    for s in (1e-8, 1e-6):
        cf = growth_integrals(sched, s)
        q = growth_integrals_quadrature(sched, s)
        assert abs(cf.log_I1 - q.log_I1) <= 1e-13 * abs(q.log_I1)
        assert abs(cf.log_I2 - q.log_I2) <= 1e-13 * abs(q.log_I2)


def test_quadrature_I2_matches_universal_identity():
    # I2 = exp(integral of tau) - 1 for every scheduler
    for sched in (Scheduler(kind="power_law", beta=0.35),
                  Scheduler(kind="horizon_constant", horizon=40.0)):
        for s in (2.0, 20.0, 200.0):
            gi = growth_integrals_quadrature(sched, s)
            t = sched.integral(s)
            expect = t + math.log1p(-math.exp(-t))
            assert abs(gi.log_I2 - expect) <= 1e-8 * (1.0 + abs(expect))


@pytest.mark.parametrize("beta", [0.02, 0.1, 0.5, 0.9, 1.0, 1.5])
def test_power_law_growth_matches_full_quadrature(beta):
    sched = Scheduler(kind="power_law", beta=beta)
    for s in (10.0, 1e3, 1e4):
        gi = growth_integrals(sched, s)
        q = growth_integrals_quadrature(sched, s)
        assert abs(gi.log_I1 - q.log_I1) <= 1e-10 * (1.0 + abs(q.log_I1))
        assert abs(gi.log_I2 - q.log_I2) <= 1e-10 * (1.0 + abs(q.log_I2))


@pytest.mark.parametrize("beta,kind", [(0.5, "inverse_sqrt"),
                                       (1.0, "inverse_linear")])
def test_power_law_window_matches_named_closed_forms(beta, kind):
    # at beta = 0.5 the I1 window starts after 0 for s = 1e4 and 1e5
    power = Scheduler(kind="power_law", beta=beta)
    named = Scheduler(kind=kind)
    for s in (1e3, 1e4, 1e5):
        gi = growth_integrals(power, s)
        cf = growth_integrals(named, s)
        assert abs(gi.log_I1 - cf.log_I1) <= 1e-12 * abs(cf.log_I1)
        assert abs(gi.log_I2 - cf.log_I2) <= 1e-12 * abs(cf.log_I2)


def test_power_law_growth_work_stays_in_window(monkeypatch):
    points = []
    log_integral = bounds._log_integral

    def counted(log_f, s):
        def f(x):
            points.append(np.size(x))
            return log_f(x)
        return log_integral(f, s)

    monkeypatch.setattr(bounds, "_log_integral", counted)
    gi = growth_integrals(Scheduler(kind="power_law", beta=0.02), 1e5)
    assert math.isfinite(gi.log_I1)
    assert sum(points) <= 1024


@pytest.mark.parametrize("beta", [1.0 + 1e-9, 1.0 - 1e-9,
                                  1.0 + 1e-6, 1.0 - 1e-6])
def test_power_law_integral_near_beta_one(beta):
    # T(s) = ((1+s)^(1-beta) - 1)/(1-beta) = log1p(s) sum_k u^k/(k+1)!
    # with u = (1-beta) log1p(s); five terms reach double precision here
    sched = Scheduler(kind="power_law", beta=beta)
    for s in (10.0, 1e4):
        u = (1.0 - beta) * math.log1p(s)
        expect = math.log1p(s) * sum(u ** k / math.factorial(k + 1)
                                     for k in range(5))
        assert abs(sched.integral(s) - expect) <= 1e-14 * expect


def test_growth_invariants():
    scheds = [Scheduler(kind="constant", tau=0.4),
              Scheduler(kind="inverse_linear"),
              Scheduler(kind="inverse_sqrt"),
              Scheduler(kind="power_law", beta=0.6)]
    for sched in scheds:
        for s in (1.0, 10.0, 300.0):
            gi = growth_integrals(sched, s)
            tau0 = float(sched.value(0.0))
            tau_s = float(sched.value(s))
            assert gi.log_I2 <= gi.log_I1 + math.log(tau0) + 1e-9
            assert math.exp(gi.log_I2 - gi.log_I1) >= tau_s - 1e-9


def test_log_domain_no_overflow():
    gi = growth_integrals(Scheduler(kind="inverse_sqrt"), 1e4)
    r = math.sqrt(1.0 + 1e4)
    expect = 2.0 * r - 2.0 + math.log(r - 0.5)
    assert math.isfinite(gi.log_I1) and math.isfinite(gi.log_I2)
    assert abs(gi.log_I1 - expect) <= 1e-6


def test_optimization_bound_constant_scheduler():
    # at a constant tau the mismatch term vanishes and the leading term
    # is tau/(e^{tau s} - 1)
    sched = Scheduler(kind="constant", tau=1.0)
    val = optimization_bound(sched, math.log(2.0), C=1.0, discrete=True)
    assert abs(val - 1.0) <= 1e-12


def test_optimization_bound_inverse_linear_ratio():
    # ratio term equals s/((s+1)(s+2)) exactly
    sched = Scheduler(kind="inverse_linear")
    for s in (2.0, 7.0, 40.0):
        got = optimization_bound(sched, s, C=1.0, discrete=True)
        expect = 1.0 / (0.5 * s * s + s) + s / ((s + 1.0) * (s + 2.0))
        assert abs(got - expect) <= 1e-12
    got = optimization_bound(sched, 2.0, C=1.0, discrete=True)
    assert abs((got - 0.25) - 1.0 / 6.0) <= 1e-12


def test_optimization_bound_inverse_sqrt_tail():
    sched = Scheduler(kind="inverse_sqrt")
    for s in (100.0, 1000.0):
        tau_s = 1.0 / math.sqrt(1.0 + s)
        gi = growth_integrals(sched, s)
        ratio = math.exp(gi.log_I2 - gi.log_I1) - tau_s
        r = math.sqrt(1.0 + s)
        y = 2.0 * r - 2.0
        expect = (0.5 * math.exp(y) - r + 0.5) / \
            (math.exp(y) * (r - 0.5) - 0.5) * tau_s
        assert abs(ratio - expect) <= 1e-12 * tau_s + 1e-15
        assert ratio / tau_s <= 1.0 / math.sqrt(s)


def test_bound_nonnegative_mismatch_term():
    for sched in (Scheduler(kind="inverse_linear"),
                  Scheduler(kind="inverse_sqrt"),
                  Scheduler(kind="power_law", beta=0.5)):
        for s in (2.0, 50.0):
            gi = growth_integrals(sched, s)
            ratio = math.exp(gi.log_I2 - gi.log_I1) - float(sched.value(s))
            assert ratio >= -1e-12


def test_total_bound_power_law_equals_inverse_sqrt():
    a = total_bound(Scheduler(kind="power_law", beta=0.5), 100.0)
    b = total_bound(Scheduler(kind="inverse_sqrt"), 100.0)
    assert abs(a - b) <= 1e-9 * b


@pytest.mark.parametrize("beta, expect", [(0.02, 0.18290120929260226),
                                          (0.1, 0.36407378450699423)])
def test_total_bound_at_long_horizon_matches_mpmath(beta, expect):
    # 40-digit mpmath values.  I2/I1 - tau_S cancels here: taking I2/I1
    # from ln(I1) - ln(I2), each of size T(S) ~ 1e5, puts the bound off
    # by 5.8e-10 (beta = 0.02) and 6.1e-11 (beta = 0.1) relative
    got = total_bound(Scheduler(kind="power_law", beta=beta), 1e5)
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_total_bound_linear_in_C():
    sched = Scheduler(kind="power_law", beta=0.4)
    one = total_bound(sched, 50.0, C=1.0)
    two = total_bound(sched, 50.0, C=2.0)
    assert abs(two - 2.0 * one) <= 1e-12 * two


def test_reproduce_figure_finite_and_argmin_drift():
    rows = reproduce_figure()
    assert all(math.isfinite(b) and b > 0.0 for _, _, b in rows)
    by_s = {}
    for beta, S, bound in rows:
        by_s.setdefault(S, []).append((beta, bound))
    argmins = {}
    for S, pts in by_s.items():
        betas, bounds = zip(*pts)
        argmins[S] = betas[int(np.argmin(bounds))]
    assert len(set(argmins.values())) > 1
    assert argmins[10.0] != argmins[1000.0]


def test_reproduce_figure_interior_minimum_at_long_horizon():
    rows = [r for r in reproduce_figure(s_grid=[1000.0])]
    bounds = [b for _, _, b in rows]
    k = int(np.argmin(bounds))
    assert 0 < k < len(bounds) - 1


def test_reproduce_figure_rejects_empty():
    with pytest.raises(ValueError):
        reproduce_figure(beta_grid=[], s_grid=[10.0])


def test_flow_error_below_fitted_bound():
    # constant scheduler: fit C once at s = 2 and the bound must dominate
    # the measured optimization error on [2, 10]
    lq = lq_benchmark("discrete")
    tau = 0.5
    sched = Scheduler(kind="constant", tau=tau)
    traj = integrate_flow(lq, np.zeros((29, 5)), sched, S=10.0, dt=0.02,
                          probes=[14], record_every=25)
    sol = solve_regularized_hjb(lq, tau)
    err = traj.values_at_probe[:, 0] - sol.v_star.v[15]
    fit_idx = int(np.argmin(np.abs(traj.times - 2.0)))
    bound_unit = np.array([optimization_bound(sched, s)
                           for s in traj.times[1:]])
    C = err[fit_idx] / bound_unit[fit_idx - 1]
    assert np.all(err[fit_idx:] <= C * bound_unit[fit_idx - 1:] + 1e-12)


# bound points and growth integrals recorded before the per-call overhead
# came out of the bound layer; every bit must stay
FIGURE_BITS = [
    (0.02, 10.0, 0.04796636850060467), (0.02, 1e3, 0.12036603804723982),
    (0.02, 1e5, 0.1829012092926026), (0.5, 10.0, 0.5445076931209826),
    (0.5, 1e3, 0.12523967600131902), (0.5, 1e5, 0.019787093153271797),
    (0.98, 10.0, 1.1992061496858044), (0.98, 1e3, 0.8693988865982524),
    (0.98, 1e5, 0.7856076170472761)]


@pytest.mark.parametrize("beta, S, expect", FIGURE_BITS)
def test_reproduce_figure_bits(beta, S, expect):
    assert reproduce_figure([beta], [S]) == [(beta, S, expect)]


@pytest.mark.parametrize("sched, s, expect", [
    (Scheduler(kind="inverse_linear"), 1e4,
     (17.727733543395086, 9.210340371976184)),
    (Scheduler(kind="power_law", beta=0.5), 1e5,
     (636.2135796536594, 630.4586943034303))])
def test_growth_integrals_quadrature_bits(sched, s, expect):
    gi = growth_integrals_quadrature(sched, s)
    assert (gi.log_I1, gi.log_I2) == expect


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_bounds_reject_non_finite_time(s):
    pl = Scheduler(kind="power_law", beta=0.5)
    calls = [lambda: total_bound(pl, s), lambda: optimization_bound(pl, s),
             lambda: growth_integrals(pl, s),
             lambda: growth_integrals(Scheduler(kind="inverse_linear"), s),
             lambda: growth_integrals_quadrature(pl, s)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()
