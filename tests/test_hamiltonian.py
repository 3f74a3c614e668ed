import math

import numpy as np
import pytest
from scipy.integrate import quad

from exitflow import (gibbs_policy, hard_hamiltonian,
                      interval_quadratic_softmin, lq_benchmark,
                      make_action_space, make_problem, soft_hamiltonian)
from exitflow.domain import DISCRETE, ActionSpace, build_grid, lq_feature
from exitflow.hamiltonian import hard_minimum, interval_quadratic_min


def _two_action_problem(z0, z1):
    grid = build_grid(0.0, 1.0, 1)
    acts = make_action_space(values=[0.0, 1.0])
    return make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: z1 if a == 1.0 else z0,
                        sigma=lambda x: 1.0, g=lambda x: 0.0)


def test_softmin_equal_values():
    prob = _two_action_problem(0.0, 0.0)
    assert abs(soft_hamiltonian(prob, 0.5, 0.0, 0.0, 1.0)) <= 1e-15


def test_softmin_frozen_value():
    # z = {0, 1}, tau = 1: -ln((1 + e^-1)/2)
    prob = _two_action_problem(0.0, 1.0)
    got = soft_hamiltonian(prob, 0.5, 0.0, 0.0, 1.0)
    assert abs(got - 0.37988549304172248) <= 1e-14


def test_softmin_small_tau_bound():
    prob = _two_action_problem(0.0, 1.0)
    got = soft_hamiltonian(prob, 0.5, 0.0, 0.0, 0.01)
    assert 0.0 <= got <= 0.01 * math.log(2.0) + 1e-12


def test_softmin_monotone_in_tau():
    prob = _two_action_problem(0.0, 0.7)
    vals = [soft_hamiltonian(prob, 0.5, 0.0, 0.0, t)
            for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_softmin_rejects_nonpositive_tau():
    prob = _two_action_problem(0.0, 1.0)
    with pytest.raises(ValueError):
        soft_hamiltonian(prob, 0.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("kind", ["discrete", "interval"])
@pytest.mark.parametrize("tau", [math.nan, math.inf, 1e-310, 5e-324])
def test_soft_hamiltonian_rejects_non_finite_tau(kind, tau):
    # a subnormal tau would overflow -z/tau; the interval branch divides
    # tau by 2*f_hat, and the message still names the tau passed in
    lq = lq_benchmark(kind, n_interior=5, n_quad=8)
    with pytest.raises(ValueError,
                       match=f"tau must be positive and finite.*got {tau!r}"):
        soft_hamiltonian(lq, 0.5, 0.0, 0.3, tau)


def test_interval_softmin_rejects_subnormal_tau():
    # lo^2 - hi^2 would be inf - inf, a silent nan
    with pytest.raises(ValueError, match="got 1e-310"):
        interval_quadratic_softmin(-2.0, 1e-310, -1.0, 1.0)


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_soft_hamiltonian_at_tiny_normal_tau_is_hard(kind):
    # tau = 1e-300 still divides safely and leaves the hard minimum exactly
    lq = lq_benchmark(kind, n_interior=9, n_quad=8)
    assert soft_hamiltonian(lq, 0.5, 0.2, 0.3, 1e-300) \
        == hard_hamiltonian(lq, 0.5, 0.2, 0.3)[0]
    for p in (-2.0, 0.3):
        assert interval_quadratic_softmin(p, 1e-300, -1.0, 1.0) \
            == interval_quadratic_min(p, -1.0, 1.0)


def test_hard_min_discrete_tie_breaks_small():
    grid = build_grid(0.0, 1.0, 1)
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: a * a, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    val, amin = hard_hamiltonian(prob, 0.5, 0.0, 0.0)
    assert val == 0.0 and amin == 0.0
    # symmetric tie at |a| = 1 when f = -a^2: smallest action wins
    prob2 = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                         f=lambda x, a: -a * a, sigma=lambda x: 1.0,
                         g=lambda x: 0.0)
    val, amin = hard_hamiltonian(prob2, 0.5, 0.0, 0.0)
    assert val == -1.0 and amin == -1.0


@pytest.mark.parametrize("p_shift,expected_a,expected_val", [
    (0.0, 0.0, 0.0),        # interior vertex
    (2.0, -1.0, -1.5),      # vertex -2 clamps to the left endpoint
    (0.5, -0.5, -0.125),    # interior vertex at -0.5
])
def test_hard_min_interval_lq(p_shift, expected_a, expected_val):
    lq = lq_benchmark("interval", alpha=-1.0, beta=1.0, n_quad=16)
    # z(a) = p*a + a^2 + f_bar - c_bar*u with u=0; rescale: the quadratic
    # p_shift*a + a^2/2 of the examples corresponds to f_hat = 1/2
    from exitflow.domain import LQCoefficients, make_lq_problem
    coeffs = LQCoefficients(b_bar=lambda x: 0.0, b_hat=lambda x: 1.0,
                            c_bar=lambda x: 0.0, c_hat=lambda x: 0.0,
                            f_bar=lambda x: 0.0, f_tilde=lambda x: 0.0,
                            f_hat=lambda x: 0.5)
    prob = make_lq_problem(coeffs, lq.grid, lq.actions,
                           sigma=lambda x: 1.0, g=lambda x: 0.0)
    val, amin = hard_hamiltonian(prob, 0.5, 0.0, p_shift)
    assert abs(amin - expected_a) <= 1e-12
    assert abs(val - expected_val) <= 1e-12


def test_hard_min_interval_lq_clamps_like_python_min_max():
    # a vertex of -0.0 at alpha = 0.0 stays -0.0, as min(max(a, alpha),
    # beta) leaves it (numpy's maximum would return 0.0), at one x and
    # over all nodes, so the selected actions print the same either way
    from exitflow.domain import LQCoefficients, make_lq_problem
    from exitflow.hamiltonian import lq_hard_minimum
    coeffs = LQCoefficients(b_bar=lambda x: 0.0, b_hat=lambda x: 1.0,
                            c_bar=lambda x: 0.0, c_hat=lambda x: 0.0,
                            f_bar=lambda x: 0.0, f_tilde=lambda x: 0.0,
                            f_hat=lambda x: 1.0)
    prob = make_lq_problem(coeffs, build_grid(0.0, 1.0, 3),
                           make_action_space(alpha=0.0, beta=1.0, n_quad=4),
                           sigma=lambda x: 1.0, g=lambda x: 0.0)
    val, amin = hard_hamiltonian(prob, 0.5, 0.0, 0.0)
    assert val == 0.0 and math.copysign(1.0, amin) == -1.0
    _, acts, _ = lq_hard_minimum(prob.lq_tab, np.zeros(3), np.zeros(3),
                                 0.0, 1.0)
    assert np.all(np.signbit(acts))


def test_hard_min_interval_generic_golden_section():
    # non-LQ action dependence: cos(a) on [0, 6], unique minimum at pi
    grid = build_grid(0.0, 1.0, 1)
    acts = make_action_space(alpha=0.0, beta=6.0, n_quad=24)
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: math.cos(a), sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    val, amin = hard_hamiltonian(prob, 0.5, 0.0, 0.0)
    # argmin resolution is sqrt(eps)-limited by the flatness of cos at pi
    assert abs(amin - math.pi) <= 5e-8
    assert abs(val + 1.0) <= 1e-12


def test_non_lq_closures_receive_python_floats():
    # tabulation and the golden-section search call b, c and f on Python
    # floats, not numpy scalars
    seen = []

    def recording(fn):
        def wrapped(x, a):
            seen.append((type(x), type(a)))
            return fn(x, a)
        return wrapped

    grid = build_grid(0.0, 1.0, 5)
    acts = make_action_space(alpha=-1.0, beta=1.0, n_quad=8)
    prob = make_problem(grid, acts,
                        b=recording(lambda x, a: 0.5 * a + 0.2 * x),
                        c=recording(lambda x, a: 0.1),
                        f=recording(lambda x, a: 1.0 + a * a
                                    + 0.1 * math.cos(3.0 * a)),
                        sigma=lambda x: 1.0, g=lambda x: 0.0)
    assert prob.lq is None
    assert len(seen) == 3 * 5 * 8
    assert set(seen) == {(float, float)}
    seen.clear()
    xs = prob.grid.interior
    u, p = np.linspace(0.0, 0.5, 5), np.linspace(-1.0, 1.0, 5)
    hard_minimum(prob, xs, u, p, prob.coef_tab, prob.lq_tab)
    assert len(seen) > 3 * 5
    assert set(seen) == {(float, float)}


def test_interval_softmin_frozen_value():
    # oracle: adaptive quadrature of the uniform average, then -tau*ln
    got = interval_quadratic_softmin(0.0, 0.5, -1.0, 1.0)
    assert abs(got - 0.14596277643814309) <= 1e-13


def test_interval_softmin_matches_quadrature_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0)
        tau = 10.0 ** rng.uniform(-2.0, 1.0)
        alpha, beta = -1.5, 0.8
        val, err = quad(lambda a: math.exp(-(p * a + 0.5 * a * a
                                             - interval_quadratic_min(p, alpha, beta)) / tau),
                        alpha, beta, epsabs=1e-13, epsrel=1e-12)
        oracle = interval_quadratic_min(p, alpha, beta) \
            - tau * math.log(val / (beta - alpha))
        assert abs(interval_quadratic_softmin(p, tau, alpha, beta) - oracle) \
            <= 1e-10 * (1.0 + abs(oracle))


def test_interval_softmin_large_tau_limit():
    # tau -> inf: uniform average of a^2/2 on [-1, 1] is 1/6
    got = interval_quadratic_softmin(0.0, 1000.0, -1.0, 1.0)
    assert abs(got - 1.0 / 6.0) <= 5e-5
    assert abs(got - 0.16665555590830688) <= 1e-10


def test_interval_softmin_small_tau_rate():
    # (h_tau - h)/(tau ln(1/tau)) stays bounded by ~1 down to 1e-4
    for tau in (1e-1, 1e-2, 1e-3, 1e-4):
        gap = interval_quadratic_softmin(0.0, tau, -1.0, 1.0) - (-0.0)
        assert 0.0 <= gap <= 1.0 * tau * math.log(1.0 / tau)


def test_interval_softmin_no_cancellation_far_out():
    # |p| large: both erf arguments share a sign; the erfcx path must stay
    # accurate and above the hard minimum
    for p in (5.0, 50.0, 500.0, -5.0, -50.0, -500.0):
        for tau in (1e-6, 1e-3, 1.0):
            soft = interval_quadratic_softmin(p, tau, -1.0, 1.0)
            hard = interval_quadratic_min(p, -1.0, 1.0)
            assert soft >= hard - 1e-9 * max(1.0, abs(hard))
            assert math.isfinite(soft)


@pytest.mark.parametrize("p, tau", [(10.0, 3e-308), (1e10, 1e-300)])
def test_interval_softmin_where_the_squared_limits_overflow(p, tau):
    # ((beta + p)/sqrt(2 tau))^2 overflows, so lo^2 - hi^2 would be
    # inf - inf; the softmin is then the hard minimum to rounding, since
    # tau*ln(1/tau) is below 1e-290, and the mirror image a -> -a agrees
    for q in (p, -p):
        soft = interval_quadratic_softmin(q, tau, -1.0, 1.0)
        hard = interval_quadratic_min(q, -1.0, 1.0)
        assert math.isfinite(soft)
        assert abs(soft - hard) <= 1e-12 * abs(hard)


@pytest.mark.parametrize("width", [5e-324, 1e-16, 1e-9, 1e-3])
def test_interval_softmin_narrow_interval(width):
    # minimum at an end of an interval so narrow that the erfcx difference
    # cancels; oracle: the average of exp(-(z - hard)/tau) over s in [0, 1]
    # at distance d = width*s from that end, and the mirror image a -> -a
    alpha = 0.3
    # the subnormal width stands for the next float above alpha
    beta = alpha + width if width > 1e-300 else np.nextafter(alpha, 1.0)
    for p in (-0.2, 0.0, 2.0):
        for tau in (1e-5, 1e-2, 1.0):
            w = beta - alpha
            val, _ = quad(lambda s: math.exp(-((p + alpha) * w * s
                                               + 0.5 * (w * s) ** 2) / tau),
                          0.0, 1.0, epsabs=0.0, epsrel=1e-13)
            oracle = p * alpha + 0.5 * alpha * alpha - tau * math.log(val)
            for got in (interval_quadratic_softmin(p, tau, alpha, beta),
                        interval_quadratic_softmin(-p, tau, -beta, -alpha)):
                assert abs(got - oracle) <= 1e-13 * (1.0 + abs(oracle))


def _softmin_512(problem, x, u, p, tau):
    """Softmin of b*p - c*u + f on a pinned 512-node rule over [-1, 1]."""
    acts = make_action_space(alpha=-1.0, beta=1.0, n_quad=512)
    z = [problem.b(x, a) * p - problem.c(x, a) * u + problem.f(x, a)
         for a in acts.actions]
    return float(-tau * gibbs_policy(-np.array([z]) / tau,
                                     acts).log_partition[0])


def _closed_form(problem, x, u, p, tau):
    """The LQ softmin on [-1, 1] from ``lq_feature``: z(a) = const +
    2*f_hat*(p_t*a + a^2/2), so H_tau = const + 2*f_hat times the
    interval profile at p_t = slope/(2*f_hat), weight tau/(2*f_hat)."""
    const, slope, f_hat = lq_feature(problem.lq.at(x), p, u)
    two_fhat = 2.0 * f_hat
    return const + two_fhat * interval_quadratic_softmin(
        slope / two_fhat, tau / two_fhat, -1.0, 1.0)


def test_lq_reduction_consistency():
    # closed form through the reduction == direct softmin quadrature
    lq = lq_benchmark("interval", alpha=-1.0, beta=1.0, n_quad=64)
    for tau in (1.0, 0.1, 1e-2, 1e-3):
        for p in (-2.0, 0.0, 1.5):
            direct = _softmin_512(lq, 0.5, 0.2, p, tau)
            closed = _closed_form(lq, 0.5, 0.2, p, tau)
            assert abs(direct - closed) <= 1e-8 * (1.0 + abs(closed))


def test_quadrature_matches_closed_form_across_tau():
    # soft_hamiltonian (the exact error-function profile) against a pinned
    # 512-node quadrature of the softmin
    lq = lq_benchmark("interval", alpha=-1.0, beta=1.0, n_quad=32)
    for tau in (1e-1, 1e-2, 1e-3):
        for p in (-2.0, -0.5, 0.0, 0.9, 2.5):
            direct = _softmin_512(lq, 0.5, 0.2, p, tau)
            closed = soft_hamiltonian(lq, 0.5, 0.2, p, tau)
            assert abs(direct - closed) <= 1e-8
    # pinned 512-node rule resolves tau down to 1e-4
    for tau in (1e-3, 1e-4):
        for p in (-2.0, 0.0, 2.5):
            direct = _softmin_512(lq, 0.5, 0.2, p, tau)
            closed = _closed_form(lq, 0.5, 0.2, p, tau)
            assert abs(direct - closed) <= 1e-8


def test_soft_hamiltonian_switches_to_closed_form():
    lq = lq_benchmark("interval", alpha=-1.0, beta=1.0, n_quad=8)
    # at tau = 1e-5 the 8-node rule would be far off; the closed form
    # keeps the sandwich tight
    tau = 1e-5
    soft = soft_hamiltonian(lq, 0.5, 0.0, 0.3, tau)
    hard, _ = hard_hamiltonian(lq, 0.5, 0.0, 0.3)
    assert -1e-10 <= soft - hard <= 2.0 * tau * math.log(1.0 / tau)


def test_discrete_bias_gap_bound():
    lq = lq_benchmark("discrete")
    rng = np.random.default_rng(4)
    samples = [(rng.uniform(0.1, 0.9), rng.uniform(-1, 1), rng.uniform(-3, 3))
               for _ in range(100)]
    tau = 0.1
    gap = max(soft_hamiltonian(lq, x, u, p, tau)
              - hard_hamiltonian(lq, x, u, p)[0] for x, u, p in samples)
    assert -1e-10 <= gap <= tau * math.log(5.0) + 1e-10


def test_discrete_bias_gap_saturates():
    # z = {0, M} with M >> tau: the far action's weight vanishes and the
    # gap approaches tau*ln 2
    tau = 0.05
    prob = _two_action_problem(0.0, 100.0 * tau)
    gap = soft_hamiltonian(prob, 0.5, 0.0, 0.0, tau) \
        - hard_hamiltonian(prob, 0.5, 0.0, 0.0)[0]
    assert abs(gap - tau * math.log(2.0)) <= 1e-6 * tau * math.log(2.0)


def test_log_partition_softmin_matches_scalar():
    w = np.array([0.25, 0.25, 0.5])
    z = np.array([[0.3, -0.2, 1.0], [5.0, 5.0, 5.0]])
    acts = ActionSpace(kind=DISCRETE, actions=np.arange(3.0), mu_weights=w)
    out = -0.7 * gibbs_policy(-z / 0.7, acts).log_partition
    for i in range(2):
        direct = -0.7 * math.log(sum(wk * math.exp(-zk / 0.7)
                                     for wk, zk in zip(w, z[i])))
        assert abs(out[i] - direct) <= 1e-12



@pytest.mark.parametrize("tau", [1e-5, 1e-3, 0.01, 0.7])
def test_interval_lq_soft_hamiltonian_is_the_closed_form(tau):
    # every tau takes the error-function profile, bit for bit, and no
    # Gauss-Legendre rule is built on the way
    from exitflow import domain
    lq = lq_benchmark("interval", alpha=-1.0, beta=1.0, n_quad=8)
    misses = domain._gauss_legendre.cache_info().misses
    for p in (-2.0, 0.0, 0.7, 2.5):
        closed = _closed_form(lq, 0.5, 0.2, p, tau)
        assert soft_hamiltonian(lq, 0.5, 0.2, p, tau) == closed
    assert domain._gauss_legendre.cache_info().misses == misses


def test_soft_hamiltonian_rejects_non_lq_interval():
    prob = make_problem(build_grid(0.0, 1.0, 1),
                        make_action_space(alpha=0.0, beta=6.0, n_quad=24),
                        b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: math.cos(a), sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    with pytest.raises(ValueError):
        soft_hamiltonian(prob, 0.5, 0.0, 0.0, 0.1)


def _non_lq_problem(kind):
    actions = make_action_space(alpha=-1.0, beta=1.0, n_quad=64) \
        if kind == "interval" else make_action_space(
            values=np.linspace(-1.0, 1.0, 7))
    return make_problem(build_grid(0.0, 1.0, 15), actions,
                        b=lambda x, a: 0.5 * a + 0.2 * x,
                        c=lambda x, a: 0.1,
                        f=lambda x, a: 1.0 + (1.2 + x) * a * a
                        + 0.1 * math.cos(3.0 * a),
                        sigma=lambda x: 1.0, g=lambda x: 0.0)


HAM_SAMPLES = [(0.3, 0.2, -1.0, 0.1), (0.71, 1.3, 2.5, 1e-3),
               (0.5, 0.0, 0.0, 1.0), (0.12, -0.4, 0.7, 0.03)]
# (hard minimum, its action, softmin) per sample, recorded when the
# pointwise Hamiltonians still went through the (3, 1, N) tables
HAM_BITS = {
    "discrete": [
        (0.73, 0.5, 0.8757390530977391),
        (-0.6299999999999999, -1.0, -0.6283905620875657),
        (1.0, 0.0, 1.4175294560304685),
        (0.9400000000000001, -0.5, 0.987231517974262)],
    "interval": [
        (0.73, 0.5, 0.9958369145252159),
        (-0.6924999999999999, -1.25, -0.6875390457617537),
        (1.0, -0.0, 2.507076614172394),
        (0.9175000000000001, -0.35, 1.0153106664224538)],
    "non_lq_discrete": [
        (0.9740302305868138, 0.33333333333333326, 1.112071923446148),
        (1.0745857861423693, -0.33333333333333337, 1.0765316962914246),
        (1.1, 0.0, 1.5961974457796053),
        (1.1408302305868139, -0.33333333333333337, 1.1853302083754558)],
    "non_lq_interval": [
        (0.961474401202389, 0.23041676398184704, None),
        (1.066835403744313, -0.4004612275509998, None),
        (1.1, 1.3973642287675737e-08, None),
        (1.1221140129997702, -0.19545491267173237, None)]}


@pytest.mark.parametrize("name", list(HAM_BITS))
def test_pointwise_hamiltonian_bits(name):
    problem = lq_benchmark(name) if name in ("discrete", "interval") \
        else _non_lq_problem(name.rsplit("_", 1)[1])
    for (x, u, p, tau), (ham, act, soft) in zip(HAM_SAMPLES, HAM_BITS[name]):
        got = hard_hamiltonian(problem, x, u, p)
        # hex tells -0.0 from 0.0
        assert [v.hex() for v in got] == [ham.hex(), act.hex()]
        if soft is not None:
            assert soft_hamiltonian(problem, x, u, p, tau).hex() == soft.hex()
