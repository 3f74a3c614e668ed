"""Invariants checked over random inputs drawn by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exitflow import (average_coefficients, gibbs_policy, kl_to_reference,
                      lq_benchmark, make_action_space, make_lq_problem,
                      pde_residual, performance_difference_check,
                      simulate_exit_value, solve_on_policy_bellman,
                      solve_regularized_hjb, solve_unregularized_hjb)
from exitflow.domain import LQCoefficients, build_grid
from exitflow.hamiltonian import softmin_table
from exitflow.kernels import thomas_solve, tridiag_apply

PROBLEMS = {"discrete": lq_benchmark("discrete", n_interior=9, n_actions=5),
            "interval": lq_benchmark("interval", n_interior=9, n_quad=12)}

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def dominant_systems(draw):
    """Tridiagonal bands with |diag| >= |lower| + |upper| + 0.1, and a rhs."""
    n = draw(st.integers(1, 200))
    band = hnp.arrays(np.float64, n, elements=unit)
    lower, upper, rhs = draw(band), draw(band), draw(band)
    margin = draw(hnp.arrays(np.float64, n,
                             elements=st.floats(0.1, 2.0)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    diag = sign * (np.abs(lower) + np.abs(upper) + margin)
    return lower, diag, upper, rhs


def _dense(lower, diag, upper):
    a = np.diag(diag)
    n = diag.size
    a[np.arange(1, n), np.arange(n - 1)] = lower[1:]
    a[np.arange(n - 1), np.arange(1, n)] = upper[:-1]
    return a


@settings(deadline=None)
@given(dominant_systems())
def test_thomas_matches_dense_solve(system):
    lower, diag, upper, rhs = system
    x = thomas_solve(lower, diag, upper, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12


@settings(deadline=None)
@given(dominant_systems())
def test_tridiag_apply_inverts_thomas(system):
    lower, diag, upper, rhs = system
    x = thomas_solve(lower, diag, upper, rhs)
    assert np.max(np.abs(tridiag_apply(lower, diag, upper, x) - rhs)) <= 1e-12


@st.composite
def features(draw):
    kind = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = PROBLEMS[kind]
    scale = draw(st.sampled_from([1e-3, 1.0, 1e2, 1e4]))
    z = draw(hnp.arrays(np.float64,
                        (problem.n_interior, problem.actions.n_actions),
                        elements=unit))
    return problem, scale * z


@settings(deadline=None)
@given(features())
def test_gibbs_rows_sum_to_one_and_kl_nonnegative(case):
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    assert np.all(pol.weights >= 0.0)
    assert np.max(np.abs(pol.weights.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(kl_to_reference(pol) >= -1e-12)


@settings(deadline=None)
@given(features())
def test_stacked_averages_are_convex_combinations(case):
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    b_bar, c_bar, forcing = average_coefficients(problem, pol, 0.5)
    f_bar = average_coefficients(problem, pol, 0.0)[2]
    kl = kl_to_reference(pol)
    assert np.all(kl >= -1e-12)
    assert np.array_equal(forcing, f_bar + 0.5 * kl)
    for bar, tab in ((b_bar, problem.b_tab), (c_bar, problem.c_tab),
                     (f_bar, problem.f_tab)):
        assert np.shares_memory(tab, problem.coef_tab)
        scale = 1e-12 * (1.0 + np.max(np.abs(tab)))
        assert np.max(np.abs(bar - np.sum(pol.weights * tab, axis=1))) <= scale
        assert np.all(bar >= tab.min(axis=1) - scale)
        assert np.all(bar <= tab.max(axis=1) + scale)


@settings(deadline=None)
@given(features(), st.floats(0.0, 10.0),
       st.sampled_from(["central", "upwind"]))
def test_solver_residual_contract(case, tau, scheme):
    """The value solve satisfies its own discrete equation."""
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    vf = solve_on_policy_bellman(problem, pol, tau, scheme)
    res = pde_residual(problem, pol, tau, vf, scheme)
    assert res <= 1e-10 * (1.0 + problem.f_sup)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 30), st.floats(1e-4, 10.0),
       hnp.arrays(np.float64, st.tuples(st.integers(1, 10), st.just(30)),
                  elements=st.floats(-1e3, 1e3)))
def test_softmin_sandwich(n_actions, tau, z):
    """min <= softmin <= min + tau*ln(N) under uniform weights."""
    z = z[:, :n_actions]
    soft = softmin_table(z, np.full(n_actions, 1.0 / n_actions), tau)
    low = z.min(axis=1)
    slack = 1e-12 * (1.0 + np.abs(low))
    assert np.all(soft >= low - slack)
    assert np.all(soft <= low + tau * np.log(n_actions) + slack)


@st.composite
def policy_pairs(draw):
    kind = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = PROBLEMS[kind]
    shape = (problem.n_interior, problem.actions.n_actions)
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    zp, zq = (draw(hnp.arrays(np.float64, shape, elements=unit))
              for _ in range(2))
    tau = draw(st.floats(0.01, 2.0))
    return (problem, gibbs_policy(scale * zp, problem.actions),
            gibbs_policy(scale * zq, problem.actions), tau)


@settings(deadline=None, max_examples=25)
@given(policy_pairs())
def test_performance_difference_identity(case):
    problem, p, q, tau = case
    vq = solve_on_policy_bellman(problem, q, tau)
    tol = 1e-8 * (1.0 + float(np.max(np.abs(vq.v))))
    assert performance_difference_check(problem, p, q, tau) <= tol


@st.composite
def lq_problems(draw):
    """Random LQ problems on 9 interior nodes, discrete or interval actions
    on [-1, 1], with cell Peclet numbers well below 2."""
    coef = {name: draw(st.floats(lo, hi)) for name, lo, hi in (
        ("b_bar", -1.0, 1.0), ("b_hat", 0.5, 1.5), ("c_bar", 0.05, 0.5),
        ("f_bar", 0.5, 2.0), ("f_tilde", -0.5, 0.5), ("f_hat", 0.5, 2.0),
        ("sigma", 0.8, 1.6))}
    if draw(st.booleans()):
        actions = make_action_space(values=np.linspace(-1.0, 1.0, 5))
    else:
        actions = make_action_space(alpha=-1.0, beta=1.0, n_quad=12)
    lq = LQCoefficients(
        b_bar=lambda x: coef["b_bar"], b_hat=lambda x: coef["b_hat"],
        c_bar=lambda x: coef["c_bar"], c_hat=lambda x: 0.0,
        f_bar=lambda x: coef["f_bar"], f_tilde=lambda x: coef["f_tilde"],
        f_hat=lambda x: coef["f_hat"])
    return make_lq_problem(lq, build_grid(0.0, 1.0, 9), actions,
                           sigma=lambda x: coef["sigma"], g=lambda x: 0.0)


@settings(deadline=None, max_examples=25)
@given(lq_problems(), st.floats(0.01, 2.0))
def test_unregularized_value_below_regularized(problem, tau):
    v0 = solve_unregularized_hjb(problem).v_star.v
    v_tau = solve_regularized_hjb(problem, tau).v_star.v
    assert np.all(v0 <= v_tau + 1e-8)


@settings(deadline=None, max_examples=25)
@given(features(), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.floats(0.0, 1.0))
def test_exit_value_repeats_bitwise_for_a_seed(case, seed, x0, tau):
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    a, b = (simulate_exit_value(problem, pol, x0, tau, 64, 1e-3, seed)
            for _ in range(2))
    assert (a.mean, a.stderr, a.mean_exit_time) == \
        (b.mean, b.stderr, b.mean_exit_time)
