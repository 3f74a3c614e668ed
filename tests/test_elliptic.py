import math

import numpy as np
import pytest

from exitflow import (average_coefficients, gibbs_policy, lq_benchmark,
                      make_action_space, make_problem, manufactured_problem,
                      pde_residual, performance_difference_check,
                      solve_on_policy_bellman, uniform_policy)
from exitflow.domain import build_grid
from exitflow.elliptic import SolverError, ValueField


@pytest.fixture(scope="module")
def lq():
    return lq_benchmark("discrete")


def test_average_symmetric_drift():
    grid = build_grid(0.0, 1.0, 4)
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    prob = make_problem(grid, acts, b=lambda x, a: a, c=lambda x, a: 0.0,
                        f=lambda x, a: 0.0, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    b_bar, _, forcing = average_coefficients(prob, uniform_policy(4, acts),
                                             1.0)
    assert np.max(np.abs(b_bar)) <= 1e-15
    # f = 0, so the forcing is the KL of the uniform policy alone
    assert np.max(np.abs(forcing)) <= 1e-14


def test_average_near_point_mass(lq):
    z = np.zeros((lq.n_interior, 5))
    z[:, 0] = 60.0
    b_bar, _, _ = average_coefficients(lq, gibbs_policy(z, lq.actions), 0.0)
    assert np.allclose(b_bar, lq.b_tab[:, 0], atol=1e-12)


def test_average_convex_combination():
    grid = build_grid(0.0, 1.0, 2)
    acts = make_action_space(values=[0.0, 1.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: 4.0 * a, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    pol = gibbs_policy(np.log(np.array([[0.5, 1.5], [0.5, 1.5]])), acts)
    _, _, f_bar = average_coefficients(prob, pol, 0.0)
    assert np.allclose(pol.weights, [[0.25, 0.75], [0.25, 0.75]])
    assert np.allclose(f_bar, 3.0)


def test_manufactured_quadratic_exact():
    # f = 2, sigma^2/2 = 1: v = x(1-x); central differences are exact on
    # quadratics, so the discrete solution is exact up to roundoff
    prob = manufactured_problem(n_interior=49)
    pol = uniform_policy(prob.n_interior, prob.actions)
    vf = solve_on_policy_bellman(prob, pol, 0.0)
    xs = prob.grid.interior
    assert np.max(np.abs(vf.v[1:-1] - xs * (1.0 - xs))) <= 1e-12
    assert abs(vf.v[25] - 0.25) <= 1e-12  # x = 0.5
    assert vf.v[0] == 0.0 and vf.v[-1] == 0.0


def test_manufactured_quarter_point():
    prob = manufactured_problem(n_interior=3)  # nodes at 0.25, 0.5, 0.75
    pol = uniform_policy(3, prob.actions)
    vf = solve_on_policy_bellman(prob, pol, 0.0)
    assert abs(vf.v[1] - 0.1875) <= 1e-14


def test_zero_data_zero_solution(lq):
    prob = manufactured_problem(n_interior=9)
    zero = make_problem(prob.grid, prob.actions, b=lambda x, a: 0.0,
                        c=lambda x, a: 0.0, f=lambda x, a: 0.0,
                        sigma=lambda x: 1.0, g=lambda x: 0.0)
    vf = solve_on_policy_bellman(zero, uniform_policy(9, zero.actions), 0.0)
    assert np.max(np.abs(vf.v)) <= 1e-15


def test_residual_detects_perturbation(lq):
    pol = uniform_policy(lq.n_interior, lq.actions)
    vf = solve_on_policy_bellman(lq, pol, 0.0)
    eps = 1e-4
    v = vf.v.copy()
    v[10] += eps
    bad = ValueField(v=v, dv=vf.dv)
    h = lq.grid.spacing
    sig2 = lq.sigma_interior[9] ** 2
    assert pde_residual(lq, pol, 0.0, bad) >= eps * sig2 / h ** 2 * 0.5


def test_residual_of_zero_field():
    prob = manufactured_problem(n_interior=9)
    one = make_problem(prob.grid, prob.actions, b=lambda x, a: 0.0,
                       c=lambda x, a: 0.0, f=lambda x, a: 1.0,
                       sigma=lambda x: 1.0, g=lambda x: 0.0)
    pol = uniform_policy(9, one.actions)
    zero = ValueField(v=np.zeros(11), dv=np.zeros(9))
    assert abs(pde_residual(one, pol, 0.0, zero) - 1.0) <= 1e-15


def test_mesh_convergence_second_order():
    # v = sin(pi x): max error ratios across n in {49, 99, 199} sit near 4
    errs = []
    for n in (49, 99, 199):
        prob = manufactured_problem(n_interior=n, forcing="sine")
        pol = uniform_policy(n, prob.actions)
        vf = solve_on_policy_bellman(prob, pol, 0.0)
        xs = prob.grid.interior
        errs.append(np.max(np.abs(vf.v[1:-1] - np.sin(math.pi * xs))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_comparison_principle(lq):
    # f_bar + tau*kl >= 0 and g >= 0 force v >= 0 under diagonal dominance
    rng = np.random.default_rng(9)
    for _ in range(10):
        pol = gibbs_policy(2.0 * rng.standard_normal((lq.n_interior, 5)),
                           lq.actions)
        vf = solve_on_policy_bellman(lq, pol, 0.5)
        assert np.min(vf.v) >= -1e-10


def test_peclet_violation_names_the_grid_remedy():
    grid = build_grid(0.0, 1.0, 19)
    acts = make_action_space(values=[1.0])
    prob = make_problem(grid, acts, b=lambda x, a: 200.0 * a,
                        c=lambda x, a: 0.0, f=lambda x, a: 1.0,
                        sigma=lambda x: 1.0, g=lambda x: 0.0)
    pol = uniform_policy(19, acts)
    with pytest.raises(SolverError,
                       match="Peclet number 10 .*grid.n_interior"):
        solve_on_policy_bellman(prob, pol, 0.0)


def test_performance_difference_identical_policies(lq):
    pol = uniform_policy(lq.n_interior, lq.actions)
    assert performance_difference_check(lq, pol, pol, 0.5) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_performance_difference_random_pairs(lq, seed):
    rng = np.random.default_rng(seed)
    p = gibbs_policy(rng.standard_normal((lq.n_interior, 5)), lq.actions)
    q = gibbs_policy(rng.standard_normal((lq.n_interior, 5)), lq.actions)
    vq = solve_on_policy_bellman(lq, q, 0.37)
    scale = 1e-8 * (1.0 + np.max(np.abs(vq.v)))
    assert performance_difference_check(lq, p, q, 0.37) <= scale
    assert performance_difference_check(lq, q, p, 0.37) <= scale


def test_performance_difference_singular_system(lq, monkeypatch):
    # the two value solves succeed; the third, the identity's own solve,
    # hits a zero pivot
    from exitflow import elliptic
    calls = []
    real = elliptic.thomas_solve

    def third_call_singular(*args):
        calls.append(1)
        if len(calls) == 3:
            raise ZeroDivisionError("singular tridiagonal system at row 0")
        return real(*args)

    monkeypatch.setattr(elliptic, "thomas_solve", third_call_singular)
    pol = uniform_policy(lq.n_interior, lq.actions)
    with pytest.raises(SolverError, match="singular"):
        performance_difference_check(lq, pol, pol, 0.5)
    assert len(calls) == 3


def test_dirichlet_data_respected():
    grid = build_grid(-1.0, 2.0, 15)
    acts = make_action_space(values=[0.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.5,
                        f=lambda x, a: 1.0, sigma=lambda x: 1.0,
                        g=lambda x: 3.0 - x)
    vf = solve_on_policy_bellman(prob, uniform_policy(15, acts), 0.0)
    assert vf.v[0] == 4.0 and vf.v[-1] == 1.0


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_tau_rejected(lq, tau):
    pol = uniform_policy(29, lq.actions)
    with pytest.raises(ValueError, match="tau must be nonnegative and finite"):
        solve_on_policy_bellman(lq, pol, tau)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        performance_difference_check(lq, pol, pol, tau)


def test_performance_difference_subnormal_tau(lq):
    # a subnormal tau is refused by name; 1e-300 still gives the identity
    pol = uniform_policy(29, lq.actions)
    with pytest.raises(ValueError,
                       match="tau must be positive and finite.*got 1e-310"):
        performance_difference_check(lq, pol, pol, 1e-310)
    q = gibbs_policy(np.random.default_rng(1).standard_normal((29, 5)),
                     lq.actions)
    assert performance_difference_check(lq, pol, q, 1e-300) <= 1e-12
