import math

import numpy as np
import pytest

from exitflow import (build_grid, lq_benchmark, make_action_space,
                      make_problem, manufactured_problem)
from exitflow.domain import LQCoefficients, make_lq_problem


def test_build_grid_basic():
    g = build_grid(0.0, 1.0, 3)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.spacing == 0.25


def test_build_grid_single_interior():
    g = build_grid(0.0, 1.0, 1)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0])


def test_build_grid_wide():
    g = build_grid(-2.0, 2.0, 7)
    assert g.spacing == 0.5
    assert g.nodes.size == 9


@pytest.mark.parametrize("left,right,n", [
    (1.0, 0.0, 3), (0.0, 0.0, 3), (0.0, 1.0, 0),
    (math.nan, 1.0, 3), (0.0, math.inf, 3),
])
def test_build_grid_rejects(left, right, n):
    with pytest.raises(ValueError):
        build_grid(left, right, n)


def test_grid_uniform_spacing():
    g = build_grid(-1.5, 2.5, 57)
    steps = np.diff(g.nodes)
    assert np.all(np.abs(steps - g.spacing) <= 1e-14 * (g.right - g.left))
    assert g.nodes[0] == g.left and g.nodes[-1] == g.right


def test_discrete_actions_uniform_weights():
    a = make_action_space(values=[-1.0, 0.0, 1.0])
    assert a.kind == "discrete"
    assert np.allclose(a.mu_weights, 1.0 / 3.0)
    assert abs(a.mu_weights.sum() - 1.0) <= 1e-12


def test_gauss_legendre_two_point():
    a = make_action_space(alpha=-1.0, beta=1.0, n_quad=2)
    # degree-2 Legendre roots mapped to [-1, 1]
    assert np.allclose(np.sort(a.actions),
                       [-0.57735026918962576, 0.57735026918962576])
    assert np.allclose(a.mu_weights, [0.5, 0.5])


@pytest.mark.parametrize("alpha, beta", [(-math.inf, 1.0), (-1.0, math.nan),
                                         (math.nan, 1.0), (-1.0, math.inf)])
def test_interval_rejects_non_finite_ends(alpha, beta):
    # a NaN end also slips past the alpha < beta check
    with pytest.raises(ValueError, match="interval ends must be finite"):
        make_action_space(alpha=alpha, beta=beta, n_quad=4)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, -1.0),
                                         (0.0, 5e-324), (0.0, 2e-308),
                                         (-1e308, 1e308)])
def test_interval_rejects_empty_subnormal_or_overflowing_width(alpha, beta):
    # mu weights w * (beta - alpha)/2 / (beta - alpha) are all 0 on
    # [0, 5e-324], lose digits below the smallest normal width, and are
    # NaN once beta - alpha overflows
    with pytest.raises(ValueError, match="interval needs alpha < beta"):
        make_action_space(alpha=alpha, beta=beta, n_quad=4)
    tiny = np.finfo(float).tiny
    assert make_action_space(alpha=0.0, beta=tiny, n_quad=4).mu_weights.sum() \
        == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("values", [[[0.0, 1.0], [2.0, 3.0]], 3.0,
                                    [[0.5]]])
def test_discrete_actions_must_be_one_dimensional(values):
    # a 2-D list would give 2 actions but 4 weights, and a scalar no
    # n_actions at all
    with pytest.raises(ValueError, match="1-D"):
        make_action_space(values=values)


@pytest.mark.parametrize("n", [2.7, 3.0, "3", None])
def test_counts_must_be_integers(n):
    # refused, not truncated: 2.7 is not 2
    with pytest.raises(ValueError, match="n_interior must be an integer"):
        build_grid(0.0, 1.0, n)
    with pytest.raises(ValueError, match="n_quad must be an integer"):
        make_action_space(alpha=0.0, beta=1.0, n_quad=n)


def test_counts_accept_numpy_integers():
    assert build_grid(0.0, 1.0, np.int64(3)).n_interior == 3
    assert make_action_space(alpha=0.0, beta=1.0,
                             n_quad=np.int32(4)).n_actions == 4


def test_interval_rule_unchanged_by_mutating_a_copy():
    # the rule of each order is cached; callers get fresh arrays
    first = make_action_space(alpha=0.0, beta=2.0, n_quad=12)
    first.actions[:] = 0.0
    first.mu_weights[:] = 0.0
    again = make_action_space(alpha=0.0, beta=2.0, n_quad=12)
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(again.actions, x + 1.0)
    assert np.array_equal(again.mu_weights, w / 2.0)


@pytest.mark.parametrize("n_quad", [2, 3, 8, 32])
def test_interval_weights_normalized(n_quad):
    a = make_action_space(alpha=0.0, beta=2.0, n_quad=n_quad)
    assert abs(a.mu_weights.sum() - 1.0) <= 1e-12
    assert np.all(a.actions >= 0.0) and np.all(a.actions <= 2.0)
    assert np.all(a.mu_weights > 0.0)


@pytest.mark.parametrize("n_quad", [2, 3, 5])
def test_interval_quadrature_polynomial_exactness(n_quad):
    # n-node Gauss rule integrates monomials up to degree 2n-1 against the
    # uniform density
    a = make_action_space(alpha=-1.0, beta=3.0, n_quad=n_quad)
    for deg in range(2 * n_quad):
        exact = (3.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (4.0 * (deg + 1))
        approx = np.sum(a.mu_weights * a.actions ** deg)
        assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))


def test_action_space_rejects():
    with pytest.raises(ValueError):
        make_action_space(values=[])
    with pytest.raises(ValueError):
        make_action_space(alpha=1.0, beta=1.0, n_quad=4)
    with pytest.raises(ValueError):
        make_action_space(alpha=0.0, beta=1.0, n_quad=1)


def _const(v):
    return lambda x: v


def test_make_lq_problem_tabulation():
    grid = build_grid(0.0, 1.0, 5)
    actions = make_action_space(values=[-1.0, 0.5])
    lq = LQCoefficients(b_bar=_const(0.0), b_hat=_const(1.0),
                        c_bar=_const(1.0), c_hat=_const(0.5),
                        f_bar=_const(0.0), f_tilde=_const(0.0),
                        f_hat=_const(1.0))
    prob = make_lq_problem(lq, grid, actions, sigma=_const(1.0),
                           g=_const(0.0))
    assert prob.f(0.3, 0.5) == 0.25
    assert prob.b(0.3, -1.0) == -1.0
    # c = 1 + 0.5*a stays >= 0 at a = -1 (boundary of the check)
    assert prob.c(0.3, -1.0) == 0.5
    assert prob.b_tab.shape == (5, 2)
    assert np.allclose(prob.b_tab[:, 0], -1.0)


def test_make_lq_problem_rejects_bad_coefficients():
    grid = build_grid(0.0, 1.0, 5)
    actions = make_action_space(values=[-1.0, 1.0])
    bad_fhat = LQCoefficients(b_bar=_const(0.0), b_hat=_const(0.0),
                              c_bar=_const(0.0), c_hat=_const(0.0),
                              f_bar=_const(0.0), f_tilde=_const(0.0),
                              f_hat=_const(0.0))
    with pytest.raises(ValueError, match="f_hat"):
        make_lq_problem(bad_fhat, grid, actions, _const(1.0), _const(0.0))
    bad_c = LQCoefficients(b_bar=_const(0.0), b_hat=_const(0.0),
                           c_bar=_const(0.1), c_hat=_const(1.0),
                           f_bar=_const(0.0), f_tilde=_const(0.0),
                           f_hat=_const(1.0))
    with pytest.raises(ValueError, match="negative"):
        make_lq_problem(bad_c, grid, actions, _const(1.0), _const(0.0))


def test_make_lq_problem_checks_discount_at_interval_ends():
    # Gauss-Legendre nodes stop at +-0.9603 for n_quad = 8, where
    # c = 0.01 - 0.0102 * 0.9603 >= 0, but c(x, -1) = -0.0002
    grid = build_grid(0.0, 1.0, 29)
    actions = make_action_space(alpha=-1.0, beta=1.0, n_quad=8)
    lq = LQCoefficients(b_bar=_const(0.0), b_hat=_const(-5.0),
                        c_bar=_const(0.01), c_hat=_const(0.0102),
                        f_bar=_const(0.0), f_tilde=_const(0.0),
                        f_hat=_const(0.05))
    with pytest.raises(ValueError, match="discount c negative .* a=-1.0"):
        make_lq_problem(lq, grid, actions, _const(1.0), _const(0.0))


@pytest.mark.parametrize("n,values,n_quad", [
    (7, [0.0, 1.0], None), (7, None, 2), (7, None, 64), (40, None, 64)])
def test_lq_build_evaluates_maps_per_node(n, values, n_quad):
    # each LQ map is evaluated once per interior node whatever the number
    # of actions, and sigma once per grid node
    calls = {}

    def counted(name, value):
        def fn(x):
            calls[name] = calls.get(name, 0) + 1
            return value
        return fn

    lq = LQCoefficients(**{k: counted(k, 1.0) for k in (
        "b_bar", "b_hat", "c_bar", "c_hat", "f_bar", "f_tilde", "f_hat")})
    if values is None:
        actions = make_action_space(alpha=-0.5, beta=0.5, n_quad=n_quad)
    else:
        actions = make_action_space(values=values)
    prob = make_lq_problem(lq, build_grid(0.0, 1.0, n), actions,
                           sigma=counted("sigma", 1.0), g=_const(0.0))
    assert calls.pop("sigma") == n + 2
    assert calls == {k: n for k in calls} and len(calls) == 7
    assert prob.lq_tab.shape == (7, n)
    # both shared tables are read-only, so in-place arithmetic on a
    # derived array can never write into them
    for tab in (prob.lq_tab, prob.coef_tab):
        assert not tab.flags.writeable
    assert np.shares_memory(prob.sigma_interior, prob.sigma_nodes)


def test_f_sup_is_formed_once():
    prob = manufactured_problem(forcing="sine")
    assert "f_sup" not in vars(prob)
    assert prob.f_sup == float(np.max(np.abs(prob.f_tab)))
    # cached on the problem, as the stencil constants are
    assert vars(prob)["f_sup"] == prob.f_sup


def test_make_problem_rejects_degenerate_sigma():
    grid = build_grid(0.0, 1.0, 3)
    actions = make_action_space(values=[0.0])
    with pytest.raises(ValueError, match="sigma"):
        make_problem(grid, actions, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                     f=lambda x, a: 0.0, sigma=lambda x: 0.0,
                     g=lambda x: 0.0)


def test_lq_benchmark_shapes():
    d = lq_benchmark("discrete")
    assert d.actions.n_actions == 5 and d.n_interior == 29
    assert d.lq is not None
    assert manufactured_problem().lq_tab is None
    i = lq_benchmark("interval", n_quad=32)
    assert i.actions.kind == "interval"
    assert abs(i.actions.mu_weights.sum() - 1.0) <= 1e-12
