"""Invariants checked over random inputs drawn by hypothesis."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exitflow import (Scheduler, SolverError, average_coefficients,
                      gibbs_policy, growth_integrals,
                      growth_integrals_quadrature, lq_benchmark,
                      make_action_space, make_lq_problem,
                      optimal_feature, regularized_path,
                      simulate_exit_value, solve_on_policy_bellman,
                      solve_regularized_hjb, solve_unregularized_hjb)
from exitflow import bounds, kernels
from exitflow.config import _poly
from exitflow.domain import (LQCoefficients, _tabulate, build_grid,
                             lq_feature)
from exitflow.elliptic import ValueField, diffusion
from exitflow.hjb import default_tolerance
from exitflow.hamiltonian import (_hard_minimum, hard_hamiltonian,
                                  soft_hamiltonian)
from exitflow.kernels import thomas_solve
from exitflow.policy import _GibbsPolicy
from identities import (comparison_slack, non_lq_problem,
                        on_policy_residual, performance_difference_check)

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
    x = thomas_solve(lower.tolist(), diag.tolist(), upper.tolist(),
                     rhs.tolist())
    ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12


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
    assert np.all(pol.kl >= -1e-12)


@settings(deadline=None)
@given(features())
def test_gibbs_policy_leaves_features_alone(case):
    """The Gibbs map writes only arrays of its own: z keeps its bits, and
    no two of z and the policy's arrays share memory."""
    problem, z = case
    before = z.tobytes()
    pol = gibbs_policy(z, problem.actions)
    assert z.tobytes() == before
    arrays = (z, pol.weights, pol.log_density, pol.log_partition)
    for i, one in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(one, other)


# entries that tie: signed zeros and repeated values, among others
tying = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                  st.floats(-40.0, 40.0))


@st.composite
def feature_tables(draw):
    """A table of 1 x 1 to 40 x 130 tying entries in C or F order, and
    an action space with one node per column."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 130)))
    z = draw(hnp.arrays(np.float64, shape, elements=tying))
    order = draw(st.sampled_from("CF"))
    actions = make_action_space(values=np.linspace(-1.0, 1.0, shape[1]))
    return np.asarray(z, order=order), actions


@settings(deadline=None)
@given(feature_tables(), st.booleans())
def test_gibbs_row_maximum_keeps_the_bits_of_reduce(case, overwrite):
    # the reference takes the row maximum by np.maximum.reduce on any order
    z, actions = case
    m = np.maximum.reduce(z, axis=1)
    ref = _GibbsPolicy(z - m[:, None], m, actions)
    pol = gibbs_policy(z.copy(order="K"), actions, overwrite=overwrite)
    for name in ("log_partition", "kl", "weights", "log_density",
                 "moments"):
        got, want = getattr(pol, name), getattr(ref, name)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


@settings(deadline=None)
@given(feature_tables(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.integers(0))
def test_gibbs_rejects_non_finite_features(case, bad, at):
    z, actions = case
    z.flat[at % z.size] = bad
    with pytest.raises(ValueError, match="non-finite"):
        gibbs_policy(z, actions)


@settings(deadline=None)
@given(features())
def test_stacked_averages_are_convex_combinations(case):
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    b_bar, c_bar, forcing = average_coefficients(problem, pol, 0.5)
    f_bar = average_coefficients(problem, pol, 0.0)[2]
    kl = pol.kl
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
@given(features(), st.floats(0.0, 10.0))
def test_solver_residual_contract(case, tau):
    """The value solve satisfies its own discrete equation."""
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    vf = solve_on_policy_bellman(problem, pol, tau)
    res = on_policy_residual(problem, pol, tau, vf)
    assert res <= 1e-10 * (1.0 + problem.f_sup)


@settings(deadline=None)
@given(features(), st.floats(0.0, 10.0), st.floats(0.0, 4.0),
       st.sampled_from([-1.0, 1.0]))
def test_peclet_gate(case, tau, target, sign):
    """The value solve fails exactly when a cell Peclet number of b_bar
    exceeds 1, and otherwise satisfies its own discrete equation."""
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    # a drift bounded away from 0, scaled so the largest Peclet number of
    # its policy average is about target
    h, sig2 = problem.grid.spacing, problem.sigma_interior ** 2
    drift = sign * (1.0 + np.abs(problem.b_tab))
    peclet = np.max(np.abs(np.sum(pol.weights * drift, axis=1)) * h / sig2)
    coef_tab = problem.coef_tab.copy()
    coef_tab[0] = (target / peclet) * drift
    # the scaled drift is not affine in the action: averages over the table
    problem = replace(problem, coef_tab=coef_tab, lq_tab=None)
    b_bar = average_coefficients(problem, pol, tau)[0]
    if np.max(np.abs(b_bar) * h / sig2) > 1.0:
        with pytest.raises(SolverError, match="Peclet"):
            solve_on_policy_bellman(problem, pol, tau)
        return
    vf = solve_on_policy_bellman(problem, pol, tau)
    res = on_policy_residual(problem, pol, tau, vf)
    assert res <= 1e-10 * (1.0 + problem.f_sup)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 30), st.floats(1e-4, 10.0),
       hnp.arrays(np.float64, st.tuples(st.integers(1, 10), st.just(30)),
                  elements=st.floats(-1e3, 1e3)))
def test_softmin_sandwich(n_actions, tau, z):
    """min <= softmin <= min + tau*ln(N) under uniform weights."""
    z = z[:, :n_actions]
    actions = make_action_space(values=np.arange(n_actions))
    soft = -tau * gibbs_policy(-z / tau, actions).log_partition
    low = z.min(axis=1)
    slack = 1e-12 * (1.0 + np.abs(low))
    assert np.all(soft >= low - slack)
    assert np.all(soft <= low + tau * np.log(n_actions) + slack)


@settings(deadline=None)
@given(features(), st.floats(1e-3, 10.0))
def test_gibbs_variational_identity(case, tau):
    """H_tau = -tau*log_partition of the Gibbs image of -z/tau equals
    <pi, z> + tau*KL(pi|mu) at that image."""
    problem, z = case
    pol = gibbs_policy(-z / tau, problem.actions)
    ham = -tau * pol.log_partition
    rhs = np.einsum("ik,ik->i", pol.weights, z) + tau * pol.kl
    assert np.all(np.abs(ham - rhs) <= 1e-12 * (1.0 + np.abs(ham)))


@st.composite
def interval_lq_features(draw):
    """A random interval LQ problem and a feature matrix on it, at a
    scale from 1e-3 to 10, with some rows made near one-hot by a spike
    on one action node (800 underflows every other weight to zero)."""
    _, problem = draw(lq_maps_problems("interval"))
    n, n_actions = problem.n_interior, problem.actions.n_actions
    scale = 10.0 ** draw(st.floats(-3.0, 1.0))
    z = scale * draw(hnp.arrays(np.float64, (n, n_actions), elements=unit))
    spikes = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [0.0, 0.0, 5.0, 40.0, 800.0])))
    cols = draw(hnp.arrays(np.int64, n,
                           elements=st.integers(0, n_actions - 1)))
    z[np.arange(n), cols] += spikes
    return problem, z


@settings(deadline=None)
@given(interval_lq_features())
def test_moment_averages_match_the_weights(case):
    """On interval LQ problems the averages come from the two action
    moments, without the weights; they agree with the contraction of the
    tables with the weights, which, read afterwards, have the bits of the
    eager Gibbs formulas, as have the log-densities."""
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    averages = average_coefficients(problem, pol, 0.0)
    assert "weights" not in vars(pol)
    mu = problem.actions.mu_weights
    shifted = z - z.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    norm = weights @ mu
    weights *= mu
    weights /= norm[:, None]
    log_density = shifted - np.log(norm)[:, None]
    assert pol.weights.tobytes() == weights.tobytes()
    assert pol.log_density.tobytes() == log_density.tobytes()
    for bar, tab in zip(averages, problem.coef_tab):
        ref = np.einsum("ik,ik->i", tab, weights)
        assert np.max(np.abs(bar - ref)) \
            <= 1e-13 * (1.0 + np.max(np.abs(tab)))
    kl = pol.kl
    assert np.all(kl >= -1e-12)
    assert np.max(np.abs(kl - np.einsum("ik,ik->i", weights, log_density))) \
        <= 1e-13


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
def lq_problems(draw, kind=None):
    """Random LQ problems on 9 interior nodes, discrete or interval actions
    on [-1, 1] (or the given ``kind``), with cell Peclet numbers below 0.4."""
    coef = {name: draw(st.floats(lo, hi)) for name, lo, hi in (
        ("b_bar", -1.0, 1.0), ("b_hat", 0.5, 1.5), ("c_bar", 0.05, 0.5),
        ("f_bar", 0.5, 2.0), ("f_tilde", -0.5, 0.5), ("f_hat", 0.5, 2.0),
        ("sigma", 0.8, 1.6))}
    discrete = draw(st.booleans()) if kind is None else kind == "discrete"
    if discrete:
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
@given(lq_problems())
def test_regularized_path_meets_the_cold_solves(problem):
    # the 21-tau ladder 1/(1+s), s = 0..20, of an annealed run-flow
    taus = [1.0 / (1.0 + s) for s in range(21)]
    tol = default_tolerance(problem)
    slack = comparison_slack(problem, tol)
    path = list(regularized_path(problem, taus))
    cold = [solve_regularized_hjb(problem, tau) for tau in taus]
    for warm, ref in zip(path, cold, strict=True):
        assert warm.final_residual <= tol
        assert np.max(np.abs(warm.v_star.v - ref.v_star.v)) <= slack
    assert sum(sol.iterations for sol in path) \
        < sum(sol.iterations for sol in cold)


@pytest.mark.parametrize("kind", ["discrete", "interval"])
@settings(deadline=None, max_examples=25)
@given(st.data())
def test_regularized_path_falls_with_tau_to_howard(kind, data):
    # along a decreasing ladder v*_tau falls with tau and stays above
    # Howard's v*_0 (ROADMAP aim 3), each within the comparison slack of
    # two solves at residual tol
    problem = data.draw(lq_problems(kind))
    taus = sorted(data.draw(st.lists(st.floats(0.01, 2.0), min_size=2,
                                     max_size=8, unique=True)), reverse=True)
    tol = default_tolerance(problem)
    slack = comparison_slack(problem, tol)
    values = [sol.v_star.v for sol in regularized_path(problem, taus)]
    for upper, lower in zip(values, values[1:]):
        assert np.all(lower <= upper + slack)
    howard = solve_unregularized_hjb(problem)
    assert howard.final_residual <= tol
    assert np.all(howard.v_star.v <= values[-1] + slack)


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


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@st.composite
def lq_maps_problems(draw, kind=None, min_interior=1):
    """LQ problems whose seven maps are config polynomials of degree <= 2
    in x (constants included), with f_hat > 0 and c >= 0 on random
    discrete or interval action sets inside [-1.2, 1.2], on grids of
    ``min_interior`` to 12 interior nodes.  A test that solves for values
    asks for at least 7, as the cell Peclet gate of the value solve
    needs: |b| <= 3 + 4 * 1.2 = 7.8 on [0, 1] and sigma = 1, so
    h <= 1/8 keeps |b| h / sigma^2 <= 1."""
    def poly(lo, hi, spread):
        coeffs = [draw(st.floats(lo, hi))]
        coeffs += [draw(st.floats(-spread, spread))
                   for _ in range(draw(st.integers(0, 2)))]
        return coeffs

    raw = {"b_bar": poly(-1.0, 1.0, 1.0), "b_hat": poly(-2.0, 2.0, 1.0),
           "c_bar": poly(0.6, 1.0, 0.1), "c_hat": poly(-0.1, 0.1, 0.1),
           "f_bar": poly(-1.0, 1.0, 1.0), "f_tilde": poly(-1.0, 1.0, 1.0),
           "f_hat": poly(0.5, 2.0, 0.2)}
    lq = LQCoefficients(**{k: _poly(v) for k, v in raw.items()})
    if (kind or draw(st.sampled_from(["discrete", "interval"]))) \
            == "discrete":
        actions = make_action_space(values=draw(st.lists(
            st.floats(-1.2, 1.2), min_size=1, max_size=6)))
    else:
        alpha, beta = sorted(draw(st.lists(
            st.floats(-1.2, 1.2), min_size=2, max_size=2, unique=True)))
        actions = make_action_space(alpha=alpha, beta=beta,
                                    n_quad=draw(st.integers(2, 16)))
    grid = build_grid(0.0, 1.0, draw(st.integers(min_interior, 12)))
    return lq, make_lq_problem(lq, grid, actions, sigma=_poly([1.0]),
                               g=_poly([0.0]))


def _value_field(draw, n):
    v = draw(hnp.arrays(np.float64, n + 2, elements=st.floats(-3.0, 3.0)))
    return ValueField(v=v, dv=(v[2:] - v[:-2]) / (2.0 / (n + 1)))


@settings(deadline=None)
@given(lq_maps_problems())
def test_lq_table_matches_closure_tabulation(case):
    # the per-node LQ values broadcast over the actions give the same
    # bytes as evaluating the coefficient maps at every (x, a) pair
    lq, problem = case
    xs, acts = problem.grid.interior, problem.actions.actions
    reference = (lambda x, a: lq.b_bar(x) + lq.b_hat(x) * a,
                 lambda x, a: lq.c_bar(x) + lq.c_hat(x) * a,
                 lambda x, a: lq.f_bar(x) + lq.f_tilde(x) * a
                 + lq.f_hat(x) * a * a)
    for fns in (reference, (problem.b, problem.c, problem.f)):
        table = np.stack([_tabulate(fn, xs, acts) for fn in fns])
        assert problem.coef_tab.tobytes() == table.tobytes()


@settings(deadline=None)
@given(st.data())
def test_interval_lq_howard_step_matches_per_node_minimum(data):
    # Howard's per-node vector step equals hard_hamiltonian at each node,
    # and both equal the clamped vertex written with Python's min and max
    lq, problem = data.draw(lq_maps_problems("interval"))
    vf = _value_field(data.draw, problem.n_interior)
    alpha, beta = problem.actions.alpha, problem.actions.beta
    ham, acts, selected = _hard_minimum(
        problem, problem.grid.interior, vf.interior, vf.dv,
        problem.coef_tab, problem.lq_tab)
    for i, x in enumerate(problem.grid.interior):
        u, p = vf.interior[i], vf.dv[i]
        node_ham, node_a = hard_hamiltonian(problem, x, u, p)
        slope = lq.b_hat(x) * p - lq.c_hat(x) * u + lq.f_tilde(x)
        a = min(max(-slope / (2.0 * lq.f_hat(x)), alpha), beta)
        ref = problem.b(x, a) * p - problem.c(x, a) * u + problem.f(x, a)
        assert _bits([ham[i], acts[i]]) == _bits([node_ham, node_a]) \
            == _bits([ref, a])
    for row, fn in zip(selected, (problem.b, problem.c, problem.f)):
        assert _bits(row) == _bits([fn(x, a) for x, a
                                    in zip(problem.grid.interior, acts)])


@settings(deadline=None)
@given(st.data())
def test_discrete_selected_coefficients_match_closures(data):
    lq, problem = data.draw(lq_maps_problems("discrete"))
    vf = _value_field(data.draw, problem.n_interior)
    ham, acts, selected = _hard_minimum(
        problem, problem.grid.interior, vf.interior, vf.dv,
        problem.coef_tab, problem.lq_tab)
    cols = np.argmin(optimal_feature(problem, vf), axis=1)
    assert _bits(acts) == _bits(problem.actions.actions[cols])
    assert _bits(ham) == _bits(optimal_feature(problem, vf).min(axis=1))
    for row, fn in zip(selected, (problem.b, problem.c, problem.f)):
        assert _bits(row) == _bits([fn(x, a) for x, a
                                    in zip(problem.grid.interior, acts)])


NON_LQ_INTERVAL = non_lq_problem()


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_howard_step_matches_pointwise_hamiltonian(data):
    # the discrete and the non-LQ interval rules: hard_hamiltonian at each
    # interior node gives Howard's per-node value and action bit for bit
    if data.draw(st.booleans()):
        _, problem = data.draw(lq_maps_problems("discrete"))
    else:
        problem = NON_LQ_INTERVAL
    vf = _value_field(data.draw, problem.n_interior)
    ham, acts, _ = _hard_minimum(
        problem, problem.grid.interior, vf.interior, vf.dv,
        problem.coef_tab, problem.lq_tab)
    for i, x in enumerate(problem.grid.interior):
        assert _bits(hard_hamiltonian(problem, x, vf.interior[i], vf.dv[i])) \
            == _bits([ham[i], acts[i]])


@settings(deadline=None)
@given(st.data())
def test_interval_lq_soft_hamiltonian_sandwich(data):
    # hard minimum <= H_tau <= the uniform mean of z over [alpha, beta]
    # (Jensen), and H_tau is nondecreasing in tau
    lq, problem = data.draw(lq_maps_problems("interval"))
    x = data.draw(st.floats(0.0, 1.0))
    u, p = (data.draw(st.floats(-3.0, 3.0)) for _ in range(2))
    tau_lo, tau_hi = sorted(data.draw(st.floats(1e-4, 1.0)) for _ in range(2))
    alpha, beta = problem.actions.alpha, problem.actions.beta
    hard, _ = hard_hamiltonian(problem, x, u, p)
    soft_lo, soft_hi = (soft_hamiltonian(problem, x, u, p, tau)
                        for tau in (tau_lo, tau_hi))
    k0 = lq.b_bar(x) * p - lq.c_bar(x) * u + lq.f_bar(x)
    k1 = lq.b_hat(x) * p - lq.c_hat(x) * u + lq.f_tilde(x)
    mean = k0 + k1 * (alpha + beta) / 2.0 + lq.f_hat(x) \
        * (alpha * alpha + alpha * beta + beta * beta) / 3.0
    tol = 1e-12 * (1.0 + abs(hard) + abs(mean))
    assert hard <= soft_lo + tol
    assert soft_lo <= soft_hi + tol
    assert soft_hi <= mean + tol


@settings(deadline=None, max_examples=25)
@given(lq_maps_problems("discrete", min_interior=7), st.floats(0.01, 2.0))
def test_policy_iteration_residual_is_pointwise_softmin(case, tau):
    # the final residual, formed from the log-partition of the improved
    # policy, matches the one rebuilt from soft_hamiltonian node by node
    _, problem = case
    sol = solve_regularized_hjb(problem, tau)
    vf = sol.v_star
    ham = np.array([soft_hamiltonian(problem, x, u, p, tau) for x, u, p
                    in zip(problem.grid.interior, vf.interior, vf.dv)])
    res = float(np.max(np.abs(diffusion(problem, vf) + ham)))
    assert abs(res - sol.final_residual) \
        <= 1e-12 * (1.0 + float(np.max(np.abs(ham))))


@settings(deadline=None)
@given(st.data())
def test_lq_feature_matches_closures(data):
    # z0 + z1*a + z2*a^2 is b*p - c*u + f evaluated through the closures
    lq, problem = data.draw(lq_maps_problems())
    x, a = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(-1.2, 1.2))
    u, p = (data.draw(st.floats(-3.0, 3.0)) for _ in range(2))
    z0, z1, z2 = lq_feature(lq.at(x), p, u)
    terms = (problem.b(x, a) * p, problem.c(x, a) * u, problem.f(x, a))
    ref = terms[0] - terms[1] + terms[2]
    scale = sum(abs(t) for t in terms) + abs(z1 * a) + abs(z2 * a * a)
    assert abs(z0 + z1 * a + z2 * a * a - ref) <= 1e-14 * (1.0 + scale)


@given(st.floats(0.0, 1e300), st.integers(1, 1 << 16))
@example(5e-324, 8)  # the step underflows to zero
@example(0.0, 8)
@example(1e5, 1 << 16)
def test_panel_edges_are_linspace(s, n):
    edges = bounds._panel_edges(s, n)
    assert edges.tobytes() == np.linspace(0.0, s, n + 1).tobytes()


@settings(deadline=None)
@given(st.floats(0.02, 2.0), st.floats(1.0, 1e4))
def test_power_law_growth_integrals(beta, s):
    # the closed-form I2 and windowed I1 agree with full-domain quadrature,
    # and I2/I1 lies between tau_s and tau_0
    sched = Scheduler(kind="power_law", beta=beta)
    gi = growth_integrals(sched, s)
    q = growth_integrals_quadrature(sched, s)
    assert abs(gi.log_I1 - q.log_I1) <= 1e-9 * (1.0 + abs(q.log_I1))
    assert abs(gi.log_I2 - q.log_I2) <= 1e-9 * (1.0 + abs(q.log_I2))
    assert gi.log_I2 <= gi.log_I1 + np.log(sched.value(0.0)) + 1e-9
    assert np.exp(gi.log_I2 - gi.log_I1) >= sched.value(s) - 1e-9


@st.composite
def chunk_cases(draw):
    """Nodal tables, a batch state and its normals for one simulate_chunk
    call.  Live paths include a start within one step of each edge, one in
    the last cell (where the cell position can round to n - 1) and one
    that sits still until its last normal throws it out, so it exits on
    the chunk's final step; retired paths are interleaved with them."""
    nodes = draw(st.integers(3, 12))
    left = draw(st.floats(-1.0, 1.0))
    width = draw(st.floats(1.0, 3.0))
    right = left + width
    tables = [draw(hnp.arrays(np.float64, nodes, elements=st.floats(lo, hi)))
              for lo, hi in ((-5.0, 5.0), (0.0, 3.0), (-2.0, 2.0),
                             (0.05, 2.0))]
    dt = draw(st.floats(1e-5, 2e-3))
    n_steps = draw(st.integers(1, 32))
    # at most |b| dt + 4 sigma sqrt(dt) per step; the middle start drifts
    # at most 5 * 2e-3 * 31 < width / 2 before its last step
    reach = 5.0 * dt + 8.0 * np.sqrt(dt)
    inside = np.nextafter(left, right), np.nextafter(right, left)
    starts = [max(left + draw(st.floats(0.0, 1.0)) * reach, inside[0]),
              min(right - draw(st.floats(0.0, 1.0)) * reach, inside[1]),
              inside[1], left + 0.5 * width]
    starts += [left + u * width for u in draw(
        st.lists(st.floats(0.01, 0.99), max_size=6))]
    n_retired = draw(st.integers(0, 4))
    n = len(starts) + n_retired
    order = draw(st.permutations(range(n)))
    retired = np.array([order[k] >= len(starts) for k in range(n)])
    x = np.array([starts[i] if i < len(starts) else right for i in order])
    gamma = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 1.0)))
    cost = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    steps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1000)))
    normals = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
        .standard_normal((len(starts), n_steps))
    late = order.index(3)  # batch index of the middle start
    row = int(np.count_nonzero(~retired[:late]))
    normals[row] = 0.0
    normals[row, -1] = draw(st.sampled_from([-1e6, 1e6]))
    # a limit below the live count: the chunk starts in numpy and hands
    # its last paths to the per-path walk once enough have exited
    handoff = draw(st.integers(1, len(starts) - 1))
    state = [x, gamma, cost, steps]
    kwargs = dict(left=left, right=right, spacing=width / (nodes - 1),
                  b_tab=tables[0], c_tab=tables[1], fkl_tab=tables[2],
                  s_tab=tables[3], dt=dt, g_left=draw(st.floats(-1.0, 1.0)),
                  g_right=draw(st.floats(-1.0, 1.0)))
    return state, normals, kwargs, retired, late, handoff


@settings(deadline=None)
@given(chunk_cases())
def test_chunk_walks_agree_bitwise(case):
    # the per-path walk on Python floats, the numpy step over all live
    # paths and a chunk that hands over from one to the other leave every
    # output array with the same bits, return the number of paths left
    # inside (left, right) and leave retired paths untouched
    state, normals, kwargs, retired, late, handoff = case
    left, right = kwargs["left"], kwargs["right"]
    n_steps = normals.shape[1]
    steps_before = state[3][late]
    outs = []
    for limit in (0, 1_000_000, handoff):
        out = [a.copy() for a in state]
        with mock.patch.object(kernels, "SCALAR_PATHS", limit):
            n_live = kernels.simulate_chunk(*out[:3], steps=out[3],
                                            normals=normals, **kwargs)
        outs.append(out)
        x, steps = out[0], out[3]
        assert n_live == np.count_nonzero((x > left) & (x < right))
        assert not left < x[late] < right
        assert steps[late] == steps_before + n_steps
        for a, b in zip(out, state):
            assert a[retired].tobytes() == b[retired].tobytes()
    for out in outs[1:]:
        for a, b in zip(outs[0], out):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
