"""Invariants checked over random inputs drawn by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exitflow import (average_coefficients, gibbs_policy, kl_to_reference,
                      lq_benchmark)
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
    assert np.all(kl_to_reference(pol, problem.actions) >= -1e-12)


@settings(deadline=None)
@given(features())
def test_stacked_averages_are_convex_combinations(case):
    problem, z = case
    pol = gibbs_policy(z, problem.actions)
    avg = average_coefficients(problem, pol)
    assert np.all(avg.kl >= -1e-12)
    for bar, tab in ((avg.b_bar, problem.b_tab), (avg.c_bar, problem.c_tab),
                     (avg.f_bar, problem.f_tab)):
        assert np.shares_memory(tab, problem.coef_tab)
        scale = 1e-12 * (1.0 + np.max(np.abs(tab)))
        assert np.max(np.abs(bar - np.sum(pol.weights * tab, axis=1))) <= scale
        assert np.all(bar >= tab.min(axis=1) - scale)
        assert np.all(bar <= tab.max(axis=1) + scale)
