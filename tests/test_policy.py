import math

import numpy as np
import pytest

from exitflow import gibbs_policy, make_action_space, uniform_policy
from identities import kl_between


@pytest.fixture
def two_uniform():
    return make_action_space(values=[0.0, 1.0])


def test_constant_feature_gives_reference():
    acts = make_action_space(values=[0.0, 1.0, 2.0, 3.0])
    p = gibbs_policy(np.full((3, 4), 2.7), acts)
    assert np.allclose(p.weights, 0.25)


def test_direct_normalization(two_uniform):
    p = gibbs_policy(np.array([[0.0, math.log(3.0)]]), two_uniform)
    assert np.allclose(p.weights, [[0.25, 0.75]], atol=1e-14)


def test_shift_invariance(two_uniform):
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 2))
    base = gibbs_policy(z, two_uniform)
    for c in (10.0, 100.0, -55.0):
        shifted = gibbs_policy(z + c, two_uniform)
        assert np.max(np.abs(shifted.weights - base.weights)) <= 1e-12


def test_rows_sum_to_one():
    acts = make_action_space(alpha=-2.0, beta=1.0, n_quad=17)
    rng = np.random.default_rng(11)
    p = gibbs_policy(50.0 * rng.standard_normal((40, 17)), acts)
    assert np.max(np.abs(p.weights.sum(axis=1) - 1.0)) <= 1e-10
    assert np.all(p.weights >= 0.0)
    # log-densities integrate to one against mu
    mass = np.exp(p.log_density) @ acts.mu_weights
    assert np.max(np.abs(mass - 1.0)) <= 1e-8


def test_extreme_features_stay_finite(two_uniform):
    p = gibbs_policy(np.array([[1e4, -1e4]]), two_uniform)
    assert np.all(np.isfinite(p.weights))
    assert np.allclose(p.weights, [[1.0, 0.0]], atol=1e-300)


def test_rejects_non_finite(two_uniform):
    with pytest.raises(ValueError):
        gibbs_policy(np.array([[0.0, math.nan]]), two_uniform)


def test_kl_to_reference_zero_for_uniform(two_uniform):
    p = uniform_policy(4, two_uniform)
    assert np.max(np.abs(p.kl)) <= 1e-14


def test_kl_to_reference_frozen_value(two_uniform):
    # weights (0.8, 0.2) against uniform: 0.8 ln 1.6 + 0.2 ln 0.4
    p = gibbs_policy(np.log(np.array([[1.6, 0.4]])), two_uniform)
    assert np.allclose(p.weights, [[0.8, 0.2]], atol=1e-14)
    kl = p.kl
    assert abs(kl[0] - 0.19274475702175743) <= 1e-12


def test_kl_to_reference_near_point_mass(two_uniform):
    # weights (1-eps, eps) approach ln 2 as eps -> 0
    for eps, tol in ((1e-6, 2e-5), (1e-9, 3e-8)):
        z = np.log(np.array([[2.0 * (1 - eps), 2.0 * eps]]))
        kl = gibbs_policy(z, two_uniform).kl
        assert abs(kl[0] - math.log(2.0)) <= tol


def test_kl_between_identity(two_uniform):
    rng = np.random.default_rng(5)
    p = gibbs_policy(rng.standard_normal((7, 2)), two_uniform)
    assert np.max(np.abs(kl_between(p, p))) <= 1e-14


def test_kl_between_frozen_values(two_uniform):
    p = gibbs_policy(np.log(np.array([[0.5, 1.5]])), two_uniform)
    q = uniform_policy(1, two_uniform)
    assert np.allclose(p.weights, [[0.25, 0.75]], atol=1e-14)
    # 0.25 ln 0.5 + 0.75 ln 1.5
    assert abs(kl_between(p, q)[0] - 0.13081203594113696) <= 1e-12
    # asymmetry: 0.5 ln 2 + 0.5 ln(2/3)
    assert abs(kl_between(q, p)[0] - 0.14384103622589046) <= 1e-12


def test_kl_nonnegative_random():
    acts = make_action_space(values=list(np.linspace(-1, 1, 9)))
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = gibbs_policy(3.0 * rng.standard_normal((5, 9)), acts)
        q = gibbs_policy(3.0 * rng.standard_normal((5, 9)), acts)
        assert np.all(p.kl >= -1e-12)
        assert np.all(kl_between(p, q) >= -1e-12)


def test_kl_between_consistent_with_reference():
    acts = make_action_space(values=list(np.linspace(-1, 1, 5)))
    rng = np.random.default_rng(23)
    p = gibbs_policy(rng.standard_normal((8, 5)), acts)
    mu = uniform_policy(8, acts)
    diff = kl_between(p, mu) - p.kl
    assert np.max(np.abs(diff)) <= 1e-12


def test_kl_between_degenerate_q(two_uniform):
    p = gibbs_policy(np.zeros((1, 2)), two_uniform)
    q = gibbs_policy(np.array([[0.0, -1500.0]]), two_uniform)
    with pytest.raises(ValueError, match="infinite"):
        kl_between(p, q)
