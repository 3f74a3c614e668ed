import math

import numpy as np
import pytest

from exitflow import (gibbs_policy, lq_benchmark, make_action_space,
                      make_problem, manufactured_problem, simulate_exit_value,
                      solve_on_policy_bellman, uniform_policy)
from exitflow.domain import build_grid
from exitflow.montecarlo import PathCapError


@pytest.fixture(scope="module")
def manufactured():
    return manufactured_problem(n_interior=49)


@pytest.mark.slow
def test_manufactured_value(manufactured):
    # v(x) = x(1-x); moderate path count, bias absorbed by the allowance
    pol = uniform_policy(49, manufactured.actions)
    est = simulate_exit_value(manufactured, pol, 0.5, 0.0, 20_000, 5e-5,
                              seed=11)
    assert abs(est.mean - 0.25) <= 3.0 * est.stderr + 5e-3
    assert est.stderr > 0.0
    assert est.n_paths == 20_000


def test_constant_exit_payoff():
    grid = build_grid(0.0, 1.0, 9)
    acts = make_action_space(values=[0.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: 0.0, sigma=lambda x: math.sqrt(2.0),
                        g=lambda x: 1.0)
    pol = uniform_policy(9, acts)
    est = simulate_exit_value(prob, pol, 0.5, 0.0, 500, 1e-3, seed=3)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_same_seed_bitwise(manufactured):
    pol = uniform_policy(49, manufactured.actions)
    a = simulate_exit_value(manufactured, pol, 0.4, 0.0, 5_000, 2e-4, seed=5)
    b = simulate_exit_value(manufactured, pol, 0.4, 0.0, 5_000, 2e-4, seed=5)
    assert a == b
    c = simulate_exit_value(manufactured, pol, 0.4, 0.0, 5_000, 2e-4, seed=6)
    assert c.mean != a.mean


@pytest.mark.slow
def test_mean_exit_time_stable_under_dt(manufactured):
    # E[exit time] from 0.5 is 0.125 for this diffusion; halving dt moves
    # the estimate by well under 10%
    pol = uniform_policy(49, manufactured.actions)
    a = simulate_exit_value(manufactured, pol, 0.5, 0.0, 20_000, 2e-4, seed=1)
    b = simulate_exit_value(manufactured, pol, 0.5, 0.0, 20_000, 1e-4, seed=1)
    assert abs(a.mean_exit_time - b.mean_exit_time) <= 0.1 * b.mean_exit_time
    assert abs(b.mean_exit_time - 0.125) <= 0.01


@pytest.mark.slow
def test_stderr_scales_with_paths(manufactured):
    pol = uniform_policy(49, manufactured.actions)
    a = simulate_exit_value(manufactured, pol, 0.5, 0.0, 10_000, 2e-4, seed=9)
    b = simulate_exit_value(manufactured, pol, 0.5, 0.0, 40_000, 2e-4, seed=9)
    assert abs(a.stderr / b.stderr - 2.0) <= 0.4


@pytest.mark.slow
def test_discount_and_kl_accumulation():
    # nonzero c and a non-uniform policy: agreement with the linear solver
    lq = lq_benchmark("discrete", n_interior=49)
    z = np.outer(np.sin(np.pi * lq.grid.interior), lq.actions.actions)
    pol = gibbs_policy(z, lq.actions)
    tau = 0.3
    vf = solve_on_policy_bellman(lq, pol, tau)
    est = simulate_exit_value(lq, pol, 0.5, tau, 40_000, 1e-4, seed=21)
    pde = float(np.interp(0.5, lq.grid.nodes, vf.v))
    assert abs(est.mean - pde) <= 3.0 * est.stderr + 5e-3


def test_validates_inputs(manufactured):
    pol = uniform_policy(49, manufactured.actions)
    # (x0, tau, n_paths, dt_sim); a NaN or infinite dt_sim would otherwise
    # run every path to STEP_CAP, such a tau return a NaN estimate, and a
    # fractional n_paths run and report a truncated path count
    for x0, tau, n_paths, dt_sim in [
            (0.0, 0.0, 10, 1e-3), (0.5, 0.0, 10, -1e-3), (0.5, -0.1, 10, 1e-3),
            (0.5, 0.0, 0, 1e-3), (0.5, 0.0, 10.7, 1e-3),
            (0.5, math.nan, 10, 1e-3),
            (0.5, math.inf, 10, 1e-3), (0.5, 0.0, 10, math.nan),
            (0.5, 0.0, 10, math.inf)]:
        with pytest.raises(ValueError):
            simulate_exit_value(manufactured, pol, x0, tau, n_paths, dt_sim,
                                seed=0)


def test_estimate_golden_values(monkeypatch, chunk_walk):
    # three batches of 16, 16 and 8 paths, pinned bit for bit: they fix
    # the stream layout (per batch substreams, one row of normals per live
    # path in ascending order) that a seed's estimate depends on
    import exitflow.montecarlo as mc
    monkeypatch.setattr(mc, "BATCH_PATHS", 16)
    lq = lq_benchmark("discrete", n_interior=9)
    z = np.outer(np.sin(np.pi * lq.grid.interior), lq.actions.actions)
    pol = gibbs_policy(z, lq.actions)
    est = simulate_exit_value(lq, pol, 0.5, 0.3, 40, 1e-3, seed=7)
    assert est.mean == 0.15643664245100597
    assert est.stderr == 0.01737898562752613
    assert est.mean_exit_time == 0.09875


def test_chunk_calls_expose_steps_and_normals(monkeypatch):
    # a wrapper of the chunk kernel finds `steps` at argument 3 or by name
    # and `normals` at argument 6 or by name; the step counts it sees
    # advance by the estimate's path-steps in total, and each chunk draws
    # one row of normals per path still inside the interval
    import exitflow.montecarlo as mc
    monkeypatch.setattr(mc, "BATCH_PATHS", 16)
    kernel = mc.simulate_chunk
    calls = []

    def arg(args, kwargs, pos, name):
        return args[pos] if len(args) > pos else kwargs[name]

    def wrapped(*args, **kwargs):
        steps = arg(args, kwargs, 3, "steps")
        normals = arg(args, kwargs, 6, "normals")
        x = args[0]
        inside = np.count_nonzero((x > 0.0) & (x < 1.0))
        before = int(np.sum(steps))
        out = kernel(*args, **kwargs)
        calls.append((inside, normals.shape, int(np.sum(steps)) - before))
        return out

    monkeypatch.setattr(mc, "simulate_chunk", wrapped)
    lq = lq_benchmark("discrete", n_interior=9)
    z = np.outer(np.sin(np.pi * lq.grid.interior), lq.actions.actions)
    pol = gibbs_policy(z, lq.actions)
    est = simulate_exit_value(lq, pol, 0.5, 0.3, 40, 1e-3, seed=7)
    assert est.mean == 0.15643664245100597
    assert len(calls) >= 3
    for inside, shape, _ in calls:
        assert shape == (inside, mc.CHUNK_STEPS)
    path_steps = sum(delta for _, _, delta in calls)
    assert path_steps == round(est.mean_exit_time * est.n_paths / est.dt_sim)


def test_path_cap_near_zero_noise(monkeypatch):
    import exitflow.montecarlo as mc
    monkeypatch.setattr(mc, "STEP_CAP", 10_000)
    grid = build_grid(0.0, 1.0, 9)
    acts = make_action_space(values=[0.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: 0.0, sigma=lambda x: 1e-9,
                        g=lambda x: 0.0)
    pol = uniform_policy(9, acts)
    with pytest.raises(PathCapError):
        simulate_exit_value(prob, pol, 0.5, 0.0, 4, 1e-3, seed=0)


def test_policy_of_another_row_count_is_refused():
    # the Monte Carlo tables start from the same averages, so a policy of
    # the wrong shape is refused before any path is drawn
    lq = lq_benchmark("discrete")
    pol = gibbs_policy(np.zeros((1, 5)), lq.actions)
    with pytest.raises(ValueError, match=r"\(1, 5\).*\(29, 5\)"):
        simulate_exit_value(lq, pol, 0.5, 0.1, 10, 1e-3, seed=0)
