"""Negative controls: each correctness check of the benchmark accepts the
program's answer and rejects a wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from exitflow import (Scheduler, growth_integrals_quadrature,  # noqa: E402
                      hard_hamiltonian, integrate_flow, lq_benchmark,
                      simulate_exit_value, soft_hamiltonian,
                      solve_on_policy_bellman, solve_regularized_hjb,
                      solve_unregularized_hjb)
from exitflow.policy import gibbs_policy  # noqa: E402


@pytest.fixture(scope="module")
def lq():
    return lq_benchmark("discrete", n_interior=49)


def test_horizon_catches_truncated_flow():
    problem = lq_benchmark("discrete", n_interior=9)
    sched = Scheduler(kind="inverse_linear")
    z0 = np.zeros((9, 5))
    ok = integrate_flow(problem, z0, sched, 1.2, 0.3, [4])
    assert checks.horizon_reached(ok.times[-1], 1.2) == []
    # 1.0/0.3 steps round down to 3: the flow stops at s=0.9
    short = integrate_flow(problem, z0, sched, 1.0, 0.3, [4])
    assert checks.horizon_reached(short.times[-1], 1.0)


def test_decomposition_signs_and_error_decrease():
    good = (np.array([-0.1, -1e-3]), np.array([0.2, -1e-9]),
            np.array([0.0, 0.05]))
    assert checks.decomposition_signs(*good) == []
    assert checks.decomposition_signs(np.array([-0.1, 1e-12]), *good[1:])
    assert checks.decomposition_signs(good[0], np.array([0.2, -1e-7]),
                                      good[2])
    assert checks.decomposition_signs(*good[:2], np.array([0.0, -2e-8]))
    assert checks.error_decreased([0.3, 0.2], [0.01, 0.02]) == []
    assert checks.error_decreased([0.3, 0.2], [0.01, 0.2])


def test_dense_value_rejects_wrong_value_and_wrong_tau():
    problem = lq_benchmark("interval", n_interior=29, n_quad=32)
    rng = np.random.default_rng(0)
    z = rng.normal(0.0, 2.0, (29, 32))
    tau = 0.01
    program = solve_on_policy_bellman(problem, gibbs_policy(z, problem.actions),
                                      tau).interior

    def dense(t):
        return checks.dense_policy_value(
            z, problem.actions.mu_weights, problem.b_tab, problem.c_tab,
            problem.f_tab, problem.sigma_interior, problem.grid.spacing,
            problem.g_left, problem.g_right, t)

    assert checks.value_matches(program, dense(tau)) == []
    assert checks.value_matches(program * (1.0 + 1e-9), dense(tau))
    assert checks.value_matches(program, dense(0.0))


def test_oracle_band_rejects_the_tau_zero_value(lq):
    sol = solve_regularized_hjb(lq, 0.5)
    x0 = 0.5
    est = simulate_exit_value(lq, sol.optimal_policy, x0, 0.5, 20000, 1e-4, 3)
    h = lq.grid.spacing
    v = sol.v_star.v
    slope = abs(-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    sigma = lq.sigma_nodes[0]

    def band(values):
        return checks.mc_band(est.mean, est.stderr,
                              float(np.interp(x0, lq.grid.nodes, values)),
                              1e-4, sigma, slope)

    assert band(v) == []
    v_tau0 = solve_on_policy_bellman(lq, sol.optimal_policy, 0.0).v
    assert band(v_tau0)


def test_hjb_checks_reject_wrong_solutions(lq):
    h = lq.grid.spacing
    mu = lq.actions.mu_weights
    tol = 1e-9 * (1.0 + lq.f_sup)
    base = solve_unregularized_hjb(lq)
    sols = {tau: solve_regularized_hjb(lq, tau) for tau in (0.1, 0.03)}
    v = sols[0.1].v_star.v

    def residual(vals, tau):
        return checks.semilinear_residual(vals, tau, lq.b_tab, lq.c_tab,
                                          lq.f_tab, mu, lq.sigma_interior, h)

    assert checks.residual_within(residual(v, 0.1), tol) == []
    assert checks.residual_within(residual(sols[0.03].v_star.v, 0.1), tol)
    bumped = v.copy()
    bumped[10] += 1e-6
    assert checks.residual_within(residual(bumped, 0.1), tol)

    v0 = base.v_star.v
    assert checks.ordered_below(v, v0) == []
    assert checks.ordered_below(v0, v)
    gaps = [float(np.max(np.abs(sols[t].v_star.v - v0))) for t in (0.1, 0.03)]
    assert checks.strictly_decreasing(*gaps) == []
    assert checks.strictly_decreasing(gaps[1], gaps[0])
    assert checks.strictly_decreasing(gaps[0], gaps[0])

    acts = lq.actions.actions
    selected = base.argmin_actions
    assert checks.discrete_selection(selected, acts, v0, lq.b_tab, lq.c_tab,
                                     lq.f_tab, h) == []
    cols = np.searchsorted(acts, selected)
    shifted = acts[np.minimum(cols + 1, acts.size - 1)]
    shifted[cols == acts.size - 1] = acts[-2]
    assert checks.discrete_selection(shifted, acts, v0, lq.b_tab, lq.c_tab,
                                     lq.f_tab, h)


def test_interval_selection_rejects_a_moved_action():
    def z_of(i, a):
        return (a - 0.1 * i) ** 2 + 0.05 * math.cos(3.0 * a)

    from scipy.optimize import minimize_scalar
    best = [minimize_scalar(lambda a: z_of(i, a), bounds=(-2.0, 2.0),
                            method="bounded", options={"xatol": 1e-12}).x
            for i in range(5)]
    assert checks.interval_selection(best, z_of, -2.0, 2.0) == []
    assert checks.interval_selection(np.add(best, 1e-3), z_of, -2.0, 2.0)
    assert checks.close([0.5, 1.0], [0.5, 1.0], 1e-12, "action") == []
    assert checks.close([0.5, 1.0 + 1e-9], [0.5, 1.0], 1e-12, "action")


def test_discrete_sandwich_rejects_a_wrong_gap():
    problem = lq_benchmark("discrete", n_interior=9)
    tau = 0.05
    soft = soft_hamiltonian(problem, 0.3, 0.2, -1.0, tau)
    hard = hard_hamiltonian(problem, 0.3, 0.2, -1.0)[0]
    n = problem.actions.n_actions
    assert checks.sandwich(soft, hard, tau, n) == []
    assert checks.sandwich(hard - 1e-9, hard, tau, n)
    assert checks.sandwich(hard + tau * math.log(n) + 1e-6, hard, tau, n)


@pytest.mark.parametrize("tau", [1e-4, 0.02, 0.7])
def test_interval_softmin_rejects_a_perturbed_value(tau):
    # lq_benchmark: b = a, c = 0.1, f = 1 + a^2 on [-4, 4]
    problem = lq_benchmark("interval", n_interior=9)
    x, u, p = 0.4, 0.3, 1.7
    soft = soft_hamiltonian(problem, x, u, p, tau)
    ref, hard_ref = checks.quadratic_softmin_quad(1.0 - 0.1 * u, p, 1.0, tau,
                                                  -4.0, 4.0)
    assert checks.close(soft, ref, 1e-10, "softmin") == []
    assert checks.close(soft + 1e-6, ref, 1e-10, "softmin")
    hard = hard_hamiltonian(problem, x, u, p)[0]
    assert checks.close(hard, hard_ref, 1e-12, "hard minimum") == []


def test_growth_integrals_reject_wrong_values():
    for kind, beta in (("inverse_linear", 1.0), ("inverse_sqrt", 0.5)):
        gi = growth_integrals_quadrature(Scheduler(kind="power_law",
                                                   beta=beta), 1000.0)
        log_i1, log_i2 = checks.growth_closed_form(kind, 1000.0)
        assert checks.close(gi.log_I1, log_i1, 1e-9, "ln I1") == []
        assert checks.close(gi.log_I2, log_i2, 1e-9, "ln I2") == []
        assert checks.close(gi.log_I1 * (1 + 1e-8), log_i1, 1e-9, "ln I1")
    assert checks.growth_closed_form("inverse_linear", 100.0) != \
        checks.growth_closed_form("inverse_sqrt", 100.0)
    assert checks.finite_row(0.5, 10.0, 1.3, 0.5, 10.0) == []
    assert checks.finite_row(0.5, 10.0, math.inf, 0.5, 10.0)
    assert checks.finite_row(0.5, 10.0, 1.3, 0.55, 10.0)


def test_runner_counts_raised_unreadable_and_wrong_outputs():
    import run
    from workloads import Op

    def boom():
        raise RuntimeError("boom")

    ops = [Op("good", lambda: 1.0, lambda out: []),
           Op("raises", boom, lambda out: []),
           Op("unreadable", lambda: 1.0, lambda out: [],
              collect=lambda raw: open(os.path.join(HERE, "no-such-file"))),
           Op("wrong", lambda: 1.0, lambda out: ["wrong"])]
    body = run.run_body(ops, 0.0)
    assert (body.rounds, body.attempted, body.failed, body.wrong) == \
        (1, 4, 3, 2)
    # a call that raised leaves no time behind
    assert body.best[1] is None and body.ratios[1] == []
    assert body.wall_s == run.round_time([body.ratios[i] for i in (0, 2, 3)])


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = [(m, u, b) for m, u, b, _ in tracing.PER_LAYER] + \
        [("trace.overhead_s", "s", "lower")]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_s", "peak_rss_mb", "work_per_s"]
    assert [w["name"] for w in spec["workloads"]] == \
        ["anneal", "oracle", "sweeps"]
