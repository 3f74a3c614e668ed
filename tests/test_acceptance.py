"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria are checked
at their stated tolerances; wall-clock budgets are asserted with the
stated (very generous) limits.
"""

import json
import math
import time

import numpy as np
import pytest

import exitflow as xf
from exitflow.domain import LQCoefficients, build_grid, make_lq_problem
from exitflow.hamiltonian import interval_quadratic_min
from identities import performance_difference_check


def _report(num, name, ok, detail, elapsed, budget, measured=None):
    """Print the PASS/FAIL line, then ``measured`` as one JSON line."""
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)", flush=True)
    if measured is not None:
        print(json.dumps({"criterion": num, "measured": measured}),
              flush=True)
    assert ok, f"criterion {num}: {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def _slope_loglog(times, errs, lo, hi):
    mask = (times >= lo) & (times <= hi) & (errs > 0.0)
    t = np.log(times[mask])
    e = np.log(errs[mask])
    A = np.vstack([t, np.ones(t.size)]).T
    return float(np.linalg.lstsq(A, e, rcond=None)[0][0])


def _slope_semilog(times, errs, lo, hi):
    mask = (times >= lo) & (times <= hi) & (errs > 0.0)
    A = np.vstack([times[mask], np.ones(mask.sum())]).T
    return float(np.linalg.lstsq(A, np.log(errs[mask]), rcond=None)[0][0])


def _random_discrete_problem(n_actions, seed):
    rng = np.random.default_rng(seed)
    c0, c1 = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.3)
    coeffs = LQCoefficients(
        b_bar=lambda x: 0.3 * math.sin(3.0 * x),
        b_hat=lambda x: 1.0 + 0.2 * x,
        c_bar=lambda x: c0 + c1 * x * x, c_hat=lambda x: 0.0,
        f_bar=lambda x: 1.0 + 0.5 * math.cos(2.0 * x),
        f_tilde=lambda x: 0.4 * x,
        f_hat=lambda x: 0.5 + 0.25 * x,
    )
    grid = build_grid(0.0, 1.0, 9)
    acts = xf.make_action_space(values=list(np.linspace(-1.0, 1.0, n_actions)))
    return make_lq_problem(coeffs, grid, acts,
                           sigma=lambda x: math.sqrt(2.0), g=lambda x: 0.0)


def test_c01_softmin_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_low, worst_high = math.inf, -math.inf
    ok = True
    for n_actions in (2, 5, 11):
        prob = _random_discrete_problem(n_actions, seed=n_actions)
        log_n = math.log(n_actions)
        for _ in range(1000):
            x = rng.uniform(0.05, 0.95)
            u = rng.uniform(-2.0, 2.0)
            p = rng.uniform(-3.0, 3.0)
            tau = 10.0 ** rng.uniform(-3.0, 0.0)
            soft = xf.soft_hamiltonian(prob, x, u, p, tau)
            hard, _ = xf.hard_hamiltonian(prob, x, u, p)
            gap = soft - hard
            worst_low = min(worst_low, gap)
            worst_high = max(worst_high, gap - tau * log_n)
            if not (-1e-10 <= gap <= tau * log_n + 1e-10):
                ok = False
    _report(1, "softmin sandwich", ok,
            f"min gap {worst_low:.2e}, max gap-tau*lnN {worst_high:.2e} "
            f"over 3000 samples", time.perf_counter() - t0, 1.0)


def test_c02_interval_laplace_rate():
    t0 = time.perf_counter()
    taus = (1e-1, 1e-2, 1e-3, 1e-4)
    ps = np.linspace(-3.0, 3.0, 241)
    sups = []
    for tau in taus:
        denom = tau * math.log(1.0 / tau)
        ratios = [(xf.interval_quadratic_softmin(p, tau, -1.0, 1.0)
                   - interval_quadratic_min(p, -1.0, 1.0)) / denom
                  for p in ps]
        sups.append(max(ratios))
    finite = all(math.isfinite(s) for s in sups)
    spread = max(sups) / min(sups)
    _report(2, "interval-quadratic Laplace rate", finite and spread < 3.0,
            f"sup ratios {[f'{s:.3f}' for s in sups]}, spread {spread:.2f}",
            time.perf_counter() - t0, 5.0)


@pytest.mark.parametrize("kind,params", [
    ("constant", {"tau": 0.5}),
    ("inverse_linear", {}),
    ("inverse_sqrt", {}),
])
def test_c03_monotone_descent(kind, params):
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete")
    dt = 0.02
    sched = xf.Scheduler(kind=kind, **params)
    traj = xf.integrate_flow(lq, np.zeros((29, 5)), sched, S=5.0, dt=dt,
                             probes=[7, 14, 21])
    h = lq.grid.spacing
    tol_step = 10.0 * (dt * dt + h * h) * (1.0 + lq.f_sup)
    worst = float(np.max(np.diff(traj.values_at_probe, axis=0)))
    _report(3, f"monotone descent [{kind}]", worst <= tol_step,
            f"max per-step increase {worst:.2e} vs tol {tol_step:.2e}",
            time.perf_counter() - t0, 60.0)


def test_c04_exponential_convergence():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete")
    tau = 0.5
    sched = xf.Scheduler(kind="constant", tau=tau)
    traj = xf.integrate_flow(lq, np.zeros((29, 5)), sched, S=10.0, dt=0.02,
                             probes=[14], record_every=10)
    sol = xf.solve_regularized_hjb(lq, tau)
    err = traj.values_at_probe[:, 0] - sol.v_star.v[15]
    slope = _slope_semilog(traj.times, err, 2.0, 10.0)
    _report(4, "exponential convergence at constant tau", slope <= -0.45,
            f"ln-error slope {slope:.3f} (limit -0.45)",
            time.perf_counter() - t0, 120.0)


@pytest.mark.slow
def test_c05_discrete_annealing_rate():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete")
    sched = xf.Scheduler(kind="inverse_linear")
    traj = xf.integrate_flow(lq, np.zeros((29, 5)), sched, S=1000.0, dt=0.05,
                             probes=[14], record_every=20)
    base = xf.solve_unregularized_hjb(lq)
    err = traj.unregularized_values[:, 0] - base.v_star.v[15]
    window = (10.0, 1000.0)
    slope = _slope_loglog(traj.times, err, *window)
    _report(5, "discrete annealing rate", -1.3 <= slope <= -0.8,
            f"log-log slope {slope:.3f} (band [-1.3, -0.8])",
            time.perf_counter() - t0, 600.0,
            measured={"window": window, "slope": slope})


@pytest.mark.slow
def test_c06_continuous_annealing_rate():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("interval")
    n, N = lq.n_interior, lq.actions.n_actions
    sched = xf.Scheduler(kind="inverse_sqrt")
    traj = xf.integrate_flow(lq, np.zeros((n, N)), sched, S=1000.0, dt=0.05,
                             probes=[14], record_every=20)
    base = xf.solve_unregularized_hjb(lq)
    err = traj.unregularized_values[:, 0] - base.v_star.v[15]
    slope = _slope_loglog(traj.times, err, 10.0, 1000.0)
    _report(6, "continuous annealing rate", -0.75 <= slope <= -0.35,
            f"log-log slope {slope:.3f} (band [-0.75, -0.35])",
            time.perf_counter() - t0, 900.0)


def test_c07_growth_integral_closed_forms():
    t0 = time.perf_counter()
    ok = True
    details = []
    inv_lin = xf.Scheduler(kind="inverse_linear")
    for s in (2.0, 10.0, 100.0):
        gi = xf.growth_integrals(inv_lin, s)
        if abs(math.exp(gi.log_I1) - (0.5 * s * s + s)) > 1e-12 * s * s or \
                abs(math.exp(gi.log_I2) - s) > 1e-12 * s:
            ok = False
            details.append(f"inverse_linear s={s}")
    inv_sqrt = xf.Scheduler(kind="inverse_sqrt")
    for s in (1.0, 10.0, 100.0):
        cf = xf.growth_integrals(inv_sqrt, s)
        q = xf.growth_integrals_quadrature(inv_sqrt, s)
        if abs(cf.log_I1 - q.log_I1) > 1e-9 * (1.0 + abs(cf.log_I1)) or \
                abs(cf.log_I2 - q.log_I2) > 1e-9 * (1.0 + abs(cf.log_I2)):
            ok = False
            details.append(f"inverse_sqrt quadrature s={s}")
    for s in (2.0, 7.0):
        got = xf.optimization_bound(inv_lin, s, C=1.0, discrete=True)
        expect = 1.0 / (0.5 * s * s + s) + s / ((s + 1.0) * (s + 2.0))
        if abs(got - expect) > 1e-12:
            ok = False
            details.append(f"ratio term s={s}")
    _report(7, "growth-integral closed forms", ok,
            "exact + quadrature cross-check" if ok else "; ".join(details),
            time.perf_counter() - t0, 1.0)


def test_c08_figure_reproduction():
    t0 = time.perf_counter()
    s_grid = [10.0, 100.0, 1000.0, 10000.0]
    rows = xf.reproduce_figure(s_grid=s_grid)
    finite = all(math.isfinite(b) for _, _, b in rows)
    argmins = {}
    interior = {}
    curves = {}
    for S in s_grid:
        pts = [(b, bound) for b, s, bound in rows if s == S]
        curves[f"{S:g}"] = pts
        bounds = [bound for _, bound in pts]
        k = int(np.argmin(bounds))
        argmins[S] = pts[k][0]
        interior[S] = 0 < k < len(pts) - 1
    drift = len(set(argmins.values())) > 1
    all_interior = all(interior.values())
    detail = (f"finite={finite}, argmins={ {int(S): a for S, a in argmins.items()} }, "
              f"interior={ {int(S): i for S, i in interior.items()} }")
    _report(8, "figure reproduction", finite and drift and all_interior,
            detail, time.perf_counter() - t0, 10.0, measured=curves)


def test_c09_elliptic_solver_order():
    t0 = time.perf_counter()
    errs = []
    for n in (49, 99, 199):
        prob = xf.manufactured_problem(n_interior=n, forcing="sine")
        pol = xf.uniform_policy(n, prob.actions)
        vf = xf.solve_on_policy_bellman(prob, pol, 0.0)
        xs = prob.grid.interior
        errs.append(float(np.max(np.abs(vf.v[1:-1] - np.sin(math.pi * xs)))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(9, "elliptic solver order", ok,
            f"refinement ratios {[f'{r:.3f}' for r in ratios]}",
            time.perf_counter() - t0, 1.0)


@pytest.mark.slow
def test_c10_feynman_kac_oracle():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete", n_interior=49)
    tau = 0.5
    sol = xf.solve_regularized_hjb(lq, tau)
    pol = sol.optimal_policy
    vf = xf.solve_on_policy_bellman(lq, pol, tau)
    ok = True
    lines = []
    for k, x0 in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
        est = xf.simulate_exit_value(lq, pol, x0, tau, 100_000, 1e-4,
                                     seed=100 + k)
        pde = float(np.interp(x0, lq.grid.nodes, vf.v))
        err = abs(est.mean - pde)
        allow = 3.0 * est.stderr + 5e-3
        if err > allow:
            ok = False
        lines.append(f"x={x0}: {err:.4f}<={allow:.4f}")
    _report(10, "Feynman-Kac oracle", ok, ", ".join(lines),
            time.perf_counter() - t0, 300.0)


def test_c11_performance_difference():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete")
    rng = np.random.default_rng(2024)
    tau = 0.37
    worst = 0.0
    for _ in range(20):
        p = xf.gibbs_policy(rng.standard_normal((29, 5)), lq.actions)
        q = xf.gibbs_policy(rng.standard_normal((29, 5)), lq.actions)
        vq = xf.solve_on_policy_bellman(lq, q, tau)
        scale = 1e-8 * (1.0 + float(np.max(np.abs(vq.v))))
        disc = performance_difference_check(lq, p, q, tau)
        worst = max(worst, disc / scale)
    _report(11, "performance-difference identity", worst <= 1.0,
            f"worst discrepancy {worst:.2e} of tolerance",
            time.perf_counter() - t0, 30.0)


def test_c12_hjb_ordering_and_bias_decay():
    t0 = time.perf_counter()
    lq = xf.lq_benchmark("discrete")
    taus = [1.0, 0.3, 0.1, 0.03, 0.01]
    base = xf.solve_unregularized_hjb(lq)
    ordering = True
    biases = []
    for tau in taus:
        sol = xf.solve_regularized_hjb(lq, tau)
        if not np.all(base.v_star.v <= sol.v_star.v + 1e-8):
            ordering = False
        biases.append(float(np.max(np.abs(sol.v_star.v - base.v_star.v))))
    decreasing = all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))
    vanishing = biases[-1] <= 0.1 * biases[0]
    _report(12, "HJB ordering and bias decay",
            ordering and decreasing and vanishing,
            f"biases {[f'{b:.2e}' for b in biases]}, ordering={ordering}",
            time.perf_counter() - t0, 120.0)
