import math
import os
from dataclasses import replace

import numpy as np
import pytest

from exitflow import (gibbs_policy, lq_benchmark, make_action_space,
                      make_problem, optimal_feature, regularized_path,
                      simulate_exit_value, solve_on_policy_bellman,
                      solve_regularized_hjb, solve_unregularized_hjb,
                      uniform_policy)
from exitflow.config import build_problem, build_scheduler, load_config
from exitflow.domain import LQCoefficients, build_grid, make_lq_problem
from exitflow.hjb import ConvergenceError, default_tolerance
from identities import comparison_slack, non_lq_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def lq_interval():
    # the interval instance with A = [-1, 1] used for the uniqueness oracle
    coeffs = LQCoefficients(b_bar=lambda x: 0.0, b_hat=lambda x: 1.0,
                            c_bar=lambda x: 0.0, c_hat=lambda x: 0.0,
                            f_bar=lambda x: 1.0, f_tilde=lambda x: 0.0,
                            f_hat=lambda x: 1.0)
    grid = build_grid(0.0, 1.0, 29)
    acts = make_action_space(alpha=-1.0, beta=1.0, n_quad=32)
    return make_lq_problem(coeffs, grid, acts,
                           sigma=lambda x: math.sqrt(2.0), g=lambda x: 0.0)


def _zero_data_problem(n=9, n_actions=3):
    grid = build_grid(0.0, 1.0, n)
    acts = make_action_space(values=list(np.linspace(-1, 1, n_actions)))
    return make_problem(grid, acts, b=lambda x, a: a, c=lambda x, a: 0.0,
                        f=lambda x, a: 0.0, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)


def test_optimal_feature_reduces_to_cost(lq):
    n = lq.n_interior
    vf = solve_on_policy_bellman(
        lq, uniform_policy(n, lq.actions), 0.0)
    zero_vf = type(vf)(v=np.zeros(n + 2), dv=np.zeros(n))
    z = optimal_feature(lq, zero_vf)
    assert np.allclose(z, lq.f_tab)


def test_optimal_feature_quadratic_in_action(lq):
    pol = uniform_policy(lq.n_interior, lq.actions)
    vf = solve_on_policy_bellman(lq, pol, 0.5)
    z = optimal_feature(lq, vf)
    # second difference in the action index is constant = 2*f_hat*da^2
    acts = lq.actions.actions
    da = acts[1] - acts[0]
    d2 = z[:, 2:] - 2.0 * z[:, 1:-1] + z[:, :-2]
    assert np.allclose(d2, 2.0 * 1.0 * da * da)


def test_zero_data_fixed_point():
    prob = _zero_data_problem()
    for tau in (0.1, 1.0):
        sol = solve_regularized_hjb(prob, tau)
        assert np.max(np.abs(sol.v_star.v)) <= 1e-12
        assert np.max(np.abs(sol.optimal_policy.weights - 1.0 / 3.0)) <= 1e-12


def test_single_action_matches_linear_solve(lq):
    grid = build_grid(0.0, 1.0, 19)
    acts = make_action_space(values=[0.25])
    prob = make_problem(grid, acts, b=lambda x, a: a, c=lambda x, a: 0.1,
                        f=lambda x, a: 1.0 + a * a, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    pol = uniform_policy(19, acts)
    sol = solve_regularized_hjb(prob, 0.5)
    direct = solve_on_policy_bellman(prob, pol, 0.5)
    assert np.max(np.abs(sol.v_star.v - direct.v)) <= 1e-12
    sol0 = solve_unregularized_hjb(prob)
    assert np.max(np.abs(sol0.v_star.v - direct.v)) <= 1e-12


def test_second_seed_oracle(lq_interval):
    # uniqueness: iterations seeded from the uniform policy and from a
    # perturbed feature land on the same fixed point
    tol = default_tolerance(lq_interval)
    a = solve_regularized_hjb(lq_interval, 0.5, tol=tol)
    rng = np.random.default_rng(31)
    z0 = 3.0 * rng.standard_normal((lq_interval.n_interior,
                                    lq_interval.actions.n_actions))
    b = solve_regularized_hjb(lq_interval, 0.5, tol=tol, z0=z0)
    mid = lq_interval.n_interior // 2 + 1
    assert abs(a.v_star.v[mid] - b.v_star.v[mid]) <= 2.0 * tol
    assert np.max(np.abs(a.v_star.v - b.v_star.v)) <= 10.0 * tol


def test_fixed_point_consistency(lq):
    sol = solve_regularized_hjb(lq, 0.5)
    re_pol = gibbs_policy(-optimal_feature(lq, sol.v_star) / 0.5, lq.actions)
    assert np.max(np.abs(re_pol.weights - sol.optimal_policy.weights)) <= 1e-8
    re_v = solve_on_policy_bellman(lq, re_pol, 0.5)
    assert np.max(np.abs(re_v.v - sol.v_star.v)) <= 2.0 * default_tolerance(lq)


def test_regularized_policy_strictly_positive(lq):
    sol = solve_regularized_hjb(lq, 0.2)
    assert np.all(sol.optimal_policy.weights > 0.0)
    assert sol.final_residual <= default_tolerance(lq)


def test_unregularized_one_hot(lq):
    sol = solve_unregularized_hjb(lq)
    w = sol.optimal_policy.weights
    assert np.all(np.isin(w.ravel(), [0.0, 1.0]))
    assert np.allclose(w.sum(axis=1), 1.0)
    assert sol.argmin_actions is not None


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_unregularized_policy_can_be_evaluated(kind):
    # the one-hot policy has zero weight off its support; its value and
    # its Monte Carlo estimate must not turn 0 * log 0 into NaN
    problem = lq_benchmark(kind)
    sol = solve_unregularized_hjb(problem)
    vf = solve_on_policy_bellman(problem, sol.optimal_policy, 0.0)
    if kind == "discrete":
        # the selected actions are action nodes, so the value is v*_0
        assert np.array_equal(vf.v, sol.v_star.v)
    else:
        # the nearest-node policy can only do worse than the exact argmin
        assert np.all(np.isfinite(vf.v))
        assert np.all(vf.v >= sol.v_star.v)
    est = simulate_exit_value(problem, sol.optimal_policy, 0.5, 0.0, 200,
                              1e-3, 1)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)


def test_action_independent_unregularized(lq):
    grid = build_grid(0.0, 1.0, 15)
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    prob = make_problem(grid, acts, b=lambda x, a: 0.0, c=lambda x, a: 0.0,
                        f=lambda x, a: 1.0 + x, sigma=lambda x: 1.0,
                        g=lambda x: 0.0)
    sol = solve_unregularized_hjb(prob)
    direct = solve_on_policy_bellman(prob, uniform_policy(15, acts), 0.0)
    assert np.max(np.abs(sol.v_star.v - direct.v)) <= 1e-12


def test_value_ordering_in_tau(lq):
    sols = [solve_unregularized_hjb(lq)] + \
        [solve_regularized_hjb(lq, t) for t in (0.1, 0.5, 1.0)]
    for low, high in zip(sols, sols[1:]):
        assert np.all(low.v_star.v <= high.v_star.v + 1e-8)


def test_verification_inequality(lq):
    # v*_tau lower-bounds every Gibbs policy value
    sol = solve_regularized_hjb(lq, 0.3)
    rng = np.random.default_rng(12)
    for _ in range(20):
        pol = gibbs_policy(2.0 * rng.standard_normal((lq.n_interior, 5)),
                           lq.actions)
        vf = solve_on_policy_bellman(lq, pol, 0.3)
        assert np.all(sol.v_star.v <= vf.v + 1e-8)


def test_interval_unregularized_continuous_argmin(lq_interval):
    sol = solve_unregularized_hjb(lq_interval)
    assert sol.argmin_actions is not None
    # minimizers are the clamped vertices -dv/2
    expect = np.clip(-sol.v_star.dv / 2.0, -1.0, 1.0)
    assert np.max(np.abs(sol.argmin_actions - expect)) <= 1e-10


def test_howard_monotone_values(lq):
    # classical Howard property: values nonincreasing across iterations
    from exitflow.elliptic import average_coefficients, solve_linear
    from exitflow.hamiltonian import _hard_minimum
    pol = uniform_policy(lq.n_interior, lq.actions)
    coefficients = average_coefficients(lq, pol, 0.0)
    prev = None
    for _ in range(6):
        vf = solve_linear(lq, *coefficients)
        if prev is not None:
            assert np.all(vf.v <= prev + 1e-9)
        prev = vf.v
        _, _, coefficients = _hard_minimum(lq, lq.grid.interior, vf.interior,
                                           vf.dv, lq.coef_tab, lq.lq_tab)


def test_howard_non_lq_interval(monkeypatch):
    import exitflow.hamiltonian
    import exitflow.hjb
    base = non_lq_problem()
    calls, b_calls = [], []
    original = exitflow.hamiltonian.hard_hamiltonian

    def counting(*args):
        calls.append(args)
        return original(*args)

    def counting_b(x, a):
        b_calls.append(x)
        return base.b(x, a)

    for module in (exitflow.hamiltonian, exitflow.hjb):
        monkeypatch.setattr(module, "hard_hamiltonian", counting,
                            raising=False)
    prob = replace(base, b=counting_b)
    sol = solve_unregularized_hjb(prob)
    # Howard reads the node minimum from the feature table: no per-node
    # hard_hamiltonian, and no scan of the actions through the closures
    assert calls == []
    assert len(b_calls) < prob.actions.n_actions * prob.n_interior \
        * sol.iterations
    assert sol.final_residual <= default_tolerance(prob)
    # each selected action minimizes b*Dv - c*v + f against a dense scan
    scan = np.linspace(-1.0, 1.0, 20001)
    v, dv = sol.v_star.v, sol.v_star.dv
    for i, x in enumerate(prob.grid.interior):
        def z(a):
            return prob.b(x, a) * dv[i] - prob.c(x, a) * v[i + 1] \
                + prob.f(x, a)
        dense = min(z(a) for a in scan)
        assert z(sol.argmin_actions[i]) <= dense + 1e-12


# Bits recorded at commit 1413b2f, written as 17-digit literals: the
# non-LQ search and the policy-iteration tables may change how they are
# computed, but not one bit of what they compute.
NON_LQ_ARGMIN = [
    -0.26985216164725007, -0.21966002517355759, -0.17307519617257233,
    -0.13033828579533613, -0.091495689273050143, -0.056437458817924113,
    -0.024949654451937343, 0.0032369543915993062, 0.028410623749150009,
    0.050855215182319349, 0.070837340322237152, 0.088600564812237229,
    0.10436382719695, 0.11832233271940942, 0.13064950406538559]
NON_LQ_V = [
    0.0, 0.062089404285160875, 0.1160455862457917, 0.16169086540224031,
    0.19890091276251859, 0.22760161319585256, 0.24776554165937056,
    0.25940826818840218, 0.26258464354080102, 0.25738515989667893,
    0.24393243845342086, 0.2223778685344476, 0.19289840739021097,
    0.15569354209975267, 0.11098241163581693, 0.059001086089991293, 0.0]
INTERVAL_TAU_01_V = [
    0.0, 0.068072869129958066, 0.11752323286149013, 0.14761581862202683,
    0.1577332103539042, 0.1476158186220268, 0.11752323286149011,
    0.068072869129958052, 0.0]


def test_howard_non_lq_interval_bits():
    sol = solve_unregularized_hjb(non_lq_problem())
    assert sol.argmin_actions.tolist() == NON_LQ_ARGMIN
    assert sol.v_star.v.tolist() == NON_LQ_V


def test_howard_non_lq_interval_closure_calls():
    # the golden-section search and the selected coefficients call each of
    # b, c and f exactly as often as when the search first ran on Python
    # floats (4 iterations x 15 nodes)
    base = non_lq_problem()
    calls = {"b": 0, "c": 0, "f": 0}

    def counting(name):
        fn = getattr(base, name)

        def wrapped(x, a):
            calls[name] += 1
            return fn(x, a)
        return wrapped

    sol = solve_unregularized_hjb(
        replace(base, **{name: counting(name) for name in calls}))
    assert sol.iterations == 4
    assert calls == {"b": 2789, "c": 2789, "f": 2789}


def test_regularized_interval_lq_bits():
    problem = lq_benchmark("interval", n_interior=7, n_quad=16)
    sol = solve_regularized_hjb(problem, 0.1)
    assert sol.v_star.v.tolist() == INTERVAL_TAU_01_V


def _count_table_and_weight_reads(monkeypatch):
    """Log each b*p - c*u + f table formed and each policy's weights read."""
    import exitflow.domain
    import exitflow.elliptic
    import exitflow.hamiltonian
    from exitflow.policy import _GibbsPolicy
    calls = []
    table = exitflow.domain._feature_table
    weights_of = _GibbsPolicy.__dict__["weights"].func

    def counting_table(*args):
        calls.append("_feature_table")
        return table(*args)

    def counting_weights(pol):
        calls.append("weights")
        return weights_of(pol)

    for module in (exitflow.domain, exitflow.elliptic, exitflow.hamiltonian):
        monkeypatch.setattr(module, "_feature_table", counting_table)
    monkeypatch.setattr(_GibbsPolicy, "weights", property(counting_weights))
    return calls


def test_regularized_interval_lq_reads_no_tables(monkeypatch, lq_interval):
    # on interval LQ problems each iteration works from the seven LQ maps
    # and two action moments per node: no b*p - c*u + f table is formed
    # and no policy's weights are read before the solve returns
    calls = _count_table_and_weight_reads(monkeypatch)
    sol = solve_regularized_hjb(lq_interval, 0.1)
    assert sol.iterations > 1 and calls == []
    weights = sol.optimal_policy.weights
    assert calls == ["weights"]
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-14


def test_regularized_path_interval_lq_reads_no_tables(monkeypatch,
                                                      lq_interval):
    # the warm starts come from the LQ maps as the iterations do
    calls = _count_table_and_weight_reads(monkeypatch)
    sols = list(regularized_path(lq_interval, [0.5, 0.2, 0.1]))
    assert all(sol.iterations > 1 for sol in sols) and calls == []


@pytest.mark.parametrize("config", ["lq_discrete", "lq_interval"])
def test_regularized_path_on_shipped_ladders(config):
    # the 21 recorded tau of run-flow at horizon 20, a record per unit time
    resolved = load_config(os.path.join(ROOT, "configs", config + ".json"))
    problem = build_problem(resolved)
    sched = build_scheduler(resolved["flow"])
    taus = [sched.value(float(s)) for s in range(21)]
    tol = default_tolerance(problem)
    slack = comparison_slack(problem, tol)
    path = list(regularized_path(problem, taus))
    cold = [solve_regularized_hjb(problem, tau) for tau in taus]
    for warm, ref in zip(path, cold, strict=True):
        assert warm.final_residual <= tol
        assert np.max(np.abs(warm.v_star.v - ref.v_star.v)) <= slack
    assert sum(sol.iterations for sol in path) \
        < sum(sol.iterations for sol in cold)


def test_regularized_path_starts_cold_and_checks_every_tau(monkeypatch, lq):
    # the first tau is solved from the uniform policy, as on its own; a
    # later repeat of it lands within the comparison bound
    sols = list(regularized_path(lq, [0.1, 1.0, 0.1]))
    cold = solve_regularized_hjb(lq, 0.1)
    assert sols[0].v_star.v.tobytes() == cold.v_star.v.tobytes()
    assert sols[0].residual_history == cold.residual_history
    gap = np.max(np.abs(sols[2].v_star.v - cold.v_star.v))
    assert gap <= comparison_slack(lq, default_tolerance(lq))
    assert list(regularized_path(lq, [])) == []
    # a bad tau anywhere on the list is refused before the first solve
    import exitflow.hjb
    monkeypatch.setattr(exitflow.hjb, "solve_regularized_hjb", None)
    with pytest.raises(ValueError):
        next(regularized_path(lq, [1.0, 0.0]))


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_howard_lq_calls_no_closures(monkeypatch, lq, lq_interval, kind):
    # on LQ problems Howard reads the tables: no per-node hard_hamiltonian
    # and no b, c or f evaluation, so its cost is vector work per iteration
    import exitflow.hamiltonian
    import exitflow.hjb
    base = lq if kind == "discrete" else lq_interval
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    for module in (exitflow.hamiltonian, exitflow.hjb):
        monkeypatch.setattr(module, "hard_hamiltonian",
                            counting(exitflow.hamiltonian.hard_hamiltonian),
                            raising=False)
    prob = replace(base, b=counting(base.b), c=counting(base.c),
                   f=counting(base.f))
    sol = solve_unregularized_hjb(prob)
    assert sol.iterations > 1 and calls == []


def _biases(problem, taus):
    """sup|v*_tau - v*_0| per tau, from the two solvers as c12 forms it."""
    base = solve_unregularized_hjb(problem).v_star.v
    return [float(np.max(np.abs(solve_regularized_hjb(problem, tau).v_star.v
                                - base))) for tau in taus]


def test_soft_hard_value_gap_zero_data():
    prob = _zero_data_problem()
    assert all(abs(bias) <= 1e-10 for bias in _biases(prob, [1.0, 0.1]))


def test_soft_hard_value_gap_shrinks_with_tau(lq):
    biases = _biases(lq, [1.0, 0.3, 0.1, 0.03, 0.01])
    assert all(b >= -1e-8 for b in biases)
    for hi, lo in zip(biases, biases[1:]):
        assert lo <= hi + 1e-8


def test_soft_hard_value_gap_within_occupancy_tau_log_n(lq):
    # bias <= occupancy mass * tau * ln N; the occupancy mass is bounded by
    # the uniform-policy expected discounted exit time, measured via f == 1
    grid = lq.grid
    acts = lq.actions
    ones = make_problem(grid, acts, b=lq.b, c=lq.c,
                        f=lambda x, a: 1.0, sigma=lambda x: math.sqrt(2.0),
                        g=lambda x: 0.0)
    occ = solve_on_policy_bellman(ones, uniform_policy(29, acts), 0.0)
    k_occ = float(np.max(occ.v))
    taus = [0.5, 0.1]
    for tau, bias in zip(taus, _biases(lq, taus)):
        assert bias <= 1.05 * k_occ * tau * math.log(5.0) + 1e-8


@pytest.mark.parametrize("tau", [math.nan, math.inf, 1e-310])
def test_regularized_hjb_rejects_non_finite_tau(lq, tau):
    # a subnormal tau would overflow -z/tau in the Gibbs map
    with pytest.raises(ValueError,
                       match=f"tau must be positive and finite.*got {tau!r}"):
        solve_regularized_hjb(lq, tau)


def test_regularized_hjb_at_tiny_normal_tau_is_howard():
    # tau = 1e-300 still divides safely, and the Gibbs policy it gives is
    # one-hot, so the fixed point is Howard's bit for bit
    problem = lq_benchmark("discrete", n_interior=9)
    sol = solve_regularized_hjb(problem, 1e-300)
    assert np.array_equal(sol.v_star.v,
                          solve_unregularized_hjb(problem).v_star.v)


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_howard_cycle_caught_at_first_repeat(monkeypatch, lq, lq_interval,
                                             kind):
    # a hard minimum that alternates the two end selections, each with
    # its true coefficients: iterations 2 and 4 are then the same solve,
    # so the repeat of iteration 1's selection at iteration 3 is a cycle
    import exitflow.hjb
    problem = lq if kind == "discrete" else lq_interval
    ends = problem.actions.actions[[0, -1]]
    calls = []

    def alternating(problem, xs, u, p, coef, lq_rows):
        a = np.full(xs.size, ends[len(calls) % 2])
        calls.append(a)
        b, c, f = (np.array([fn(x, ai) for x, ai in zip(xs, a)])
                   for fn in (problem.b, problem.c, problem.f))
        return b * p - c * u + f, a, (b, c, f)

    monkeypatch.setattr(exitflow.hjb, "_hard_minimum", alternating)
    with pytest.raises(ConvergenceError, match="cycling") as err:
        solve_unregularized_hjb(problem)
    assert len(err.value.residual_history) <= 4


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solvers_reject_max_iter_below_one(lq, max_iter):
    # rejected before any solve: no residual history to report
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_regularized_hjb(lq, 0.5, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_unregularized_hjb(lq, max_iter=max_iter)


def _raise_on_solve(*args, **kwargs):
    raise AssertionError("linear solve ran")


_BAD_SOLVER_ARGS = [{"max_iter": 2.5}] + [{"tol": t} for t in
                                           (math.inf, math.nan, 0.0, -1.0)]


@pytest.mark.parametrize("kwargs", _BAD_SOLVER_ARGS,
                         ids=[repr(k) for k in _BAD_SOLVER_ARGS])
def test_bad_solver_arguments_rejected_before_any_solve(monkeypatch, lq,
                                                        kwargs):
    # tol=inf would accept the first iterate as a solution, and tol <= 0 or
    # nan would run every iteration before failing; a float max_iter is a
    # ValueError like every other count, not a TypeError from range
    import exitflow.hjb
    for name in ("solve_on_policy_bellman", "solve_linear"):
        monkeypatch.setattr(exitflow.hjb, name, _raise_on_solve)
    (key,) = kwargs
    for call in (lambda: solve_regularized_hjb(lq, 0.5, **kwargs),
                 lambda: solve_unregularized_hjb(lq, **kwargs),
                 lambda: next(regularized_path(lq, [0.5, 0.1], **kwargs))):
        with pytest.raises(ValueError, match=key):
            call()


def test_nonconvergence_reports_history(lq):
    with pytest.raises(ConvergenceError) as err:
        solve_regularized_hjb(lq, 0.5, tol=1e-30, max_iter=3)
    assert len(err.value.residual_history) == 3
