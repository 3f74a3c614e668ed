import json
import math

import numpy as np
import pytest

from exitflow import (error_decomposition, gibbs_policy, integrate_flow,
                      make_action_space, regularized_path,
                      solve_unregularized_hjb)
from exitflow.cli import main
from exitflow.config import (build_problem, build_scheduler, probe_indices,
                             resolve_config)
from exitflow.csvio import read_matrix_csv, write_csv


def test_write_csv_deterministic_bytes(tmp_path):
    columns = [(0.1, 2.0 / 3.0), (1, 2)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(str(a), ["x", "k"], columns)
    write_csv(str(b), ["x", "k"], columns)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "x,k"


def test_write_csv_pins_float_and_integer_text(tmp_path):
    # a float column is "%.17g", the text format(float(v), ".17g") gives;
    # any other column is "%d", exact also beyond int64
    floats = np.array([-0.0, 5e-324, -2.5e-310, 1e308, math.inf, -math.inf,
                       math.nan, 2.0 ** 53, 0.1 + 0.2, 1.0 / 3.0])
    ints = np.array([0, -1, 7, 2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63,
                     1234, -99, 10 ** 17, 3], dtype=np.int64)
    big = [2 ** 63 + k for k in range(9)] + [99999999999999999999]
    flags = [True, False] * 5
    mixed = [np.int64(-3), 2 ** 64, True] + list(range(7))
    path = tmp_path / "edge.csv"
    assert write_csv(str(path), ["f", "i", "big", "flag", "mixed"],
                     [floats, ints, big, flags, mixed]) == str(path)
    ref = ["f,i,big,flag,mixed"]
    for row in zip(floats, ints, big, flags, mixed):
        ref.append(",".join([format(float(row[0]), ".17g"),
                             *(str(int(v)) for v in row[1:])]))
    assert path.read_text() == "\n".join(ref) + "\n"
    assert path.read_text().splitlines()[1] == "-0,0,9223372036854775808,1,-3"


@pytest.mark.parametrize("header,columns", [
    (["a", "b"], [[1.0], [2.0], [3.0]]),
    (["a", "b", "c"], [[1.0], [2.0]]),
    (["a"], [np.zeros((2, 2))]),
    (["a"], [1.0]),
    (["a", "b"], [[1.0, 2.0], [3.0]]),
])
def test_write_csv_rejects_mismatched_columns(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), header, columns)
    assert list(tmp_path.iterdir()) == []


def _solver_run(tmp_path, command, section):
    cfg = {
        "grid": {"left": 0.0, "right": 1.0, "n_interior": 19},
        "actions": {"kind": "discrete",
                    "values": [-1.0, -0.5, 0.0, 0.5, 1.0]},
        "lq": {"b_bar": 0.0, "b_hat": 1.0, "c_bar": 0.1, "c_hat": 0.0,
               "f_bar": 1.0, "f_tilde": 0.0, "f_hat": 1.0},
        "sigma": 1.4142135623730951, "g": 0.0, **section}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return resolve_config(cfg), out


def _load(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _same_bits(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_run_flow_csvs_read_back_bitwise(tmp_path):
    resolved, out = _solver_run(tmp_path, "run-flow", {"flow": {
        "scheduler": {"kind": "inverse_linear"}, "horizon": 0.6, "dt": 0.05,
        "record_every": 3, "probes": [0.25, 0.5]}})
    problem = build_problem(resolved)
    flow_cfg = resolved["flow"]
    traj = integrate_flow(problem, np.zeros(problem.coef_tab.shape[1:]),
                          build_scheduler(flow_cfg), flow_cfg["horizon"],
                          flow_cfg["dt"],
                          probe_indices(problem.grid, flow_cfg["probes"]),
                          record_every=flow_cfg["record_every"])
    decomp = error_decomposition(problem, traj, **resolved["solver"])
    table = _load(out / "flow_trajectory.csv")
    assert _same_bits(table, np.column_stack([
        traj.times, traj.tau_values, traj.values_at_probe,
        traj.unregularized_values, traj.kl_mass]))
    z = _load(out / "flow_z_final.csv")
    assert _same_bits(z[:, 0], problem.grid.interior)
    assert _same_bits(z[:, 1:], traj.z_final)
    assert _same_bits(read_matrix_csv(out / "flow_z_final.csv"), traj.z_final)
    header = (out / "flow_z_final.csv").read_text().splitlines()[0]
    assert header == "x,-1,-0.5,0,0.5,1"
    table = _load(out / "flow_error_decomposition.csv")
    s, x = np.meshgrid(traj.times, traj.probe_x, indexing="ij")
    assert _same_bits(table, np.column_stack([
        a.ravel() for a in (s, x, decomp.kl_term, decomp.optimization,
                            decomp.bias, decomp.total)]))


def test_solve_hjb_csvs_read_back_bitwise(tmp_path):
    resolved, out = _solver_run(tmp_path, "solve-hjb",
                                {"hjb": {"taus": [0.5, 0.1]}})
    problem = build_problem(resolved)
    solver = resolved["solver"]
    sols = [solve_unregularized_hjb(problem, **solver),
            *regularized_path(problem, [0.5, 0.1], **solver)]
    for sol, tag in zip(sols, ["0", "0p5", "0p1"]):
        if sol.argmin_actions is None:
            mean = sol.optimal_policy.moments[0]
        else:
            mean = sol.argmin_actions
        path = out / f"hjb_tau_{tag}.csv"
        assert path.read_text().splitlines()[0] == "x,v_star,dv,mean_action"
        assert _same_bits(_load(path), np.column_stack(
            [problem.grid.interior, sol.v_star.v[1:-1], sol.v_star.dv, mean]))
        hist = out / f"hjb_residuals_tau_{tag}.csv"
        lines = hist.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert [r.split(",")[0] for r in lines[1:]] == \
            [str(k) for k in range(1, len(sol.residual_history) + 1)]
        assert _same_bits(_load(hist)[:, 1], sol.residual_history)


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 4))
    path = str(tmp_path / "z.csv")
    write_csv(path, ["x", "-1", "-0.5", "0.5", "1"],
              [np.linspace(0, 1, 6), *z.T])
    back = read_matrix_csv(path)
    assert np.array_equal(back, z)


def test_policy_matrix_serialization(tmp_path):
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    pol = gibbs_policy(np.random.default_rng(1).standard_normal((4, 3)), acts)
    path = str(tmp_path / "policy.csv")
    write_csv(path, ["x", "a0", "a1", "a2"], [np.arange(4), *pol.weights.T])
    back = read_matrix_csv(path)
    assert np.array_equal(back, pol.weights)
