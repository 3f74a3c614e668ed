import json
import math
import os
import re

import numpy as np
import pytest

from exitflow import Scheduler, growth_integrals
from exitflow.cli import _write_manifest, _z_score, main
from exitflow.config import (ConfigError, build_problem, config_digest,
                             load_config, probe_indices, resolve_config)


def _base_config(**overrides):
    cfg = {
        "grid": {"left": 0.0, "right": 1.0, "n_interior": 19},
        "actions": {"kind": "discrete",
                    "values": [-1.0, -0.5, 0.0, 0.5, 1.0]},
        "lq": {"b_bar": 0.0, "b_hat": 1.0, "c_bar": 0.1, "c_hat": 0.0,
               "f_bar": 1.0, "f_tilde": 0.0, "f_hat": 1.0},
        "sigma": 1.4142135623730951,
        "g": 0.0,
        "seed": 99,
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_resolve_round_trip():
    resolved = resolve_config(_base_config(hjb={"taus": [0.5]}))
    again = resolve_config(json.loads(json.dumps(resolved)))
    assert again == resolved
    assert config_digest(again) == config_digest(resolved)


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="grid.n_interor"):
        resolve_config({"grid": {"left": 0.0, "right": 1.0,
                                 "n_interor": 9}})


def test_missing_key_named():
    with pytest.raises(ConfigError, match="actions.kind"):
        resolve_config({"actions": {"values": [1.0]}})


def test_bad_value_named():
    with pytest.raises(ConfigError, match="grid.n_interior"):
        resolve_config({"grid": {"left": 0.0, "right": 1.0,
                                 "n_interior": 0}})


def test_polynomial_coefficients():
    cfg = _base_config()
    cfg["sigma"] = [1.0, 0.5]  # 1 + x/2
    prob = build_problem(resolve_config(cfg))
    np.testing.assert_allclose(prob.sigma_nodes, 1.0 + 0.5 * prob.grid.nodes,
                               rtol=0.0, atol=1e-15)


def test_probe_snapping():
    prob = build_problem(resolve_config(_base_config()))
    idx = probe_indices(prob.grid, [0.5, 0.501])
    assert idx.size == 1
    assert abs(prob.grid.interior[idx[0]] - 0.5) <= prob.grid.spacing / 2


def test_solve_hjb_outputs(tmp_path):
    cfg = _write(tmp_path, _base_config(hjb={"taus": [0.5, 0.1]}))
    out = str(tmp_path / "run")
    assert main(["solve-hjb", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert "hjb_tau_0.csv" in names
    assert "hjb_tau_0p5.csv" in names
    assert "hjb_tau_0p1.csv" in names
    assert "solve-hjb-manifest.json" in names
    manifest = json.loads((tmp_path / "run" / "solve-hjb-manifest.json")
                          .read_text())
    assert manifest["seed"] == 99
    assert len(manifest["outputs"]) == 6
    resolved = resolve_config(manifest["resolved_config"])
    assert config_digest(resolved) == manifest["config_digest"]


def test_solve_hjb_mean_action_vanishes_at_the_symmetric_centre(tmp_path):
    # the shipped interval LQ problem is symmetric in a, and Dv = 0 at
    # x = 0.5: the Gauss-Legendre nodes +-0.0489 tie there, so the policy's
    # mean action is 0 up to rounding, whichever node rounding favours
    cfg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "configs", "lq_interval.json")
    out = tmp_path / "run"
    assert main(["solve-hjb", "--config", cfg, "--out", str(out)]) == 0
    for tag in ("0p5", "0p1"):
        lines = (out / f"hjb_tau_{tag}.csv").read_text().splitlines()
        assert lines[0] == "x,v_star,dv,mean_action"
        rows = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
        centre = rows[np.argmin(np.abs(rows[:, 0] - 0.5))]
        assert abs(centre[0] - 0.5) <= 1e-15
        assert abs(centre[3]) <= 1e-12


@pytest.mark.parametrize("taus", [[0.1, 0.1000001], [0.1, 0.1]])
def test_solve_hjb_rejects_colliding_output_names(tmp_path, capsys, taus):
    cfg = _write(tmp_path, _base_config(hjb={"taus": taus}))
    out = tmp_path / "run"
    assert main(["solve-hjb", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'hjb.taus'" in err
    assert "hjb_tau_0p1.csv" in err
    assert not list(out.glob("*.csv"))
    assert not out.exists()


def test_zero_data_hjb_files(tmp_path):
    cfg = _base_config(hjb={"taus": [0.3]})
    cfg["lq"] = {k: 0.0 for k in cfg["lq"]}
    cfg["lq"]["f_hat"] = 1.0
    cfg["lq"]["f_bar"] = 0.0
    cfg["actions"] = {"kind": "discrete", "values": [0.0]}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "zero")
    assert main(["solve-hjb", "--config", path, "--out", out]) == 0
    rows = (tmp_path / "zero" / "hjb_tau_0p3.csv").read_text().splitlines()
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert max(abs(v) for v in vals) <= 1e-12


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, {"grid": {"left": 0.0, "right": 1.0,
                                     "n_interior": 9, "bogus_key": 1}})
    assert main(["solve-hjb", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_run_flow_monotone_and_reproducible(tmp_path):
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 1.0,
              "dt": 0.05, "record_every": 4, "probes": [0.5]}))
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run-flow", "--config", cfg, "--out", out_a]) == 0
    assert main(["run-flow", "--config", cfg, "--out", out_b]) == 0
    traj_a = (tmp_path / "a" / "flow_trajectory.csv").read_bytes()
    traj_b = (tmp_path / "b" / "flow_trajectory.csv").read_bytes()
    assert traj_a == traj_b
    lines = traj_a.decode().splitlines()
    v_reg = [float(r.split(",")[2]) for r in lines[1:]]
    assert all(b <= a + 1e-8 for a, b in zip(v_reg, v_reg[1:]))
    for name in ("flow_z_final.csv", "flow_error_decomposition.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_flow_rejects_partial_last_step(tmp_path, capsys):
    # horizon 1.0 at dt 0.3 would stop at s = 0.9
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 1.0,
              "dt": 0.3, "probes": [0.5]}))
    out = tmp_path / "run"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 1
    assert "flow.horizon" in capsys.readouterr().err
    assert not (out / "flow_trajectory.csv").exists()


def test_run_flow_rejects_fractional_record_every(tmp_path, capsys):
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 1.0,
              "dt": 0.05, "record_every": 1.5, "probes": [0.5]}))
    out = tmp_path / "run"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "flow.record_every" in err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "", "x,a0\n0.5,abc\n"])
def test_run_flow_unreadable_restart(tmp_path, capsys, content):
    restart = tmp_path / "restart.csv"
    if content is not None:
        restart.write_text(content)
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.5,
              "dt": 0.05, "probes": [0.5], "z0": str(restart)}))
    out = tmp_path / "run"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 1
    assert "flow.z0" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))
    assert not out.exists()


@pytest.mark.parametrize("command, section", [("solve-hjb", "hjb"),
                                              ("run-flow", "flow"),
                                              ("mc-check", "mc")])
def test_missing_section_leaves_no_directory(tmp_path, capsys, command,
                                             section):
    cfg = _write(tmp_path, _base_config())
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"'{section}' is required" in capsys.readouterr().err
    assert not out.exists()


def _assert_rejected(tmp_path, capsys, command, path, message):
    # exit 1 with the reason on stderr, and nothing written
    out = tmp_path / "run"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() and not any(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("content, message", [
    ('{"grid": {"left": 0.0,', "is not valid JSON"),
    (None, "cannot read config file")], ids=["invalid-json", "missing-file"])
def test_unloadable_config_rejected(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    _assert_rejected(tmp_path, capsys, "solve-hjb", str(path), message)


_FLOW = {"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.5,
         "dt": 0.05, "probes": [0.5]}
_BIAS_SWEEP = {"taus": [0.1], "p_grid": [0.0], "alpha": -1.0, "beta": 1.0}

# (command, section, replacement, message) for each rule that ties keys
# together in resolve_config
_CROSS_KEY_RULES = {
    "grid-left-not-below-right": (
        "solve-hjb", "grid", {"left": 1.0, "right": 1.0, "n_interior": 9},
        "'grid.left': need left < right"),
    "action-key-of-other-kind": (
        "solve-hjb", "actions", {"kind": "discrete", "values": [0.0],
                                 "n_quad": 8},
        "unknown config key 'actions.n_quad'"),
    "missing-action-key": (
        "solve-hjb", "actions", {"kind": "interval", "alpha": -1.0,
                                 "beta": 1.0},
        "'actions.n_quad' is required"),
    "action-alpha-not-below-beta": (
        "solve-hjb", "actions", {"kind": "interval", "alpha": 1.0,
                                 "beta": 1.0, "n_quad": 8},
        "'actions.alpha': need alpha < beta"),
    # its weights would all be 0 (make_action_space refuses it too)
    "action-interval-below-normal-width": (
        "solve-hjb", "actions", {"kind": "interval", "alpha": 0.0,
                                 "beta": 5e-324, "n_quad": 8},
        "'actions.alpha': need alpha < beta, beta - alpha finite and normal"),
    "scheduler-key-of-other-kind": (
        "run-flow", "flow", {**_FLOW, "scheduler": {"kind": "inverse_linear",
                                                    "beta": 0.5}},
        "unknown config key 'flow.scheduler.beta'"),
    "missing-scheduler-parameter": (
        "run-flow", "flow", {**_FLOW, "scheduler": {"kind": "constant"}},
        "'flow.scheduler.tau' is required"),
    "bias-sweep-alpha-not-below-beta": (
        "sweep-bounds", "bounds", {"bias_sweep": {**_BIAS_SWEEP,
                                                  "alpha": 1.0}},
        "'bounds.bias_sweep.alpha': need alpha < beta"),
}


@pytest.mark.parametrize("case", list(_CROSS_KEY_RULES))
def test_cross_key_rule_rejected(tmp_path, capsys, case):
    command, section, value, message = _CROSS_KEY_RULES[case]
    cfg = _base_config(hjb={"taus": [0.5]}, flow=_FLOW,
                       bounds={"bias_sweep": _BIAS_SWEEP})
    resolve_config(cfg)
    cfg[section] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(cfg)
    _assert_rejected(tmp_path, capsys, command, _write(tmp_path, cfg),
                     message)


@pytest.mark.parametrize("section", ["grid", "actions", "lq", "sigma", "g"])
def test_problem_section_missing_rejected(tmp_path, capsys, section):
    cfg = _base_config(hjb={"taus": [0.5]})
    del cfg[section]
    message = f"config key '{section}' is required to define a problem"
    with pytest.raises(ConfigError, match=message):
        build_problem(resolve_config(cfg))
    _assert_rejected(tmp_path, capsys, "solve-hjb", _write(tmp_path, cfg),
                     message)


def test_run_flow_rejects_colliding_probes(tmp_path, capsys):
    # 0.5 and 0.51 snap to the same node at spacing 0.05
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.5,
              "dt": 0.05, "probes": [0.5, 0.51]}))
    out = tmp_path / "run"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'flow.probes'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-hjb", "run-flow"])
def test_peclet_failure_names_the_grid_remedy(tmp_path, capsys, command):
    # b = 200 with sigma = 1 at spacing 0.05: cell Peclet number 10
    cfg = _base_config(
        actions={"kind": "discrete", "values": [1.0]}, sigma=1.0,
        hjb={"taus": [0.5]},
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.5,
              "dt": 0.05, "probes": [0.5]})
    cfg["lq"]["b_hat"] = 200.0
    out = tmp_path / "run"
    assert main([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Peclet" in err and "grid.n_interior" in err
    assert not out.exists()


def test_discount_negative_at_interval_end_rejected(tmp_path, capsys):
    # c = 0.01 + 0.0102*a is nonnegative at every Gauss-Legendre node
    # (the extreme ones are +-0.9603) but negative at alpha = -1
    cfg = _base_config(actions={"kind": "interval", "alpha": -1.0,
                                "beta": 1.0, "n_quad": 8},
                       hjb={"taus": [0.5]})
    cfg["lq"].update(c_bar=0.01, c_hat=0.0102, b_hat=-5.0, f_hat=0.05)
    out = tmp_path / "run"
    assert main(["solve-hjb", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert "invalid problem coefficients" in capsys.readouterr().err
    assert not out.exists()


def test_run_flow_restart_roundtrip(tmp_path):
    cfg_dict = _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.5,
              "dt": 0.05, "record_every": 10, "probes": [0.5]})
    cfg = _write(tmp_path, cfg_dict)
    out = str(tmp_path / "first")
    assert main(["run-flow", "--config", cfg, "--out", out]) == 0
    cfg_dict["flow"]["z0"] = os.path.join(out, "flow_z_final.csv")
    cfg2 = _write(tmp_path, cfg_dict, name="cfg2.json")
    assert main(["run-flow", "--config", cfg2,
                 "--out", str(tmp_path / "second")]) == 0


def test_sweep_bounds_small_grid(tmp_path):
    cfg = _write(tmp_path, {"bounds": {"beta_grid": [0.5], "s_grid": [10.0]},
                            "seed": 1})
    out = str(tmp_path / "sw")
    assert main(["sweep-bounds", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "sw" / "figure_bounds.csv").read_text().splitlines()
    assert len(rows) == 2  # header + single point


def test_sweep_bounds_growth_csv_is_growth_integrals(tmp_path):
    # the CSV holds the integrals the bound beside it used, to the bit
    cfg = _write(tmp_path, {"bounds": {"beta_grid": [0.05, 0.5, 1.0],
                                       "s_grid": [10.0, 1e4]}})
    out = str(tmp_path / "gi")
    assert main(["sweep-bounds", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "gi" / "growth_integrals.csv").read_text().splitlines()
    assert rows[0] == "beta,s,log_I1,log_I2" and len(rows) == 1 + 3 * 2
    for r in rows[1:]:
        beta, s, log_i1, log_i2 = map(float, r.split(","))
        gi = growth_integrals(Scheduler(kind="power_law", beta=beta), s)
        assert (log_i1, log_i2) == (gi.log_I1, gi.log_I2)


def test_failed_manifest_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def failing_dump(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError, match="disk full"):
        _write_manifest(str(tmp_path), "solve-hjb", {"seed": 1}, 1, [], 0.0)
    assert list(tmp_path.iterdir()) == []


def test_sweep_bounds_bias_sweep_csv(tmp_path):
    cfg = _write(tmp_path, {"bounds": {
        "beta_grid": [0.5], "s_grid": [10.0],
        "bias_sweep": {"taus": [0.1, 0.01], "p_grid": [-1.0, 0.0, 2.0]}}})
    out = str(tmp_path / "bs")
    assert main(["sweep-bounds", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "bs" / "bias_sweep.csv").read_text().splitlines()
    assert rows[0] == "tau,p,soft,hard,gap,gap_over_tau_log"
    assert len(rows) == 1 + 2 * 3
    for r in rows[1:]:
        tau, p, soft, hard, gap, ratio = map(float, r.split(","))
        assert gap >= -1e-12
        assert abs(gap - (soft - hard)) <= 1e-15


def test_sweep_bounds_empty_bias_sweep_writes_the_header(tmp_path):
    cfg = _write(tmp_path, {"bounds": {
        "beta_grid": [0.5], "s_grid": [10.0],
        "bias_sweep": {"taus": [], "p_grid": [0.0]}}})
    out = str(tmp_path / "bs")
    assert main(["sweep-bounds", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "bs" / "bias_sweep.csv").read_text() == \
        "tau,p,soft,hard,gap,gap_over_tau_log\n"


def test_run_flow_optimal_start(tmp_path):
    cfg = _write(tmp_path, _base_config(
        flow={"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 0.2,
              "dt": 0.05, "record_every": 2, "probes": [0.5],
              "z0": "optimal"}))
    out = str(tmp_path / "opt")
    assert main(["run-flow", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "opt" / "flow_error_decomposition.csv") \
        .read_text().splitlines()
    # optimization error starts at the fixed point: essentially zero
    first_opt = float(lines[1].split(",")[3])
    assert abs(first_opt) <= 1e-8


def test_sweep_bounds_empty_grid_rejected(tmp_path):
    cfg = _write(tmp_path, {"bounds": {"beta_grid": [], "s_grid": [10.0]}})
    assert main(["sweep-bounds", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 1


def test_reproduce_figure_defaults(tmp_path):
    out = str(tmp_path / "fig")
    assert main(["reproduce-figure", "--out", out]) == 0
    rows = (tmp_path / "fig" / "figure_bounds.csv").read_text().splitlines()
    assert len(rows) == 1 + 19 * 4
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(np.isfinite(vals))


@pytest.mark.slow
def test_mc_check_pass_and_csv(tmp_path):
    cfg = _write(tmp_path, _base_config(
        grid={"left": 0.0, "right": 1.0, "n_interior": 49},
        mc={"x0": [0.5], "tau": 0.5, "n_paths": 30000, "dt_sim": 5e-5,
            "policy": "optimal"}))
    out = str(tmp_path / "mc")
    assert main(["mc-check", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "mc" / "mc_check.csv").read_text().splitlines()
    assert rows[0] == "x,pde_value,mc_mean,mc_stderr,z_score"
    assert len(rows) == 2
    est = (tmp_path / "mc" / "mc_estimates.csv").read_text().splitlines()
    assert est[0] == "x0,tau,mean,stderr,n_paths,mean_exit_time,seed"
    assert int(est[1].split(",")[4]) == 30000


def test_mc_check_negative_control(tmp_path):
    # deliberately mismatched tau between the solver and the simulation
    cfg = _write(tmp_path, _base_config(
        grid={"left": 0.0, "right": 1.0, "n_interior": 49},
        mc={"x0": [0.5], "tau": 0.0, "pde_tau": 0.5, "n_paths": 20000,
            "dt_sim": 2e-4, "policy": "optimal"}))
    out = str(tmp_path / "mcneg")
    assert main(["mc-check", "--config", cfg, "--out", out]) == 3
    rows = (tmp_path / "mcneg" / "mc_check.csv").read_text().splitlines()
    z = abs(float(rows[1].split(",")[4]))
    assert z > 3.0


def test_mc_check_one_path_signs_z_score(tmp_path):
    # one path has zero stderr: the z-score is an infinity with the sign of
    # mc_mean - pde_value, and the check fails as before
    lq = {**_base_config()["lq"], "b_hat": 0.0}
    cfg = _write(tmp_path, _base_config(
        lq=lq, mc={"x0": [0.1, 0.3, 0.5, 0.9], "n_paths": 1,
                   "dt_sim": 1e-3}))
    out = tmp_path / "one"
    assert main(["mc-check", "--config", cfg, "--out", str(out)]) == 3
    rows = [[float(v) for v in r.split(",")]
            for r in (out / "mc_check.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for x, pde, mean, stderr, z in rows:
        assert stderr == 0.0 and mean != pde
        assert z == math.copysign(math.inf, mean - pde)
    assert {z for *_, z in rows} == {-math.inf, math.inf}


def test_z_score_of_equal_values_is_zero():
    assert _z_score(0.0, 0.0) == 0.0
    assert _z_score(-0.5, 0.25) == -2.0


def test_seed_flag_overrides(tmp_path):
    cfg = _write(tmp_path, _base_config(hjb={"taus": [0.5]}))
    out = str(tmp_path / "seeded")
    assert main(["solve-hjb", "--config", cfg, "--seed", "7",
                 "--out", out]) == 0
    manifest = json.loads((tmp_path / "seeded" / "solve-hjb-manifest.json")
                          .read_text())
    assert manifest["seed"] == 7


def test_negative_seed_flag_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, _base_config(hjb={"taus": [0.5]}))
    out = tmp_path / "neg"
    assert main(["solve-hjb", "--config", cfg, "--seed", "-1",
                 "--out", str(out)]) == 1
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    cfg = _write(tmp_path, _base_config(hjb={"taus": [0.5]}))
    monkeypatch.setenv("EXITFLOW_OUTDIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["solve-hjb", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "hjb_tau_0p5.csv").exists()
