"""Experiment runner: config-driven subcommands with reproducible outputs.

Every subcommand writes its CSV outputs plus a JSON run manifest
(config digest, seed, tool version, output list, wall time).  Exit codes:
0 success, 1 config validation failure, 2 numerical failure, 3 failed
agreement check (mc-check).
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import QuadratureError, growth_integrals, reproduce_figure
from .config import (ConfigError, build_problem, build_scheduler,
                     config_digest, load_config, probe_indices,
                     resolve_config)
from .csvio import _write_atomic, read_matrix_csv, write_csv
from .elliptic import SolverError, optimal_feature, solve_on_policy_bellman
from .flow import (POWER_LAW, Scheduler, UnstableFlowError,
                   error_decomposition, integrate_flow)
from .hamiltonian import bias_sweep_rows
from .hjb import (ConvergenceError, regularized_path,
                  solve_regularized_hjb, solve_unregularized_hjb)
from .montecarlo import PathCapError, simulate_exit_value
from .policy import uniform_policy

VALIDATION_FAILURE = 1
NUMERICAL_FAILURE = 2
CHECK_FAILURE = 3

_NUMERICAL_ERRORS = (SolverError, ConvergenceError, UnstableFlowError,
                     QuadratureError, PathCapError)

# weight of the regularized solve behind mc.policy "optimal" when mc.tau is 0
_OPTIMAL_POLICY_TAU_AT_ZERO = 0.5


def _out_dir(resolved, args):
    if args.out is not None:
        return args.out
    if "output_dir" in resolved:
        return resolved["output_dir"]
    return os.environ.get("EXITFLOW_OUTDIR", "runs")


def _write_manifest(out_dir, command, resolved, seed, outputs, wall_time):
    manifest = {
        "command": command,
        "config_digest": config_digest(resolved),
        "seed": seed,
        "tool_version": __version__,
        "outputs": sorted(outputs),
        "wall_time_s": wall_time,
        "resolved_config": resolved,
    }
    def write(fh):
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return _write_atomic(os.path.join(out_dir, f"{command}-manifest.json"),
                         write)


def _tau_tag(tau):
    return format(float(tau), "g").replace("-", "m").replace(".", "p")


def cmd_solve_hjb(resolved, out_dir):
    if "hjb" not in resolved:
        raise ConfigError("config key 'hjb' is required for solve-hjb")
    taus = [0.0, *resolved["hjb"]["taus"]]
    tags = [_tau_tag(tau) for tau in taus]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"config key 'hjb.taus': weights "
                              f"{taus[tags.index(tag)]!r} and {taus[i]!r} "
                              f"would both write hjb_tau_{tag}.csv")
    problem = build_problem(resolved)
    solver = resolved["solver"]
    outputs = []
    sols = [solve_unregularized_hjb(problem, **solver),
            *regularized_path(problem, resolved["hjb"]["taus"], **solver)]
    for sol, tag in zip(sols, tags):
        top = sol.argmin_actions
        if top is None:
            top = problem.actions.actions[
                np.argmax(sol.optimal_policy.weights, axis=1)]
        path = os.path.join(out_dir, f"hjb_tau_{tag}.csv")
        outputs.append(write_csv(path, ["x", "v_star", "dv", "top_action"],
                                 [problem.grid.interior, sol.v_star.interior,
                                  sol.v_star.dv, top]))
        hist = sol.residual_history
        path = os.path.join(out_dir, f"hjb_residuals_tau_{tag}.csv")
        outputs.append(write_csv(path, ["iteration", "residual"],
                                 [np.arange(1, len(hist) + 1), hist]))
    return outputs, 0


def _initial_feature(problem, flow_cfg, solver):
    z0_choice = flow_cfg["z0"]
    shape = (problem.n_interior, problem.actions.n_actions)
    if z0_choice == "zero":
        return np.zeros(shape)
    if z0_choice == "optimal":
        tau0 = float(build_scheduler(flow_cfg).value(0.0))
        sol = solve_regularized_hjb(problem, tau0, **solver)
        return -optimal_feature(problem, sol.v_star) / tau0
    try:
        z = read_matrix_csv(z0_choice)  # a .csv path, checked at load time
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config key 'flow.z0': cannot read the restart "
                          f"matrix: {exc}")
    if z.shape != shape:
        raise ConfigError(f"config key 'flow.z0': restart matrix has "
                          f"shape {z.shape}, expected {shape}")
    return z


def cmd_run_flow(resolved, out_dir):
    if "flow" not in resolved:
        raise ConfigError("config key 'flow' is required for run-flow")
    problem = build_problem(resolved)
    flow_cfg = resolved["flow"]
    solver = resolved["solver"]
    sched = build_scheduler(flow_cfg)
    probes = probe_indices(problem.grid, flow_cfg["probes"])
    if probes.size < len(flow_cfg["probes"]):
        raise ConfigError(f"config key 'flow.probes': {flow_cfg['probes']} "
                          f"snap to only {probes.size} distinct interior "
                          f"node(s) at spacing {problem.grid.spacing:g}")
    z0 = _initial_feature(problem, flow_cfg, solver)
    traj = integrate_flow(problem, z0, sched, flow_cfg["horizon"],
                          flow_cfg["dt"], probes,
                          record_every=flow_cfg["record_every"])
    outputs = []
    labels = [format(x, ".6g") for x in traj.probe_x]
    header = ["s", "tau_s"] + [f"v_reg_{x}" for x in labels] \
        + [f"v_unreg_{x}" for x in labels] + ["kl_mass"]
    path = os.path.join(out_dir, "flow_trajectory.csv")
    outputs.append(write_csv(path, header, [
        traj.times, traj.tau_values, *traj.values_at_probe.T,
        *traj.unregularized_values.T, traj.kl_mass]))
    path = os.path.join(out_dir, "flow_z_final.csv")
    outputs.append(write_csv(
        path, ["x", *("%.17g" % a for a in problem.actions.actions.tolist())],
        [problem.grid.interior, *traj.z_final.T]))
    decomp = error_decomposition(problem, traj, **solver)
    path = os.path.join(out_dir, "flow_error_decomposition.csv")
    outputs.append(write_csv(
        path, ["s", "x", "kl_term", "optimization", "bias", "total"],
        [np.repeat(traj.times, traj.probe_x.size),
         np.tile(traj.probe_x, traj.times.size),
         *(a.ravel() for a in (decomp.kl_term, decomp.optimization,
                               decomp.bias, decomp.total))]))
    return outputs, 0


def cmd_sweep_bounds(resolved, out_dir):
    cfg = resolved["bounds"]
    figure_rows = reproduce_figure(cfg["beta_grid"], cfg["s_grid"],
                                   cfg["constant"], cfg["alpha"])
    growth_rows = []
    for S in cfg["s_grid"]:
        for beta in cfg["beta_grid"]:
            gi = growth_integrals(Scheduler(kind=POWER_LAW, beta=beta), S)
            growth_rows.append((beta, S, gi.log_I1, gi.log_I2))
    outputs = []
    path = os.path.join(out_dir, "figure_bounds.csv")
    outputs.append(write_csv(path, ["beta", "S", "bound"],
                             zip(*figure_rows)))
    path = os.path.join(out_dir, "growth_integrals.csv")
    outputs.append(write_csv(path, ["beta", "s", "log_I1", "log_I2"],
                             zip(*growth_rows)))
    if "bias_sweep" in cfg:
        bs = cfg["bias_sweep"]
        rows = bias_sweep_rows(bs["taus"], bs["p_grid"],
                               alpha=bs["alpha"], beta=bs["beta"])
        path = os.path.join(out_dir, "bias_sweep.csv")
        # no taus give no rows, where zip(*rows) would give no columns
        outputs.append(write_csv(path, ["tau", "p", "soft", "hard", "gap",
                                        "gap_over_tau_log"],
                                 np.reshape(rows, (-1, 6)).T))
    return outputs, 0


def _z_score(diff, stderr):
    """diff/stderr; with no spread, 0 or an infinity of the sign of diff."""
    if stderr > 0:
        return diff / stderr
    return math.copysign(math.inf, diff) if diff else 0.0


def cmd_mc_check(resolved, out_dir, seed):
    if "mc" not in resolved:
        raise ConfigError("config key 'mc' is required for mc-check")
    problem = build_problem(resolved)
    mc = resolved["mc"]
    solver = resolved["solver"]
    if mc["policy"] == "uniform":
        pol = uniform_policy(problem.n_interior, problem.actions)
    else:
        ref_tau = mc["tau"] if mc["tau"] > 0 else _OPTIMAL_POLICY_TAU_AT_ZERO
        sol = solve_regularized_hjb(problem, ref_tau, **solver)
        pol = sol.optimal_policy
    pde_tau = mc["pde_tau"] if mc["pde_tau"] is not None else mc["tau"]
    vf = solve_on_policy_bellman(problem, pol, pde_tau)
    rows = []
    est_rows = []
    ok = True
    for k, x0 in enumerate(mc["x0"]):
        est = simulate_exit_value(problem, pol, x0, mc["tau"], mc["n_paths"],
                                  mc["dt_sim"], seed + k)
        pde = float(np.interp(x0, problem.grid.nodes, vf.v))
        rows.append((x0, pde, est.mean, est.stderr,
                     _z_score(est.mean - pde, est.stderr)))
        est_rows.append((x0, mc["tau"], est.mean, est.stderr, est.n_paths,
                         est.mean_exit_time, est.seed))
        if abs(est.mean - pde) > 3.0 * est.stderr + mc["bias_allowance"]:
            ok = False
    path = os.path.join(out_dir, "mc_check.csv")
    outputs = [write_csv(path, ["x", "pde_value", "mc_mean", "mc_stderr",
                                "z_score"], zip(*rows))]
    path = os.path.join(out_dir, "mc_estimates.csv")
    outputs.append(write_csv(path, ["x0", "tau", "mean", "stderr", "n_paths",
                                    "mean_exit_time", "seed"],
                             zip(*est_rows)))
    return outputs, 0 if ok else CHECK_FAILURE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exitflow",
        description="entropy-annealed mirror descent experiments on a 1D "
                    "exit-time control problem")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("solve-hjb", "solve the regularized and hard-min equations"),
            ("run-flow", "integrate the mirror descent flow"),
            ("sweep-bounds", "evaluate bound curves over (beta, S) grids"),
            ("mc-check", "compare the linear solver against simulation"),
            ("reproduce-figure", "sweep-bounds with the default grids")]:
        p = sub.add_parser(name, help=help_text)
        if name != "reproduce-figure":
            p.add_argument("--config", required=True, help="JSON config file")
        else:
            p.add_argument("--config", help="JSON config file (optional)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (else config "
                                     "output_dir or $EXITFLOW_OUTDIR)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.config is None:  # only reproduce-figure may omit it
            resolved = resolve_config({})
        else:
            resolved = load_config(args.config)
        if args.seed is not None:
            resolved = resolve_config({**resolved, "seed": args.seed})
        seed = resolved["seed"]
        out_dir = _out_dir(resolved, args)
        if args.command == "solve-hjb":
            outputs, code = cmd_solve_hjb(resolved, out_dir)
        elif args.command == "run-flow":
            outputs, code = cmd_run_flow(resolved, out_dir)
        elif args.command in ("sweep-bounds", "reproduce-figure"):
            if "bounds" not in resolved:
                resolved["bounds"] = resolve_config({"bounds": {}})["bounds"]
            outputs, code = cmd_sweep_bounds(resolved, out_dir)
        else:
            outputs, code = cmd_mc_check(resolved, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    wall = time.perf_counter() - t0
    manifest = _write_manifest(out_dir, args.command, resolved, seed,
                               [os.path.relpath(p, out_dir) for p in outputs],
                               wall)
    print(f"wrote {len(outputs)} output file(s) and {manifest}")
    return code


if __name__ == "__main__":
    sys.exit(main())
