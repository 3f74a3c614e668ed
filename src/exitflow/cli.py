"""Experiment runner: config-driven subcommands with reproducible outputs.

Each subcommand is declared once, as a row of the command table
``_COMMANDS`` that ``build_parser`` and ``main`` read.  Every subcommand
writes its CSV outputs plus a JSON run manifest (config digest, seed,
tool version, output list, wall time).  Exit codes: 0 success, 1 config
validation failure, 2 numerical failure, 3 failed agreement check
(mc-check).
"""

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple

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


class _OutputDir:
    """A run's output directory, recording the name of each CSV written."""

    def __init__(self, path):
        self.path = path
        self.names = []

    def write_csv(self, name, header, columns):
        write_csv(os.path.join(self.path, name), header, columns)
        self.names.append(name)


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


def cmd_solve_hjb(resolved, out, seed):
    taus = [0.0, *resolved["hjb"]["taus"]]
    tags = [_tau_tag(tau) for tau in taus]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"config key 'hjb.taus': weights "
                              f"{taus[tags.index(tag)]!r} and {taus[i]!r} "
                              f"would both write hjb_tau_{tag}.csv")
    problem = build_problem(resolved)
    solver = resolved["solver"]
    sols = [solve_unregularized_hjb(problem, **solver),
            *regularized_path(problem, resolved["hjb"]["taus"], **solver)]
    for sol, tag in zip(sols, tags):
        # the policy's mean action: the argmax of its weights would flip
        # between tied nodes on rounding (e.g. where Dv = 0 on a problem
        # symmetric in a)
        mean = sol.argmin_actions
        if mean is None:
            mean = sol.optimal_policy.moments[0]
        out.write_csv(f"hjb_tau_{tag}.csv",
                      ["x", "v_star", "dv", "mean_action"],
                      [problem.grid.interior, sol.v_star.interior,
                       sol.v_star.dv, mean])
        hist = sol.residual_history
        out.write_csv(f"hjb_residuals_tau_{tag}.csv",
                      ["iteration", "residual"],
                      [np.arange(1, len(hist) + 1), hist])
    return 0


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


def cmd_run_flow(resolved, out, seed):
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
    labels = [format(x, ".6g") for x in traj.probe_x]
    header = ["s", "tau_s"] + [f"v_reg_{x}" for x in labels] \
        + [f"v_unreg_{x}" for x in labels] + ["kl_mass"]
    out.write_csv("flow_trajectory.csv", header, [
        traj.times, traj.tau_values, *traj.values_at_probe.T,
        *traj.unregularized_values.T, traj.kl_mass])
    actions = ("%.17g" % a for a in problem.actions.actions.tolist())
    out.write_csv("flow_z_final.csv", ["x", *actions],
                  [problem.grid.interior, *traj.z_final.T])
    decomp = error_decomposition(problem, traj, **solver)
    out.write_csv("flow_error_decomposition.csv",
                  ["s", "x", "kl_term", "optimization", "bias", "total"],
                  [np.repeat(traj.times, traj.probe_x.size),
                   np.tile(traj.probe_x, traj.times.size),
                   *(a.ravel() for a in (decomp.kl_term, decomp.optimization,
                                         decomp.bias, decomp.total))])
    return 0


def cmd_sweep_bounds(resolved, out, seed):
    cfg = resolved["bounds"]
    figure_rows = reproduce_figure(cfg["beta_grid"], cfg["s_grid"],
                                   cfg["constant"], cfg["alpha"])
    growth_rows = []
    for S in cfg["s_grid"]:
        for beta in cfg["beta_grid"]:
            gi = growth_integrals(Scheduler(kind=POWER_LAW, beta=beta), S)
            growth_rows.append((beta, S, gi.log_I1, gi.log_I2))
    out.write_csv("figure_bounds.csv", ["beta", "S", "bound"],
                  zip(*figure_rows))
    out.write_csv("growth_integrals.csv", ["beta", "s", "log_I1", "log_I2"],
                  zip(*growth_rows))
    if "bias_sweep" in cfg:
        bs = cfg["bias_sweep"]
        rows = bias_sweep_rows(bs["taus"], bs["p_grid"],
                               alpha=bs["alpha"], beta=bs["beta"])
        # no taus give no rows, where zip(*rows) would give no columns
        out.write_csv("bias_sweep.csv", ["tau", "p", "soft", "hard", "gap",
                                         "gap_over_tau_log"],
                      np.reshape(rows, (-1, 6)).T)
    return 0


def _z_score(diff, stderr):
    """diff/stderr; with no spread, 0 or an infinity of the sign of diff."""
    if stderr > 0:
        return diff / stderr
    return math.copysign(math.inf, diff) if diff else 0.0


def cmd_mc_check(resolved, out, seed):
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
    rows, est_rows = [], []
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
    out.write_csv("mc_check.csv", ["x", "pde_value", "mc_mean", "mc_stderr",
                                   "z_score"], zip(*rows))
    out.write_csv("mc_estimates.csv", ["x0", "tau", "mean", "stderr",
                                       "n_paths", "mean_exit_time", "seed"],
                  zip(*est_rows))
    return 0 if ok else CHECK_FAILURE


# The one place a subcommand is declared: help text, the config section it
# needs, whether --config may be omitted, handler(resolved, out, seed) -> code
_Command = namedtuple("_Command", "help section config_optional handler")
_COMMANDS = {
    "solve-hjb": _Command("solve the regularized and hard-min equations",
                          "hjb", False, cmd_solve_hjb),
    "run-flow": _Command("integrate the mirror descent flow", "flow", False,
                         cmd_run_flow),
    "sweep-bounds": _Command("evaluate bound curves over (beta, S) grids",
                             "bounds", False, cmd_sweep_bounds),
    "mc-check": _Command("compare the linear solver against simulation",
                         "mc", False, cmd_mc_check),
    "reproduce-figure": _Command("sweep-bounds with the default grids",
                                 "bounds", True, cmd_sweep_bounds),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exitflow",
        description="entropy-annealed mirror descent experiments on a 1D "
                    "exit-time control problem")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", required=not cmd.config_optional,
                       help="JSON config file (optional)"
                       if cmd.config_optional else "JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (else config "
                                     "output_dir or $EXITFLOW_OUTDIR)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        resolved = resolve_config({}) if args.config is None \
            else load_config(args.config)
        if args.seed is not None:
            resolved = resolve_config({**resolved, "seed": args.seed})
        seed = resolved["seed"]
        out = _OutputDir(args.out if args.out is not None else resolved.get(
            "output_dir", os.environ.get("EXITFLOW_OUTDIR", "runs")))
        if cmd.section not in resolved:
            # an absent section takes its defaults where every key has one
            # (bounds), and is required otherwise
            try:
                resolved[cmd.section] = \
                    resolve_config({cmd.section: {}})[cmd.section]
            except ConfigError:
                raise ConfigError(f"config key '{cmd.section}' is required "
                                  f"for {args.command}") from None
        code = cmd.handler(resolved, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    wall = time.perf_counter() - t0
    manifest = _write_manifest(out.path, args.command, resolved, seed,
                               out.names, wall)
    print(f"wrote {len(out.names)} output file(s) and {manifest}")
    return code


if __name__ == "__main__":
    sys.exit(main())
