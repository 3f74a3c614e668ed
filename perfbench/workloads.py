"""The three workloads: their inputs, operations and correctness checks.

A workload builds its inputs from the seed in ``build`` (problem
tabulation happens here), makes one small warm-up call, and then offers a
fixed list of operations.  An operation is one call into exitflow,
timed by the runner; ``collect`` turns its result into arrays outside the
timed region, ``check`` compares them with computations made apart from
the program, and ``work`` counts the units of work it completed.
"""

import contextlib
import copy
import io
import json
import math
import os
import shutil

import numpy as np

import checks

OUT_DIR = os.path.join("perfbench", "_out")


class Op:
    """One operation.  ``group`` names the reference outputs it feeds;
    ``seeded`` says whether those outputs depend on the seed."""

    def __init__(self, name, call, check, collect=None, work=None,
                 group=None, seeded=True, values=None):
        self.name = name
        self.call = call
        self.collect = collect or (lambda raw: raw)
        self.check = check
        self.work = work or (lambda out: 1)
        self.group = group
        self.seeded = seeded
        self.values = values or np.ravel


# ---------------------------------------------------------------------------
# anneal: exitflow run-flow on the shipped configs
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# the annealing schedules of the shipped configs, tau as a function of s
SCHEDULES = {"inverse_linear": lambda s: 1.0 / (1.0 + s),
             "inverse_sqrt": lambda s: 1.0 / math.sqrt(1.0 + s)}


class Anneal:
    """``run-flow`` on configs/lq_discrete.json (29x5 discrete actions,
    1/(1+s)) and configs/lq_interval.json (29x128 Gauss-Legendre actions,
    1/sqrt(1+s)), at the shipped dt 0.05 and record interval but horizon
    20.  The inputs do not depend on the seed: the flow starts from zero
    features, as in the paper."""

    name = "anneal"
    CONFIGS = ("lq_discrete", "lq_interval")
    # 400 steps of the shipped dt: short calls, so that a run times many
    # of them (see run.round_time)
    HORIZON = 20.0

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.out = os.path.join(root, OUT_DIR, "anneal")

    def build(self):
        from exitflow.config import build_problem, resolve_config
        # no file of an earlier run may stand in for one this run writes
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.cases = []
        for cfg in self.CONFIGS:
            with open(os.path.join(self.root, "configs", cfg + ".json")) as fh:
                raw = json.load(fh)
            if not self.cases:
                # warm-up: the discrete config cut to one record interval
                warm = copy.deepcopy(raw)
                warm["flow"]["horizon"] = warm["flow"]["dt"] \
                    * warm["flow"]["record_every"]
                self.warm_config = self._write_config("warm_up", warm)
            raw["flow"]["horizon"] = self.HORIZON
            path = self._write_config(cfg, raw)
            resolved = resolve_config(raw)
            flow = resolved["flow"]
            steps = round(flow["horizon"] / flow["dt"])
            if abs(steps * flow["dt"] - flow["horizon"]) > 1e-9 * flow["horizon"]:
                raise ValueError(f"{cfg}: horizon is not a whole multiple of dt")
            self.cases.append((cfg, path, resolved, build_problem(resolved),
                               steps))

    def _write_config(self, name, raw):
        path = os.path.join(self.out, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        return path

    def warm_up(self):
        _run_cli(["run-flow", "--config", self.warm_config, "--out",
                  os.path.join(self.out, "warm_up")])

    def ops(self):
        return [self._op(*case) for case in self.cases]

    def _op(self, cfg, path, resolved, problem, steps):
        out_dir = os.path.join(self.out, cfg)
        horizon = resolved["flow"]["horizon"]
        tau_end = SCHEDULES[resolved["flow"]["scheduler"]["kind"]](horizon)

        def collect(_):
            # each file is removed once read, so every call's check sees
            # only the files that call wrote
            files = {}
            for name in ("flow_trajectory", "flow_error_decomposition",
                         "flow_z_final"):
                path = os.path.join(out_dir, name + ".csv")
                files[name] = _read_csv(path)
                os.remove(path)
            return {"trajectory": files["flow_trajectory"][1],
                    "decomposition": files["flow_error_decomposition"][1],
                    "z_final": files["flow_z_final"][1][:, 1:],
                    "probe_x": np.array([float(h[len("v_reg_"):]) for h in
                                         files["flow_trajectory"][0]
                                         if h.startswith("v_reg_")])}

        def check(out):
            traj, dec = out["trajectory"], out["decomposition"]
            n_probes = out["probe_x"].size
            problems = checks.horizon_reached(traj[-1, 0], horizon)
            problems += checks.decomposition_signs(dec[:, 2], dec[:, 3],
                                                   dec[:, 4])
            first = dec[dec[:, 0] == traj[0, 0], 5]
            last = dec[dec[:, 0] == traj[-1, 0], 5]
            problems += checks.error_decreased(first, last)
            problems += checks.close(traj[-1, 1], tau_end, 1e-15, "final tau")
            grid = problem.grid
            interior = np.linspace(grid.left, grid.right,
                                   grid.n_interior + 2)[1:-1]
            probes = [int(np.argmin(np.abs(interior - x)))
                      for x in out["probe_x"]]
            v = checks.dense_policy_value(
                out["z_final"], problem.actions.mu_weights, problem.b_tab,
                problem.c_tab, problem.f_tab, problem.sigma_interior,
                grid.spacing, problem.g_left, problem.g_right, tau_end)
            problems += checks.value_matches(traj[-1, 2:2 + n_probes],
                                             v[probes])
            return problems

        def values(out):
            return np.concatenate([out["z_final"].ravel(),
                                   out["trajectory"][:, 2:].ravel()])

        return Op(f"run-flow {cfg}",
                  lambda: _run_cli(["run-flow", "--config", path,
                                    "--out", out_dir]),
                  check, collect=collect, work=lambda out: steps,
                  group=f"anneal/{cfg}", seeded=False, values=values)


def _run_cli(argv):
    from exitflow.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exitflow {' '.join(argv)} exited {code}")


# ---------------------------------------------------------------------------
# oracle: the Monte Carlo exit-time estimate
# ---------------------------------------------------------------------------


class Oracle:
    """simulate_exit_value from a start point near the left boundary and
    from the centre, on the manufactured problem (exact value x(1-x)) and
    on the 49-node discrete LQ benchmark under its tau=0.5 optimal policy.

    The Monte Carlo seeds are fixed, not drawn from the workload seed: an
    estimate runs its chunk loop until its slowest path exits, so its cost
    follows the longest exit time among its paths, and from one seed to the
    next that moved the cost of an estimate by 15 % (coefficient of
    variation over 8 seeds, 4000 paths).  A run would then measure the seed
    rather than the program."""

    name = "oracle"
    X0 = (0.05, 0.5)
    N_PATHS = 1000
    DT = 2e-4
    MC_ENTROPY = 0

    def __init__(self, root, seed):
        self.seed = seed

    def build(self):
        from exitflow import (lq_benchmark, manufactured_problem,
                              solve_regularized_hjb, uniform_policy)
        man = manufactured_problem(n_interior=49, forcing="quadratic")
        lq = lq_benchmark("discrete", n_interior=49)
        sol = solve_regularized_hjb(lq, 0.5)
        v_lq = sol.v_star.v
        h = lq.grid.spacing
        # second-order one-sided slopes at both ends
        dv_lq = max(abs(-3.0 * v_lq[0] + 4.0 * v_lq[1] - v_lq[2]),
                    abs(3.0 * v_lq[-1] - 4.0 * v_lq[-2] + v_lq[-3])) / (2.0 * h)
        self.cases = [
            ("manufactured", man, uniform_policy(man.n_interior, man.actions),
             0.0, lambda x: x * (1.0 - x), 1.0,
             float(max(man.sigma_nodes[0], man.sigma_nodes[-1]))),
            ("lq", lq, sol.optimal_policy, 0.5,
             lambda x: float(np.interp(x, lq.grid.nodes, v_lq)), dv_lq,
             float(max(lq.sigma_nodes[0], lq.sigma_nodes[-1]))),
        ]
        n_ops = len(self.cases) * len(self.X0)
        self.mc_seeds = [int(s) for s in np.random.SeedSequence(
            self.MC_ENTROPY).generate_state(n_ops)]

    def warm_up(self):
        from exitflow import simulate_exit_value
        _, problem, policy, tau = self.cases[0][:4]
        # a coarse step keeps the warm-up short; it only has to run the code
        simulate_exit_value(problem, policy, 0.5, tau, 100, 10.0 * self.DT, 0)

    def ops(self):
        out = []
        for case in self.cases:
            for x0 in self.X0:
                out.append(self._op(case, x0, self.mc_seeds[len(out)]))
        return out

    def _op(self, case, x0, mc_seed):
        from exitflow import simulate_exit_value
        name, problem, policy, tau, v_of, dv_boundary, sigma = case
        dt = self.DT

        def collect(est):
            return {"mean": est.mean, "stderr": est.stderr,
                    "path_steps": round(est.mean_exit_time * est.n_paths / dt)}

        def check(out):
            return checks.mc_band(out["mean"], out["stderr"], v_of(x0), dt,
                                  sigma, dv_boundary)

        return Op(f"mc {name} x0={x0}",
                  lambda: simulate_exit_value(problem, policy, x0, tau,
                                              self.N_PATHS, dt, mc_seed),
                  check, collect=collect, work=lambda out: out["path_steps"],
                  group="oracle/estimates", seeded=False,
                  values=lambda out: np.array([out["mean"], out["stderr"]]))

    def reference_extra(self):
        """Seed-independent outputs: the values the estimates are checked
        against."""
        return {"oracle/values": np.array(
            [case[4](x0) for case in self.cases for x0 in self.X0])}


# ---------------------------------------------------------------------------
# sweeps: HJB solves, the bound-vs-beta figure, Hamiltonian samples
# ---------------------------------------------------------------------------

TAU_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01)
# (action kind, interior nodes, discrete actions or quadrature nodes)
LQ_SLOTS = (("discrete", 799, 7), ("interval", 799, 64),
            ("discrete", 399, 5), ("interval", 399, 48),
            ("discrete", 199, 9), ("interval", 199, 96))
NON_LQ_SLOT = ("interval", 99, 48)
ALPHA, BETA = -2.0, 2.0
FIGURE_BETAS = tuple(round(0.02 * k, 10) for k in range(1, 50))
FIGURE_S = (10.0, 100.0, 1000.0, 10000.0, 100000.0)
N_HAM_SAMPLES = 18  # per action kind
# Fixed coefficients of the interval Hamiltonian problem (b = a, c = 0.1,
# f = 1 + a^2): the quadrature order soft_hamiltonian escalates to depends on
# them, and with it the cost of a sample, which should not move with the seed.
HAM_SPEC = {"b0": 0.0, "b1": 0.0, "b_hat": 1.0, "c_bar": 0.1, "c_hat": 0.0,
            "f0": 1.0, "f1": 0.0, "f_tilde": 0.0, "f_hat": 1.0, "sigma": 1.0}


def _lq_spec(rng):
    """Coefficients of a random LQ problem: b = b0 + b1 x + b_hat a,
    c = c_bar + c_hat a, f = f0 + f1 x + f_tilde a + f_hat a^2."""
    return {"b0": rng.uniform(-1.0, 1.0), "b1": rng.uniform(-0.5, 0.5),
            "b_hat": rng.uniform(0.5, 1.5), "c_bar": rng.uniform(0.05, 0.5),
            "c_hat": rng.uniform(0.0, 0.02), "f0": rng.uniform(0.5, 2.0),
            "f1": rng.uniform(0.0, 1.0), "f_tilde": rng.uniform(-0.5, 0.5),
            "f_hat": rng.uniform(0.5, 2.0), "sigma": rng.uniform(0.8, 1.6)}


def _lq_tables(spec, xs, acts):
    """The benchmark's own coefficient tables for a spec."""
    x = xs[:, None]
    a = acts[None, :]
    b = spec["b0"] + spec["b1"] * x + spec["b_hat"] * a
    c = spec["c_bar"] + spec["c_hat"] * a + 0.0 * x
    f = spec["f0"] + spec["f1"] * x + spec["f_tilde"] * a + spec["f_hat"] * a * a
    return b, c, f


def _non_lq_spec(rng):
    """b = b_hat a + b1 x, c = c0 + c2 a^2, f = 1 + (f2 + x) a^2 + w cos(3a):
    convex in a on the interval, but not of LQ form."""
    return {"b_hat": rng.uniform(0.3, 0.7), "b1": rng.uniform(-0.3, 0.3),
            "c0": rng.uniform(0.05, 0.2), "c2": rng.uniform(0.0, 0.05),
            "f2": rng.uniform(1.0, 1.5), "w": rng.uniform(0.05, 0.2),
            "sigma": rng.uniform(0.8, 1.2)}


def _non_lq_tables(spec, xs, acts):
    x = xs[:, None]
    a = acts[None, :]
    b = spec["b_hat"] * a + spec["b1"] * x
    c = spec["c0"] + spec["c2"] * a * a + 0.0 * x
    f = 1.0 + (spec["f2"] + x) * a * a + spec["w"] * np.cos(3.0 * a)
    return b, c, f


class Sweeps:
    """Policy iteration over the tau ladder and one Howard solve on seeded
    random problems up to n=799, the power-law bound-vs-beta figure up to
    S=1e5, and a seeded sample of soft and hard Hamiltonians."""

    name = "sweeps"

    def __init__(self, root, seed):
        self.seed = seed

    def build(self):
        from exitflow.domain import (LQCoefficients, build_grid,
                                     make_action_space, make_lq_problem,
                                     make_problem)
        rng = np.random.default_rng(self.seed)

        def actions(kind, size):
            if kind == "discrete":
                return make_action_space(values=np.linspace(ALPHA, BETA, size))
            return make_action_space(alpha=ALPHA, beta=BETA, n_quad=size)

        def lq_case(label, spec, kind, n, size):
            lq = LQCoefficients(
                b_bar=lambda x: spec["b0"] + spec["b1"] * x,
                b_hat=lambda x: spec["b_hat"],
                c_bar=lambda x: spec["c_bar"],
                c_hat=lambda x: spec["c_hat"],
                f_bar=lambda x: spec["f0"] + spec["f1"] * x,
                f_tilde=lambda x: spec["f_tilde"],
                f_hat=lambda x: spec["f_hat"])
            problem = make_lq_problem(lq, build_grid(0.0, 1.0, n),
                                      actions(kind, size),
                                      sigma=lambda x: spec["sigma"],
                                      g=lambda x: 0.0)
            return (label, problem, spec, _lq_tables)

        self.problems = [lq_case(f"{kind}{n}", _lq_spec(rng), kind, n, size)
                         for kind, n, size in LQ_SLOTS]
        kind, n, size = NON_LQ_SLOT
        s = _non_lq_spec(rng)
        problem = make_problem(
            build_grid(0.0, 1.0, n), actions(kind, size),
            b=lambda x, a: s["b_hat"] * a + s["b1"] * x,
            c=lambda x, a: s["c0"] + s["c2"] * a * a,
            f=lambda x, a: 1.0 + (s["f2"] + x) * a * a + s["w"] * math.cos(3.0 * a),
            sigma=lambda x: s["sigma"], g=lambda x: 0.0)
        self.problems.append((f"nonlq{n}", problem, s, _non_lq_tables))
        # Hamiltonian sample: (p, tau) stratified, tau over [1e-4, 1] in log
        # scale, (x, u) uniform
        ham = lq_case("interval29", HAM_SPEC, "interval", 29, 64)
        self.samples = []
        m = N_HAM_SAMPLES
        for j in range(m):
            tau = 10.0 ** (-4.0 + 4.0 * (j + rng.uniform()) / m)
            p = -3.0 + 6.0 * ((7 * j) % m + rng.uniform()) / m
            for case in (self.problems[0], ham):
                self.samples.append((case, rng.uniform(0.05, 0.95),
                                     rng.uniform(0.0, 1.5), p, tau))

    def warm_up(self):
        from exitflow import solve_regularized_hjb
        solve_regularized_hjb(self.problems[-1][1], 1.0)

    def ops(self):
        ops = []
        for case in self.problems:
            ctx = {}
            ops.append(self._howard_op(case, ctx))
            for k, tau in enumerate(TAU_LADDER):
                ops.append(self._pi_op(case, ctx, k, tau))
        for beta in FIGURE_BETAS:
            for s in FIGURE_S:
                ops.append(self._figure_op(beta, s))
        for kind, beta in (("inverse_linear", 1.0), ("inverse_sqrt", 0.5)):
            for s in FIGURE_S:
                ops.append(self._growth_op(kind, beta, s))
        for sample in self.samples:
            ops.append(self._hamiltonian_op(*sample))
        return ops

    @staticmethod
    def _tables(case):
        label, problem, spec, tables = case
        xs = np.linspace(0.0, 1.0, problem.n_interior + 2)[1:-1]
        return tables(spec, xs, problem.actions.actions)

    def _howard_op(self, case, ctx):
        from exitflow import solve_unregularized_hjb
        label, problem, spec, _ = case
        b, c, f = self._tables(case)
        h = problem.grid.spacing

        def collect(sol):
            out = {"v": sol.v_star.v.copy(),
                   "selected": np.asarray(sol.argmin_actions, dtype=float)}
            ctx["v0"] = out["v"]
            return out

        def check(out):
            if problem.actions.kind == "discrete":
                return checks.discrete_selection(
                    out["selected"], problem.actions.actions, out["v"],
                    b, c, f, h)
            dv = (out["v"][2:] - out["v"][:-2]) / (2.0 * h)
            xs = problem.grid.interior
            u = out["v"][1:-1]
            if "f_hat" in spec:
                slope = spec["b_hat"] * dv - spec["c_hat"] * u + spec["f_tilde"]
                vertex = np.clip(-slope / (2.0 * spec["f_hat"]), ALPHA, BETA)
                return checks.close(out["selected"], vertex, 1e-12,
                                    "selected action")

            def z_of(i, a):
                bi, ci, fi = case[3](spec, xs[i:i + 1], np.array([a]))
                return float(bi[0, 0] * dv[i] - ci[0, 0] * u[i] + fi[0, 0])

            return checks.interval_selection(out["selected"], z_of,
                                             ALPHA, BETA)

        return Op(f"howard {label}", lambda: solve_unregularized_hjb(problem),
                  check, collect=collect, group=f"sweeps/hjb/{label}",
                  values=lambda out: out["v"])

    def _pi_op(self, case, ctx, k, tau):
        from exitflow import solve_regularized_hjb
        label, problem, spec, _ = case
        b, c, f = self._tables(case)
        h = problem.grid.spacing
        sigma = np.full(problem.n_interior, spec["sigma"])
        tol = 1e-9 * (1.0 + float(np.max(np.abs(f))))

        def collect(sol):
            v = sol.v_star.v.copy()
            if "v0" in ctx:
                ctx[k] = float(np.max(np.abs(v - ctx["v0"])))
            return {"v": v}

        def check(out):
            if "v0" not in ctx:
                return ["no Howard solution to compare with"]
            res = checks.semilinear_residual(out["v"], tau, b, c, f,
                                             problem.actions.mu_weights,
                                             sigma, h)
            problems = checks.residual_within(res, tol)
            problems += checks.ordered_below(out["v"], ctx["v0"])
            if k > 0:
                if k - 1 not in ctx:
                    problems.append("previous tau of the ladder failed")
                else:
                    problems += checks.strictly_decreasing(ctx[k - 1], ctx[k])
            return problems

        return Op(f"pi {label} tau={tau}",
                  lambda: solve_regularized_hjb(problem, tau),
                  check, collect=collect, group=f"sweeps/hjb/{label}",
                  values=lambda out: out["v"])

    def _figure_op(self, beta, s):
        from exitflow import reproduce_figure

        def check(rows):
            if len(rows) != 1:
                return [f"expected one figure row, got {len(rows)}"]
            return checks.finite_row(*rows[0], beta, s)

        return Op(f"figure beta={beta} S={s:g}",
                  lambda: reproduce_figure(beta_grid=[beta], s_grid=[s]),
                  check, collect=lambda rows: [tuple(r) for r in rows],
                  group="sweeps/figure", seeded=False,
                  values=lambda rows: np.ravel(rows))

    def _growth_op(self, kind, beta, s):
        from exitflow import growth_integrals_quadrature
        from exitflow.flow import Scheduler

        def check(out):
            log_i1, log_i2 = checks.growth_closed_form(kind, s)
            return checks.close(out[0], log_i1, 1e-9, f"ln I1 ({kind}, S={s:g})") \
                + checks.close(out[1], log_i2, 1e-9, f"ln I2 ({kind}, S={s:g})")

        return Op(f"growth power_law beta={beta} S={s:g}",
                  lambda: growth_integrals_quadrature(
                      Scheduler(kind="power_law", beta=beta), s),
                  check, collect=lambda gi: np.array([gi.log_I1, gi.log_I2]),
                  group="sweeps/growth", seeded=False)

    def _hamiltonian_op(self, case, x, u, p, tau):
        from exitflow import hard_hamiltonian, soft_hamiltonian
        label, problem, spec, _ = case

        def call():
            return (soft_hamiltonian(problem, x, u, p, tau),
                    hard_hamiltonian(problem, x, u, p)[0])

        def check(out):
            soft, hard = out
            if problem.actions.kind == "discrete":
                b, c, f = _lq_tables(spec, np.array([x]),
                                     problem.actions.actions)
                zmin = float(np.min(b * p - c * u + f))
                return checks.sandwich(soft, hard, tau,
                                       problem.actions.n_actions) \
                    + checks.close(hard, zmin, 1e-12, "hard minimum")
            k0 = (spec["b0"] + spec["b1"] * x) * p - spec["c_bar"] * u \
                + spec["f0"] + spec["f1"] * x
            k1 = spec["b_hat"] * p - spec["c_hat"] * u + spec["f_tilde"]
            ref_soft, ref_hard = checks.quadratic_softmin_quad(
                k0, k1, spec["f_hat"], tau, ALPHA, BETA)
            return checks.close(soft, ref_soft, 1e-10, "softmin") \
                + checks.close(hard, ref_hard, 1e-12, "hard minimum")

        return Op(f"hamiltonian {label} tau={tau:.3g}", call, check,
                  collect=np.array, group=f"sweeps/hamiltonian/{label}")


WORKLOADS = {w.name: w for w in (Anneal, Oracle, Sweeps)}
