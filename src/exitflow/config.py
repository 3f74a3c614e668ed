"""Run configuration: JSON parsing, validation, and problem assembly.

Configs are strict: unknown or ill-typed keys fail with the dotted key
path in the message.  Scalar coefficients (sigma, g, lq.*) accept either
a number (constant in x) or a list of polynomial coefficients in
ascending order.  The resolved config (defaults applied) is what gets
hashed into the run manifest, and parsing it back yields the same
resolved config.
"""

import hashlib
import json
import math

import numpy as np

from .bounds import BETA_GRID, S_GRID
from .domain import (DISCRETE, INTERVAL, LQCoefficients, build_grid,
                     make_action_space, make_lq_problem)
from .flow import SCHEDULER_KINDS, Scheduler


class ConfigError(ValueError):
    pass


def _require(section, key, path, types, predicate=None, what=""):
    if key not in section:
        raise ConfigError(f"config key '{path}' is required")
    val = section[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"config key '{path}': expected {what or types}, "
                          f"got {type(val).__name__}")
    if predicate is not None and not predicate(val):
        raise ConfigError(f"config key '{path}': invalid value {val!r}"
                          + (f" ({what})" if what else ""))
    return val


def _check_known(section, path, known):
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{path}.{key}'"
                              if path else f"unknown config key '{key}'")


_NUM = (int, float)


def _coefficient(value, path):
    """A number (constant) or ascending polynomial coefficient list."""
    if isinstance(value, bool):
        raise ConfigError(f"config key '{path}': expected number or list")
    if isinstance(value, _NUM):
        return [float(value)]
    if isinstance(value, list) and value and \
            all(isinstance(v, _NUM) and not isinstance(v, bool) for v in value):
        return [float(v) for v in value]
    raise ConfigError(f"config key '{path}': expected number or list of "
                      f"polynomial coefficients")


def _poly(coeffs):
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 1:
        k = float(c[0])
        return lambda x: k
    return lambda x: float(np.polynomial.polynomial.polyval(x, c))


_LQ_KEYS = ("b_bar", "b_hat", "c_bar", "c_hat", "f_bar", "f_tilde", "f_hat")

_TOP_KEYS = ("grid", "actions", "lq", "sigma", "g", "seed", "output_dir",
             "solver", "hjb", "flow", "bounds", "mc")

_DEFAULTS = {
    "seed": 1234,
    "solver": {"tol": None, "max_iter": 200, "scheme": "central"},
}


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return resolve_config(raw)


def resolve_config(raw):
    """Validate, apply defaults, and normalize a raw config dict."""
    _check_known(raw, "", _TOP_KEYS)
    out = {}
    if "grid" in raw:
        g = raw["grid"]
        _check_known(g, "grid", ("left", "right", "n_interior"))
        left = _require(g, "left", "grid.left", _NUM)
        right = _require(g, "right", "grid.right", _NUM)
        n_int = _require(g, "n_interior", "grid.n_interior", int,
                         lambda n: n >= 1, "positive integer")
        if not (math.isfinite(left) and math.isfinite(right) and left < right):
            raise ConfigError("config key 'grid.left'/'grid.right': need "
                              "finite left < right")
        out["grid"] = {"left": float(left), "right": float(right),
                       "n_interior": int(n_int)}
    if "actions" in raw:
        a = raw["actions"]
        kind = _require(a, "kind", "actions.kind", str,
                        lambda k: k in (DISCRETE, INTERVAL),
                        f"one of {DISCRETE!r}, {INTERVAL!r}")
        if kind == DISCRETE:
            _check_known(a, "actions", ("kind", "values"))
            values = _require(a, "values", "actions.values", list,
                              lambda v: len(v) >= 1 and
                              all(isinstance(x, _NUM) for x in v),
                              "nonempty list of numbers")
            out["actions"] = {"kind": kind,
                              "values": [float(v) for v in values]}
        else:
            _check_known(a, "actions", ("kind", "alpha", "beta", "n_quad"))
            alpha = _require(a, "alpha", "actions.alpha", _NUM)
            beta = _require(a, "beta", "actions.beta", _NUM)
            n_quad = _require(a, "n_quad", "actions.n_quad", int,
                              lambda n: n >= 2, "integer >= 2")
            if alpha >= beta:
                raise ConfigError("config key 'actions.alpha': need "
                                  "alpha < beta")
            out["actions"] = {"kind": kind, "alpha": float(alpha),
                              "beta": float(beta), "n_quad": int(n_quad)}
    if "lq" in raw:
        lq = raw["lq"]
        _check_known(lq, "lq", _LQ_KEYS)
        out["lq"] = {k: _coefficient(_require(lq, k, f"lq.{k}", None),
                                     f"lq.{k}") for k in _LQ_KEYS}
    for key in ("sigma", "g"):
        if key in raw:
            out[key] = _coefficient(raw[key], key)
    out["seed"] = int(raw.get("seed", _DEFAULTS["seed"]))
    if "output_dir" in raw:
        out["output_dir"] = str(raw["output_dir"])
    solver = dict(_DEFAULTS["solver"])
    if "solver" in raw:
        s = raw["solver"]
        _check_known(s, "solver", ("tol", "max_iter", "scheme"))
        if "tol" in s and s["tol"] is not None:
            solver["tol"] = float(_require(s, "tol", "solver.tol", _NUM,
                                           lambda t: t > 0, "positive"))
        if "max_iter" in s:
            solver["max_iter"] = _require(s, "max_iter", "solver.max_iter",
                                          int, lambda n: n >= 1,
                                          "positive integer")
        if "scheme" in s:
            solver["scheme"] = _require(s, "scheme", "solver.scheme", str,
                                        lambda v: v in ("central", "upwind"),
                                        "'central' or 'upwind'")
    out["solver"] = solver
    if "hjb" in raw:
        h = raw["hjb"]
        _check_known(h, "hjb", ("taus",))
        taus = _require(h, "taus", "hjb.taus", list,
                        lambda v: all(isinstance(t, _NUM) and t > 0
                                      for t in v),
                        "list of positive numbers")
        out["hjb"] = {"taus": [float(t) for t in taus]}
    if "flow" in raw:
        f = raw["flow"]
        _check_known(f, "flow", ("scheduler", "horizon", "dt", "record_every",
                                 "probes", "z0"))
        sched = _require(f, "scheduler", "flow.scheduler", dict)
        _check_known(sched, "flow.scheduler", ("kind", "tau", "S", "beta"))
        kind = _require(sched, "kind", "flow.scheduler.kind", str,
                        lambda k: k in SCHEDULER_KINDS,
                        f"one of {SCHEDULER_KINDS}")
        sched_out = {"kind": kind}
        if kind == "constant":
            sched_out["tau"] = float(_require(sched, "tau",
                                              "flow.scheduler.tau", _NUM,
                                              lambda t: t > 0, "positive"))
        elif kind == "horizon_constant":
            sched_out["S"] = float(_require(sched, "S", "flow.scheduler.S",
                                            _NUM, lambda t: t > 0,
                                            "positive"))
        elif kind == "power_law":
            sched_out["beta"] = float(_require(sched, "beta",
                                               "flow.scheduler.beta", _NUM,
                                               lambda b: b > 0, "positive"))
        horizon = _require(f, "horizon", "flow.horizon", _NUM,
                           lambda v: 0 < v < math.inf, "positive and finite")
        probes = _require(f, "probes", "flow.probes", list,
                          lambda v: len(v) >= 1 and
                          all(isinstance(x, _NUM) for x in v),
                          "nonempty list of positions")
        out["flow"] = {
            "scheduler": sched_out,
            "horizon": float(horizon),
            "dt": float(f.get("dt", 0.05)),
            "record_every": int(f.get("record_every", 1)),
            "probes": [float(p) for p in probes],
            "z0": str(f.get("z0", "zero")),
        }
        dt = out["flow"]["dt"]
        if dt <= 0:
            raise ConfigError("config key 'flow.dt': must be positive")
        steps = round(horizon / dt)
        if abs(steps * dt - horizon) > 1e-9 * horizon:
            raise ConfigError(f"config key 'flow.horizon': {horizon:g} is not "
                              f"a whole multiple of flow.dt = {dt:g}")
        if out["flow"]["record_every"] < 1:
            raise ConfigError("config key 'flow.record_every': must be >= 1")
    if "bounds" in raw:
        b = raw["bounds"]
        _check_known(b, "bounds", ("beta_grid", "s_grid", "constant",
                                   "alpha", "bias_sweep"))
        beta_grid = b.get("beta_grid", list(BETA_GRID))
        s_grid = b.get("s_grid", list(S_GRID))
        if not isinstance(beta_grid, list) or not beta_grid or \
                not all(isinstance(x, _NUM) and 0 < x for x in beta_grid):
            raise ConfigError("config key 'bounds.beta_grid': need a "
                              "nonempty list of positive numbers")
        if not isinstance(s_grid, list) or not s_grid or \
                not all(isinstance(x, _NUM) and x > 1 for x in s_grid):
            raise ConfigError("config key 'bounds.s_grid': need a nonempty "
                              "list of numbers > 1")
        out["bounds"] = {"beta_grid": [float(x) for x in beta_grid],
                         "s_grid": [float(x) for x in s_grid],
                         "constant": float(b.get("constant", 1.0)),
                         "alpha": float(b.get("alpha", 1.0))}
        if "bias_sweep" in b:
            bs = b["bias_sweep"]
            _check_known(bs, "bounds.bias_sweep", ("taus", "p_grid", "alpha",
                                                   "beta"))
            taus = _require(bs, "taus", "bounds.bias_sweep.taus", list,
                            lambda v: all(isinstance(t, _NUM) and 0 < t < 1
                                          for t in v),
                            "list of taus in (0, 1)")
            p_grid = _require(bs, "p_grid", "bounds.bias_sweep.p_grid", list,
                              lambda v: len(v) >= 1 and
                              all(isinstance(p, _NUM) for p in v),
                              "nonempty list of numbers")
            lo = float(bs.get("alpha", -1.0))
            hi = float(bs.get("beta", 1.0))
            if lo >= hi:
                raise ConfigError("config key 'bounds.bias_sweep.alpha': "
                                  "need alpha < beta")
            out["bounds"]["bias_sweep"] = {
                "taus": [float(t) for t in taus],
                "p_grid": [float(p) for p in p_grid],
                "alpha": lo, "beta": hi}
    if "mc" in raw:
        m = raw["mc"]
        _check_known(m, "mc", ("x0", "tau", "pde_tau", "n_paths", "dt_sim",
                               "policy", "bias_allowance"))
        x0 = _require(m, "x0", "mc.x0", list,
                      lambda v: len(v) >= 1 and
                      all(isinstance(x, _NUM) for x in v),
                      "nonempty list of positions")
        out["mc"] = {
            "x0": [float(x) for x in x0],
            "tau": float(m.get("tau", 0.0)),
            "pde_tau": (float(m["pde_tau"])
                        if m.get("pde_tau") is not None else None),
            "n_paths": int(m.get("n_paths", 100_000)),
            "dt_sim": float(m.get("dt_sim", 1e-4)),
            "policy": str(m.get("policy", "uniform")),
            "bias_allowance": float(m.get("bias_allowance", 5e-3)),
        }
        if out["mc"]["tau"] < 0:
            raise ConfigError("config key 'mc.tau': must be nonnegative")
        if out["mc"]["n_paths"] < 1:
            raise ConfigError("config key 'mc.n_paths': must be >= 1")
        if out["mc"]["dt_sim"] <= 0:
            raise ConfigError("config key 'mc.dt_sim': must be positive")
        if out["mc"]["policy"] not in ("uniform", "optimal"):
            raise ConfigError("config key 'mc.policy': must be 'uniform' "
                              "or 'optimal'")
    return out


def config_digest(resolved):
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_problem(resolved):
    """Assemble the control problem described by a resolved config."""
    for key in ("grid", "actions", "lq", "sigma", "g"):
        if key not in resolved:
            raise ConfigError(f"config key '{key}' is required to define "
                              f"a problem")
    g = resolved["grid"]
    grid = build_grid(g["left"], g["right"], g["n_interior"])
    a = resolved["actions"]
    if a["kind"] == DISCRETE:
        actions = make_action_space(values=a["values"])
    else:
        actions = make_action_space(alpha=a["alpha"], beta=a["beta"],
                                    n_quad=a["n_quad"])
    lq = LQCoefficients(**{k: _poly(resolved["lq"][k]) for k in _LQ_KEYS})
    sigma = _poly(resolved["sigma"])
    g_fn = _poly(resolved["g"])
    try:
        return make_lq_problem(lq, grid, actions, sigma, g_fn)
    except ValueError as exc:
        raise ConfigError(f"invalid problem coefficients: {exc}")


def build_scheduler(flow_cfg):
    s = flow_cfg["scheduler"]
    return Scheduler(kind=s["kind"], tau=s.get("tau", math.nan),
                     horizon=s.get("S", math.nan),
                     beta=s.get("beta", math.nan))


def probe_indices(grid, positions):
    """Snap probe x positions to nearest interior node indices."""
    xs = grid.interior
    idx = [int(np.argmin(np.abs(xs - p))) for p in positions]
    return np.asarray(sorted(set(idx)), dtype=np.int64)
