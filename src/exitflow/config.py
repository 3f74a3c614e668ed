"""Run configuration: JSON parsing, validation, and problem assembly.

Configs are strict: unknown or ill-typed keys fail with the dotted key
path in the message.  Every key is declared once, in ``_SPEC``, with its
kind, default and range.  ``resolve_config`` applies the rules that tie
keys together: two tables, ``_KIND_KEYS`` (the keys a section's kind
selects) and ``_ORDERED_PAIRS`` (keys that must be ordered), then the
horizon and point-inside-the-grid rules written out there.  Scalar
coefficients (sigma, g, lq.*) accept either a number (constant in x) or
a list of polynomial coefficients in ascending order.  The resolved
config (defaults applied) is what gets hashed into the run manifest, and
parsing it back yields the same resolved config.
"""

import hashlib
import json
import math

import numpy as np

from .bounds import BETA_GRID, S_GRID
from .domain import (DISCRETE, INTERVAL, LQ_FIELDS, LQCoefficients,
                     build_grid, make_action_space, make_lq_problem)
from .flow import SCHEDULER_KINDS, SCHEDULER_PARAMS, Scheduler
from .hjb import MAX_ITER


class ConfigError(ValueError):
    pass


def _is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _floats(v):
    return [float(x) for x in v]


# value kinds: (what a wrong type is told it should be, test, conversion)
_NUMBER = ("a finite number", _is_number, float)
_NUMBER_OR_NULL = ("a finite number or null",
                   lambda v: v is None or _is_number(v),
                   lambda v: None if v is None else float(v))
_INTEGER = ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool), int)
_STRING = ("a string", lambda v: isinstance(v, str), str)
_NUMBERS = ("a list of finite numbers",
            lambda v: isinstance(v, list) and all(map(_is_number, v)), _floats)
_POLY = ("a finite number or a nonempty list of polynomial coefficients",
         lambda v: _is_number(v) or (isinstance(v, list) and len(v) > 0
                                     and all(map(_is_number, v))),
         lambda v: _floats(v if isinstance(v, list) else [v]))

# range checks on the converted value: (test, what the value must be)
_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda n: n >= 1, ">= 1")
_NONEMPTY = (lambda v: len(v) > 0, "nonempty")

_REQUIRED = object()   # the key must be given
_ABSENT = object()     # optional, and left out of the resolved config

# One row per key: (kind, default[, range check]).  The kind of a section
# is its own spec; a section whose default is {} is always resolved.
_SPEC = {
    "grid": ({
        "left": (_NUMBER, _REQUIRED),
        "right": (_NUMBER, _REQUIRED),
        "n_interior": (_INTEGER, _REQUIRED, *_AT_LEAST_1),
    }, _ABSENT),
    "actions": ({   # the kind picks the other keys: _KIND_KEYS
        "kind": (_STRING, _REQUIRED, lambda k: k in (DISCRETE, INTERVAL),
                 f"{DISCRETE!r} or {INTERVAL!r}"),
        "values": (_NUMBERS, _ABSENT, *_NONEMPTY),
        "alpha": (_NUMBER, _ABSENT),
        "beta": (_NUMBER, _ABSENT),
        "n_quad": (_INTEGER, _ABSENT, lambda n: n >= 2, ">= 2"),
    }, _ABSENT),
    "lq": ({k: (_POLY, _REQUIRED) for k in LQ_FIELDS}, _ABSENT),
    "sigma": (_POLY, _ABSENT),
    "g": (_POLY, _ABSENT),
    "seed": (_INTEGER, 1234, *_NONNEGATIVE),
    "output_dir": (_STRING, _ABSENT),
    "solver": ({
        "tol": (_NUMBER_OR_NULL, None, *_POSITIVE),
        "max_iter": (_INTEGER, MAX_ITER, *_AT_LEAST_1),
    }, {}),
    "hjb": ({
        "taus": (_NUMBERS, _REQUIRED, lambda v: all(t > 0 for t in v),
                 "a list of positive numbers"),
    }, _ABSENT),
    "flow": ({
        "scheduler": ({   # the kind picks its parameter: _KIND_KEYS
            "kind": (_STRING, _REQUIRED, lambda k: k in SCHEDULER_KINDS,
                     f"one of {SCHEDULER_KINDS}"),
            "tau": (_NUMBER, _ABSENT, *_POSITIVE),
            "S": (_NUMBER, _ABSENT, *_POSITIVE),
            "beta": (_NUMBER, _ABSENT, *_POSITIVE),
        }, _REQUIRED),
        "horizon": (_NUMBER, _REQUIRED, *_POSITIVE),
        "dt": (_NUMBER, 0.05, *_POSITIVE),
        "record_every": (_INTEGER, 1, *_AT_LEAST_1),
        "probes": (_NUMBERS, _REQUIRED, *_NONEMPTY),
        "z0": (_STRING, "zero",
               lambda v: v in ("zero", "optimal") or v.endswith(".csv"),
               "'zero', 'optimal' or a .csv restart path"),
    }, _ABSENT),
    "bounds": ({
        "beta_grid": (_NUMBERS, list(BETA_GRID),
                      lambda v: len(v) > 0 and min(v) > 0,
                      "a nonempty list of positive numbers"),
        "s_grid": (_NUMBERS, list(S_GRID),
                   lambda v: len(v) > 0 and min(v) > 1,
                   "a nonempty list of numbers > 1"),
        "constant": (_NUMBER, 1.0, *_POSITIVE),
        "alpha": (_NUMBER, 1.0),
        "bias_sweep": ({
            "taus": (_NUMBERS, _REQUIRED, lambda v: all(0 < t < 1 for t in v),
                     "a list of numbers in (0, 1)"),
            "p_grid": (_NUMBERS, _REQUIRED, *_NONEMPTY),
            "alpha": (_NUMBER, -1.0),
            "beta": (_NUMBER, 1.0),
        }, _ABSENT),
    }, _ABSENT),
    "mc": ({
        "x0": (_NUMBERS, _REQUIRED, *_NONEMPTY),
        "tau": (_NUMBER, 0.0, *_NONNEGATIVE),
        "pde_tau": (_NUMBER_OR_NULL, None, *_NONNEGATIVE),
        "n_paths": (_INTEGER, 100_000, *_AT_LEAST_1),
        "dt_sim": (_NUMBER, 1e-4, *_POSITIVE),
        "policy": (_STRING, "uniform", lambda v: v in ("uniform", "optimal"),
                   "'uniform' or 'optimal'"),
        "bias_allowance": (_NUMBER, 5e-3, *_NONNEGATIVE),
    }, _ABSENT),
}

# the flow.scheduler key of each Scheduler field whose name differs
_SCHEDULER_KEYS = {"horizon": "S"}

# Each key that its section's kind selects, and the one kind that takes
# it: required in a section of that kind, refused in any other.  The
# scheduler's rows are flow.SCHEDULER_PARAMS.
_KIND_KEYS = {"actions.values": DISCRETE, "actions.alpha": INTERVAL,
              "actions.beta": INTERVAL, "actions.n_quad": INTERVAL,
              **{f"flow.scheduler.{_SCHEDULER_KEYS.get(name, name)}": kind
                 for kind, names in SCHEDULER_PARAMS.items()
                 for name in names}}

# (section, low, high): where the section holds low, need low < high
_ORDERED_PAIRS = (("grid", "left", "right"), ("actions", "alpha", "beta"),
                  ("bounds.bias_sweep", "alpha", "beta"))


def _read(raw, spec, path):
    """Check one section against its spec and fill in its defaults."""
    if not isinstance(raw, dict):
        where = f"config key '{path}'" if path else "config root"
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    prefix = path + "." if path else ""
    for key in raw:
        if key not in spec:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    out = {}
    for key, (kind, default, *check) in spec.items():
        name = prefix + key
        value = raw.get(key, default)
        if value is _ABSENT:
            continue
        if value is _REQUIRED:
            raise ConfigError(f"config key '{name}' is required")
        if isinstance(kind, dict):
            out[key] = _read(value, kind, name)
            continue
        what, test, convert = kind
        if not test(value):
            raise ConfigError(f"config key '{name}': expected {what}, "
                              f"got {value!r}")
        value = convert(value)
        if check and value is not None and not check[0](value):
            raise ConfigError(f"config key '{name}': must be {check[1]}, "
                              f"got {value!r}")
        out[key] = value
    return out


def _poly(coeffs):
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 1:
        k = float(c[0])
        return lambda x: k
    return lambda x: float(np.polynomial.polynomial.polyval(x, c))


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return resolve_config(raw)


def _section(resolved, path):
    """The resolved section at the dotted ``path``, {} if it is absent."""
    for key in path.split("."):
        resolved = resolved.get(key, {})
    return resolved


def resolve_config(raw):
    """Validate, apply defaults, and normalize a raw config dict."""
    out = _read(raw, _SPEC, "")
    for dotted, kind in _KIND_KEYS.items():
        path, key = dotted.rsplit(".", 1)
        section = _section(out, path)
        given = key in section
        if section and given != (section["kind"] == kind):
            raise ConfigError(f"unknown config key '{dotted}'" if given
                              else f"config key '{dotted}' is required")
    # a width below the smallest normal float (or an overflowing one) would
    # leave zero or NaN grid spacings and quadrature weights
    for path, low, high in _ORDERED_PAIRS:
        section = _section(out, path)
        if low in section and not np.finfo(float).tiny \
                <= section[high] - section[low] < math.inf:
            raise ConfigError(f"config key '{path}.{low}': need {low} < "
                              f"{high}, {high} - {low} finite and normal")
    grid, flow = out.get("grid"), out.get("flow")
    if flow:
        horizon, dt = flow["horizon"], flow["dt"]
        if abs(round(horizon / dt) * dt - horizon) > 1e-9 * horizon:
            raise ConfigError(f"config key 'flow.horizon': {horizon:g} is not "
                              f"a whole multiple of flow.dt = {dt:g}")
    for name, points in (("flow.probes", flow and flow["probes"]),
                         ("mc.x0", out.get("mc", {}).get("x0"))):
        if points and grid and not all(grid["left"] < x < grid["right"]
                                       for x in points):
            raise ConfigError(f"config key '{name}': every point must lie "
                              f"strictly inside ({grid['left']:g}, "
                              f"{grid['right']:g}), got {points}")
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
    lq = LQCoefficients(**{k: _poly(resolved["lq"][k]) for k in LQ_FIELDS})
    sigma = _poly(resolved["sigma"])
    g_fn = _poly(resolved["g"])
    try:
        return make_lq_problem(lq, grid, actions, sigma, g_fn)
    except ValueError as exc:
        raise ConfigError(f"invalid problem coefficients: {exc}")


def build_scheduler(flow_cfg):
    s = flow_cfg["scheduler"]
    return Scheduler(kind=s["kind"], **{
        name: s[_SCHEDULER_KEYS.get(name, name)]
        for name in SCHEDULER_PARAMS[s["kind"]]})


def probe_indices(grid, positions):
    """Snap probe x positions to nearest interior node indices."""
    xs = grid.interior
    idx = [int(np.argmin(np.abs(xs - p))) for p in positions]
    return np.asarray(sorted(set(idx)), dtype=np.int64)
