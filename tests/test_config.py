import copy
import math
import os
import re

import numpy as np
import pytest

from exitflow import lq_benchmark
from exitflow.config import (_KIND_KEYS, _ORDERED_PAIRS, _SPEC, ConfigError,
                             build_problem, config_digest, load_config,
                             resolve_config)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a config that sets a value for every section, so that any one key can be
# spoiled and the rest stays valid
FULL = {
    "grid": {"left": 0.0, "right": 1.0, "n_interior": 9},
    "actions": {"kind": "discrete", "values": [-1.0, 0.0, 1.0]},
    "lq": {"b_bar": 0.0, "b_hat": 1.0, "c_bar": 0.1, "c_hat": 0.0,
           "f_bar": 1.0, "f_tilde": 0.0, "f_hat": 1.0},
    "sigma": 1.0,
    "g": 0.0,
    "seed": 5,
    "output_dir": "runs",
    "solver": {"tol": 1e-9, "max_iter": 50},
    "hjb": {"taus": [0.5]},
    "flow": {"scheduler": {"kind": "constant", "tau": 0.5}, "horizon": 1.0,
             "dt": 0.05, "record_every": 2, "probes": [0.5], "z0": "zero"},
    "bounds": {"beta_grid": [0.5], "s_grid": [10.0], "constant": 1.0,
               "alpha": 1.0,
               "bias_sweep": {"taus": [0.1], "p_grid": [0.0],
                              "alpha": -1.0, "beta": 1.0}},
    "mc": {"x0": [0.5], "tau": 0.5, "pde_tau": 0.5, "n_paths": 10,
           "dt_sim": 1e-3, "policy": "uniform", "bias_allowance": 0.01},
}

NUMBER_KEYS = ("grid.left", "grid.right", "sigma", "lq.b_hat", "solver.tol",
               "flow.horizon", "flow.dt", "flow.scheduler.tau",
               "bounds.constant", "bounds.alpha", "bounds.bias_sweep.alpha",
               "mc.tau", "mc.pde_tau", "mc.dt_sim", "mc.bias_allowance")
INTEGER_KEYS = ("grid.n_interior", "seed", "solver.max_iter",
                "flow.record_every", "mc.n_paths")
NUMBER_LIST_KEYS = ("actions.values", "hjb.taus", "flow.probes",
                    "bounds.beta_grid", "bounds.s_grid",
                    "bounds.bias_sweep.taus", "bounds.bias_sweep.p_grid",
                    "mc.x0", "g")
SECTION_KEYS = ("grid", "actions", "lq", "solver", "hjb", "flow",
                "flow.scheduler", "bounds", "bounds.bias_sweep", "mc")

MALFORMED = (
    [(k, v) for k in NUMBER_KEYS for v in (True, "0.1", "abc", math.inf)]
    + [(k, v) for k in INTEGER_KEYS for v in (1.5, True)]
    + [(k, [True, 0.5]) for k in NUMBER_LIST_KEYS]
    + [(k, v) for k in SECTION_KEYS for v in (5, [1.0])]
    + [("mc.x0", v) for v in ([0.0], [1.0], [-0.5], [0.5, 2.0])]
    + [("flow.probes", v) for v in ([0.0], [1.0], [-3.0, 0.5], [0.5, 7.0])]
    + [("flow.z0", "restart.txt"), ("actions.kind", "grid"),
       ("seed", -1), ("mc.pde_tau", -0.5), ("solver.scheme", "central"),
       ("bounds.constant", -1.0), ("bounds.constant", 0.0),
       ("mc.bias_allowance", -0.5)]
)


def _spoiled(dotted, value):
    cfg = copy.deepcopy(FULL)
    *parents, last = dotted.split(".")
    section = cfg
    for key in parents:
        section = section[key]
    section[last] = value
    return cfg


def test_full_config_is_valid():
    resolve_config(FULL)


@pytest.mark.parametrize("dotted,value", MALFORMED,
                         ids=[f"{k}={v!r}" for k, v in MALFORMED])
def test_malformed_value_names_its_key(dotted, value):
    with pytest.raises(ConfigError, match=re.escape(f"'{dotted}'")):
        resolve_config(_spoiled(dotted, value))


def test_null_only_where_allowed():
    resolve_config(_spoiled("solver.tol", None))
    resolve_config(_spoiled("mc.pde_tau", None))
    with pytest.raises(ConfigError, match="'mc.tau'"):
        resolve_config(_spoiled("mc.tau", None))


@pytest.mark.parametrize("scheduler, key", [
    ({"kind": "constant", "tau": 0.5, "S": 10.0}, "S"),
    ({"kind": "horizon_constant", "S": 10.0, "tau": 0.5}, "tau"),
    ({"kind": "inverse_sqrt", "beta": 0.5}, "beta"),
], ids=["constant-S", "horizon_constant-tau", "inverse_sqrt-beta"])
def test_scheduler_parameter_of_other_kind_rejected(scheduler, key):
    # once dropped without a word, so a run could test another schedule
    with pytest.raises(ConfigError,
                       match=re.escape(f"'flow.scheduler.{key}'")):
        resolve_config(_spoiled("flow.scheduler", scheduler))


def test_non_object_root():
    with pytest.raises(ConfigError, match="config root"):
        resolve_config([FULL])


def test_mc_x0_unchecked_without_grid():
    cfg = {"mc": {"x0": [2.0]}}
    assert resolve_config(cfg)["mc"]["x0"] == [2.0]


@pytest.mark.parametrize("name,digest", [
    ("figure",
     "c3fa1654a3f143da6c96bdbced149da258a20e0bb33a0e2ee1c29303a5318d00"),
    ("lq_discrete",
     "af8ee4d0abf940c916117ecf6733e59bf6767dacde1f7d2369bcebe6ed5b3e4f"),
    ("lq_interval",
     "e1d38355ecee1a41264b596687c2fb4b91c6f2a4830c4a6189102696cff91cdb"),
], ids=["figure", "lq_discrete", "lq_interval"])
def test_shipped_config_digests(name, digest):
    # a change to the reader that alters a resolved shipped config shows here
    path = os.path.join(ROOT, "configs", name + ".json")
    assert config_digest(load_config(path)) == digest


def _problem_bits(problem):
    arrays = (problem.coef_tab, problem.lq_tab, problem.sigma_nodes,
              problem.actions.actions, problem.actions.mu_weights,
              np.array([problem.g_left, problem.g_right]))
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("kind", ["discrete", "interval"])
def test_shipped_config_builds_lq_benchmark(kind):
    # the CLI runs and the tests that use lq_benchmark solve one problem
    path = os.path.join(ROOT, "configs", f"lq_{kind}.json")
    built = build_problem(load_config(path))
    assert built.actions.kind == kind
    assert _problem_bits(built) == _problem_bits(lq_benchmark(kind))


def _spec_keys(spec, prefix=""):
    for key, (kind, *_) in spec.items():
        if isinstance(kind, dict):
            yield from _spec_keys(kind, prefix + key + ".")
        else:
            yield prefix + key


def _documented_keys():
    with open(os.path.join(ROOT, "docs", "config.md")) as fh:
        rows = [line.split("|")[1] for line in fh
                if line.startswith("| `")]
    return {key for cell in rows for key in re.findall(r"`([\w.]+)`", cell)}


def test_docs_list_exactly_the_spec_keys():
    assert _documented_keys() == set(_spec_keys(_SPEC))


def _spec_section(path):
    spec = _SPEC
    for key in path.split("."):
        spec = spec[key][0]
    return spec


def test_rule_tables_name_spec_keys_and_kinds():
    # a misspelt key or kind in either table would switch its rule off
    # without a word
    leaves = set(_spec_keys(_SPEC))
    kinded = {key.rsplit(".", 1)[0] for key in leaves if key.endswith(".kind")}
    # every other key of a section with a kind is selected by that kind
    assert set(_KIND_KEYS) == {key for key in leaves
                               if key.rsplit(".", 1)[0] in kinded
                               and not key.endswith(".kind")}
    for dotted, kind in _KIND_KEYS.items():
        _, _, accepts, _ = _spec_section(dotted.rsplit(".", 1)[0])["kind"]
        assert accepts(kind), dotted
    for path, low, high in _ORDERED_PAIRS:
        assert {f"{path}.{low}", f"{path}.{high}"} <= leaves
