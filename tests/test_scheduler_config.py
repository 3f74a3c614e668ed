"""The scheduler's config keys and the ``Scheduler`` fields they set must
take the same parameter for every kind."""

import pytest

from exitflow import Scheduler
from exitflow.config import ConfigError, build_scheduler, resolve_config

KINDS = ["constant", "horizon_constant", "inverse_linear", "inverse_sqrt",
         "power_law"]
# config key -> Scheduler field
FIELDS = {"tau": "tau", "S": "horizon", "beta": "beta"}
# 2 is neither horizon_constant's stored tau at S = 2 nor inverse_linear's
# stored beta, so no kind takes it back as its own
VALUE = 2.0


def _from_config(kind, keys):
    raw = {"flow": {"scheduler": {"kind": kind, **dict.fromkeys(keys, VALUE)},
                    "horizon": 1.0, "probes": [0.5]}}
    try:
        return build_scheduler(resolve_config(raw)["flow"])
    except ConfigError:
        return None


def _from_fields(kind, keys):
    try:
        return Scheduler(kind=kind, **{FIELDS[k]: VALUE for k in keys})
    except ValueError:
        return None


@pytest.mark.parametrize("key", [None, *FIELDS])
@pytest.mark.parametrize("kind", KINDS)
def test_config_takes_a_key_when_the_scheduler_takes_its_field(kind, key):
    keys = [] if key is None else [key]
    assert _from_config(kind, keys) == _from_fields(kind, keys)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_built_from_some_keys(kind):
    # else the comparison above would hold with both refusing everything
    assert any(_from_fields(kind, keys) is not None
               for keys in ([], *([k] for k in FIELDS)))
