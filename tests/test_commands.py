"""The subcommand table of ``exitflow.cli``: the parser it builds, and the
defaults rule that reproduce-figure and sweep-bounds share."""

import argparse
import json
import os

import pytest

from exitflow.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the subcommands, in the order --help lists them, with their help strings
SUBCOMMANDS = [
    ("solve-hjb", "solve the regularized and hard-min equations"),
    ("run-flow", "integrate the mirror descent flow"),
    ("sweep-bounds", "evaluate bound curves over (beta, S) grids"),
    ("mc-check", "compare the linear solver against simulation"),
    ("reproduce-figure", "sweep-bounds with the default grids"),
]


def test_parser_offers_the_five_subcommands():
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == [name for name, _ in SUBCOMMANDS]
    assert [(a.dest, a.help) for a in sub._choices_actions] == SUBCOMMANDS


@pytest.mark.parametrize("command", [name for name, _ in SUBCOMMANDS])
def test_only_reproduce_figure_may_omit_config(command, capsys):
    if command == "reproduce-figure":
        assert build_parser().parse_args([command]).config is None
        return
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", "unused"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_reproduce_figure_is_sweep_bounds_with_default_bounds(tmp_path):
    # a config with no bounds section gets the same defaults as no config
    with open(os.path.join(ROOT, "configs", "lq_discrete.json")) as fh:
        raw = json.load(fh)
    assert "bounds" not in raw
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    sweep, figure = tmp_path / "sweep", tmp_path / "figure"
    assert main(["sweep-bounds", "--config", str(cfg),
                 "--out", str(sweep)]) == 0
    assert main(["reproduce-figure", "--out", str(figure)]) == 0
    for name in ("figure_bounds.csv", "growth_integrals.csv"):
        assert (sweep / name).read_bytes() == (figure / name).read_bytes()
    manifests = [json.loads((d / f"{c}-manifest.json").read_text())
                 for d, c in ((sweep, "sweep-bounds"),
                              (figure, "reproduce-figure"))]
    assert manifests[0]["outputs"] == manifests[1]["outputs"] \
        == ["figure_bounds.csv", "growth_integrals.csv"]
    assert manifests[0]["resolved_config"]["bounds"] \
        == manifests[1]["resolved_config"]["bounds"]
