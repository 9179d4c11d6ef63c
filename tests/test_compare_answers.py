"""``tools/compare_answers.py``: which listed moves it tags as lying inside the cleanup pin's slack."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import corridor_kit.mga as mga
import corridor_kit.network as network

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_answers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_answers", TOOL)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_pin_slack_moves_are_tagged_and_counted_apart():
    tool = _tool()
    ck = SimpleNamespace(mga=mga, network=network)
    slack = network.twh_to_mt(mga.PIN_SLACK_MWH / 1e6)  # 3.0e-10 Mt at h* = 0
    assert tool.pin_slack_mt(ck, 0.0) == slack
    assert tool.pin_slack_mt(ck, 2.0) == pytest.approx(slack + mga.PIN_SLACK_REL * 2.0, rel=1e-12)

    def row(scenario, sense, status="optimal", cost=100.0, h2=1.0, mu=None):
        return [scenario, 2035, sense, None if sense == "optimal" else 0.05, status, cost, h2, mu]

    old = {
        "mga8/1": [
            row("a", "optimal"),
            row("a", "min", h2=0.0, mu=-1.0),  # moves inside the slack: tagged
            row("b", "min", h2=0.0, mu=-1.0),  # the same, and its cost moves: listed as other
            row("c", "max", h2=1.0, mu=2.0),  # moves by 1e-3 Mt: not tagged
            row("d", "optimal", h2=1e-10),  # an optimal record has no pin: not tagged
            row("e", "min", status="infeasible", cost=None, h2=None),
        ],
    }
    new = {
        "mga8/1": [
            row("a", "optimal"),
            row("a", "min", h2=0.9 * slack, mu=-1.0),
            row("b", "min", cost=101.0, h2=0.9 * slack, mu=-1.0),
            row("c", "max", h2=1.001, mu=2.0),
            row("d", "optimal", h2=2e-10),
            row("e", "min", status="infeasible", cost=None, h2=None),
        ],
    }
    lines, compared, pin_slack = tool.differences(old, new, ck)
    assert compared == 6
    assert [line.split(":")[0] for line in lines] == [
        "mga8/1 a@2035 min eps 0.05",
        "mga8/1 b@2035 min eps 0.05",
        "mga8/1 c@2035 max eps 0.05",
        "mga8/1 d@2035 optimal",
    ]
    assert lines[0].endswith("[pin-slack]") and lines[1].endswith("[pin-slack]")
    assert "cost_eur" in lines[1]
    assert "[pin-slack]" not in lines[2] + lines[3]
    assert pin_slack == 1
