"""``tools/compare_answers.py``: byte and record differences, and the moves it tags as inside the pin's slack."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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


def _answers(groups: dict) -> dict:
    """``{group: (digests, rows)}`` as one checkout's run returns it."""
    return {group: {"digests": digests, "rows": rows} for group, (digests, rows) in groups.items()}


ROW = ["a", 2035, "optimal", None, "optimal", 100.0, 1.0, None]
STORE = {"records": "r1", "flows": "f1", "report": "p1", "subsidy": None}


def test_byte_differences_are_not_record_differences():
    tool = _tool()
    ck = SimpleNamespace(mga=mga, network=network)
    old = _answers({
        "matrix2-jobs2/1": (STORE, [ROW]),
        "matrix2-jobs2/2": (STORE, [ROW]),
        "solve16/1": ({"solves": "s"}, []),
    })
    within = ROW[:5] + [100.0 * (1 + 1e-9), 1.0, None]  # a cost move inside the gate's tolerance
    new = _answers({
        "matrix2-jobs2/1": ({**STORE, "flows": "f2", "report": "p2"}, [within]),
        "matrix2-jobs2/2": ({**STORE, "subsidy": "s2"}, [ROW]),
        "solve16/1": ({"solves": "s"}, []),
    })
    lines, status = tool.compare(old, new, ck)
    assert lines == [
        "matrix2-jobs2/1: bytes differ in flows, report",
        "matrix2-jobs2/2: bytes differ in subsidy",
        "1 of 3 groups byte-identical; 0 of 2 records differ (0 only by pin-slack moves, 0 otherwise)",
    ]
    assert status == 0


def test_one_sided_groups_and_the_summary_counts():
    tool = _tool()
    ck = SimpleNamespace(mga=mga, network=network)
    slack = network.twh_to_mt(mga.PIN_SLACK_MWH / 1e6)
    pinned = ["a", 2035, "min", 0.05, "optimal", 100.0, 0.0, -1.0]
    maxed = ["a", 2035, "max", 0.05, "optimal", 100.0, 1.0, 2.0]
    old = _answers({
        "mga8/1": ({"records": "r1", "flows": "f1"}, [ROW, pinned, maxed]),
        "full2": ({"records": "r", "flows": "f"}, [ROW]),
    })
    new = _answers({
        "mga8/1": (
            {"records": "r2", "flows": "f1"},
            [ROW, pinned[:6] + [0.5 * slack, -1.0], maxed[:4] + ["infeasible", None, None, None]],
        ),
        "mga8-all": ({"records": "r", "flows": "f"}, [ROW]),
    })
    lines, status = tool.compare(old, new, ck)
    assert lines[:3] == ["full2: only in OLD", "mga8-all: only in NEW", "mga8/1: bytes differ in records"]
    assert lines[3] == "full2 a@2035 optimal: only in OLD"
    assert lines[4] == "mga8-all a@2035 optimal: only in NEW"
    assert lines[5].startswith("mga8/1 a@2035 max eps 0.05: status optimal -> infeasible")
    assert lines[6].startswith("mga8/1 a@2035 min eps 0.05: h2_mt") and lines[6].endswith("[pin-slack]")
    assert lines[7] == "0 of 3 groups byte-identical; 4 of 5 records differ (1 only by pin-slack moves, 3 otherwise)"
    assert status == 1


def test_solve16_digest_maps_negative_zero_to_positive_zero():
    tool = _tool()

    def solves(x, y):
        y = None if y is None else np.array(y)
        solution = SimpleNamespace(status="optimal", iterations=3, phase1_iterations=1, inverses=1, x=np.array(x), y=y)
        return [("a", 2035, None, solution, None)]

    digest = tool.solve16_digest(solves([0.0, 1.5], [2.0]))
    assert tool.solve16_digest(solves([-0.0, 1.5], [2.0])) == digest
    assert tool.solve16_digest(solves([0.0, 1.5], [-2.0])) != digest
    assert tool.solve16_digest(solves([0.0, 1.5], None)) != digest
