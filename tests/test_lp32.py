"""``tools/lp32.py``: the five LP roles of a pair, run end to end at a small size."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lp32.py"


def test_one_small_pair_prints_five_optimal_roles_and_their_totals():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--pairs", "0@2030", "--snapshots", "4"], capture_output=True, text=True, check=True
    )
    head, *roles, total = proc.stdout.splitlines()
    assert head.startswith("0@2030 ccs-a_biomass-a_imports-a_electrolyser-a_transport-a_weather-a: ")
    assert [line.split()[:2] for line in roles] == [
        [role, "optimal"] for role in ("optimal", "min-extremize", "max-extremize", "min-cleanup", "max-cleanup")
    ]
    iterations = sum(int(line.split()[2]) for line in roles)
    assert total.startswith(f"total: 5 LPs, 5 optimal, {iterations} iterations (")
