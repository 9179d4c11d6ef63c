"""``tools/lp32.py``: the five LP roles of a pair, run end to end at a small size and at paper scale."""

import re
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
    # Each role: status, iterations (start iterations), inverses, seconds and objective.
    counts = [re.fullmatch(r"  \S+ +\S+ +(\d+) \( *(\d+)\) +(\d+) inverses +\d+\.\d{3} s  \S+", line) for line in roles]
    assert all(counts), roles
    iterations, start, inverses = (sum(int(match[i]) for match in counts) for i in (1, 2, 3))
    assert 0 < inverses and start <= iterations
    assert re.fullmatch(
        rf"total: 5 LPs, 5 optimal, {iterations} iterations \({start}\), {inverses} inverses, \d+\.\d{{3}} s", total
    )


def test_a_paper_scale_pair_solves_all_five_roles_optimally():
    # 32 snapshots, as the paper runs them: no role may end in a numerical failure.
    proc = subprocess.run([sys.executable, str(TOOL), "--pairs", "150@2035"], capture_output=True, text=True, check=True)
    total = proc.stdout.splitlines()[-1]
    assert total.startswith("total: 5 LPs, 5 optimal, "), proc.stdout
