"""Workload constants and seeded input generation.

Each workload's inputs are a pure function of its seed (and of the committed
reference tables in ``reference/``): which scenarios of the 216-scenario
grid, and which (scenario, horizon) pairs, the program receives.
"""

from __future__ import annotations

import csv
import gzip
import random
from dataclasses import dataclass
from pathlib import Path

HORIZONS = (2030, 2035, 2040, 2045, 2050)
EPSILONS = (0.02, 0.05, 0.10)
MGA8_EPSILONS = (0.05,)  # one slack level keeps a pass short enough to repeat
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

WORKLOADS = ("solve16", "mga8", "matrix2-jobs2")
SEGMENTS = {"solve16": 16, "mga8": 8, "matrix2-jobs2": 2}
SOLVE16_PAIRS = 4  # one pair from each of this many equal-size strata
BALANCE = 0.02  # a draw's reference work is within this share of its expectation
MATRIX2_SCENARIOS = 10  # even, so that the two pool workers can share a pass equally
MATRIX2_JOBS = 2


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    document: dict  # the bundled model, reduced to SEGMENTS[workload] snapshots
    categories: tuple
    epsilons: tuple = EPSILONS
    scenarios: tuple = ()  # mga8 and matrix2-jobs2
    pairs: tuple = ()  # solve16: (Scenario, horizon)


def read_reference(name: str) -> list[dict]:
    path = REFERENCE_DIR / name
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.DictReader(fh))


def _work(row: dict) -> int:
    return int(row["iterations"]) * int(row["rows"]) * int(row["cols"])


def _balanced(draw, measures, expected):
    """Repeat ``draw()`` until each measure, summed over its picks, lies within BALANCE of its expectation.

    The seed still decides the picks; the rejection only keeps the pass's
    reference work, and so its time, from depending on the seed.
    """
    while True:
        picks = draw()
        if all(abs(sum(map(f, picks)) - e) <= BALANCE * e for f, e in zip(measures, expected)):
            return picks


def solve16_pairs(rng: random.Random) -> list[tuple[str, int]]:
    """One (scenario, horizon) pair from each of SOLVE16_PAIRS strata, balanced.

    The 1080 pairs are ordered by the work their reference solve took
    (iterations x rows x columns, which tracks the dense simplex's time) and
    cut into strata of equal size, so every seed draws easy and hard LPs in
    the grid's own proportions; the draw's work is held to SOLVE16_PAIRS
    times the grid's mean.
    """
    rows = read_reference("solve16.csv.gz")
    rows.sort(key=lambda r: (_work(r), r["scenario_id"], int(r["horizon"])))
    size = len(rows) / SOLVE16_PAIRS
    expected = SOLVE16_PAIRS * sum(_work(r) for r in rows) / len(rows)
    picks = _balanced(
        lambda: [rows[int((k + rng.random()) * size)] for k in range(SOLVE16_PAIRS)], [_work], [expected]
    )
    return [(r["scenario_id"], int(r["horizon"])) for r in picks]


def mga8_scenario(rng: random.Random) -> str:
    """A scenario of typical work: uniform over the middle fifth by reference iterations.

    One pathway set is the whole pass, so the draw cannot be balanced; the
    216 sets' iteration counts spread by about 11% between quartiles, and
    the 43 sets inside the band lie within about 4.5% of each other.
    """
    rows = read_reference("mga8_work.csv")
    rows.sort(key=lambda r: (int(r["iterations"]), r["scenario_id"]))
    fifth = len(rows) // 5
    return rng.choice(rows[2 * fifth : 3 * fifth])["scenario_id"]


def matrix2_scenarios(rng: random.Random) -> list[str]:
    """MATRIX2_SCENARIOS scenarios without a known failure, balanced.

    The 12 scenarios whose 2-snapshot pathway set has a reference
    ``numerical_failure`` are left out, so that no operation of a pass fails
    and two runs agree on the failed count whatever their pass counts (the
    defect is documented in README.md and met by the self-test).  The draw's
    reference solves and simplex iterations are each held to their
    expectation.
    """
    records = read_reference("matrix2.csv.gz")
    failing = {r["scenario_id"] for r in records if r["status"] == "numerical_failure"}
    work = [r for r in read_reference("matrix2_work.csv") if r["scenario_id"] not in failing]
    measures = [lambda r: int(r["solves"]), lambda r: int(r["iterations"])]
    expected = [MATRIX2_SCENARIOS * sum(map(f, work)) / len(work) for f in measures]
    picks = _balanced(lambda: rng.sample(work, MATRIX2_SCENARIOS), measures, expected)
    return sorted(r["scenario_id"] for r in picks)


def setup(ck, workload: str, seed: int) -> Inputs:
    """Everything a workload needs before its first timed call into corridor-kit."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    document = ck.reduction.reduce_document(ck.fixture.fixture_document(), SEGMENTS[workload])
    categories = ck.scenarios.load_categories()
    by_id = {s.id: s for s in ck.scenarios.enumerate_scenarios(categories)}
    if workload == "solve16":
        pairs = tuple((by_id[sid], h) for sid, h in solve16_pairs(rng))
        return Inputs(workload, seed, document, categories, pairs=pairs)
    if workload == "mga8":
        scenarios = (by_id[mga8_scenario(rng)],)
        return Inputs(workload, seed, document, categories, epsilons=MGA8_EPSILONS, scenarios=scenarios)
    chosen = matrix2_scenarios(rng)
    return Inputs(workload, seed, document, categories, scenarios=tuple(by_id[sid] for sid in chosen))
