"""Solve the five LP roles of (scenario, horizon) pairs at 32 snapshots and print what each took.

    python3 tools/lp32.py                                  # pairs 0@2030,77@2040,150@2035,200@2045
    python3 tools/lp32.py --pairs 150@2035 --snapshots 8

A pair ``S@H`` is scenario ``S`` of ``enumerate_scenarios(load_categories())``
at horizon ``H``: the bundled model reduced to ``--snapshots`` snapshots, the
scenario applied, and the document's initial fleet phased out, translated
without vintage aggregation.  Its five roles, at slack ε = 0.05:

* ``optimal``: the cost-optimal LP, through ``simplex.solve``;
* ``min-extremize`` and ``max-extremize``: ``mga.extremize`` of the target
  under the cost budget;
* ``min-cleanup`` and ``max-cleanup``: the least-cost LP with the target
  pinned at that extremum (``mga.pinned_cleanup``), through ``mga.solve``.

Each role prints its status, its iterations, in brackets those of the start
(the dual start's or phase 1's), its seconds and its objective: the cost in
EUR, or the extremized target in MWh.  The last line sums them.  BLAS is
pinned to one thread through ``perfbench/env.py``, as the pivot path depends
on the thread count.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import env  # noqa: E402

DEFAULT_PAIRS = "0@2030,77@2040,150@2035,200@2045"
EPSILON = 0.05


def _pair(text: str) -> tuple[int, int]:
    scenario, horizon = text.split("@")
    return int(scenario), int(horizon)


def solve_roles(ck, document: dict, scenario, horizon: int):
    """``(problem, [(role, solution, seconds), ...])`` for one pair; a cleanup runs only after an optimal extremum."""
    network = ck.scenarios.apply_scenario(ck.network.build_network(document, horizon), scenario, horizon)
    fleet = ck.pathway.phase_out(ck.fleet.fleet_from_document(document), horizon)
    problem = ck.translate.translate(network, fleet, aggregate=False)

    roles = []

    def timed(role, call):
        start = time.perf_counter()
        solution = call()
        roles.append((role, solution, time.perf_counter() - start))
        return solution

    optimal = timed("optimal", lambda: ck.simplex.solve(problem))
    if optimal.status != "optimal":
        return problem, roles
    budgeted = ck.mga.add_cost_budget(problem, optimal.objective, EPSILON)
    extrema = {s: timed(f"{s}-extremize", lambda: ck.mga.extremize(budgeted, s)[0]) for s in ("min", "max")}
    for sense, extremum in extrema.items():
        if extremum.status == "optimal":
            cleanup = ck.mga.pinned_cleanup(budgeted, extremum, sense, problem.c)
            timed(f"{sense}-cleanup", lambda: ck.mga.solve(cleanup))
    return problem, roles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", default=DEFAULT_PAIRS, help="comma-separated SCENARIO@HORIZON pairs")
    parser.add_argument("--snapshots", type=int, default=32, help="snapshots the model is reduced to")
    args = parser.parse_args(argv)
    env.pin_blas()
    ck = env.import_program()
    document = ck.reduction.reduce_document(ck.fixture.fixture_document(), args.snapshots)
    scenarios = ck.scenarios.enumerate_scenarios(ck.scenarios.load_categories())
    lps = optimal = iterations = start_iterations = 0
    seconds = 0.0
    for index, horizon in map(_pair, args.pairs.split(",")):
        problem, roles = solve_roles(ck, document, scenarios[index], horizon)
        print(f"{index}@{horizon} {scenarios[index].id}: {problem.m} rows, {problem.n} columns")
        for role, solution, took in roles:
            print(
                f"  {role:<14} {solution.status:<17} {solution.iterations:>6} ({solution.phase1_iterations:>6})"
                f" {took:8.3f} s  {solution.objective!r}"
            )
            lps += 1
            optimal += solution.status == "optimal"
            iterations += solution.iterations
            start_iterations += solution.phase1_iterations
            seconds += took
    print(f"total: {lps} LPs, {optimal} optimal, {iterations} iterations ({start_iterations}), {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
