"""The three workloads, driven through corridor-kit's public API only."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs


def solve_pair(ck, document: dict, scenario, horizon: int):
    """One cost-optimal horizon LP with the document's initial fleet.

    build_network -> apply_scenario -> translate -> solve -> extract; names are
    looked up on the modules at call time so a traced run sees every call.
    """
    network = ck.scenarios.apply_scenario(ck.network.build_network(document, horizon), scenario, horizon)
    fleet = ck.pathway.phase_out(ck.fleet.fleet_from_document(document), horizon)
    problem = ck.translate.translate(network, fleet)
    solution = ck.simplex.solve(problem)
    dispatch = ck.translate.extract(problem, solution) if solution.status == "optimal" else None
    return problem, solution, dispatch


@dataclass
class PassResult:
    """One workload pass: its timings and everything the correctness gate checks."""

    wall_s: float
    cpu_s: float  # user + system of this process and its waited-for children
    solves: list = field(default_factory=list)  # solve16: (scenario_id, horizon, problem, solution, dispatch)
    records: list = field(default_factory=list)  # mga8, matrix2-jobs2: run_matrix records
    stored: list | None = None  # matrix2-jobs2: the records read back from the store
    report: dict | None = None  # matrix2-jobs2: analysis bundle written from the stored records
    store_dir: Path | None = None


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(ck, inp: inputs.Inputs, store_dir: Path, jobs: int | None = None) -> PassResult:
    """Run the workload once; the clock covers only calls into corridor-kit.

    ``jobs`` overrides the pool size of matrix2-jobs2 (the traced run uses 1).
    """
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if inp.workload == "solve16":
        solves = []
        for scenario, horizon in inp.pairs:
            problem, solution, dispatch = solve_pair(ck, inp.document, scenario, horizon)
            solves.append((scenario.id, horizon, problem, solution, dispatch))
        wall = time.perf_counter() - t0
        return PassResult(wall, _cpu_s() - cpu0, solves=solves)
    if inp.workload == "mga8":
        records, _ = ck.runner.run_matrix(
            inp.document, list(inp.scenarios), inp.epsilons, inputs.HORIZONS, jobs=1, out_dir=store_dir
        )
        wall = time.perf_counter() - t0
        return PassResult(wall, _cpu_s() - cpu0, records=records, store_dir=store_dir)
    records, store = ck.runner.run_matrix(
        inp.document,
        list(inp.scenarios),
        inp.epsilons,
        inputs.HORIZONS,
        jobs=inputs.MATRIX2_JOBS if jobs is None else jobs,
        out_dir=store_dir,
        flows=True,
    )
    stored = store.read_records()
    report = ck.analysis.report(stored, store_dir / "report", categories=inp.categories)
    wall = time.perf_counter() - t0
    return PassResult(
        wall, _cpu_s() - cpu0, records=records, stored=stored, report=report, store_dir=store_dir
    )
