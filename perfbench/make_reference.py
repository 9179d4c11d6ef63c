"""Regenerate the committed reference tables in ``reference/``.

The references cover every input any seed can draw, so the correctness gate
never depends on which seeds a run uses:

* ``solve16.csv.gz``: all 216 scenarios x 5 horizons, one cost-optimal LP each
  at 16 snapshots (status, objective, hydrogen, iterations, LP size);
* ``mga8.csv.gz`` and ``mga8_work.csv``: every scenario's pathway set at 8
  snapshots and the one slack level mga8 runs, and the solves and simplex
  iterations it took;
* ``matrix2.csv.gz`` and ``matrix2_work.csv``: every scenario's pathway set at
  2 snapshots, and the solves and simplex iterations it took.

Run from the repository root, with as many workers as spare cores:

    python3 perfbench/make_reference.py --jobs 2

It takes about 35 minutes with two workers (70 minutes of CPU).  Regenerate
only when the program's answers are meant to change, and say so in the
change that does it.  ``inputs.py`` draws every workload's inputs from the
work recorded here, and leaves out of matrix2-jobs2 the scenarios with a
``numerical_failure`` record, so regenerating also moves those draws.
"""

from __future__ import annotations

import env

env.pin_blas()

import argparse
import csv
import gzip
import multiprocessing
import sys
import tempfile
import time

import inputs
import spans
import workloads

RECORD_COLUMNS = ["scenario_id", "horizon", "sense", "epsilon", "status", "cost_eur", "h2_mt", "mu_raw"]
SOLVE16_COLUMNS = ["scenario_id", "horizon", "status", "cost_eur", "h2_mt", "iterations", "rows", "cols"]

_state: dict = {}


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _init() -> None:
    ck = env.import_program()
    base = ck.fixture.fixture_document()
    _state["ck"] = ck
    _state["docs"] = {n: ck.reduction.reduce_document(base, n) for n in (2, 8, 16)}
    _state["scenarios"] = {s.id: s for s in ck.scenarios.enumerate_scenarios(ck.scenarios.load_categories())}


def _pathway_set(args):
    """All records of one scenario; also the solves and iterations they took."""
    segments, epsilons, scenario_id = args
    ck = _state["ck"]
    tracer = spans.Tracer()
    with spans.patch_program(ck, tracer), tempfile.TemporaryDirectory() as tmp:
        records, _ = ck.runner.run_matrix(
            _state["docs"][segments],
            [_state["scenarios"][scenario_id]],
            epsilons,
            inputs.HORIZONS,
            jobs=1,
            out_dir=tmp,
        )
    layers = spans.layer_metrics(tracer.spans)
    counts = [layers["simplex.solve.calls"][0], layers["simplex.solve.iterations"][0]]
    rows = [[_fmt(getattr(r, col)) for col in RECORD_COLUMNS] for r in records]
    return scenario_id, rows, counts


def _solve16(args):
    scenario_id, horizon = args
    ck = _state["ck"]
    problem, solution, dispatch = workloads.solve_pair(
        ck, _state["docs"][16], _state["scenarios"][scenario_id], horizon
    )
    optimal = dispatch is not None
    return [
        scenario_id,
        str(horizon),
        solution.status,
        _fmt(solution.objective if optimal else None),
        _fmt(dispatch.target_value_mt if optimal else None),
        str(solution.iterations),
        str(problem.m),
        str(problem.n),
    ]


def _write_gz(name: str, header, rows) -> None:
    with gzip.open(inputs.REFERENCE_DIR / name, "wt", newline="", compresslevel=9) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    _init()
    scenario_ids = sorted(_state["scenarios"])
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs, initializer=_init) as pool:
        for stage in ("matrix2", "solve16", "mga8"):
            started = time.perf_counter()
            if stage == "solve16":
                tasks = [(sid, h) for sid in scenario_ids for h in inputs.HORIZONS]
                rows = list(pool.imap(_solve16, tasks, chunksize=4))
                _write_gz("solve16.csv.gz", SOLVE16_COLUMNS, rows)
            else:
                shape = (2, inputs.EPSILONS) if stage == "matrix2" else (8, inputs.MGA8_EPSILONS)
                results = list(pool.imap(_pathway_set, [(*shape, sid) for sid in scenario_ids]))
                rows = [row for _, scenario_rows, _ in results for row in scenario_rows]
                _write_gz(f"{stage}.csv.gz", RECORD_COLUMNS, rows)
                with open(inputs.REFERENCE_DIR / f"{stage}_work.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["scenario_id", "records", "solves", "iterations"])
                    for sid, scenario_rows, counts in results:
                        writer.writerow([sid, len(scenario_rows), *counts])
            elapsed = time.perf_counter() - started
            print(f"{stage}: {len(rows)} rows in {elapsed:.0f} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
