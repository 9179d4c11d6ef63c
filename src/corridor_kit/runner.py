"""Scenario-matrix runner: optimal plus extremal pathways for every scenario.

Scenarios are independent and run in a bounded worker pool; a single
collector in the parent process orders and writes all records, so stores are
byte-identical regardless of the worker count.  Failed solves are first-class
records, and so is a step that raises: it becomes a ``worker_error`` record
at its own horizon, its pathway keeps its earlier horizons, and the other
pathways run on.  The tracebacks are logged and kept in the store.  Every
process that solves, the pool's workers or the caller's own for one worker,
runs numpy's bundled OpenBLAS on one thread, so the answer bits depend on
neither the worker count nor the host's core count.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

from . import __version__
from .analysis import _write_csv
from .mga import SlackSpec
from .pathway import PathwayRecord, run_pathways
from .scenarios import Scenario

RECORD_COLUMNS = ["scenario_id", "horizon", "sense", "epsilon", "status", "cost_eur", "h2_mt", "mu_raw"]
FLOW_COLUMNS = ["carrier", "bus", "asset_id", "instance_id", "annual_mwh"]

# The variables that set the BLAS thread count.  The answer bits depend on it
# at every LP size whose basis (or kernel) reaches 100 rows: OpenBLAS runs the
# LU factorization behind np.linalg.inv (the explicit basis inverse and the
# kernel factor's bump) on several threads from a 100 x 100 matrix on, and the
# threaded factorization rounds differently.  run_matrix pins the library to
# one thread itself where numpy bundles OpenBLAS; the manifest records the
# variables and the count the library reports.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@functools.cache
def _openblas():
    """The set and get thread-count functions of numpy's bundled OpenBLAS, or None for another BLAS.

    Looked up on first use, through ctypes: the library is already loaded
    with numpy, and opening it again returns the same one.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            set_threads, get_threads = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports in this process; None for another BLAS."""
    lib = _openblas()
    return None if lib is None else int(lib[1]())


def _set_blas_threads(count: int) -> None:
    """Set the thread count of numpy's bundled OpenBLAS; another BLAS is left alone."""
    lib = _openblas()
    if lib is not None:
        lib[0](count)


@contextmanager
def _one_blas_thread():
    """Solve on one BLAS thread, and give the caller back its own count afterwards."""
    before = blas_threads()
    _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def _provenance() -> dict:
    """The numerical environment: numpy, its BLAS, the BLAS thread variables and the solving thread count.

    ``solve_blas_threads`` is the count the library reports on one thread,
    as every process that :func:`run_matrix` solves in runs; it is None
    where numpy's BLAS is not its bundled OpenBLAS, whose threads are then
    left as they are.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with _one_blas_thread():
        threads = blas_threads()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "solve_blas_threads": threads,
    }


@dataclass(frozen=True)
class RunManifest:
    model: str
    scenarios: str
    epsilons: tuple
    horizons: tuple
    jobs: int
    out: str
    tool_version: str = __version__
    segments: int | None = None
    flows: bool = False
    # Recorded for the reader, not enforced: a rerun records its own.
    provenance: dict = field(default_factory=_provenance, compare=False)

    def to_json(self) -> str:
        data = asdict(self)
        data["epsilons"] = list(self.epsilons)
        data["horizons"] = list(self.horizons)
        return json.dumps(data, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        data["epsilons"] = tuple(data["epsilons"])
        data["horizons"] = tuple(data["horizons"])
        data.pop("tool_version", None)
        data.pop("provenance", None)
        data.pop("deterministic", None)  # written by older versions, never read
        return cls(**data)


def _record_order(record: PathwayRecord) -> tuple:
    """Canonical record order: scenario, horizon, sense, then slack (optimal first)."""
    eps = -1.0 if record.epsilon is None else record.epsilon
    return (record.scenario_id, record.horizon, record.sense, eps)


class ResultsStore:
    """Directory holding records.csv, the manifest, optional flow tables and
    the tracebacks of crashed scenarios (``errors/<scenario_id>.txt``)."""

    def __init__(self, path):
        self.path = Path(path)

    def write_manifest(self, manifest: RunManifest) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / "manifest.json").write_text(manifest.to_json() + "\n")

    def write_records(self, records: list[PathwayRecord]) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        rows = (
            [getattr(rec, col) for col in RECORD_COLUMNS] for rec in sorted(records, key=_record_order)
        )
        _write_csv(self.path / "records.csv", RECORD_COLUMNS, rows)

    def write_flows(self, key: str, flow_rows) -> None:
        flows_dir = self.path / "flows"
        flows_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(flows_dir / f"{key}.csv", FLOW_COLUMNS, flow_rows)

    def write_error(self, scenario_id: str, text: str) -> None:
        errors_dir = self.path / "errors"
        errors_dir.mkdir(parents=True, exist_ok=True)
        (errors_dir / f"{scenario_id}.txt").write_text(text)

    def read_records(self) -> list[PathwayRecord]:
        out = []
        with open(self.path / "records.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                out.append(
                    PathwayRecord(
                        scenario_id=row["scenario_id"],
                        horizon=int(row["horizon"]),
                        sense=row["sense"],
                        epsilon=float(row["epsilon"]) if row["epsilon"] else None,
                        status=row["status"],
                        cost_eur=float(row["cost_eur"]) if row["cost_eur"] else None,
                        h2_mt=float(row["h2_mt"]) if row["h2_mt"] else None,
                        mu_raw=float(row["mu_raw"]) if row["mu_raw"] else None,
                    )
                )
        return out


@dataclass
class ScenarioOutcome:
    scenario_id: str
    records: list = field(default_factory=list)
    flows: dict = field(default_factory=dict)  # key -> flow rows
    error: str | None = None  # the tracebacks of every step that raised


def _flow_key(record: PathwayRecord) -> str:
    eps = "" if record.epsilon is None else f"{record.epsilon:g}"
    return f"{record.scenario_id}__{record.horizon}__{record.sense}__{eps}"


def run_scenario(
    document: dict,
    scenario: Scenario,
    epsilons,
    horizons,
    flows: bool = False,
) -> ScenarioOutcome:
    """Optimal pathway, and min and max pathways per slack level, in one horizon loop."""
    outcome = ScenarioOutcome(scenario_id=scenario.id)
    slacks = [SlackSpec(epsilon, sense) for epsilon in sorted(epsilons) for sense in ("min", "max")]
    errors = []
    for step in run_pathways(document, horizons, scenario, slacks, aggregate=True):
        outcome.records.append(step.record)
        if step.error is not None:
            errors.append(step.error)
        if flows and step.dispatch is not None:
            outcome.flows[_flow_key(step.record)] = step.dispatch.flow_rows
    outcome.error = "\n".join(errors) or None
    _log_nesting_violations(outcome.records, horizons)
    return outcome


def _log_nesting_violations(records: list[PathwayRecord], horizons) -> None:
    """Warn when ranges fail to widen with slack beyond the first horizon.

    Guaranteed only at the first horizon (identical entering fleet); later
    horizons follow different lineages per slack level, so a violation there
    is an expected possibility worth surfacing, not an error.
    """
    for horizon in list(horizons)[1:]:
        for sense, widening in (("max", 1.0), ("min", -1.0)):
            series = sorted(
                (
                    (r.epsilon, r.h2_mt)
                    for r in records
                    if r.horizon == horizon and r.sense == sense and r.status == "optimal"
                ),
            )
            for (e1, h1), (e2, h2) in zip(series, series[1:]):
                if widening * (h2 - h1) < -1e-6:
                    logger.warning(
                        "%s range narrowed with slack at %s: h(%.3g)=%.4f vs h(%.3g)=%.4f "
                        "(different lineages; expected possibility)",
                        sense,
                        horizon,
                        e1,
                        h1,
                        e2,
                        h2,
                    )


def _worker(args) -> ScenarioOutcome:
    document, scenario, epsilons, horizons, flows = args
    try:
        return run_scenario(document, scenario, epsilons, horizons, flows)
    except Exception:  # a raise outside any pathway step
        record = PathwayRecord(scenario.id, min(horizons), "optimal", None, "worker_error")
        return ScenarioOutcome(scenario_id=scenario.id, records=[record], error=traceback.format_exc())


def run_matrix(
    document: dict,
    scenarios: list[Scenario],
    epsilons,
    horizons,
    jobs: int = 1,
    out_dir=None,
    flows: bool = False,
    manifest: RunManifest | None = None,
) -> tuple[list[PathwayRecord], ResultsStore | None]:
    """Run the whole scenario matrix; records are canonically ordered.

    At most ``len(scenarios) * len(horizons) * (1 + 2 * len(epsilons))``
    records are produced (aborted pathways yield fewer); every failure is
    recorded with its status rather than dropped.  The solves run on one
    BLAS thread (:func:`_one_blas_thread`, and the pool's initializer); the
    caller's own thread count is restored afterwards.
    """
    store = None
    if out_dir is not None:
        store = ResultsStore(out_dir)
        if manifest is None:
            manifest = RunManifest(
                model="<in-memory>",
                scenarios="<in-memory>",
                epsilons=tuple(sorted(epsilons)),
                horizons=tuple(horizons),
                jobs=jobs,
                out=str(out_dir),
                flows=flows,
            )
        store.write_manifest(manifest)

    tasks = [
        (document, scenario, tuple(sorted(epsilons)), tuple(horizons), flows)
        for scenario in sorted(scenarios, key=lambda s: s.id)
    ]
    outcomes: list[ScenarioOutcome]
    if jobs <= 1 or len(tasks) <= 1:
        with _one_blas_thread():
            outcomes = [_worker(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when it is used

        with ProcessPoolExecutor(max_workers=jobs, initializer=_set_blas_threads, initargs=(1,)) as pool:
            outcomes = list(pool.map(_worker, tasks))

    records: list[PathwayRecord] = []
    for outcome in outcomes:
        if outcome.error is not None:
            logger.error("scenario %s crashed:\n%s", outcome.scenario_id, outcome.error)
        records.extend(outcome.records)
    records.sort(key=_record_order)
    if store is not None:
        store.write_records(records)
        for outcome in outcomes:
            if outcome.error is not None:
                store.write_error(outcome.scenario_id, outcome.error)
            for key in sorted(outcome.flows):
                store.write_flows(key, outcome.flows[key])
    return records, store
