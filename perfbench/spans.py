"""Outside-in tracing: spans around calls into corridor-kit's public functions.

The program is not touched.  :func:`patch_program` rebinds each traced name
where its callers look it up (``corridor_kit.pathway.solve``,
``corridor_kit.mga.solve``, ``LpProblem.dense``, ...) to a wrapper that
records a span, and restores the originals on exit.  A name the program no
longer has is left out, and its metrics read 0.  Spans are kept in memory
as ``[name, start, end, parent, attrs]`` and written out once at the end.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

STATUSES = ("optimal", "infeasible", "unbounded", "numerical_failure", "timeout")
# One attempt of simplex.solve; a solve with two was retried.  Not a layer:
# its time and children count as the enclosing solve's.
ATTEMPT = "simplex._solve_standardized"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # name, start, end, parent index (-1 = root), attrs
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` timed as span ``name``; ``annotate(attrs, args, result)`` runs after the span ends."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                annotate(self.spans[idx][4], args, result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


# --- what is traced, and where callers look it up ------------------------

def _solve_attrs(attrs, args, solution):
    problem = args[0]
    labels = problem.row_labels
    attrs.update(
        rows=problem.m,
        cols=problem.n,
        nnz=int(problem.a_vals.size),
        iterations=solution.iterations,
        status=solution.status,
        budget="budget" in labels[-2:],
        pin="target_pin" in labels[-1:],
    )


def _dense_attrs(attrs, args, result):
    attrs["mb"] = result.shape[0] * result.shape[1] * 8 / 1e6


def _translate_attrs(attrs, args, result):
    fleet = args[1] if len(args) > 1 else None
    attrs["fleet"] = 0 if fleet is None else len(fleet)


def _aggregate_attrs(attrs, args, result):
    attrs["entries_in"] = len(args[0])
    attrs["entries_out"] = len(result[0])


def targets(ck):
    """``(owner, attribute, span name, annotate)`` for every traced name."""
    out = []
    for mod in (ck.pathway, ck.mga):
        out += [
            (mod, "build_network", "network.build_network", None),
            (mod, "apply_scenario", "scenarios.apply_scenario", None),
            (mod, "translate", "translate.translate", _translate_attrs),
            (mod, "extract", "translate.extract", None),
            (mod, "solve", "simplex.solve", _solve_attrs),
            (mod, "aggregate_build_years", "reduction.aggregate_build_years", _aggregate_attrs),
            (mod, "disaggregate", "reduction.disaggregate", None),
            (mod, "carry_over", "pathway.carry_over", None),
        ]
    out += [
        (ck.network, "build_network", "network.build_network", None),
        (ck.scenarios, "apply_scenario", "scenarios.apply_scenario", None),
        (ck.translate, "translate", "translate.translate", _translate_attrs),
        (ck.translate, "extract", "translate.extract", None),
        (ck.simplex, "solve", "simplex.solve", _solve_attrs),
        (ck.simplex, "_solve_standardized", ATTEMPT, None),
        (ck.simplex, "verify_kkt", "simplex.verify_kkt", None),
        (ck.reduction, "reduce_document", "reduction.reduce_document", None),
        (ck.lp.LpProblem, "dense", "lp.LpProblem.dense", _dense_attrs),
        (ck.lp.LpProblem, "with_row", "lp.LpProblem.with_row", None),
        (ck.mga, "add_cost_budget", "mga.add_cost_budget", None),
        (ck.mga, "extremize", "mga.extremize", None),
        (ck.runner, "run_scenario", "runner.run_scenario", None),
        (ck.runner, "run_optimal_pathway", "pathway.run_optimal_pathway", None),
        (ck.runner, "run_extremal_pathway", "mga.run_extremal_pathway", None),
        (ck.runner.ResultsStore, "write_records", "runner.ResultsStore.write_records", None),
        (ck.runner.ResultsStore, "write_flows", "runner.ResultsStore.write_flows", None),
        (ck.runner.ResultsStore, "read_records", "runner.ResultsStore.read_records", None),
        (ck.analysis, "report", "analysis.report", None),
        (ck.analysis, "intervals_from_records", "analysis.intervals_from_records", None),
        (ck.analysis, "sensitivity", "analysis.sensitivity", None),
    ]
    return out


@contextlib.contextmanager
def patch_program(ck, tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, annotate in targets(ck):
            if attr not in owner.__dict__:
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics from the spans ------------------------------------

def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it; 0 if none."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 0.0


def layer_metrics(spans) -> dict:
    """``{name: (value, unit)}`` derived from one traced pass's spans."""
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)  # time covered by each span's direct children
    attempts = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if name == ATTEMPT:
            attempts[parent] += 1
            continue
        durations.setdefault(name, []).append(end - start)
        while parent >= 0 and spans[parent][0] == ATTEMPT:
            parent = spans[parent][3]
        if parent >= 0:
            child_time[parent] += end - start

    def calls(name):
        return len(durations.get(name, ()))

    def total(name):
        return sum(durations.get(name, ()))

    m: dict[str, tuple] = {}
    for name in (
        "network.build_network",
        "scenarios.apply_scenario",
        "pathway.carry_over",
        "translate.translate",
        "lp.LpProblem.dense",
        "lp.LpProblem.with_row",
        "simplex.verify_kkt",
        "mga.extremize",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (total(name), "s")
    for name in (
        "reduction.reduce_document",
        "reduction.aggregate_build_years",
        "reduction.disaggregate",
        "translate.extract",
        "mga.add_cost_budget",
        "runner.ResultsStore.write_records",
        "runner.ResultsStore.write_flows",
        "runner.ResultsStore.read_records",
        "analysis.report",
        "analysis.intervals_from_records",
        "analysis.sensitivity",
    ):
        m[f"{name}.s"] = (total(name), "s")

    solve_idx = [i for i, span in enumerate(spans) if span[0] == "simplex.solve"]
    solves = [(spans[i][2] - spans[i][1], spans[i][4], attempts[i]) for i in solve_idx]
    times = [d for d, _, _ in solves]
    tail = tail_percentile(len(times))
    m["simplex.solve.calls"] = (len(solves), "count")
    m["simplex.solve.s"] = (sum(times), "s")
    m["simplex.solve.self_s"] = (sum(times) - sum(child_time[i] for i in solve_idx), "s")
    m["simplex.solve.iterations"] = (sum(a["iterations"] for _, a, _ in solves), "count")
    m["simplex.solve.p50_s"] = (_pct(times, 50.0), "s")
    m["simplex.solve.ptail_s"] = (_pct(times, tail or 50.0), "s")
    m["simplex.solve.ptail_pct"] = (tail, "%")
    for status in STATUSES:
        m[f"simplex.solve.status.{status}"] = (sum(a["status"] == status for _, a, _ in solves), "count")
    m["simplex.solve.retries"] = (sum(k >= 2 for _, _, k in solves), "count")
    m["lp.rows_p50"] = (_pct([a["rows"] for _, a, _ in solves], 50.0), "count")
    m["lp.cols_p50"] = (_pct([a["cols"] for _, a, _ in solves], 50.0), "count")
    m["lp.nnz_p50"] = (_pct([a["nnz"] for _, a, _ in solves], 50.0), "count")
    dense = [attrs["mb"] for name, *_, attrs in spans if name == "lp.LpProblem.dense"]
    m["lp.dense_mb"] = (max(dense, default=0.0), "MB-computed")

    budgeted = [d for d, a, _ in solves if a["budget"]]
    cleanup = [a for _, a, _ in solves if a["pin"]]
    m["mga.budgeted_solve_s"] = (sum(budgeted), "s")
    m["mga.cleanup.solves"] = (len(cleanup), "count")
    m["mga.cleanup.fallback_share"] = (
        sum(a["status"] != "optimal" for a in cleanup) / len(cleanup) if cleanup else 0.0,
        "share",
    )

    aggregated = [attrs for name, *_, attrs in spans if name == "reduction.aggregate_build_years"]
    entries_in = sum(a["entries_in"] for a in aggregated)
    m["reduction.aggregate_build_years.compression"] = (
        sum(a["entries_out"] for a in aggregated) / entries_in if entries_in else 1.0,
        "ratio",
    )
    m["fleet.entries_p50"] = (
        _pct([attrs["fleet"] for name, *_, attrs in spans if name == "translate.translate"], 50.0),
        "count",
    )
    scenarios = durations.get("runner.run_scenario", [])
    m["runner.run_scenario.calls"] = (len(scenarios), "count")
    m["runner.run_scenario.p50_s"] = (_pct(scenarios, 50.0), "s")
    return m
