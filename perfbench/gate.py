"""The correctness gate, run outside every timed region.

Every operation (one LP solve in solve16, one record elsewhere) is checked
against the committed reference in ``reference/``: statuses must match
exactly and ``cost_eur``, ``h2_mt`` and ``mu_raw`` within REL_TOL.  solve16
also re-runs ``verify_kkt`` on every optimal solution and cross-checks its
objective, or its infeasibility, against scipy's HiGHS.

An operation *fails* when its status is a failure status, its record is
missing, or any check misses.  A failure that reproduces the reference (a
known ``numerical_failure``) still fails, but is not *wrong*; anything else
is wrong and makes the run incorrect.  A reference ``numerical_failure`` that
the program now solves to an ``optimal`` the gate has KKT-checked itself
(solve16) is neither.  A record the gate cannot check from outside — an
``optimal`` where the reference failed, or a record past such a point in its
chain, which the reference lacks — fails as *unverified* until the
references are regenerated, but is not wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import inputs

REL_TOL = 1e-6
KKT_TOL = 1e-8
LINPROG_TOL = 1e-7
FAILURE_STATUSES = frozenset({"numerical_failure", "timeout", "worker_error"})
VALUE_FIELDS = ("cost_eur", "h2_mt", "mu_raw")
MAX_NOTES = 8


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    unverified: int = 0  # records only the program's own checks vouch for; counted in failed
    kkt_worst: float = 0.0
    notes: list = field(default_factory=list)

    def miss(self, what: str, known: bool = False) -> None:
        self.failed += 1
        if not known:
            self.wrong += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(what)

    def unverifiable(self) -> None:
        self.failed += 1
        self.unverified += 1

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.unverified += other.unverified
        self.kkt_worst = max(self.kkt_worst, other.kkt_worst)
        self.notes += other.notes[: MAX_NOTES - len(self.notes)]


def _num(text: str):
    return float(text) if text else None


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-12  # floor: mu_raw is 0 when the budget is slack


def status_ok(verdict: Verdict, what: str, status: str, ref_status: str) -> bool:
    """Judge a status against its reference; False once the operation has missed.

    Callers pass ``optimal`` only for KKT-certified solutions, so an
    ``optimal`` where the reference failed numerically is a fix, not a miss.
    """
    if status in FAILURE_STATUSES:
        verdict.miss(f"{what}: {status}", known=status == ref_status)
        return False
    if status == ref_status or (ref_status == "numerical_failure" and status == "optimal"):
        return True
    verdict.miss(f"{what}: status {status}, reference {ref_status}")
    return False


def _values_ok(verdict: Verdict, what: str, values: dict, ref: dict) -> bool:
    bad = [k for k, v in values.items() if not _close(v, _num(ref[k]), REL_TOL)]
    if bad:
        verdict.miss(f"{what}: {', '.join(bad)} differ from the reference")
    return not bad


def check_solves(ck, solves) -> Verdict:
    refs = {(r["scenario_id"], int(r["horizon"])): r for r in inputs.read_reference("solve16.csv.gz")}
    verdict = Verdict()
    for scenario_id, horizon, problem, solution, dispatch in solves:
        verdict.attempted += 1
        what = f"{scenario_id}@{horizon}"
        ref = refs[(scenario_id, horizon)]
        status = solution.status
        if status == "optimal":
            worst = ck.simplex.verify_kkt(problem, solution).worst()
            verdict.kkt_worst = max(verdict.kkt_worst, worst)
            if worst > KKT_TOL:
                verdict.miss(f"{what}: KKT residual {worst:.3g}")
                continue
        if not status_ok(verdict, what, status, ref["status"]):
            continue
        if status == "optimal":
            values = {"cost_eur": solution.objective, "h2_mt": dispatch.target_value_mt}
            if ref["status"] == "optimal" and not _values_ok(verdict, what, values, ref):
                continue
            highs = _highs(problem)
            if highs.status != 0 or not _close(solution.objective, highs.fun, LINPROG_TOL):
                verdict.miss(
                    f"{what}: objective {solution.objective!r}, HiGHS {highs.fun!r} ({highs.message})"
                )
        elif status == "infeasible" and _highs(problem).status != 2:
            verdict.miss(f"{what}: infeasible, HiGHS disagrees")
    return verdict


def _highs(problem):
    """The same LP solved by scipy's HiGHS, an engine independent of the program."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, vstack

    a = coo_matrix((problem.a_vals, (problem.a_rows, problem.a_cols)), shape=(problem.m, problem.n)).tocsr()
    le = [i for i, s in enumerate(problem.senses) if s == "le"]
    ge = [i for i, s in enumerate(problem.senses) if s == "ge"]
    eq = [i for i, s in enumerate(problem.senses) if s == "eq"]
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in zip(problem.lb, problem.ub)
    ]
    return linprog(
        problem.c,
        A_ub=vstack([a[le], -a[ge]]) if le or ge else None,
        b_ub=list(problem.b[le]) + list(-problem.b[ge]) if le or ge else None,
        A_eq=a[eq] if eq else None,
        b_eq=problem.b[eq] if eq else None,
        bounds=bounds,
        method="highs",
    )


def _key(scenario_id, horizon, sense, epsilon) -> tuple:
    return (scenario_id, int(horizon), sense, "" if epsilon in (None, "") else repr(float(epsilon)))


def check_records(records, scenario_ids, epsilons, reference: str, stored=None) -> Verdict:
    wanted = set(scenario_ids)
    slacks = {""} | {repr(float(e)) for e in epsilons}
    refs = {}
    for r in inputs.read_reference(reference):
        key = _key(r["scenario_id"], r["horizon"], r["sense"], r["epsilon"])
        if r["scenario_id"] in wanted and key[3] in slacks:
            refs[key] = r
    produced = {}
    verdict = Verdict()
    for rec in records:
        key = _key(rec.scenario_id, rec.horizon, rec.sense, rec.epsilon)
        if key in produced:
            verdict.miss(f"{key}: duplicate record")
        produced[key] = rec
    for key in sorted(set(refs) | set(produced)):
        verdict.attempted += 1
        ref, rec = refs.get(key), produced.get(key)
        if rec is None:
            verdict.miss(f"{key}: missing")
        elif ref is None:
            if rec.status in FAILURE_STATUSES:
                verdict.miss(f"{key}: {rec.status}")
            else:
                verdict.unverifiable()
        elif ref["status"] == "numerical_failure" and rec.status == "optimal":
            verdict.unverifiable()
        elif status_ok(verdict, str(key), rec.status, ref["status"]) and ref["status"] == "optimal":
            _values_ok(verdict, str(key), {f: getattr(rec, f) for f in VALUE_FIELDS}, ref)
    if stored is not None and stored != list(records):
        verdict.miss("records read back from the store differ from the records run_matrix returned")
    return verdict


def check_pass(ck, inp: inputs.Inputs, result) -> Verdict:
    if inp.workload == "solve16":
        return check_solves(ck, result.solves)
    reference = "mga8.csv.gz" if inp.workload == "mga8" else "matrix2.csv.gz"
    stored = result.stored
    if stored is None:
        stored = ck.runner.ResultsStore(result.store_dir).read_records()
    verdict = check_records(result.records, [s.id for s in inp.scenarios], inp.epsilons, reference, stored)
    if result.report is not None and not all(path.is_file() for path in result.report.values()):
        verdict.miss("analysis report files missing")
    return verdict
