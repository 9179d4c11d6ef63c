"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs one scenario of the 2-snapshot matrix untraced and traced, one scenario
with a known `numerical_failure` (which `matrix2-jobs2` leaves out), one 16-snapshot
LP through the solve16 checks, and confirms that the correctness gate passes
the real answers, catches altered and missing ones, fails records it cannot
verify, that tracing restores every patched name, that a traced pass reports
every per-layer metric BENCHMARK.json declares, and that a retried solve is
counted.
"""

from __future__ import annotations

import env

env.pin_blas()

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import gate
import inputs
import run
import spans
import workloads


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    ck = env.import_program()
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    matrix = inputs.setup(ck, "matrix2-jobs2", inputs.DEFAULT_SEED)
    one = dataclasses.replace(matrix, scenarios=matrix.scenarios[:1])
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        plain = workloads.run_pass(ck, one, Path(tmp) / "plain", jobs=1)
        verdict = gate.check_pass(ck, one, plain)
        check(verdict.wrong == 0 and verdict.attempted == len(plain.records), f"real answers rejected: {verdict}")

        first = next(i for i, r in enumerate(plain.records) if r.status == "optimal")
        altered = list(plain.records)
        altered[first] = dataclasses.replace(altered[first], h2_mt=altered[first].h2_mt * (1 + 1e-5))
        verdict = gate.check_records(altered, [one.scenarios[0].id], one.epsilons, "matrix2.csv.gz")
        check(verdict.wrong == 1, "an altered h2_mt passed the gate")
        verdict = gate.check_records(plain.records[1:], [one.scenarios[0].id], one.epsilons, "matrix2.csv.gz")
        check(verdict.wrong == 1 and verdict.failed == 1, "a missing record passed the gate")
        beyond = sum(r.epsilon not in (None, 0.05) for r in plain.records)
        verdict = gate.check_records(plain.records, [one.scenarios[0].id], (0.05,), "matrix2.csv.gz")
        check(
            verdict.wrong == 0 and verdict.unverified == beyond > 0 and verdict.failed == beyond,
            "records without a reference must fail as unverified",
        )
        verdict = gate.Verdict()
        check(not gate.status_ok(verdict, "known", "numerical_failure", "numerical_failure"), "known failure judged ok")
        check(verdict.failed == 1 and verdict.wrong == 0, "a known failure must fail without being wrong")
        check(gate.status_ok(verdict, "fixed", "optimal", "numerical_failure"), "a certified fix was rejected")

        # matrix2-jobs2 leaves out the scenarios with a known numerical_failure; meet one here.
        failing = sorted(
            r["scenario_id"] for r in inputs.read_reference("matrix2.csv.gz") if r["status"] == "numerical_failure"
        )[0]
        by_id = {s.id: s for s in ck.scenarios.enumerate_scenarios(matrix.categories)}
        known = dataclasses.replace(matrix, scenarios=(by_id[failing],))
        verdict = gate.check_pass(ck, known, workloads.run_pass(ck, known, Path(tmp) / "known", jobs=1))
        check(verdict.failed >= 1 and verdict.wrong == 0, f"known numerical_failure not reproduced: {verdict}")

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.targets(ck)]
        tracer = spans.Tracer()
        with spans.patch_program(ck, tracer):
            traced = workloads.run_pass(ck, one, Path(tmp) / "traced", jobs=1)
        check(traced.records == plain.records, "traced and untraced passes disagree")
        check(
            all(owner.__dict__[attr] is original for owner, attr, original in originals),
            "tracing left a patched name behind",
        )
        metrics = run.traced_metrics(tracer, plain, traced, gate.check_pass(ck, one, traced))
        names = {m["name"] for m in declared["per_layer"]}
        check(set(metrics) == names, f"per-layer metrics differ from BENCHMARK.json: {set(metrics) ^ names}")
        check(metrics["simplex.solve.calls"][0] > 0 and metrics["mga.extremize.calls"][0] > 0, "no solves traced")

    attrs = dict(rows=1, cols=1, nnz=1, iterations=1, status="optimal", budget=False, pin=False)
    retried = [  # a solve whose first attempt failed its KKT check
        ["simplex.solve", 0.0, 4.0, -1, attrs],
        [spans.ATTEMPT, 0.0, 2.0, 0, {}],
        ["simplex.verify_kkt", 1.5, 2.0, 1, {}],
        [spans.ATTEMPT, 2.0, 4.0, 0, {}],
    ]
    metrics = spans.layer_metrics(retried)
    check(metrics["simplex.solve.retries"][0] == 1, "a retried solve was not counted")
    check(metrics["simplex.solve.self_s"][0] == 3.5, "attempt spans must not hide the solve's own time")

    solve16 = inputs.setup(ck, "solve16", inputs.DEFAULT_SEED)
    easy = dataclasses.replace(solve16, pairs=solve16.pairs[:1])
    result = workloads.run_pass(ck, easy, Path("unused"))
    verdict = gate.check_pass(ck, easy, result)
    check(verdict.wrong == 0 and verdict.attempted == 1, f"solve16 answer rejected: {verdict}")
    check(0 < verdict.kkt_worst <= gate.KKT_TOL, "KKT residual not rechecked")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
