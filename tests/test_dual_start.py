"""The dual simplex start: which LPs take it, its answers against the vertex oracle, and its restarts.

The start is keyed on the kernel factor, so the small LPs here reach it with
``_KERNEL_MIN_ROWS`` patched to 0.
"""

from unittest import mock

import numpy as np
import pytest

import corridor_kit.mga as mga_mod
import corridor_kit.simplex as simplex_mod
from corridor_kit.fleet import fleet_from_document
from corridor_kit.lp import LpBuilder, LpProblem
from corridor_kit.mga import SlackSpec, budgeted_step
from corridor_kit.network import build_network
from corridor_kit.pathway import phase_out
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import solve
from corridor_kit.translate import translate

from lp_oracles import artificial_heavy_problem, enumerate_vertices_minimum, random_problem


def kernel_path():
    return mock.patch.object(simplex_mod, "_KERNEL_MIN_ROWS", 0)


def has_artificials(problem: LpProblem) -> bool:
    std = simplex_mod._Standardizer(problem)
    return bool((simplex_mod._slack_basis(std.columns, std.c_std) < 0).any())


def ray_minimum(problem: LpProblem) -> float:
    """``min c.d`` over the LP's recession cone cut to the box ``|d| <= 1``, by vertex enumeration."""
    lb = np.where(np.isfinite(problem.lb), 0.0, -1.0)
    ub = np.where(np.isfinite(problem.ub), 0.0, 1.0)
    cone = LpProblem(
        c=problem.c,
        a_rows=problem.a_rows,
        a_cols=problem.a_cols,
        a_vals=problem.a_vals,
        senses=list(problem.senses),
        b=np.zeros(problem.m),
        lb=lb,
        ub=ub,
        row_labels=list(problem.row_labels),
        col_labels=list(problem.col_labels),
    )
    _, best = enumerate_vertices_minimum(cone)
    return best


def oracle(problem: LpProblem) -> tuple[str, float | None]:
    status, best = enumerate_vertices_minimum(problem)
    if status == "optimal" and ray_minimum(problem) < -1e-9:
        return "unbounded", None
    return status, best


def shifted(problem: LpProblem, rng: np.random.Generator) -> LpProblem:
    """The problem with one right-hand side moved by 50 away from its feasible side."""
    i = int(rng.integers(problem.m))
    step = {"le": -50.0, "ge": 50.0, "eq": 50.0 * rng.choice([-1.0, 1.0])}[problem.senses[i]]
    b = problem.b.copy()
    b[i] += step
    return LpProblem(
        c=problem.c,
        a_rows=problem.a_rows,
        a_cols=problem.a_cols,
        a_vals=problem.a_vals,
        senses=list(problem.senses),
        b=b,
        lb=problem.lb,
        ub=problem.ub,
        row_labels=list(problem.row_labels),
        col_labels=list(problem.col_labels),
    )


@pytest.mark.parametrize(
    "draw, min_unbounded",
    [
        (lambda rng, n, m: random_problem(rng, n, m, bounded=True), 0),
        (lambda rng, n, m: random_problem(rng, n, m, bounded=False), 20),
        # Its free columns are bounded above only, so it has unbounded draws too.
        (lambda rng, n, m: artificial_heavy_problem(rng, n, m, bounded=True), 20),
    ],
    ids=["random-bounded", "random-unbounded", "artificial-heavy"],
)
def test_dual_start_agrees_with_the_vertex_oracle(draw, min_unbounded):
    rng = np.random.default_rng(2026)
    statuses, starts = [], []
    with kernel_path():
        for _ in range(200):
            problem = draw(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            if rng.uniform() < 1 / 3:
                problem = shifted(problem, rng)
            status, best = oracle(problem)
            sol = solve(problem)
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(best, rel=0, abs=1e-9 * (1 + abs(best)))
            if not has_artificials(problem):
                assert sol.start == "primal"
            statuses.append(status)
            starts.append(sol.start)
    assert statuses.count("infeasible") >= 30 and statuses.count("unbounded") >= min_unbounded
    assert starts.count("dual") >= 150


def test_ray_within_phase1_tolerance_restarts_on_phase1():
    # Rows x/K - w = 1 and x + v = K (1 - 2e-8), K = 2^14, costs 2, 1, 1.
    # The dual start enters v for row 2, then x for row 1, which leaves
    # v = -2e-8 K, beyond the feasibility floor 1e-8 K, with no column to
    # repair it: a ray.  Phase 1 needs only 2e-8 of row 1's artificial,
    # about 1e-12 of the LP's scale, and accepts it, so the dual start
    # restarts on phase 1 and ends where the primal start ends.
    k = 2.0**14
    bld = LpBuilder()
    x = bld.add_col("x", cost=2.0)
    w = bld.add_col("w", cost=1.0)
    v = bld.add_col("v", cost=1.0)
    r1 = bld.add_row("r1", "eq", k)
    r2 = bld.add_row("r2", "eq", k * (1 - 2e-8))
    bld.add_entry(r1, x, 1.0)
    bld.add_entry(r1, w, -k)
    bld.add_entry(r2, x, 1.0)
    bld.add_entry(r2, v, 1.0)
    problem = bld.build()
    with kernel_path():
        dual = solve(problem)
        primal = solve(problem, primal_start=True)
    assert primal.status == dual.status == "optimal"
    assert dual.objective == pytest.approx(primal.objective, rel=1e-12)
    assert dual.start == primal.start == "primal"
    assert dual.phase1_iterations > primal.phase1_iterations  # the dual start's iterations count


def _doc8_2030(doc8, base_scenario):
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    return translate(network, phase_out(fleet_from_document(doc8), 2030))


def test_dual_start_stall_restarts_on_phase1(doc8, base_scenario):
    problem = _doc8_2030(doc8, base_scenario)
    assert simplex_mod._Standardizer(problem).columns.m >= simplex_mod._KERNEL_MIN_ROWS
    reference = solve(problem)
    assert (reference.status, reference.start) == ("optimal", "dual")
    with mock.patch.object(simplex_mod, "STALL_ITERATIONS", 1):
        stalled = solve(problem)
    assert (stalled.status, stalled.start) == ("optimal", "primal")
    assert stalled.objective == pytest.approx(reference.objective, rel=1e-9)


def test_mga_resolves_take_the_primal_start(doc8, base_scenario, monkeypatch):
    problem = _doc8_2030(doc8, base_scenario)
    optimal = solve(problem)
    calls = []

    def spy(lp, **kwargs):
        calls.append(kwargs)
        return simplex_mod.solve(lp, **kwargs)

    monkeypatch.setattr(mga_mod, "_simplex_solve", spy)
    solution, _ = budgeted_step(problem, optimal.objective, SlackSpec(0.05, "min"), is_last=False)
    assert solution.status == "optimal" and solution.start == "primal"
    assert calls == [{"primal_start": True}] * 2  # the extremization and its cleanup


def test_small_lps_keep_phase1():
    # min x + y  s.t.  x + y >= 1: a ">=" row starts on an artificial.
    bld = LpBuilder()
    x = bld.add_col("x", cost=1.0)
    y = bld.add_col("y", cost=1.0)
    row = bld.add_row("mix", "ge", 1.0)
    bld.add_entry(row, x, 1.0)
    bld.add_entry(row, y, 1.0)
    problem = bld.build()
    assert solve(problem).start == "primal"
    with kernel_path():
        assert solve(problem).start == "dual"
        assert solve(problem, primal_start=True).start == "primal"
