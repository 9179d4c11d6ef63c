import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import corridor_kit.mga as mga_mod
import corridor_kit.simplex as simplex_mod
from corridor_kit.fleet import fleet_from_document
from corridor_kit.lp import LpBuilder, LpProblem
from corridor_kit.mga import PIN_LABEL, _cheapest_representative, add_cost_budget, extremize
from corridor_kit.network import build_network
from corridor_kit.pathway import phase_out
from corridor_kit.reduction import reduce_document
from corridor_kit.scenarios import apply_scenario, enumerate_scenarios
from corridor_kit.simplex import LpSolution, solve, verify_kkt
from corridor_kit.translate import translate

import lp_oracles
from lp_oracles import (
    BroadcastSimplexCore,
    artificial_heavy_problem,
    enumerate_vertices_minimum,
    explicit_inverse,
    random_problem,
)


def two_var_problem():
    # min x1 + 2 x2  s.t.  x1 + x2 >= 2,  x1 <= 1.5,  x >= 0
    bld = LpBuilder()
    x1 = bld.add_col("x1", cost=1.0)
    x2 = bld.add_col("x2", cost=2.0)
    r0 = bld.add_row("demand", "ge", 2.0)
    r1 = bld.add_row("cap", "le", 1.5)
    bld.add_entry(r0, x1, 1.0)
    bld.add_entry(r0, x2, 1.0)
    bld.add_entry(r1, x1, 1.0)
    return bld.build()


def test_two_var_example():
    sol = solve(two_var_problem())
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([1.5, 0.5], abs=1e-9)
    assert sol.objective == pytest.approx(2.5, abs=1e-9)


def test_trivial_nonnegativity():
    bld = LpBuilder()
    bld.add_col("x", cost=1.0)
    bld.add_row("anchor", "ge", 0.0)
    bld.add_entry(0, 0, 1.0)
    sol = solve(bld.build())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_infeasible_detected():
    bld = LpBuilder()
    bld.add_col("x", cost=1.0)
    r0 = bld.add_row("low", "ge", 1.0)
    r1 = bld.add_row("high", "le", 0.0)
    bld.add_entry(r0, 0, 1.0)
    bld.add_entry(r1, 0, 1.0)
    sol = solve(bld.build())
    assert sol.status == "infeasible"


def test_unbounded_detected():
    bld = LpBuilder()
    bld.add_col("x", cost=-1.0)
    bld.add_row("floor", "ge", 0.0)
    bld.add_entry(0, 0, 1.0)
    sol = solve(bld.build())
    assert sol.status == "unbounded"


def test_timeout_status(monkeypatch):
    prob = two_var_problem()
    monkeypatch.setattr(simplex_mod, "MAX_ITERATIONS", 1)
    sol = solve(prob)
    assert sol.status == "timeout"


def test_no_rows_bounds_only():
    bld = LpBuilder()
    bld.add_col("x", cost=1.0)
    sol = solve(bld.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)


def test_nonfinite_rejected():
    prob = two_var_problem()
    prob.c[0] = np.nan
    with pytest.raises(ValueError):
        solve(prob)


@pytest.mark.parametrize("lb, ub", [(np.nan, np.inf), (-5.0, np.nan), (np.inf, np.inf), (-np.inf, -np.inf)])
def test_invalid_bounds_rejected(lb, ub):
    # min x s.t. x >= -5: read as free, a NaN lower bound would solve to -5,
    # and the KKT check, which skips a NaN bound, would pass it.
    bld = LpBuilder()
    bld.add_col("x", cost=1.0, lb=lb, ub=ub)
    r = bld.add_row("floor", "ge", -5.0)
    bld.add_entry(r, 0, 1.0)
    with pytest.raises(ValueError, match="bound"):
        solve(bld.build())


def _spy_verify_kkt(monkeypatch):
    calls = []
    real = simplex_mod.verify_kkt
    monkeypatch.setattr(simplex_mod, "verify_kkt", lambda problem, sol: calls.append(sol) or real(problem, sol))
    return calls


def test_kkt_certifies_every_kind_of_lp_once(monkeypatch):
    calls = _spy_verify_kkt(monkeypatch)
    bld = LpBuilder()
    bld.add_col("x", cost=1.0, lb=-2.0)
    bld.add_col("y", cost=-1.0, ub=3.0)
    bounds_only = bld.build()
    bld = LpBuilder()
    bld.add_row("roof", "le", 1.0)
    bld.add_row("pin", "eq", 0.0)
    column_free = bld.build()
    for problem, objective in ((two_var_problem(), 2.5), (bounds_only, -5.0), (column_free, 0.0)):
        del calls[:]
        sol = solve(problem)
        assert (sol.status, sol.objective) == ("optimal", pytest.approx(objective, abs=1e-12))
        assert len(calls) == 1 and calls[0] is sol


def test_duals_and_kkt_hand_built():
    prob = two_var_problem()
    sol = solve(prob)
    # Binding rows: demand (>=, dual >= 0) and cap (<=, dual <= 0).
    # Hand derivation: y_demand = 2 (raising demand costs 2/unit via x2),
    # y_cap = -1 (raising the x1 cap saves 1/unit).
    assert sol.y == pytest.approx([2.0, -1.0], abs=1e-9)
    rep = verify_kkt(prob, sol)
    assert rep.worst() <= 1e-12


def test_kkt_perturbation_reported():
    # min -x s.t. x <= 0: optimum at 0; perturbing x by 1e-3 violates the row
    # by exactly the injected amount.
    bld = LpBuilder()
    bld.add_col("x", cost=-1.0)
    bld.add_row("roof", "le", 0.0)
    bld.add_entry(0, 0, 1.0)
    prob = bld.build()
    sol = solve(prob)
    assert sol.status == "optimal"
    perturbed = LpSolution(status="optimal", x=sol.x + 1e-3, y=sol.y)
    rep = verify_kkt(prob, perturbed)
    assert rep.primal == pytest.approx(1e-3, rel=2e-3)


def test_kkt_vacuous_no_rows():
    bld = LpBuilder()
    bld.add_col("x", cost=1.0)
    prob = bld.build()
    sol = solve(prob)
    rep = verify_kkt(prob, sol)
    assert rep.worst() <= 1e-12


def test_dual_sign_convention_asserted():
    # <= rows carry nonpositive duals, >= rows nonnegative ones, on every solve.
    rng = np.random.default_rng(7)
    for _ in range(20):
        prob = random_problem(rng, 5, 4)
        sol = solve(prob)
        if sol.status != "optimal":
            continue
        for i, sense in enumerate(prob.senses):
            if sense == "le":
                assert sol.y[i] <= 1e-9
            elif sense == "ge":
                assert sol.y[i] >= -1e-9


def test_deterministic_bit_pattern():
    rng = np.random.default_rng(123)
    prob = random_problem(rng, 12, 9)
    a = solve(prob)
    b = solve(prob)
    assert a.status == b.status == "optimal"
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.basis == b.basis


def test_free_variable_handling():
    # min x + y with x free, x + y >= 1, x >= -3 via bounds.
    bld = LpBuilder()
    x = bld.add_col("x", cost=1.0, lb=-3.0)
    y = bld.add_col("y", cost=1.0)
    r = bld.add_row("mix", "ge", 1.0)
    bld.add_entry(r, x, 1.0)
    bld.add_entry(r, y, 1.0)
    sol = solve(bld.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_random_suite_against_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 8))
        prob = random_problem(rng, n, m)
        sol = solve(prob)
        status, best = enumerate_vertices_minimum(prob)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(best, abs=1e-9 * (1 + abs(best)))
            assert sol.residuals.passes(1e-8)
            checked += 1
    assert checked >= 20


def test_random_larger_kkt_only():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(5, 30))
        prob = random_problem(rng, n, m)
        sol = solve(prob)
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "optimal":
            assert sol.residuals.passes(1e-8)


def test_solve_never_assembles_the_dense_matrix(doc8, base_scenario, monkeypatch):
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(doc8), 2030))

    def no_dense(problem):
        raise AssertionError("the dense matrix was assembled on the solve path")

    # Only the test oracles assemble the m x n matrix; the program has no way to.
    assert not hasattr(LpProblem, "dense")
    monkeypatch.setattr(lp_oracles, "dense", no_dense)
    sol = solve(problem)
    assert sol.status == "optimal"
    budgeted = add_cost_budget(problem, sol.objective, 0.05)
    assert solve(budgeted).status == "optimal"


def test_standardizer_holds_no_dense_matrix(fixture_doc, base_scenario):
    # The 16-snapshot LP's m x N standard form takes 3.8 MB densely, and a
    # dense construction peaks at 5.9 MB; the sparse one stays below 1 MB.
    doc16 = reduce_document(fixture_doc, 16)
    network = apply_scenario(build_network(doc16, 2030), base_scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(doc16), 2030))
    tracemalloc.start()
    try:
        std = simplex_mod._Standardizer(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert std.columns.m * std.columns.n * 8 > 3 << 20
    assert peak < 1 << 20


def assert_same_bytes_as_broadcast_core(problem):
    """``solve`` on the explicit inverse gives the bytes of the broadcast oracle core."""
    with explicit_inverse():
        got = solve(problem)
    with mock.patch.object(simplex_mod, "_SimplexCore", BroadcastSimplexCore):
        want = solve(problem)
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.basis == want.basis
    for name in ("x", "y"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None)
        if g is not None:
            assert g.tobytes() == w.tobytes(), name
    return got


def test_blocked_update_keeps_fixture_answers(doc8, base_scenario):
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(doc8), 2030))
    optimal = assert_same_bytes_as_broadcast_core(problem)
    assert optimal.status == "optimal"

    budgeted = add_cost_budget(problem, optimal.objective, 0.05)
    extremal = assert_same_bytes_as_broadcast_core(budgeted)
    assert extremal.status == "optimal"

    cleanups = []
    with mock.patch.object(mga_mod, "solve", lambda lp: cleanups.append(lp) or solve(lp)):
        _cheapest_representative(budgeted, extremal, "min", problem.c)
    (cleanup,) = cleanups
    assert cleanup.row_labels[-1] == PIN_LABEL
    assert assert_same_bytes_as_broadcast_core(cleanup).status == "optimal"


def test_stall_rule_keeps_the_broadcast_cores_bytes(doc8, base_scenario):
    """A short stall limit sends passes to Bland's rule and back; the byte oracle follows each switch."""
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(doc8), 2030))
    with mock.patch.object(simplex_mod, "STALL_ITERATIONS", 5):
        optimal = assert_same_bytes_as_broadcast_core(problem)
        budgeted = add_cost_budget(problem, optimal.objective, 0.05)
        assert assert_same_bytes_as_broadcast_core(budgeted).status == "optimal"
    assert optimal.status == "optimal"


def test_blocked_update_keeps_random_answers():
    rng = np.random.default_rng(7)
    # With bounded columns the standard form has rows + columns rows, so the
    # larger draws reach well past _KERNEL_MIN_ROWS on the explicit inverse.
    for n, m in [(3, 2), (12, 9), (40, 25), (60, 40), (100, 90), (120, 150)]:
        for _ in range(2):
            assert_same_bytes_as_broadcast_core(random_problem(rng, n, m))


def test_implicit_unit_columns_keep_artificial_heavy_answers():
    real_drive = simplex_mod._SimplexCore._drive_out_artificials
    drove_out, starts_with_artificials, artificial_stays = [], [], []

    def drive(core):
        before = core.basis.copy()
        real_drive(core)
        drove_out.append(not np.array_equal(before, core.basis))

    rng = np.random.default_rng(11)
    with mock.patch.object(simplex_mod._SimplexCore, "_drive_out_artificials", drive):
        for n, m in [(4, 3), (10, 8), (25, 20), (40, 45), (70, 60)]:
            for bounded in (False, True):
                for _ in range(3):
                    problem = artificial_heavy_problem(rng, n, m, bounded)
                    sol = assert_same_bytes_as_broadcast_core(problem)
                    std = simplex_mod._Standardizer(problem)
                    starts_with_artificials.append(bool((simplex_mod._slack_basis(std.columns, std.c_std) < 0).any()))
                    artificial_stays.append(sol.basis is not None and max(sol.basis, default=-1) >= std.columns.n)
    assert any(drove_out) and any(starts_with_artificials) and any(artificial_stays)


def test_optimal_slack_basis_computes_no_inverse():
    # min x + y  s.t.  x + y <= 4,  x <= 3: the slack basis is already optimal.
    bld = LpBuilder()
    x = bld.add_col("x", cost=1.0)
    y = bld.add_col("y", cost=1.0)
    r0 = bld.add_row("cap", "le", 4.0)
    r1 = bld.add_row("x_cap", "le", 3.0)
    bld.add_entry(r0, x, 1.0)
    bld.add_entry(r0, y, 1.0)
    bld.add_entry(r1, x, 1.0)
    sol = solve(bld.build())
    assert sol.status == "optimal"
    assert (sol.iterations, sol.phase1_iterations, sol.inverses) == (1, 0, 0)


def _doc8_2030(doc8, base_scenario):
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    return translate(network, phase_out(fleet_from_document(doc8), 2030))


def _count_inverses(problem):
    real = np.linalg.inv
    calls = []
    with mock.patch.object(np.linalg, "inv", lambda a: calls.append(a.shape) or real(a)):
        sol = solve(problem)
    return sol, len(calls)


def test_fixture_solve_skips_the_start_basis_inverse(doc8, base_scenario):
    problem = _doc8_2030(doc8, base_scenario)
    with explicit_inverse():
        sol, calls = _count_inverses(problem)
    with mock.patch.object(simplex_mod, "_SimplexCore", BroadcastSimplexCore):
        _, broadcast_calls = _count_inverses(problem)
    assert sol.status == "optimal"
    assert sol.inverses == calls == broadcast_calls - 1
    assert 0 < sol.phase1_iterations < sol.iterations


def test_optimal_solve_refines_one_primal_and_one_dual(doc8, base_scenario, monkeypatch):
    # The polish takes the basic solution from the restoration's refined
    # solve of the same final basis instead of solving for it again.
    problem = _doc8_2030(doc8, base_scenario)
    b_std = simplex_mod._Standardizer(problem).b_std
    rhs = []

    real = simplex_mod._factor_solve

    def solve_and_count(factor, basis, v, transpose=False):
        rhs.append(v)
        return real(factor, basis, v, transpose)

    # Every refined solve, on either basis factor, goes through _factor_solve.
    monkeypatch.setattr(simplex_mod, "_factor_solve", solve_and_count)
    assert solve(problem).status == "optimal"
    primal = sum(np.array_equal(b, b_std) for b in rhs)
    assert (primal, len(rhs) - primal) == (1, 1)


def test_no_solve_path_calls_a_dense_lu_solve(fixture_doc, doc8, base_scenario, monkeypatch):
    # The 2-snapshot LP takes the explicit inverse, the 8-snapshot LP the
    # kernel factor, and the unbounded LP reaches the ray check on both.
    small = _doc8_2030(reduce_document(fixture_doc, 2), base_scenario)
    large = _doc8_2030(doc8, base_scenario)
    assert simplex_mod._Standardizer(small).columns.m < simplex_mod._KERNEL_MIN_ROWS
    assert simplex_mod._Standardizer(large).columns.m >= simplex_mod._KERNEL_MIN_ROWS
    # min -x  s.t.  x - y <= 1: once x is basic, y enters on an unbounded ray.
    bld = LpBuilder()
    x = bld.add_col("x", cost=-1.0)
    y = bld.add_col("y", cost=0.0)
    row = bld.add_row("gap", "le", 1.0)
    bld.add_entry(row, x, 1.0)
    bld.add_entry(row, y, -1.0)
    ray = bld.build()

    def no_lu(*args, **kwargs):
        raise AssertionError("np.linalg.solve was called on the solve path")

    real = simplex_mod._factor_solve
    transposed = []

    def spy(factor, basis, v, transpose=False):
        transposed.append(transpose)
        return real(factor, basis, v, transpose)

    monkeypatch.setattr(np.linalg, "solve", no_lu)
    monkeypatch.setattr(simplex_mod, "_factor_solve", spy)
    for problem in (small, large):
        assert solve(problem).status == "optimal"
    for kernel_min_rows in (simplex_mod._KERNEL_MIN_ROWS, 0):
        transposed.clear()
        with mock.patch.object(simplex_mod, "_KERNEL_MIN_ROWS", kernel_min_rows):
            assert solve(ray).status == "unbounded"
        assert True in transposed  # only the ray check solves transposed before an unbounded status


@pytest.mark.parametrize("factor", [simplex_mod._ExplicitInverse, simplex_mod._KernelFactor, None])
def test_restoration_pivots_out_a_clamp_that_breaks_a_row(factor):
    # Columns x0, x1, s1, e2, x3.  Rows: x0 = 4e5; x1 + s1 = 0.01;
    # x1 + x3 - e2 = 0.01 + 2.35e-6.  The basis (x0, s1, x1) is dual feasible
    # with s1 = -2.35e-6: above the solution-scale floor 1e-8 (1 + 4e5), but
    # clamping it to zero would break row 1 by 2.35e-6.  ``None`` runs the
    # byte oracle's restoration.
    rows = np.array([0, 1, 2, 1, 2, 2])
    cols = np.array([0, 1, 1, 2, 3, 4])
    vals = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    a = simplex_mod._Columns(3, 5, rows, cols, vals)
    b = np.array([4e5, 0.01, 0.01 + 2.35e-6])
    cost = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    if factor is None:
        core = BroadcastSimplexCore(a, b, cost)
        core.a_work = a.dense(np.arange(5))
    else:
        core = simplex_mod._SimplexCore(a, b, cost)
    core.work = a
    core.basis = np.array([0, 2, 1])
    # Neither the oracle nor a factor starts on this basis, which is not the identity.
    if factor is None:
        assert core._invert()
    else:
        core.factor = factor(a, core.basis, simplex_mod.REFACTOR_EVERY)
        assert core.factor.refactor(core.basis)
    core.allowed = np.ones(5, dtype=bool)
    core.is_artificial = np.zeros(5, dtype=bool)
    assert core._restore_primal(cost) == (True, True)
    assert core.basis.tolist() == [0, 4, 1]  # x3 entered where s1 left
    x = np.zeros(5)
    x[core.basis] = core.x_b
    assert x.min() >= 0.0
    np.testing.assert_allclose(a.dense(np.arange(5)) @ x, b, rtol=0, atol=1e-12)


def _solve_forced_to_fail(monkeypatch):
    """Solve an artificial-heavy LP whose one attempt is marked numerical_failure.

    Returns the solution, the (iterations, phase1_iterations, inverses) of each
    ``_solve_standardized`` call, and the KKT checks made.
    """
    real = simplex_mod._solve_standardized
    attempts = []

    def fail(problem, std, primal_start):
        sol = real(problem, std, primal_start)
        attempts.append((sol.iterations, sol.phase1_iterations, sol.inverses))
        return replace(sol, status="numerical_failure")

    monkeypatch.setattr(simplex_mod, "_solve_standardized", fail)
    kkt_calls = _spy_verify_kkt(monkeypatch)
    sol = solve(artificial_heavy_problem(np.random.default_rng(0), 70, 60, bounded=True))
    return sol, attempts, kkt_calls


def test_numerical_failure_is_returned_after_one_attempt(monkeypatch):
    sol, attempts, kkt_calls = _solve_forced_to_fail(monkeypatch)
    assert sol.status == "numerical_failure"
    assert len(attempts) == 1
    assert len(kkt_calls) == 1
    assert attempts[0][0] > 0
    assert sol.iterations == attempts[0][0]


def test_numerical_failure_keeps_its_attempts_phase1_iterations_and_inverses(monkeypatch):
    sol, attempts, _ = _solve_forced_to_fail(monkeypatch)
    assert sol.status == "numerical_failure"
    (counts,) = attempts
    assert min(counts[1:]) > 0
    assert (sol.phase1_iterations, sol.inverses) == counts[1:]


def test_pricing_leaves_blands_rule_once_the_objective_falls_again(fixture_doc, categories):
    """A 32-snapshot min extremization whose phase 1 stalls for 300 pivots and then recovers.

    Bland's rule holds only while the pass makes no progress; kept for the
    rest of the pass it took about 10,000 iterations on this LP.  The bound
    holds on one BLAS thread and on two.
    """
    document = reduce_document(fixture_doc, 32)
    scenario = enumerate_scenarios(categories)[0]
    network = apply_scenario(build_network(document, 2030), scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(document), 2030))
    budgeted = add_cost_budget(problem, solve(problem).objective, 0.05)
    solution, _ = extremize(budgeted, "min")
    assert solution.status == "optimal"
    assert solution.iterations <= 2500
