import numpy as np
import pytest

import corridor_kit.mga as mga_mod
import corridor_kit.pathway as pathway_mod
from corridor_kit.fleet import Fleet, FleetEntry
from corridor_kit.lp import LpBuilder
from corridor_kit.mga import PIN_LABEL, SlackSpec, add_cost_budget, budgeted_step, extremize
from corridor_kit.pathway import PathwayRecord, carry_over, phase_out, run_pathways
from corridor_kit.scenarios import apply_scenario
from corridor_kit.network import build_network
from corridor_kit.reduction import reduce_document
from corridor_kit.translate import translate
from corridor_kit.simplex import LpSolution, solve


def pathway_of(steps, sense, epsilon):
    """The steps of one (sense, epsilon) pathway, in horizon order."""
    return [s for s in steps if (s.record.sense, s.record.epsilon) == (sense, epsilon)]


def entry(build_year=2025, lifetime=20, capacity=100.0, asset="wind_n1"):
    return FleetEntry(asset_id=asset, build_year=build_year, capacity_mw=capacity, lifetime=lifetime)


def test_phase_out_retains_active():
    fleet = Fleet((entry(2025, 20),))
    assert len(phase_out(fleet, 2040)) == 1


def test_phase_out_removes_expired():
    fleet = Fleet((entry(2025, 20),))
    assert len(phase_out(fleet, 2045)) == 0


def test_phase_out_empty():
    assert len(phase_out(Fleet(), 2040)) == 0


def test_carry_over_appends_builds(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    prob = translate(net, Fleet())
    sol = solve(prob)
    from corridor_kit.translate import extract

    result = extract(prob, sol)
    fleet = carry_over(result, Fleet(), net, 2035)
    built_ids = {e.asset_id for e in fleet}
    assert built_ids == {a for a, v in result.built_capacity.items() if v > 1e-6}
    for e in fleet:
        assert e.build_year == 2030
        assert e.capacity_mw == pytest.approx(result.built_capacity[e.asset_id])
        assert "efficiencies" in e.params and "marginal_cost" in e.params


def test_carry_over_rejects_negative_builds(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)

    class FakeResult:
        horizon = 2030
        built_capacity = {"wind_n1": -5.0}

    with pytest.raises(ValueError):
        carry_over(FakeResult(), Fleet(), net, 2035)


def test_carry_over_drops_solver_noise(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)

    class FakeResult:
        horizon = 2030
        built_capacity = {"wind_n1": -1e-9}

    assert len(carry_over(FakeResult(), Fleet(), net, 2035)) == 0


def test_carry_over_without_expandable_assets(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)

    class FakeResult:
        horizon = 2030
        built_capacity = {}

    fleet = Fleet((entry(2025, 20), entry(2015, 20, asset="wind_n2")))
    assert list(carry_over(FakeResult(), fleet, net, 2035)) == list(phase_out(fleet, 2035))
    assert len(carry_over(FakeResult(), fleet, net, 2035)) == 1


def test_two_builds_same_asset_distinct_entries():
    fleet = Fleet((entry(2030, 25), entry(2035, 25)))
    years = sorted(e.build_year for e in fleet.for_asset("wind_n1"))
    assert years == [2030, 2035]


def test_record_invariants():
    with pytest.raises(ValueError):
        PathwayRecord("s", 2030, "optimal", 0.05, "optimal")
    with pytest.raises(ValueError):
        PathwayRecord("s", 2030, "min", 0.05, "infeasible", cost_eur=1.0)


def test_single_horizon_equals_plain_optimization(doc8, base_scenario):
    steps = list(run_pathways(doc8, [2030], base_scenario))
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    from corridor_kit.fleet import fleet_from_document

    prob = translate(net, fleet_from_document(doc8).active(2030))
    sol = solve(prob)
    assert steps[0].record.cost_eur == pytest.approx(sol.objective, rel=1e-9)


def test_horizons_must_increase(doc8, base_scenario):
    with pytest.raises(ValueError):
        list(run_pathways(doc8, [2040, 2030], base_scenario))


@pytest.fixture(scope="module")
def base_pathway(doc8, base_scenario):
    return list(run_pathways(doc8, [2030, 2035, 2040, 2045, 2050], base_scenario))


def test_fixture_pathway_all_optimal(base_pathway):
    assert [s.record.status for s in base_pathway] == ["optimal"] * 5


def test_monotone_commitment(base_pathway):
    for prev, nxt in zip(base_pathway, base_pathway[1:]):
        prev_ids = {(e.asset_id, e.build_year, e.capacity_mw) for e in prev.fleet}
        nxt_ids = {(e.asset_id, e.build_year, e.capacity_mw) for e in nxt.fleet}
        unexpired = {
            key
            for key in prev_ids
            if any(
                e.asset_id == key[0] and e.build_year == key[1] and e.active_at(nxt.record.horizon)
                for e in prev.fleet
            )
        }
        assert unexpired <= nxt_ids


def test_relaxing_global_limit_never_raises_cost(doc8, scenario_index):
    sid_low = "ccs-a_biomass-b_imports-a_electrolyser-b_transport-b_weather-a"
    sid_high = "ccs-c_biomass-b_imports-a_electrolyser-b_transport-b_weather-a"
    low = list(run_pathways(doc8, [2040], scenario_index[sid_low]))
    high = list(run_pathways(doc8, [2040], scenario_index[sid_high]))
    # Level (c) relaxes the sequestration cap and cheapens capture capital;
    # the optimum cannot get more expensive.
    assert high[0].record.cost_eur <= low[0].record.cost_eur * (1 + 1e-9)


def test_pathway_records_bit_identical(doc8, base_scenario):
    a = list(run_pathways(doc8, [2030, 2035], base_scenario))
    b = list(run_pathways(doc8, [2030, 2035], base_scenario))
    for sa, sb in zip(a, b):
        assert sa.record == sb.record


def test_infeasible_horizon_aborts_chain(doc8, base_scenario):
    doc = {**doc8, "limits": [dict(l) for l in doc8["limits"]]}
    for lim in doc["limits"]:
        if lim["kind"] == "net_emission_cap":
            lim["fraction"] = {"2030": -0.5}  # impossible negative cap
    steps = list(run_pathways(doc, [2030, 2035], base_scenario))
    assert steps[0].record.status == "infeasible"
    assert len(steps) == 1


def test_infeasible_extremization_aborts_chain(doc8, base_scenario, monkeypatch):
    real = mga_mod.extremize
    calls = []

    def fail_second(problem, sense):
        calls.append(sense)
        if len(calls) == 2:
            return LpSolution(status="infeasible"), None
        return real(problem, sense)

    monkeypatch.setattr(mga_mod, "extremize", fail_second)
    steps = pathway_of(
        run_pathways(doc8, [2030, 2035, 2040], base_scenario, [SlackSpec(0.05, "max")]), "max", 0.05
    )
    assert len(calls) == 2
    assert [s.record.status for s in steps] == ["optimal", "infeasible"]
    failed = steps[1]
    assert failed.record.horizon == 2035 and failed.dispatch is None
    assert failed.record.cost_eur is None and failed.record.h2_mt is None
    assert failed.record.mu_raw is None


def test_raising_step_is_recorded_at_its_horizon(fixture_doc, base_scenario, monkeypatch):
    real = mga_mod.extremize

    def crash_max_2035(problem, sense):
        if sense == "max" and problem.meta["network"].horizon == 2035:
            raise RuntimeError("max step exploded")
        return real(problem, sense)

    monkeypatch.setattr(mga_mod, "extremize", crash_max_2035)
    slacks = [SlackSpec(0.05, "min"), SlackSpec(0.05, "max")]
    steps = list(run_pathways(reduce_document(fixture_doc, 2), [2030, 2035, 2040], base_scenario, slacks))
    assert [(s.record.horizon, s.record.status) for s in pathway_of(steps, "max", 0.05)] == [
        (2030, "optimal"),
        (2035, "worker_error"),
    ]
    failed = pathway_of(steps, "max", 0.05)[-1]
    assert failed.dispatch is None and "max step exploded" in failed.error
    assert [s.record.status for s in pathway_of(steps, "optimal", None)] == ["optimal"] * 3
    assert pathway_of(steps, "min", 0.05) and all(s.error is None for s in steps if s is not failed)


def test_failed_optimal_ends_every_pathway(fixture_doc, base_scenario, monkeypatch):
    real_solve, real_mga_solve = pathway_mod.solve, mga_mod.solve
    pins = []

    def fail_2035(problem):
        if problem.meta["network"].horizon == 2035:
            return LpSolution(status="infeasible")
        return real_solve(problem)

    def pin_spy(problem):
        if problem.row_labels[-1] == PIN_LABEL:
            pins.append(problem)
        return real_mga_solve(problem)

    monkeypatch.setattr(pathway_mod, "solve", fail_2035)
    monkeypatch.setattr(mga_mod, "solve", pin_spy)
    slacks = [SlackSpec(0.05, "min"), SlackSpec(0.05, "max")]
    steps = list(run_pathways(reduce_document(fixture_doc, 2), [2030, 2035, 2040], base_scenario, slacks))
    assert [(s.record.horizon, s.record.sense, s.record.status) for s in steps] == [
        (2030, "optimal", "optimal"),
        (2030, "min", "optimal"),
        (2030, "max", "optimal"),
        (2035, "optimal", "infeasible"),
    ]
    # The failure lies ahead of the extremal pathways, so their first horizon
    # is not the last one requested and keeps its cleanup solve.
    assert len(pins) == 2


# --- budget / extremization mechanics on hand-built LPs ---


def tiny_budget_problem():
    # min x1 + x2 s.t. x1 + x2 >= 1; target h = x1.
    bld = LpBuilder()
    x1 = bld.add_col("x1", cost=1.0)
    x2 = bld.add_col("x2", cost=1.0)
    r = bld.add_row("demand", "ge", 1.0)
    bld.add_entry(r, x1, 1.0)
    bld.add_entry(r, x2, 1.0)
    return bld.build(aux={"electrolysis_output_mwh": {x1: 1.0}})


def test_budget_rhs_values():
    prob = tiny_budget_problem()
    zero = add_cost_budget(prob, 100.0, 0.0)
    assert zero.b[-1] == pytest.approx(100.0)
    five = add_cost_budget(prob, 100.0, 0.05)
    assert five.b[-1] == pytest.approx(105.0)
    assert zero.row_labels[-1] == "budget"


def test_budget_requires_c_star():
    prob = tiny_budget_problem()
    with pytest.raises(ValueError):
        add_cost_budget(prob, None, 0.1)


def test_extremize_two_var_examples():
    prob = tiny_budget_problem()
    budgeted = add_cost_budget(prob, 1.0, 0.1)
    sol, mu = extremize(budgeted, "max")
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.1, abs=1e-9)
    assert mu == pytest.approx(1.0, abs=1e-9)  # one extra unit of budget -> one unit of x1

    pinned = add_cost_budget(prob, 1.0, 0.0)
    sol0, _ = extremize(pinned, "max")
    assert sol0.objective == pytest.approx(1.0, abs=1e-9)

    low, _ = extremize(budgeted, "min")
    assert low.objective == pytest.approx(0.0, abs=1e-9)


def test_failed_cleanup_keeps_the_extremum_and_warns(monkeypatch, caplog):
    real_solve = mga_mod.solve

    def fail_pin(problem):
        if problem.row_labels[-1] == PIN_LABEL:
            return LpSolution(status="numerical_failure")
        return real_solve(problem)

    monkeypatch.setattr(mga_mod, "solve", fail_pin)
    prob = tiny_budget_problem()
    prob.meta["name"] = "tiny@2030"
    with caplog.at_level("WARNING", logger="corridor_kit.mga"):
        solution, mu = budgeted_step(prob, 1.0, SlackSpec(0.1, "max"), is_last=False)
    assert solution.status == "optimal" and solution.objective == pytest.approx(1.1, abs=1e-9)
    assert mu == pytest.approx(1.0, abs=1e-9)
    [message] = [r.getMessage() for r in caplog.records if r.name == "corridor_kit.mga"]
    assert "tiny@2030" in message and "max" in message and "numerical_failure" in message


def test_failed_cleanup_warning_names_scenario_and_slack(fixture_doc, base_scenario, monkeypatch, caplog):
    real_solve = mga_mod.solve

    def fail_pin(problem):
        if problem.row_labels[-1] == PIN_LABEL:
            return LpSolution(status="numerical_failure")
        return real_solve(problem)

    monkeypatch.setattr(mga_mod, "solve", fail_pin)
    doc = reduce_document(fixture_doc, 2)
    with caplog.at_level("WARNING", logger="corridor_kit.mga"):
        steps = list(run_pathways(doc, [2030, 2035], base_scenario, [SlackSpec(0.05, "max")]))
    assert [s.record.status for s in steps] == ["optimal"] * 4
    # The cleanup runs only where a later horizon inherits the fleet.
    [message] = [r.getMessage() for r in caplog.records if r.name == "corridor_kit.mga"]
    assert base_scenario.id in message and "@2030" in message
    assert "max" in message and "epsilon 0.05" in message and "numerical_failure" in message


def test_extremize_needs_budget_row():
    with pytest.raises(ValueError):
        extremize(tiny_budget_problem(), "max")


def test_budget_epsilon_nesting_first_horizon(doc8, base_scenario):
    slacks = [SlackSpec(eps, sense) for eps in (0.05, 0.10) for sense in ("max", "min")]
    steps = list(run_pathways(doc8, [2040], base_scenario, slacks))
    maxima, minima = {}, {}
    for eps in (0.05, 0.10):
        up = pathway_of(steps, "max", eps)
        dn = pathway_of(steps, "min", eps)
        maxima[eps] = up[0].record.h2_mt
        minima[eps] = dn[0].record.h2_mt
    assert maxima[0.10] > maxima[0.05]  # budget binds on the fixture, strictly wider
    assert minima[0.10] <= minima[0.05] + 1e-9


def test_first_horizon_ordering(doc8, base_scenario):
    every = list(run_pathways(doc8, [2030], base_scenario, [SlackSpec(0.0, "max"), SlackSpec(0.0, "min")]))
    steps = pathway_of(every, "optimal", None)
    up = pathway_of(every, "max", 0.0)
    dn = pathway_of(every, "min", 0.0)
    h_opt = steps[0].record.h2_mt
    assert dn[0].record.h2_mt <= h_opt + 1e-9
    assert up[0].record.h2_mt >= h_opt - 1e-9


def test_cleanup_pin_row_holds_past_a_large_basic_value(doc8, scenario_index, monkeypatch):
    # The 2035 min cleanup of this scenario ends on a basis whose pin-row
    # slack solves to -2.35e-6 beside basic values near 3.9e5: below the
    # solution-scale noise floor, yet clamping it to zero left the target
    # 0.00235 MWh past the pin.  The restoration must pivot it out instead.
    real = mga_mod._cheapest_representative
    cleanups = []

    def capture(budgeted, solution, sense, cost):
        refined = real(budgeted, solution, sense, cost)
        cleanups.append((budgeted, solution, refined))
        return refined

    monkeypatch.setattr(mga_mod, "_cheapest_representative", capture)
    scenario = scenario_index["ccs-b_biomass-b_imports-b_electrolyser-b_transport-c_weather-a"]
    list(run_pathways(doc8, [2030, 2035, 2040], scenario, [SlackSpec(0.05, "min")]))
    assert len(cleanups) == 2
    for budgeted, extremal, refined in cleanups:
        assert refined.status == "optimal"
        h_star = float(budgeted.c @ extremal.x)
        bound = h_star + mga_mod.PIN_SLACK_REL * abs(h_star) + mga_mod.PIN_SLACK_MWH
        assert float(budgeted.c @ refined.x) <= bound + 1e-8 * (1.0 + abs(bound))
