import dataclasses

import numpy as np
import pytest

import corridor_kit.pathway as pathway_mod
from corridor_kit.fleet import Fleet, FleetEntry, fleet_from_document
from corridor_kit.lp import LpBuilder, write_lp_file
from corridor_kit.mga import add_cost_budget
from corridor_kit.network import build_network, mt_to_twh
from corridor_kit.pathway import run_pathways
from corridor_kit.reduction import reduce_document
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import solve
from corridor_kit.translate import TARGET_AUX, StructuralError, extract, translate

from lp_oracles import dense, dense_write_lp_file


def tiny_doc():
    return {
        "name": "tiny",
        "horizon": 2030,
        "snapshots": {"weights": [8760.0]},
        "carriers": [{"name": "electricity"}],
        "buses": [{"id": "el", "carrier": "electricity", "node": "X"}],
        "assets": [
            {
                "id": "gen",
                "kind": "generator",
                "buses": {"el": 1.0},
                "capital_cost": 1000.0,
                "marginal_cost": 5.0,
                "lifetime": 20,
                "expandable": True,
            },
            {"id": "demand", "kind": "load", "buses": {"el": 1.0}, "demand_mw": [100.0]},
        ],
        "limits": [],
    }


def test_tiny_network_row_col_counts():
    # 1 bus, 1 generator, 1 load, 1 snapshot: one balance row, one capacity
    # row, and two variables (capacity + dispatch).
    prob = translate(build_network(tiny_doc()))
    assert prob.m == 2
    assert prob.n == 2
    assert sorted(l.split("::")[0] for l in prob.row_labels) == ["bal", "cap"]
    assert sorted(l.split("::")[0] for l in prob.col_labels) == ["cap", "disp"]


def test_tiny_network_solution():
    prob = translate(build_network(tiny_doc()))
    sol = solve(prob)
    assert sol.status == "optimal"
    result = extract(prob, sol)
    assert result.built_capacity["gen"] == pytest.approx(100.0)
    assert ("electricity", "el", "gen", "gen", pytest.approx(100.0 * 8760.0)) in result.flow_rows


def test_fixture_row_col_tally(fixture_doc):
    """Counts follow the documented closed form for the fixture layout."""
    net = build_network(fixture_doc)
    fleet = fleet_from_document(fixture_doc).active(2030)
    prob = translate(net, fleet)
    t = net.snapshots.count

    balance_buses = len(net.buses) - 1  # atmosphere bus carries no hourly balance
    n_instances = 0
    capped = 0
    stores = []
    for asset in net.assets:
        if asset.kind == "load":
            continue
        entries = fleet.for_asset(asset.id)
        n_inst = 1 + len({(e.build_year, e.lifetime) for e in entries})
        n_instances += n_inst
        if asset.kind == "store":
            stores.append((asset, n_inst))
            if asset.expandable or asset.existing_capacity is not None:
                capped += n_inst * t  # level-cap rows
        else:
            if asset.expandable:
                capped += n_inst * t
            elif asset.existing_capacity is not None:
                capped += n_inst * t
            else:
                # Fleet instances of uncapped assets still carry fixed capacity.
                capped += (n_inst - 1) * t
    soc_rows = sum(n * t for _, n in stores)
    expected_rows = balance_buses * t + capped + soc_rows + len(net.limits)
    assert prob.m == expected_rows

    cap_cols = sum(1 for a in net.assets if a.kind != "load" and a.expandable)
    assert sum(1 for l in prob.col_labels if l.startswith("cap::")) == cap_cols


def test_expired_fleet_entry_contributes_nothing():
    doc = tiny_doc()
    fleet = Fleet(
        (FleetEntry(asset_id="gen", build_year=2000, capacity_mw=50.0, lifetime=20),)
    )
    prob_with = translate(build_network(doc), fleet.active(2030))
    prob_without = translate(build_network(doc))
    assert prob_with.col_labels == prob_without.col_labels


def test_fleet_instance_frozen_parameters(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    frozen_eff = {"el2": -1.0, "h2": 0.622}
    fleet = Fleet(
        (
            FleetEntry(
                asset_id="lys_n2",
                build_year=2030,
                capacity_mw=1000.0,
                lifetime=25,
                params={"efficiencies": frozen_eff, "marginal_cost": 0.9},
            ),
        )
    )
    prob = translate(net, fleet)
    rec = {r["iid"]: r for r in prob.meta["instances"]}
    assert rec["lys_n2@2030"]["efficiencies"]["h2"] == pytest.approx(0.622)
    assert rec["lys_n2"]["efficiencies"]["h2"] == pytest.approx(0.653)


def test_vintages_of_one_build_year_share_one_instance(fixture_doc, scenario_index, monkeypatch):
    # The document's 1 GW btl@2030 and the 33 GW the 2030 optimum builds are
    # one instance from 2035 on: both run with btl's efficiencies and cost.
    doc = reduce_document(fixture_doc, 4)
    doc["initial_fleet"] = doc["initial_fleet"] + [
        {"asset": "btl", "build_year": 2030, "capacity_mw": 1000, "lifetime": 25}
    ]
    problems = []
    monkeypatch.setattr(pathway_mod, "translate", lambda *args: problems.append(translate(*args)) or problems[-1])
    scenario = scenario_index["ccs-a_biomass-a_imports-a_electrolyser-a_transport-a_weather-a"]
    steps = list(run_pathways(doc, [2030, 2035, 2040], scenario, aggregate=True))
    assert [s.record.status for s in steps] == ["optimal"] * 3
    for problem in problems:
        assert len(set(problem.col_labels)) == len(problem.col_labels)
        assert len(set(problem.row_labels)) == len(problem.row_labels)
    built_2030 = steps[0].dispatch.built_capacity["btl"]
    built_2035 = steps[1].dispatch.built_capacity["btl"]
    assert built_2030 > 1e4 and built_2035 > 1e3
    assert fleet_records(problems[1], "btl")["btl@2030"]["capacity_base"] == pytest.approx(1000 + built_2030)
    # At 2040 the two carried vintages would merge under btl@2030 too; the
    # document's vintage keeps them apart.
    records = fleet_records(problems[2], "btl")
    assert records["btl@2030"]["capacity_base"] == pytest.approx(1000 + built_2030)
    assert records["btl@2035"]["capacity_base"] == pytest.approx(built_2035)


def test_vintages_of_one_build_year_must_match(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    entry = FleetEntry(asset_id="btl", build_year=2030, capacity_mw=1000.0, lifetime=25)
    cheaper = FleetEntry(
        asset_id="btl", build_year=2030, capacity_mw=500.0, lifetime=20, params={"marginal_cost": 0.0}
    )
    with pytest.raises(StructuralError, match="btl"):
        translate(net, Fleet((entry, cheaper)))


def test_zero_snapshots_rejected():
    with pytest.raises(ValueError):
        doc = tiny_doc()
        doc["snapshots"]["weights"] = []
        translate(build_network(doc))


def test_missing_atmosphere_with_cap_is_structural_error():
    doc = tiny_doc()
    doc["limits"] = [
        {"name": "cap", "kind": "net_emission_cap", "baseline_t": 1.0, "fraction": {"2030": 1.0}}
    ]
    with pytest.raises(StructuralError):
        translate(build_network(doc))


def test_translate_deterministic(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    fleet = fleet_from_document(doc8).active(2030)
    a = translate(net, fleet)
    b = translate(net, fleet)
    assert a.row_labels == b.row_labels
    assert a.col_labels == b.col_labels
    assert np.array_equal(a.a_rows, b.a_rows)
    assert np.array_equal(a.a_cols, b.a_cols)
    assert np.array_equal(a.a_vals, b.a_vals)
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.b, b.b)


@pytest.fixture(scope="module")
def solved_fixture(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    fleet = fleet_from_document(doc8).active(2030)
    prob = translate(net, fleet)
    sol = solve(prob)
    assert sol.status == "optimal"
    return net, prob, sol, extract(prob, sol)


def assert_flows_balance(net, flow_rows):
    totals = {}
    for carrier, bus, asset_id, iid, annual in flow_rows:
        totals[bus] = totals.get(bus, 0.0) + annual
    atmosphere = net.co2_bus("atmosphere").id
    for bus, net_flow in totals.items():
        if bus == atmosphere:
            continue
        scale = sum(
            abs(a) for c, b, _, _, a in flow_rows if b == bus
        )
        assert abs(net_flow) <= 1e-6 * max(1.0, scale), f"bus {bus} imbalance {net_flow}"


def test_flow_table_balances(solved_fixture):
    net, prob, sol, result = solved_fixture
    assert_flows_balance(net, result.flow_rows)


def test_flow_table_balances_with_a_charging_store(doc8, base_scenario):
    # At 2040 the permanent sink charges, so its net store row carries the balance of its bus.
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    prob = translate(net, fleet_from_document(doc8).active(2040))
    sol = solve(prob)
    assert sol.status == "optimal"
    result = extract(prob, sol)
    [sink] = [annual for _, _, asset_id, _, annual in result.flow_rows if asset_id == "perm_sink"]
    assert sink < -1e6
    assert_flows_balance(net, result.flow_rows)


def test_objective_recomputed_matches(solved_fixture):
    # The flow table priced: capital on the built capacity, marginal cost on
    # each instance's metered MWh (its row at efficiency +-1), and the stores'
    # discharge cost, which the net store row hides, from the LP's columns.
    net, prob, sol, result = solved_fixture
    weights = net.snapshots.weights
    total = 0.0
    for asset_id, capacity in result.built_capacity.items():
        total += net.asset(asset_id).capital_cost * capacity
    annual = {(bus, iid): value for _, bus, _, iid, value in result.flow_rows}
    marginal_cost = {rec["iid"]: rec["marginal_cost"] for rec in prob.meta["instances"]}
    for rec in prob.meta["instances"]:
        if rec["kind"] == "store":
            continue
        bus, eff = next((bus, eff) for bus, eff in sorted(rec["efficiencies"].items()) if abs(eff) == 1.0)
        total += rec["marginal_cost"] * annual[bus, rec["iid"]] / eff
    for j, label in enumerate(prob.col_labels):
        kind, *rest = label.split("::")
        if kind == "dis":
            iid, t = rest
            total += marginal_cost[iid] * sol.x[j] * weights[int(t)]
    assert total == pytest.approx(sol.objective, rel=1e-8)


def test_emission_row_holds_the_cap(solved_fixture):
    # The cap row's activity plus the loads' combustion constant stays within the cap.
    net, prob, sol, result = solved_fixture
    row = prob.row_labels.index("glb::co2_cap")
    a = dense(prob)
    weights = net.snapshots.weights
    load_const = sum(
        net.bus_carrier(next(iter(asset.buses))).co2_intensity * float(asset.demand @ weights)
        for asset in net.assets
        if asset.kind == "load"
    )
    cap = next(limit.bound for limit in net.limits if limit.name == "co2_cap")
    assert prob.b[row] == pytest.approx(cap - load_const)
    assert float(a[row] @ sol.x) + load_const <= cap + 1e-6 * max(1.0, abs(cap))


def test_electrolysis_conversion_value(solved_fixture):
    net, prob, sol, result = solved_fixture
    assert result.target_value_mt == pytest.approx(prob.aux_value(TARGET_AUX, sol.x) / 1e6 / 33.33, rel=1e-12)
    # 33 330 GWh of electrolysis output is one megatonne.
    assert mt_to_twh(1.0) * 1e6 == pytest.approx(3.333e7)


def test_lp_export_round_trip(tmp_path, solved_fixture):
    net, prob, sol, result = solved_fixture
    path = tmp_path / "problem.lp"
    write_lp_file(prob, path)
    text = path.read_text()
    assert text.startswith("\\ ")
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert text.count("\n r") == prob.m


def _lp_files_match(problem, tmp_path):
    write_lp_file(problem, tmp_path / "triplets.lp")
    dense_write_lp_file(problem, tmp_path / "dense.lp")
    assert (tmp_path / "triplets.lp").read_bytes() == (tmp_path / "dense.lp").read_bytes()


def test_lp_file_matches_dense_writer(tmp_path, solved_fixture):
    net, prob, sol, result = solved_fixture
    _lp_files_match(prob, tmp_path)
    _lp_files_match(add_cost_budget(prob, sol.objective, 0.05), tmp_path)


def test_lp_file_sums_duplicate_triplets(tmp_path):
    bld = LpBuilder()
    x = [bld.add_col(f"x{j}", cost=1.0) for j in range(4)]
    r0 = bld.add_row("sum", "le", 1.0)
    r1 = bld.add_row("cancel", "ge", -2.0)
    bld.add_row("empty", "eq", 0.0)
    for row, col, val in [(r0, x[3], 0.1), (r0, x[1], 0.2), (r0, x[3], 0.7), (r1, x[2], 1.5),
                          (r1, x[0], -0.3), (r1, x[2], -1.5), (r0, x[3], 1e-17)]:
        bld.add_entry(row, col, val)
    problem = bld.build()
    _lp_files_match(problem, tmp_path)
    text = (tmp_path / "triplets.lp").read_text()
    assert " r1: -0.29999999999999999 x0 >=" in text and " r2: 0 x0 =" in text


# --- build-year aggregation: translate merges equal vintages, extract splits them ---


def wind_entry(build_year, capacity, lifetime=25, params=None):
    return FleetEntry("wind_n1", build_year, capacity, lifetime, params or {})


def fleet_records(problem, asset_id):
    return {rec["iid"]: rec for rec in problem.meta["instances"] if rec["asset_id"] == asset_id and rec["build_year"]}


@pytest.fixture(scope="module")
def net2030(doc8, base_scenario):
    return apply_scenario(build_network(doc8, 2030), base_scenario, 2030)


def test_aggregate_merges_vintages_of_one_expiry(net2030):
    fleet = Fleet((wind_entry(2010, 100.0, 30), wind_entry(2015, 150.0, 25)))
    records = fleet_records(translate(net2030, fleet, aggregate=True), "wind_n1")
    assert list(records) == ["wind_n1@2010"]
    assert records["wind_n1@2010"]["capacity_base"] == pytest.approx(250.0)
    assert records["wind_n1@2010"]["members"] == [(2010, 100.0), (2015, 150.0)]
    assert list(fleet_records(translate(net2030, fleet), "wind_n1")) == ["wind_n1@2010", "wind_n1@2015"]


def test_aggregate_ignores_expiry(net2030):
    fleet = Fleet((wind_entry(2015, 150.0, 30), wind_entry(2010, 100.0, 30)))
    records = fleet_records(translate(net2030, fleet, aggregate=True), "wind_n1")
    assert list(records) == ["wind_n1@2010"]
    assert records["wind_n1@2010"]["capacity_base"] == pytest.approx(250.0)


def test_aggregate_keys_on_recorded_params(net2030):
    frozen = {"efficiencies": {"el1": 1.0}, "marginal_cost": 0.5}
    fleet = Fleet((wind_entry(2010, 100.0), wind_entry(2015, 150.0, params=frozen), wind_entry(2020, 50.0)))
    records = fleet_records(translate(net2030, fleet, aggregate=True), "wind_n1")
    assert {iid: rec["members"] for iid, rec in records.items()} == {
        "wind_n1@2010": [(2010, 100.0), (2020, 50.0)],
        "wind_n1@2015": [],
    }


def test_aggregate_exempts_tagged_assets_and_shared_build_years(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    fleet = Fleet(
        (
            FleetEntry("lys_n2", 2030, 10.0, 25),  # electrolysis
            FleetEntry("lys_n2", 2035, 20.0, 20),
            FleetEntry("dac", 2030, 10.0, 25),  # carbon-capture
            FleetEntry("dac", 2035, 20.0, 20),
            wind_entry(2020, 100.0, 25),  # two vintages of 2020: no merge across years
            wind_entry(2020, 50.0, 30),
            wind_entry(2030, 70.0),
        )
    )
    problem = translate(net, fleet, aggregate=True)
    assert problem.col_labels == translate(net, fleet).col_labels
    assert all(not rec["members"] for rec in problem.meta["instances"])
    assert fleet_records(problem, "wind_n1")["wind_n1@2020"]["capacity_base"] == pytest.approx(150.0)


def test_aggregate_member_capacities_sum_to_the_instance(net2030):
    fleet = Fleet((wind_entry(2010, 100.0, 30), wind_entry(2015, 150.0, 25), wind_entry(2020, 0.1)))
    [rec] = fleet_records(translate(net2030, fleet, aggregate=True), "wind_n1").values()
    assert sum(capacity for _, capacity in rec["members"]) == pytest.approx(rec["capacity_base"])
    assert [year for year, _ in rec["members"]] == [2010, 2015, 2020]


def test_aggregate_group_of_one_is_identity(net2030):
    fleet = Fleet((wind_entry(2015, 150.0), FleetEntry("ocgt_n1", 2012, 20000.0, 28)))
    plain, merged = translate(net2030, fleet), translate(net2030, fleet, aggregate=True)
    assert merged.col_labels == plain.col_labels and merged.row_labels == plain.row_labels
    assert np.array_equal(merged.a_vals, plain.a_vals) and np.array_equal(merged.b, plain.b)
    sol = solve(merged)
    a, b = extract(plain, sol), extract(merged, sol)
    assert a.flow_rows == b.flow_rows
    assert merged.meta["instances"] == plain.meta["instances"]


def test_extract_splits_merged_dispatch_by_capacity(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    fleet = Fleet((wind_entry(2012, 100.0, 30), wind_entry(2017, 150.0, 25)))
    problem = translate(net, fleet, aggregate=True)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert fleet_records(problem, "wind_n1")["wind_n1@2012"]["members"] == [(2012, 100.0), (2017, 150.0)]
    result = extract(problem, sol)
    weights = net.snapshots.weights
    metered = sum(sol.x[problem.col_labels.index(f"disp::wind_n1@2012::{t}")] * weights[t] for t in range(len(weights)))
    assert metered > 0
    rows = {iid: annual for _, _, asset_id, iid, annual in result.flow_rows if asset_id == "wind_n1"}
    assert list(rows) == ["wind_n1", "wind_n1@2012", "wind_n1@2017"]
    assert rows["wind_n1@2012"] == pytest.approx(0.4 * metered) and rows["wind_n1@2017"] == pytest.approx(0.6 * metered)
    assert rows["wind_n1@2012"] + rows["wind_n1@2017"] == pytest.approx(metered)


def test_extract_splits_flow_rows(doc8, base_scenario, monkeypatch):
    # The criterion-10 pathway: the aggregated run's flow tables name every
    # vintage, in the unaggregated run's order, with the same asset totals.
    real = pathway_mod.extract
    splits = []

    def spy(problem, solution):
        whole = dataclasses.replace(
            problem, meta={**problem.meta, "instances": [{**r, "members": []} for r in problem.meta["instances"]]}
        )
        splits.append((problem, real(whole, solution), real(problem, solution)))
        return splits[-1][2]

    monkeypatch.setattr(pathway_mod, "extract", spy)
    horizons = [2030, 2035, 2040, 2045, 2050]
    plain = list(run_pathways(doc8, horizons, base_scenario, aggregate=False))
    splits.clear()
    merged = list(run_pathways(doc8, horizons, base_scenario, aggregate=True))
    assert len(plain) == len(merged) == len(splits) == len(horizons)
    assert any(len(whole.flow_rows) < len(split.flow_rows) for _, whole, split in splits)

    def asset_sums(rows):
        sums = {}
        for carrier, bus, asset_id, _, annual in rows:
            sums[carrier, bus, asset_id] = sums.get((carrier, bus, asset_id), 0.0) + annual
        return sums

    for a, b in zip(plain, merged):
        rows_a, rows_b = a.dispatch.flow_rows, b.dispatch.flow_rows
        assert [row[:4] for row in rows_b] == [row[:4] for row in rows_a]
        sums_a, sums_b = asset_sums(rows_a), asset_sums(rows_b)
        for key, value in sums_a.items():
            assert sums_b[key] == pytest.approx(value, rel=1e-6, abs=1e-6), key

    for problem, whole, split in splits:
        annual = {row[:4]: row[4] for row in split.flow_rows}
        members = {rec["iid"]: rec["members"] for rec in problem.meta["instances"]}
        for carrier, bus, asset_id, iid, value in whole.flow_rows:
            parts = [annual[carrier, bus, asset_id, f"{asset_id}@{year}"] for year, _ in members.get(iid, ())]
            assert not parts or sum(parts) == pytest.approx(value, rel=1e-12, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: aggregation keys on raw params, so a document vintage without params "
    "never merges with a carried vintage whose frozen params equal the asset's",
)
def test_aggregate_merges_equal_resolved_parameters(fixture_doc, base_scenario, monkeypatch):
    problems = []
    monkeypatch.setattr(pathway_mod, "translate", lambda *args: problems.append(translate(*args)) or problems[-1])
    steps = list(run_pathways(reduce_document(fixture_doc, 4), [2030, 2035], base_scenario, aggregate=True))
    assert [s.record.status for s in steps] == ["optimal"] * 2
    assert steps[1].fleet.for_asset("solar_n3")[-1].build_year == 2030
    records = fleet_records(problems[1], "solar_n3")
    assert list(records) == ["solar_n3@2020"]
    assert [year for year, _ in records["solar_n3@2020"]["members"]] == [2020, 2030]
