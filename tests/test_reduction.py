import itertools

import numpy as np
import pytest

import corridor_kit.pathway as pathway_mod
from corridor_kit.fleet import Fleet, FleetEntry
from corridor_kit.network import build_network
from corridor_kit.pathway import run_optimal_pathway
from corridor_kit.reduction import (
    aggregate_build_years,
    disaggregate,
    reduce_document,
    segment,
)
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import solve
from corridor_kit.translate import extract, translate


def test_identity_segmentation():
    series = np.arange(6.0).reshape(-1, 1)
    seg = segment(series, 6)
    assert seg.n_segments == 6
    assert np.array_equal(seg.labels, np.arange(6))


def test_single_segment_weighted_mean():
    series = np.array([[1.0], [3.0], [5.0]])
    weights = np.array([1.0, 2.0, 1.0])
    seg = segment(series, 1, weights)
    assert seg.n_segments == 1
    assert seg.reduce_series(series[:, 0]) == pytest.approx([3.0])


def test_step_series_split_matches_exhaustive_search():
    values = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).reshape(-1, 1)
    seg = segment(values, 2)

    def sse_of_split(k):
        left, right = values[:k, 0], values[k:, 0]
        return ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()

    best_split = min(range(1, 6), key=sse_of_split)
    assert best_split == 3
    assert np.array_equal(seg.labels, np.array([0, 0, 0, 1, 1, 1]))


def test_segment_bad_target_rejected():
    series = np.ones((4, 1))
    with pytest.raises(ValueError):
        segment(series, 0)
    with pytest.raises(ValueError):
        segment(series, 5)
    with pytest.raises(ValueError):
        segment(np.zeros((0, 1)), 1)


def test_apply_segmentation_identity_unchanged(doc8):
    same = reduce_document(doc8, 8)
    net, red = build_network(doc8, 2030), build_network(same, 2030)
    for a, b in zip(net.assets, red.assets):
        if a.availability is not None:
            assert np.allclose(a.availability, b.availability)
    assert np.allclose(red.snapshots.weights, net.snapshots.weights)


def test_segmentation_error_monotone_in_resolution(fixture_doc, base_scenario):
    costs = {}
    for n in (4, 8, 16, 32):
        doc = reduce_document(fixture_doc, n) if n < 32 else fixture_doc
        net = apply_scenario(build_network(doc, 2030), base_scenario, 2030)
        prob = translate(net)
        sol = solve(prob)
        assert sol.status == "optimal"
        costs[n] = sol.objective
    full = costs[32]
    gaps = [abs(costs[n] - full) / full for n in (4, 8, 16)]
    assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12


def wind_entry(build_year, capacity, lifetime=25, params=None):
    return FleetEntry(
        asset_id="wind_n1",
        build_year=build_year,
        capacity_mw=capacity,
        lifetime=lifetime,
        params=params or {},
    )


def test_aggregate_same_expiry_merges():
    fleet = Fleet((wind_entry(2010, 100.0, 30), wind_entry(2015, 150.0, 25)))
    merged, amap = aggregate_build_years(fleet)
    assert len(merged) == 1
    assert merged.entries[0].capacity_mw == pytest.approx(250.0)
    assert merged.entries[0].expiry_year() == 2040
    assert len(amap.groups) == 1


def test_aggregate_within_horizon_ignores_expiry():
    fleet = Fleet((wind_entry(2010, 100.0, 30), wind_entry(2015, 150.0, 30)))
    merged, amap = aggregate_build_years(fleet)
    assert len(merged) == 1
    assert merged.entries[0].capacity_mw == pytest.approx(250.0)


def test_aggregate_exempt_untouched():
    fleet = Fleet(
        (
            FleetEntry("lys_n2", 2030, 10.0, 25),
            FleetEntry("lys_n2", 2035, 20.0, 20),
        )
    )
    merged, amap = aggregate_build_years(fleet, exemptions={"lys_n2"})
    assert len(merged) == 2
    assert not amap.groups


def test_disaggregate_proportional_split(doc8, base_scenario):
    net = apply_scenario(build_network(doc8, 2040), base_scenario, 2040)
    fleet = Fleet((wind_entry(2012, 100.0, 30), wind_entry(2017, 150.0, 25)))
    merged, amap = aggregate_build_years(fleet)
    assert len(merged) == 1
    prob = translate(net, merged)
    sol = solve(prob)
    assert sol.status == "optimal"
    result = extract(prob, sol)
    merged_iid = merged.entries[0].instance_id()
    merged_series = result.dispatch_mwh[merged_iid].copy()
    split = disaggregate(result, amap)
    assert "wind_n1@2017" in split.dispatch_mwh  # members restored
    a = split.dispatch_mwh["wind_n1@2012"]
    b = split.dispatch_mwh["wind_n1@2017"]
    assert np.allclose(a + b, merged_series)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(b > 0, a / b, np.nan)
    assert np.nanmax(np.abs(ratio - 100.0 / 150.0)) < 1e-9
    # capacities restored per member
    assert split.instance_info["wind_n1@2012"]["capacity_base"] == pytest.approx(100.0)


def test_disaggregate_splits_flow_rows(doc8, base_scenario, monkeypatch):
    # The criterion-10 pathway: the aggregated run's flow tables name every
    # vintage, in the unaggregated run's order, with the same asset totals.
    real = pathway_mod.disaggregate
    splits = []

    def spy(result, agg_map):
        splits.append((result, agg_map, real(result, agg_map)))
        return splits[-1][2]

    monkeypatch.setattr(pathway_mod, "disaggregate", spy)
    horizons = [2030, 2035, 2040, 2045, 2050]
    plain = run_optimal_pathway(doc8, horizons, base_scenario, aggregate=False)
    merged = run_optimal_pathway(doc8, horizons, base_scenario, aggregate=True)
    assert len(plain) == len(merged) == len(splits) == len(horizons)
    assert any(len(before.flow_rows) < len(after.flow_rows) for before, _, after in splits)

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
        assert {row[3] for row in rows_b} >= set(b.dispatch.instance_info)

    for before, agg_map, after in splits:
        annual = {row[:4]: row[4] for row in after.flow_rows}
        for carrier, bus, asset_id, iid, value in before.flow_rows:
            members = agg_map.groups.get(iid, ())
            parts = [annual[carrier, bus, asset_id, m.instance_id()] for m in members]
            assert not members or sum(parts) == pytest.approx(value, rel=1e-12, abs=1e-9)


def test_disaggregate_group_of_one_identity():
    from corridor_kit.reduction import AggregationMap
    from corridor_kit.translate import DispatchResult

    result = DispatchResult(
        horizon=2030,
        objective=1.0,
        built_capacity={},
        dispatch_mwh={"x@2030": np.array([1.0, 2.0])},
        store_net_mwh={},
        instance_info={"x@2030": {"iid": "x@2030", "asset_id": "x", "build_year": 2030,
                                   "kind": "generator", "capacity_base": 5.0,
                                   "efficiencies": {}, "marginal_cost": 0.0}},
        flow_rows=[],
        net_emissions_t=0.0,
        sequestered_t=0.0,
        imports_mwh={},
        hydrogen_mwh=0.0,
    )
    out = disaggregate(result, AggregationMap(groups={}))
    assert np.array_equal(out.dispatch_mwh["x@2030"], result.dispatch_mwh["x@2030"])


def test_reaggregation_round_trip():
    fleet = Fleet((wind_entry(2010, 100.0, 30), wind_entry(2015, 150.0, 25)))
    merged, amap = aggregate_build_years(fleet)
    members = list(amap.groups.values())[0]
    assert sum(m.capacity_mw for m in members) == pytest.approx(
        merged.entries[0].capacity_mw
    )
    assert {m.build_year for m in members} == {2010, 2015}
