import numpy as np
import pytest

from corridor_kit.network import build_network
from corridor_kit.scenarios import (
    ConfigurationError,
    Level,
    SettingCategory,
    apply_scenario,
    enumerate_scenarios,
    parse_scenario_id,
    shift_transport,
    subset_categories,
)

BASELINE_SHARES = {
    2025: {"ice": 0.938, "fc": 0.0, "bev": 0.062},
    2030: {"ice": 0.873, "fc": 0.004, "bev": 0.123},
    2035: {"ice": 0.511, "fc": 0.039, "bev": 0.45},
    2040: {"ice": 0.434, "fc": 0.073, "bev": 0.493},
    2045: {"ice": 0.267, "fc": 0.127, "bev": 0.606},
    2050: {"ice": 0.101, "fc": 0.180, "bev": 0.719},
}


def test_enumerate_full_matrix(categories):
    scenarios = enumerate_scenarios(categories)
    assert len(scenarios) == 216
    assert len({s.id for s in scenarios}) == 216


def test_parse_scenario_id_inverts_id(categories):
    scenarios = enumerate_scenarios(categories)
    assert len(scenarios) == 216
    for scenario in scenarios:
        assert parse_scenario_id(scenario.id) == dict(scenario.levels)


def test_enumerate_two_by_two():
    cats = (
        SettingCategory("x", (Level("a", {}), Level("b", {}))),
        SettingCategory("y", (Level("a", {}), Level("b", {}))),
    )
    scenarios = enumerate_scenarios(cats)
    assert [s.id for s in scenarios] == ["x-a_y-a", "x-a_y-b", "x-b_y-a", "x-b_y-b"]


def test_enumerate_single_category():
    cats = (SettingCategory("x", (Level("a", {}), Level("b", {}), Level("c", {}))),)
    assert [s.id for s in enumerate_scenarios(cats)] == ["x-a", "x-b", "x-c"]


def test_levels_orderings_and_encoding(categories):
    for cat in categories:
        names = [lvl.name for lvl in cat.levels]
        assert names == sorted(names)  # a (pessimistic) first
        codes = [cat.encoding(n) for n in names]
        if len(names) == 2:
            assert codes == [0.0, 1.0]
        else:
            assert codes == [0.0, 0.5, 1.0]


def test_single_level_category_enumerates_and_encodes():
    pinned = SettingCategory("x", (Level("a", {"k": 1}),))
    cats = (pinned, SettingCategory("y", (Level("a", {}), Level("b", {}))))
    scenarios = enumerate_scenarios(cats)
    assert [s.id for s in scenarios] == ["x-a_y-a", "x-a_y-b"]
    assert scenarios[0].payloads["x"] == {"k": 1}
    assert pinned.encoding("a") == 0.0
    for levels in ((), tuple(Level(n, {}) for n in "abcd")):
        with pytest.raises(ValueError):
            SettingCategory("x", levels)


def test_transport_shift_delay_matches_published_rows():
    delayed = shift_transport(BASELINE_SHARES, "delay")
    assert delayed[2040]["ice"] == pytest.approx(0.511)
    assert delayed[2030] == BASELINE_SHARES[2025]
    assert delayed[2050] == BASELINE_SHARES[2045]


def test_transport_shift_accelerate_clamps_final_row():
    acc = shift_transport(BASELINE_SHARES, "accelerate")
    assert acc[2050] == {"ice": 0.101, "fc": 0.180, "bev": 0.719}
    assert acc[2030] == BASELINE_SHARES[2035]
    assert acc[2025] == BASELINE_SHARES[2025]


def test_transport_shift_rows_sum_to_one():
    for direction in ("delay", "baseline", "accelerate"):
        table = shift_transport(BASELINE_SHARES, direction)
        for year, row in table.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_transport_shift_rejects_bad_shares():
    broken = {2025: {"ice": 0.9, "bev": 0.2}}
    with pytest.raises(ValueError):
        shift_transport(broken, "delay")


def _levels_of(scenario_index, **overrides):
    key = dict(ccs="b", biomass="b", imports="a", electrolyser="b", transport="b", weather="a")
    key.update(overrides)
    sid = "_".join(f"{cat}-{lvl}" for cat, lvl in key.items())
    return scenario_index[sid]


def test_apply_electrolyser_level_halves_capital(doc8, scenario_index):
    template = build_network(doc8, 2040)
    optimistic = apply_scenario(template, _levels_of(scenario_index, electrolyser="b"), 2040)
    pessimistic = apply_scenario(template, _levels_of(scenario_index, electrolyser="a"), 2040)
    base = template.asset("lys_n2").capital_cost
    assert optimistic.asset("lys_n2").capital_cost == pytest.approx(0.5 * base)
    assert pessimistic.asset("lys_n2").capital_cost == pytest.approx(1.5 * base)


def test_apply_imports_level_toggles_coupling_row(doc8, scenario_index):
    template = build_network(doc8, 2040)
    restricted = apply_scenario(template, _levels_of(scenario_index, imports="a"), 2040)
    unrestricted = apply_scenario(template, _levels_of(scenario_index, imports="b"), 2040)
    assert any(l.kind == "import_coupling" for l in restricted.limits)
    assert not any(l.kind == "import_coupling" for l in unrestricted.limits)


def test_apply_ccs_level_c_published_values(doc8, scenario_index):
    net = apply_scenario(build_network(doc8, 2040), _levels_of(scenario_index, ccs="c"), 2040)
    cap = next(l for l in net.limits if l.kind == "sequestration_cap")
    assert cap.bound == pytest.approx(500e6)  # 500 Mt/a in tonnes
    assert net.asset("seq").marginal_cost == pytest.approx(15.0)


def test_apply_ccs_pre_anchor_zero(doc8, scenario_index):
    doc = dict(doc8)
    net = apply_scenario(build_network(doc8, 2030), _levels_of(scenario_index, ccs="a"), 2030)
    cap = next(l for l in net.limits if l.kind == "sequestration_cap")
    assert cap.bound == pytest.approx(25e6)


def test_apply_capture_premium_uses_sibling_difference(doc8, scenario_index):
    template = build_network(doc8, 2040)
    smr = template.asset("smr").capital_cost
    smr_cc = template.asset("smr_cc").capital_cost
    dac = template.asset("dac").capital_cost
    pess = apply_scenario(template, _levels_of(scenario_index, ccs="a"), 2040)
    assert pess.asset("smr_cc").capital_cost == pytest.approx(smr + 1.5 * (smr_cc - smr))
    assert pess.asset("dac").capital_cost == pytest.approx(1.5 * dac)  # no sibling: whole capital
    assert pess.asset("smr").capital_cost == pytest.approx(smr)


def test_apply_transport_sets_demands(doc8, scenario_index):
    net = apply_scenario(build_network(doc8, 2040), _levels_of(scenario_index, transport="b"), 2040)
    block = net.meta["transport"]
    total = block["total_annual_mwh"]
    oil = net.asset("tr_oil").demand
    weights = net.snapshots.weights
    assert float(oil @ weights) == pytest.approx(total * 0.434 * 1.0, rel=1e-12)
    elec = net.asset("tr_el").demand
    assert float(elec @ weights) == pytest.approx(total * 0.493 * 0.33, rel=1e-12)


def test_apply_weather_swaps_profiles(doc8, scenario_index):
    template = build_network(doc8, 2040)
    hard = apply_scenario(template, _levels_of(scenario_index, weather="a"), 2040)
    easy = apply_scenario(template, _levels_of(scenario_index, weather="b"), 2040)
    assert hard.asset("solar_n3").availability.mean() < easy.asset("solar_n3").availability.mean()


def test_apply_touches_only_owned_parameters(doc8, scenario_index):
    template = build_network(doc8, 2040)
    sc_a = _levels_of(scenario_index, electrolyser="a")
    sc_b = _levels_of(scenario_index, electrolyser="b")
    net_a = apply_scenario(template, sc_a, 2040)
    net_b = apply_scenario(template, sc_b, 2040)
    for asset_a, asset_b in zip(net_a.assets, net_b.assets):
        if asset_a.id == "lys_n2":
            continue
        assert asset_a.capital_cost == asset_b.capital_cost
        assert asset_a.marginal_cost == asset_b.marginal_cost
        if asset_a.demand is not None:
            assert np.array_equal(asset_a.demand, asset_b.demand)
    assert net_a.limits == net_b.limits


def test_apply_wrong_horizon_rejected(doc8, base_scenario):
    template = build_network(doc8, 2040)
    with pytest.raises(ValueError):
        apply_scenario(template, base_scenario, 2045)


def test_apply_untagged_asset_class_rejected(doc8, base_scenario):
    doc = {**doc8, "assets": [dict(a) for a in doc8["assets"]]}
    for asset in doc["assets"]:
        if asset["id"] == "lys_n2":
            asset["tags"] = []
    with pytest.raises(ConfigurationError):
        apply_scenario(build_network(doc, 2040), base_scenario, 2040)


def test_subset_categories_pins_levels(categories):
    mini = subset_categories(categories, {"ccs": ["a", "c"], "biomass": ["b"]})
    scenarios = enumerate_scenarios(mini)
    assert len(scenarios) == 2 * 1 * 2 * 2 * 3 * 2
    assert all(s.level_of("biomass") == "b" for s in scenarios)
