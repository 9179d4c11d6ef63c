"""Bundled desk-scale test system: three electricity nodes, six carriers.

A stylized European-scale system small enough to solve in fractions of a
second but exercising every constraint family: nodal balances, expandable
capacity, multi-bus conversion with explicit CO2 flows, cyclic storage,
annual emission / sequestration / biomass caps and the import-coupling rule.

Electricity is resolved at three nodes (N1 windy north, N2 centre, N3 sunny
south) joined by expandable transmission; hydrogen, gas, oil and biomass are
single-node carriers; CO2 lives on atmosphere / temporary / permanent buses.
Profiles span 32 snapshots (4 seasons x 8 intra-day steps) weighted to 8760 h,
with two bundled weather variants ("1987" hard, "2020" easy).

Closed-form problem size for the fixture at T snapshots and an empty fleet:
10*T balance rows (11 buses minus the atmosphere), one capacity row per
capped asset and snapshot, T level-cap and T cycle rows per bounded store,
plus one row per global limit.
"""

from __future__ import annotations

import numpy as np

# Carbon intensity of combustion, tCO2 per MWh of fuel burned.
GAS_INTENSITY = 0.198
OIL_INTENSITY = 0.2571

BASELINE_EMISSIONS_T = 3.3e9  # reference-year emissions the caps are quoted against
GAS_PRICE = {"2030": 38.0, "2040": 46.0, "2050": 52.0}  # EUR/MWh, rising with scarcity
OIL_PRICE = 63.3
BIOMASS_PRICE = 16.3

SEASONS = 4
STEPS = 8

ELECTROLYSER_CAPITAL = {
    "2030": 1.793e6,
    "2035": 1.614e6,
    "2040": 1.435e6,
    "2045": 1.315e6,
    "2050": 1.196e6,
}
ELECTROLYSER_EFFICIENCY = {
    "2030": 0.622,
    "2035": 0.637,
    "2040": 0.653,
    "2045": 0.676,
    "2050": 0.699,
}

TRANSPORT_SHARES = {
    "2025": {"ice": 0.938, "fc": 0.0, "bev": 0.062},
    "2030": {"ice": 0.873, "fc": 0.004, "bev": 0.123},
    "2035": {"ice": 0.511, "fc": 0.039, "bev": 0.45},
    "2040": {"ice": 0.434, "fc": 0.073, "bev": 0.493},
    "2045": {"ice": 0.267, "fc": 0.127, "bev": 0.606},
    "2050": {"ice": 0.101, "fc": 0.180, "bev": 0.719},
}


def _profiles() -> dict[str, dict[str, list[float]]]:
    solar_day = np.array([0.0, 0.0, 0.0, 0.3, 0.75, 0.95, 0.75, 0.35])
    wind_day = np.array([0.66, 0.6, 0.55, 0.48, 0.4, 0.36, 0.44, 0.52])
    solar_season = {"1987": [0.32, 0.72, 0.95, 0.52], "2020": [0.38, 0.78, 1.0, 0.58]}
    wind_season = {"1987": [0.95, 0.62, 0.45, 0.78], "2020": [1.0, 0.72, 0.55, 0.9]}
    out: dict[str, dict[str, list[float]]] = {"solar": {}, "wind": {}}
    for year in ("1987", "2020"):
        out["solar"][year] = np.clip(
            np.outer(solar_season[year], solar_day).ravel(), 0.0, 1.0
        ).tolist()
        out["wind"][year] = np.clip(
            np.outer(wind_season[year], wind_day).ravel(), 0.0, 1.0
        ).tolist()
    return out


def _elec_shape(weights: np.ndarray) -> list[float]:
    season = np.array([1.28, 0.94, 0.86, 1.06])
    day = np.array([1.18, 1.06, 0.94, 0.9, 0.95, 1.0, 1.06, 1.12])
    shape = np.outer(season, day).ravel()
    shape /= (shape * weights).sum() / weights.sum()
    return shape.tolist()


def fixture_document() -> dict:
    """The shipped desk-scale model document (JSON-serializable dict)."""
    n = SEASONS * STEPS
    weights = np.full(n, 8760.0 / n)
    profiles = _profiles()
    elec_shape = _elec_shape(weights)

    ft_oil_eff = 0.78
    sabatier_gas_eff = 0.77
    btl_oil_eff = 0.45
    btl_capture = 0.25
    smr_cc_capture_share = 0.9

    carriers = [
        {"name": "electricity"},
        {"name": "hydrogen"},
        {"name": "gas", "co2_intensity": GAS_INTENSITY},
        {"name": "oil", "co2_intensity": OIL_INTENSITY},
        {"name": "biomass"},
        {"name": "co2", "kind": "co2"},
    ]
    buses = [
        {"id": "el1", "carrier": "electricity", "node": "N1"},
        {"id": "el2", "carrier": "electricity", "node": "N2"},
        {"id": "el3", "carrier": "electricity", "node": "N3"},
        {"id": "h2", "carrier": "hydrogen", "node": "EU"},
        {"id": "gas", "carrier": "gas", "node": "EU"},
        {"id": "oil", "carrier": "oil", "node": "EU"},
        {"id": "bio", "carrier": "biomass", "node": "EU"},
        {"id": "co2a", "carrier": "co2", "node": "atmosphere"},
        {"id": "co2t", "carrier": "co2", "node": "temporary"},
        {"id": "co2p", "carrier": "co2", "node": "permanent"},
    ]

    assets = [
        {
            "id": "solar_n3",
            "kind": "generator",
            "buses": {"el3": 1.0},
            "capital_cost": 3.3e5,
            "marginal_cost": 0.4,
            "lifetime": 30,
            "expandable": True,
            "availability": {"variants": profiles["solar"], "default": "1987"},
        },
        {
            "id": "wind_n1",
            "kind": "generator",
            "buses": {"el1": 1.0},
            "capital_cost": 1.05e6,
            "marginal_cost": 1.1,
            "lifetime": 25,
            "expandable": True,
            "availability": {"variants": profiles["wind"], "default": "1987"},
        },
        {
            "id": "ocgt_n1",
            "kind": "link",
            "buses": {"gas": -1.0, "el1": 0.42, "co2a": GAS_INTENSITY},
            "capital_cost": 4.3e5,
            "marginal_cost": 3.2,
            "lifetime": 30,
            "expandable": True,
        },
        {
            "id": "lys_n2",
            "kind": "link",
            "buses": {"el2": -1.0, "h2": ELECTROLYSER_EFFICIENCY},
            "capital_cost": ELECTROLYSER_CAPITAL,
            "marginal_cost": 0.9,
            "lifetime": 25,
            "expandable": True,
            "tags": ["electrolysis"],
        },
        {
            "id": "smr",
            "kind": "link",
            "buses": {"gas": -1.0, "h2": 0.74, "co2a": GAS_INTENSITY},
            "capital_cost": 4.6e5,
            "marginal_cost": 1.3,
            "lifetime": 30,
            "expandable": True,
        },
        {
            "id": "smr_cc",
            "kind": "link",
            "buses": {
                "gas": -1.0,
                "h2": 0.62,
                "co2a": GAS_INTENSITY * (1.0 - smr_cc_capture_share),
                "co2t": GAS_INTENSITY * smr_cc_capture_share,
            },
            "capital_cost": 1.05e6,
            "marginal_cost": 2.1,
            "lifetime": 30,
            "expandable": True,
            "tags": ["carbon-capture"],
            "capture_sibling": "smr",
        },
        {
            "id": "ft",
            "kind": "link",
            "buses": {"h2": -1.0, "oil": ft_oil_eff, "co2t": -ft_oil_eff * OIL_INTENSITY},
            "capital_cost": 6.6e5,
            "marginal_cost": 2.3,
            "lifetime": 25,
            "expandable": True,
        },
        {
            "id": "sabatier",
            "kind": "link",
            "buses": {
                "h2": -1.0,
                "gas": sabatier_gas_eff,
                "co2t": -sabatier_gas_eff * GAS_INTENSITY,
            },
            "capital_cost": 4.9e5,
            "marginal_cost": 1.6,
            "lifetime": 25,
            "expandable": True,
        },
        {
            "id": "btl",
            "kind": "link",
            "buses": {"bio": -1.0, "oil": btl_oil_eff, "co2a": -btl_oil_eff * OIL_INTENSITY},
            "capital_cost": 6.2e5,
            "marginal_cost": 2.2,
            "lifetime": 25,
            "expandable": True,
        },
        {
            "id": "btl_cc",
            "kind": "link",
            "buses": {
                "bio": -1.0,
                "oil": btl_oil_eff,
                "co2a": -(btl_oil_eff * OIL_INTENSITY + btl_capture),
                "co2t": btl_capture,
            },
            "capital_cost": 9.3e5,
            "marginal_cost": 2.8,
            "lifetime": 25,
            "expandable": True,
            "tags": ["carbon-capture"],
            "capture_sibling": "btl",
        },
        {
            "id": "dac",
            "kind": "link",
            "buses": {"el2": -1.0, "co2a": -0.5, "co2t": 0.5},
            "capital_cost": 2.1e6,
            "marginal_cost": 8.0,
            "lifetime": 20,
            "expandable": True,
            "tags": ["carbon-capture"],
        },
        {
            "id": "seq",
            "kind": "link",
            "buses": {"co2t": -1.0, "co2p": 1.0},
            "marginal_cost": 20.0,
            "lifetime": 40,
            "existing_capacity": None,
        },
        {
            "id": "tx12",
            "kind": "link",
            "buses": {"el1": -1.0, "el2": 0.97},
            "capital_cost": 4.0e5,
            "marginal_cost": 0.45,
            "lifetime": 40,
            "expandable": True,
            "existing_capacity": 25000.0,
        },
        {
            "id": "tx21",
            "kind": "link",
            "buses": {"el2": -1.0, "el1": 0.97},
            "capital_cost": 4.0e5,
            "marginal_cost": 0.5,
            "lifetime": 40,
            "expandable": True,
            "existing_capacity": 25000.0,
        },
        {
            "id": "tx23",
            "kind": "link",
            "buses": {"el2": -1.0, "el3": 0.97},
            "capital_cost": 4.0e5,
            "marginal_cost": 0.55,
            "lifetime": 40,
            "expandable": True,
            "existing_capacity": 25000.0,
        },
        {
            "id": "tx32",
            "kind": "link",
            "buses": {"el3": -1.0, "el2": 0.97},
            "capital_cost": 4.0e5,
            "marginal_cost": 0.6,
            "lifetime": 40,
            "expandable": True,
            "existing_capacity": 25000.0,
        },
        {
            "id": "temp_store",
            "kind": "store",
            "buses": {"co2t": 1.0},
            "capital_cost": 2.4e4,
            "lifetime": 30,
            "expandable": True,
            "cyclic": True,
        },
        {
            "id": "h2_store",
            "kind": "store",
            "buses": {"h2": 1.0},
            "capital_cost": 2.2e3,
            "marginal_cost": 0.2,
            "lifetime": 40,
            "expandable": True,
            "cyclic": True,
        },
        {
            "id": "perm_sink",
            "kind": "store",
            "buses": {"co2p": 1.0},
            "lifetime": 100,
            "cyclic": False,
            "one_way": True,
            "existing_capacity": None,
        },
        {
            "id": "gas_supply",
            "kind": "generator",
            "buses": {"gas": 1.0},
            "marginal_cost": GAS_PRICE,
            "lifetime": 40,
            "existing_capacity": None,
        },
        {
            "id": "oil_supply",
            "kind": "generator",
            "buses": {"oil": 1.0},
            "marginal_cost": OIL_PRICE,
            "lifetime": 40,
            "existing_capacity": None,
        },
        {
            "id": "bio_supply",
            "kind": "generator",
            "buses": {"bio": 1.0},
            "marginal_cost": BIOMASS_PRICE,
            "lifetime": 40,
            "existing_capacity": None,
            "tags": ["biomass-supply"],
        },
        {
            "id": "imp_h2",
            "kind": "import",
            "buses": {"h2": 1.0},
            "marginal_cost": {"2030": 128.0, "2040": 72.0, "2050": 66.0},
            "lifetime": 40,
            "existing_capacity": None,
            "tags": ["import"],
        },
        {
            "id": "imp_oil",
            "kind": "import",
            "buses": {"oil": 1.0},
            "marginal_cost": {"2030": 135.0, "2040": 88.0, "2050": 80.0},
            "lifetime": 40,
            "existing_capacity": None,
            "tags": ["import"],
        },
        {
            "id": "load_el1",
            "kind": "load",
            "buses": {"el1": 1.0},
            "annual_mwh": 8.0e8,
            "shape": elec_shape,
        },
        {
            "id": "load_el2",
            "kind": "load",
            "buses": {"el2": 1.0},
            "annual_mwh": 1.0e9,
            "shape": elec_shape,
        },
        {
            "id": "load_el3",
            "kind": "load",
            "buses": {"el3": 1.0},
            "annual_mwh": 6.0e8,
            "shape": elec_shape,
        },
        {"id": "tr_el", "kind": "load", "buses": {"el2": 1.0}, "annual_mwh": 0.0},
        {"id": "tr_h2", "kind": "load", "buses": {"h2": 1.0}, "annual_mwh": 0.0},
        {"id": "tr_oil", "kind": "load", "buses": {"oil": 1.0}, "annual_mwh": 0.0},
        {
            "id": "oil_other",
            "kind": "load",
            "buses": {"oil": 1.0},
            "annual_mwh": {"2030": 9.0e8, "2040": 8.0e8, "2050": 5.0e8},
        },
        {
            "id": "gas_other",
            "kind": "load",
            "buses": {"gas": 1.0},
            "annual_mwh": {"2030": 1.15e9, "2040": 1.0e9, "2050": 6.0e8},
        },
        {
            "id": "h2_industry",
            "kind": "load",
            "buses": {"h2": 1.0},
            "annual_mwh": {"2030": 3.0e7, "2040": 5.5e7, "2050": 7.9e7},
        },
    ]

    limits = [
        {
            "name": "co2_cap",
            "kind": "net_emission_cap",
            "baseline_t": BASELINE_EMISSIONS_T,
            "fraction": {"2025": 0.65, "2030": 0.45, "2040": 0.10, "2050": 0.0},
        },
        {
            "name": "seq_cap",
            "kind": "sequestration_cap",
            "coefficients": {"seq": 1.0},
            "bound": {"anchors": {"2030": 5.0e7, "2040": 2.5e8, "2050": 5.5e8}, "pre": 0.0},
        },
        {
            "name": "bio_cap",
            "kind": "generic_linear",
            "coefficients": {"bio_supply": 1.0},
            "bound": {"2030": 8.0e8, "2040": 1.0e9, "2050": 1.19e9},
            "sense": "le",
        },
        {"name": "import_coupling", "kind": "import_coupling", "enabled": True},
    ]

    initial_fleet = [
        {"asset": "ocgt_n1", "build_year": 2012, "capacity_mw": 20000.0, "lifetime": 28},
        {"asset": "ocgt_n1", "build_year": 2015, "capacity_mw": 15000.0, "lifetime": 25},
        {"asset": "wind_n1", "build_year": 2018, "capacity_mw": 30000.0, "lifetime": 24},
        {"asset": "solar_n3", "build_year": 2020, "capacity_mw": 25000.0, "lifetime": 25},
    ]

    return {
        "name": "desk-europe",
        "horizon": 2030,
        "discount_rate": 0.07,
        "snapshots": {"weights": weights.tolist()},
        "carriers": carriers,
        "buses": buses,
        "assets": assets,
        "limits": limits,
        "initial_fleet": initial_fleet,
        "transport": {
            "total_annual_mwh": 1.55e9,
            "shares": TRANSPORT_SHARES,
            "carrier_energy_per_final": {"ice": 1.0, "fc": 0.5, "bev": 0.33},
            "loads": {"ice": "tr_oil", "fc": "tr_h2", "bev": "tr_el"},
        },
    }

