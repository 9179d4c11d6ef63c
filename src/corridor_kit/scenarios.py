"""Scenario settings: definitions, cartesian enumeration and per-horizon application.

A scenario assigns one level to each of six setting categories (CO2 storage,
biomass availability, fuel imports, electrolyser cost, land-transport
electrification, weather).  Levels are ordered pessimistic to optimistic and
carry concrete parameter payloads applied to a horizon's network.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping

import numpy as np

from .network import Network, replace_assets
from .schedules import Schedule, schedule_value
from .translate import CARBON_CAPTURE_TAG, ELECTROLYSIS_TAG, IMPORT_TAG

BIOMASS_SUPPLY_TAG = "biomass-supply"
COUPLING_LIMIT_NAME = "import_coupling"


class ConfigurationError(ValueError):
    """A scenario payload targets an asset class the template does not tag."""


@dataclass(frozen=True)
class Level:
    name: str
    payload: dict


@dataclass(frozen=True)
class SettingCategory:
    """A setting's levels, pessimistic to optimistic.

    A category of one level is pinned: it takes no part in the variation,
    but its payload still applies.
    """

    name: str
    levels: tuple[Level, ...]

    def __post_init__(self):
        if not 1 <= len(self.levels) <= 3:
            raise ValueError(f"category {self.name}: need 1 to 3 levels")

    def level(self, name: str) -> Level:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"category {self.name} has no level {name!r}")

    def encoding(self, name: str) -> float:
        """Dummy value for regression: 1 level maps to 0, 2 to {0, 1}, 3 to {0, 0.5, 1}."""
        idx = [lvl.name for lvl in self.levels].index(name)
        return idx / max(len(self.levels) - 1, 1)


@dataclass(frozen=True)
class Scenario:
    levels: tuple[tuple[str, str], ...]  # (category, level) in category order
    payloads: dict

    @property
    def id(self) -> str:
        return "_".join(f"{cat}-{lvl}" for cat, lvl in self.levels)

    def level_of(self, category: str) -> str:
        for cat, lvl in self.levels:
            if cat == category:
                return lvl
        raise KeyError(category)


def parse_scenario_id(scenario_id: str) -> dict[str, str]:
    """The ``{category: level}`` that :attr:`Scenario.id` joined into ``scenario_id``."""
    return dict(token.rsplit("-", 1) for token in scenario_id.split("_"))


def load_categories(path=None) -> tuple[SettingCategory, ...]:
    """Load setting categories from a scenarios.json file (bundled by default)."""
    if path is None:
        text = resources.files("corridor_kit.data").joinpath("scenarios.json").read_text()
        raw = json.loads(text)
    else:
        with open(path) as fh:
            raw = json.load(fh)
    cats = []
    for spec in raw["categories"]:
        levels = tuple(Level(l["name"], l.get("payload", {})) for l in spec["levels"])
        cats.append(SettingCategory(name=spec["name"], levels=levels))
    return tuple(cats)


def subset_categories(
    categories: tuple[SettingCategory, ...], keep: Mapping[str, list[str]]
) -> tuple[SettingCategory, ...]:
    """Restrict each named category to the listed levels (single-level pins allowed)."""
    out = []
    for cat in categories:
        if cat.name not in keep:
            out.append(cat)
            continue
        out.append(SettingCategory(cat.name, tuple(cat.level(n) for n in keep[cat.name])))
    return tuple(out)


def enumerate_scenarios(categories) -> list[Scenario]:
    """Cartesian product of category levels in deterministic (listed) order."""
    names = [cat.name for cat in categories]
    if len(set(names)) != len(names):
        raise ValueError("duplicate category names")
    scenarios = []
    for combo in itertools.product(*[cat.levels for cat in categories]):
        levels = tuple((cat.name, lvl.name) for cat, lvl in zip(categories, combo))
        payloads = {cat.name: lvl.payload for cat, lvl in zip(categories, combo)}
        scenarios.append(Scenario(levels=levels, payloads=payloads))
    return scenarios


def shift_transport(baseline: Mapping[int, Mapping[str, float]], direction: str) -> dict:
    """Shift a fuel-share table in time by one 5-year period.

    ``delay`` holds the first row an extra period and then lags the baseline
    by 5 years; ``accelerate`` keeps the first row and leads by 5 years,
    clamping at the final row; ``baseline`` is an identity copy.
    """
    years = sorted(int(y) for y in baseline)
    table = {int(y): dict(baseline[y]) for y in baseline}
    for year in years:
        total = sum(table[year].values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"transport shares for {year} sum to {total}, not 1")
    if direction == "baseline":
        return {y: dict(table[y]) for y in years}
    first, last = years[0], years[-1]
    out = {}
    for year in years:
        if direction == "delay":
            src = max(first, year - 5)
        elif direction == "accelerate":
            src = first if year == first else min(last, year + 5)
        else:
            raise ValueError(f"unknown transport direction {direction!r}")
        out[year] = dict(table[src])
    return out


def _require_tagged(network: Network, tag: str, what: str):
    assets = network.tagged(tag)
    if not assets:
        raise ConfigurationError(f"scenario needs assets tagged {tag!r} ({what})")
    return assets


def apply_scenario(template: Network, scenario: Scenario, horizon: int) -> Network:
    """Produce the network for one (scenario, horizon) from a horizon template.

    Only parameters owned by the scenario's categories are touched, and the
    scenario's id is recorded as ``meta["scenario"]``; the template must
    already be built at the requested horizon.
    """
    if template.horizon != horizon:
        raise ValueError(
            f"template built for horizon {template.horizon}, scenario applied at {horizon}"
        )
    net = replace(template, meta={**template.meta, "scenario": scenario.id})
    new_assets: dict = {}

    payload = scenario.payloads.get("ccs", {})
    if payload:
        cap_schedule = Schedule.from_mapping(payload["sequestration_cap_mt"])
        bound_t = schedule_value(cap_schedule, horizon) * 1e6
        limits = []
        seq_assets: list[str] = []
        for lim in net.limits:
            if lim.kind == "sequestration_cap":
                seq_assets.extend(sorted(lim.coefficients))
                limits.append(replace(lim, bound=bound_t))
            else:
                limits.append(lim)
        if not seq_assets:
            raise ConfigurationError("scenario sets a sequestration cap but the template has no sequestration_cap limit")
        net = replace(net, limits=tuple(limits))
        marginal = float(payload["sequestration_marginal_eur_per_t"])
        for asset_id in seq_assets:
            asset = net.asset(asset_id)
            new_assets[asset_id] = replace(asset, marginal_cost=marginal)

        mult = float(payload["capture_capital_multiplier"])
        capture = _require_tagged(net, CARBON_CAPTURE_TAG, "carbon capture")
        for asset in capture:
            if asset.capture_sibling:
                sibling = net.asset(asset.capture_sibling)
                premium = asset.capital_cost - sibling.capital_cost
                capital = sibling.capital_cost + mult * premium
            else:
                capital = mult * asset.capital_cost
            new_assets[asset.id] = replace(
                new_assets.get(asset.id, asset), capital_cost=capital
            )

    payload = scenario.payloads.get("biomass", {})
    if payload:
        supply = _require_tagged(net, BIOMASS_SUPPLY_TAG, "biomass supply")
        supply_ids = {a.id for a in supply}
        bound = schedule_value(Schedule.from_mapping(payload["biomass_cap_twh"]), horizon) * 1e6
        limits = []
        found = False
        for lim in net.limits:
            if lim.kind == "generic_linear" and set(lim.coefficients) & supply_ids:
                limits.append(replace(lim, bound=bound))
                found = True
            else:
                limits.append(lim)
        if not found:
            raise ConfigurationError("no supply limit row references the biomass-supply assets")
        net = replace(net, limits=tuple(limits))

    payload = scenario.payloads.get("imports", {})
    if payload:
        coupled = bool(payload.get("coupled", False))
        limits = tuple(l for l in net.limits if l.kind != "import_coupling")
        if coupled:
            _require_tagged(net, IMPORT_TAG, "fuel imports")
            _require_tagged(net, ELECTROLYSIS_TAG, "electrolysis")
            from .network import GlobalLimit

            limits = limits + (GlobalLimit(name=COUPLING_LIMIT_NAME, kind="import_coupling", bound=0.0),)
        net = replace(net, limits=limits)

    payload = scenario.payloads.get("electrolyser", {})
    if payload:
        mult = float(payload["capital_multiplier"])
        for asset in _require_tagged(net, ELECTROLYSIS_TAG, "electrolysis"):
            new_assets[asset.id] = replace(
                new_assets.get(asset.id, asset), capital_cost=asset.capital_cost * mult
            )

    payload = scenario.payloads.get("transport", {})
    if payload:
        block = net.meta.get("transport")
        if not block:
            raise ConfigurationError("scenario shifts transport but the template has no transport block")
        shares = shift_transport(
            {int(y): v for y, v in block["shares"].items()}, payload["shift"]
        )
        if horizon not in shares:
            raise ConfigurationError(f"transport share table has no row for horizon {horizon}")
        row = shares[horizon]
        total = float(block["total_annual_mwh"])
        factors = block["carrier_energy_per_final"]
        hours = net.snapshots.total_hours
        for fuel, load_id in sorted(block["loads"].items()):
            asset = net.asset(load_id)
            annual = total * row[fuel] * factors[fuel]
            demand = np.full(net.snapshots.count, annual / hours)
            new_assets[load_id] = replace(new_assets.get(load_id, asset), demand=demand)

    payload = scenario.payloads.get("weather", {})
    if payload:
        profile = payload["profile"]
        touched = False
        for asset in net.assets:
            if asset.availability_variants:
                if profile not in asset.availability_variants:
                    raise ConfigurationError(
                        f"asset {asset.id} has no availability variant {profile!r}"
                    )
                new_assets[asset.id] = replace(
                    new_assets.get(asset.id, asset),
                    availability=asset.availability_variants[profile],
                )
                touched = True
        if not touched:
            raise ConfigurationError("scenario selects a weather profile but no asset has variants")

    if new_assets:
        net = replace_assets(net, new_assets)
    return net
