"""Domain model for a single-horizon energy network with explicit CO2 tracking.

A network is a set of carrier-resolved buses connected by assets (generators,
multi-bus conversion links, stores, loads and fuel imports), a weighted
snapshot set and a list of model-wide linear limits.  CO2 is an ordinary
carrier living on three dedicated buses (atmosphere, temporary store,
permanent store), so emission accounting reduces to linear rows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .schedules import resolve

TWH_PER_MT_H2 = 33.33  # 1 Mt H2 = 33.33 TWh at hydrogen's lower heating value (33.33 kWh/kg)

ASSET_KINDS = ("generator", "link", "store", "load", "import")
LIMIT_KINDS = ("net_emission_cap", "sequestration_cap", "import_coupling", "generic_linear")
CO2_NODES = ("atmosphere", "temporary", "permanent")


class ValidationError(ValueError):
    """A model document violates the schema; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


def annuity(rate: float, lifetime: float) -> float:
    """Annual payment factor for unit capital at the given discount rate.

    Returns ``r / (1 - (1 + r)**-n)``; the zero-rate limit is ``1 / n``.
    """
    if not (math.isfinite(rate) and math.isfinite(lifetime)):
        raise ValueError("annuity arguments must be finite")
    if lifetime < 1:
        raise ValueError(f"lifetime must be >= 1 year, got {lifetime}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if rate == 0:
        return 1.0 / lifetime
    return rate / (1.0 - (1.0 + rate) ** (-lifetime))


def mt_to_twh(mass_mt: float) -> float:
    """Convert hydrogen mass in Mt to energy in TWh (LHV)."""
    if mass_mt < 0:
        raise ValueError("mass must be >= 0")
    return mass_mt * TWH_PER_MT_H2


def twh_to_mt(energy_twh: float) -> float:
    """Convert hydrogen energy in TWh to mass in Mt (LHV); exact inverse of mt_to_twh."""
    if energy_twh < 0:
        raise ValueError("energy must be >= 0")
    return energy_twh / TWH_PER_MT_H2


@dataclass(frozen=True)
class Carrier:
    name: str
    kind: str = "energy"  # "energy" or "co2"
    co2_intensity: float = 0.0  # tCO2 per MWh consumed at final demand


@dataclass(frozen=True)
class Bus:
    id: str
    carrier: str
    node: str


@dataclass(frozen=True)
class AssetSpec:
    """One technology instance attached to one or more buses.

    ``buses`` maps bus id to a signed per-unit coefficient: the dispatch
    variable is metered at the bus carrying coefficient -1 for links (MWh
    consumed) and +1 for generators/imports (MWh delivered).  Other entries
    are outputs (positive) or extra inputs (negative) per metered MWh.
    """

    id: str
    kind: str
    buses: dict[str, float]
    capital_cost: float = 0.0  # EUR/MW/a, already annualized
    marginal_cost: float = 0.0  # EUR/MWh of metered dispatch
    lifetime: int = 25
    availability: np.ndarray | None = None  # per-snapshot factor in [0, 1]
    availability_variants: dict[str, np.ndarray] | None = None
    expandable: bool = False
    existing_capacity: float | None = 0.0  # None means uncapped dispatch
    demand: np.ndarray | None = None  # loads: MW per snapshot
    cyclic: bool = True  # stores: level equal at horizon start and end
    one_way: bool = False  # stores: charge-only sink
    tags: frozenset = frozenset()
    capture_sibling: str | None = None  # capture premium is relative to this asset


@dataclass(frozen=True)
class GlobalLimit:
    """A model-wide linear row over annual asset flows."""

    name: str
    kind: str
    bound: float = 0.0
    coefficients: dict[str, float] = field(default_factory=dict)
    sense: str = "le"  # le / ge / eq


@dataclass(frozen=True)
class SnapshotSet:
    weights: np.ndarray  # hours represented by each snapshot

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("snapshot weights must be a non-empty 1-d array")
        if not np.all(w > 0):
            raise ValueError("snapshot weights must be positive")

    @property
    def count(self) -> int:
        return int(self.weights.size)

    @property
    def total_hours(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class Network:
    carriers: tuple[Carrier, ...]
    buses: tuple[Bus, ...]
    assets: tuple[AssetSpec, ...]
    snapshots: SnapshotSet
    limits: tuple[GlobalLimit, ...]
    horizon: int
    discount_rate: float = 0.07
    meta: dict = field(default_factory=dict)

    def carrier(self, name: str) -> Carrier:
        return self._carrier_index[name]

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def asset(self, asset_id: str) -> AssetSpec:
        return self._asset_index[asset_id]

    def __post_init__(self):
        object.__setattr__(self, "_carrier_index", {c.name: c for c in self.carriers})
        object.__setattr__(self, "_bus_index", {b.id: b for b in self.buses})
        object.__setattr__(self, "_asset_index", {a.id: a for a in self.assets})

    def bus_carrier(self, bus_id: str) -> Carrier:
        return self.carrier(self.bus(bus_id).carrier)

    def co2_bus(self, node: str) -> Bus | None:
        """The unique CO2 bus at one of the atmosphere/temporary/permanent nodes."""
        hits = [
            b
            for b in self.buses
            if b.node == node and self.carrier(b.carrier).kind == "co2"
        ]
        return hits[0] if hits else None

    def tagged(self, tag: str) -> list[AssetSpec]:
        return [a for a in self.assets if tag in a.tags]


def validate_network(net: Network) -> list[str]:
    """Return a list of invariant violations (empty when the network is valid)."""
    problems: list[str] = []
    names = [c.name for c in net.carriers]
    if len(set(names)) != len(names):
        problems.append("duplicate carrier names")
    for c in net.carriers:
        if c.kind not in ("energy", "co2"):
            problems.append(f"carrier {c.name}: unknown kind {c.kind!r}")
        if c.co2_intensity < 0:
            problems.append(f"carrier {c.name}: negative co2_intensity")

    bus_ids = [b.id for b in net.buses]
    if len(set(bus_ids)) != len(bus_ids):
        problems.append("duplicate bus ids")
    seen_pairs = set()
    for b in net.buses:
        if b.carrier not in net._carrier_index:
            problems.append(f"bus {b.id}: unknown carrier {b.carrier!r}")
        if (b.carrier, b.node) in seen_pairs:
            problems.append(f"bus {b.id}: duplicate (carrier, node) pair")
        seen_pairs.add((b.carrier, b.node))

    asset_ids = [a.id for a in net.assets]
    if len(set(asset_ids)) != len(asset_ids):
        problems.append("duplicate asset ids")
    n = net.snapshots.count
    for a in net.assets:
        if a.kind not in ASSET_KINDS:
            problems.append(f"asset {a.id}: unknown kind {a.kind!r}")
            continue
        if not a.buses:
            problems.append(f"asset {a.id}: no bus attachments")
        for bus_id in a.buses:
            if bus_id not in net._bus_index:
                problems.append(f"asset {a.id}: unknown bus {bus_id!r}")
        if a.lifetime < 1:
            problems.append(f"asset {a.id}: lifetime must be >= 1")
        if a.kind == "link":
            metering = [b for b, eff in a.buses.items() if eff == -1.0]
            if len(metering) != 1:
                problems.append(f"asset {a.id}: link needs exactly one bus with coefficient -1")
        elif a.kind in ("generator", "import", "store", "load"):
            if len(a.buses) != 1 or next(iter(a.buses.values())) != 1.0:
                problems.append(f"asset {a.id}: {a.kind} needs a single bus with coefficient 1")
        if a.kind == "load":
            if a.demand is None:
                problems.append(f"asset {a.id}: load needs a demand profile")
            elif len(a.demand) != n:
                problems.append(f"asset {a.id}: demand length {len(a.demand)} != {n} snapshots")
        if a.availability is not None:
            if len(a.availability) != n:
                problems.append(f"asset {a.id}: availability length {len(a.availability)} != {n}")
            elif not (np.all(a.availability >= 0) and np.all(a.availability <= 1 + 1e-12)):
                problems.append(f"asset {a.id}: availability must lie in [0, 1]")

    for lim in net.limits:
        if lim.kind not in LIMIT_KINDS:
            problems.append(f"limit {lim.name}: unknown kind {lim.kind!r}")
        if lim.kind in ("net_emission_cap", "sequestration_cap") and not math.isfinite(lim.bound):
            problems.append(f"limit {lim.name}: cap bound must be finite")
        for asset_id in lim.coefficients:
            if asset_id not in net._asset_index:
                problems.append(f"limit {lim.name}: unknown asset {asset_id!r}")

    # CO2 structure is required as soon as the model carries a co2 carrier.
    co2_carriers = [c.name for c in net.carriers if c.kind == "co2"]
    if co2_carriers:
        for node in CO2_NODES:
            hits = [
                b
                for b in net.buses
                if b.node == node and net._carrier_index.get(b.carrier, Carrier("?")).kind == "co2"
            ]
            if len(hits) != 1:
                problems.append(f"need exactly one CO2 bus at node {node!r}, found {len(hits)}")
        for node, role in (("temporary", "store"), ("permanent", "store")):
            bus = next(
                (
                    b
                    for b in net.buses
                    if b.node == node and net._carrier_index.get(b.carrier, Carrier("?")).kind == "co2"
                ),
                None,
            )
            if bus is not None:
                stores = [
                    a for a in net.assets if a.kind == "store" and bus.id in a.buses
                ]
                if len(stores) != 1:
                    problems.append(
                        f"need exactly one CO2 {role} on the {node} bus, found {len(stores)}"
                    )
    return problems


def _as_profile(value, n: int, horizon: int) -> np.ndarray:
    if isinstance(value, Mapping):
        value = resolve(value, horizon)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    return arr


def _load_demand(spec: Mapping, n: int, weights: np.ndarray, horizon: int) -> np.ndarray:
    if "demand_mw" in spec:
        return _as_profile(spec["demand_mw"], n, horizon)
    annual = resolve(spec.get("annual_mwh", 0.0), horizon)
    shape = spec.get("shape")
    if shape is None:
        return np.full(n, annual / float(weights.sum()))
    shape = np.asarray(shape, dtype=float)
    total = float((shape * weights).sum())
    if total <= 0:
        raise ValidationError([f"load {spec.get('id')}: shape has zero weighted sum"])
    return annual * shape / total


def build_network(document: Mapping, horizon: int | None = None) -> Network:
    """Construct and validate a Network from a model document.

    Capital costs in the document are pre-annualization EUR/MW; they are
    annualized here with the document's discount rate and each asset's
    lifetime.  Any numeric field given as a ``{year: value}`` mapping is
    resolved at the target horizon.
    """
    if horizon is None:
        horizon = int(document["horizon"])
    rate = float(document.get("discount_rate", 0.07))
    weights = np.asarray(document["snapshots"]["weights"], dtype=float)
    snapshots = SnapshotSet(weights)
    n = snapshots.count

    carriers = tuple(
        Carrier(c["name"], c.get("kind", "energy"), float(c.get("co2_intensity", 0.0)))
        for c in document.get("carriers", [])
    )
    buses = tuple(Bus(b["id"], b["carrier"], b.get("node", "")) for b in document.get("buses", []))

    assets = []
    for spec in document.get("assets", []):
        kind = spec["kind"]
        lifetime = int(resolve(spec.get("lifetime", 25), horizon))
        capital_raw = resolve(spec.get("capital_cost", 0.0), horizon)
        capital = capital_raw * annuity(rate, lifetime) if capital_raw else 0.0
        buses_eff = {
            bus_id: resolve(eff, horizon) for bus_id, eff in spec.get("buses", {}).items()
        }
        avail = None
        variants = None
        availability = spec.get("availability")
        if isinstance(availability, Mapping) and "variants" in availability:
            variants = {
                name: np.asarray(prof, dtype=float)
                for name, prof in availability["variants"].items()
            }
            avail = variants[availability["default"]]
        elif availability is not None:
            avail = np.asarray(availability, dtype=float)
        demand = _load_demand(spec, n, weights, horizon) if kind == "load" else None
        existing = spec.get("existing_capacity", 0.0)
        assets.append(
            AssetSpec(
                id=spec["id"],
                kind=kind,
                buses=buses_eff,
                capital_cost=capital,
                marginal_cost=resolve(spec.get("marginal_cost", 0.0), horizon),
                lifetime=lifetime,
                availability=avail,
                availability_variants=variants,
                expandable=bool(spec.get("expandable", False)),
                existing_capacity=None if existing is None else float(existing),
                demand=demand,
                cyclic=bool(spec.get("cyclic", True)),
                one_way=bool(spec.get("one_way", False)),
                tags=frozenset(spec.get("tags", ())),
                capture_sibling=spec.get("capture_sibling"),
            )
        )

    limits = []
    for spec in document.get("limits", []):
        kind = spec["kind"]
        if kind == "net_emission_cap":
            baseline = float(spec["baseline_t"])
            fraction = resolve(spec["fraction"], horizon)
            bound = baseline * fraction
        else:
            bound = resolve(spec.get("bound", 0.0), horizon)
        if kind == "import_coupling" and not spec.get("enabled", True):
            continue
        limits.append(
            GlobalLimit(
                name=spec["name"],
                kind=kind,
                bound=bound,
                coefficients={k: float(v) for k, v in spec.get("coefficients", {}).items()},
                sense=spec.get("sense", "le"),
            )
        )

    meta = {
        key: copy.deepcopy(document[key])
        for key in ("name", "transport", "initial_fleet")
        if key in document
    }
    net = Network(
        carriers=carriers,
        buses=buses,
        assets=tuple(assets),
        snapshots=snapshots,
        limits=tuple(limits),
        horizon=horizon,
        discount_rate=rate,
        meta=meta,
    )
    problems = validate_network(net)
    if problems:
        raise ValidationError(problems)
    return net


def replace_assets(net: Network, new_assets: Mapping[str, AssetSpec]) -> Network:
    """Return a copy of ``net`` with the given assets replaced by id."""
    assets = tuple(new_assets.get(a.id, a) for a in net.assets)
    return replace(net, assets=assets)
