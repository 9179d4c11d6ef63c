"""Translate a network plus a fleet into a labelled LP; map a solution to builds, flow table and target.

Row layout is canonical and deterministic: bus balance rows first, then
per-instance asset rows (capacity limits and storage dynamics), then global
rows, each block sorted by id.  Reproducible orderings keep duals stable
under degeneracy and let repeated runs produce identical problems.

Carbon accounting conventions:

* conversion assets carry their CO2 flows as explicit bus attachments
  (to the atmosphere bus or the temporary-storage bus);
* final-demand combustion is charged automatically: each load consuming a
  carrier with positive ``co2_intensity`` debits the emission row by
  intensity x annual demand (a constant folded into the row's rhs);
* fuel imports are carbon-neutral by definition, so an import of a
  carboniferous carrier credits the emission row by intensity x dispatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fleet import Fleet, FleetEntry
from .lp import LpBuilder, LpProblem
from .network import AssetSpec, Network, twh_to_mt

ELECTROLYSIS_TAG = "electrolysis"
TARGET_AUX = "electrolysis_output_mwh"  # aux key of the electrolysers' hydrogen output, the MGA target
CARBON_CAPTURE_TAG = "carbon-capture"
IMPORT_TAG = "import"
# Assets whose parameters change over time: their vintages never merge across build years.
AGGREGATION_EXEMPT_TAGS = frozenset({ELECTROLYSIS_TAG, CARBON_CAPTURE_TAG})


class StructuralError(ValueError):
    """The network cannot be translated (missing structure, bad labels)."""


class ConsistencyError(RuntimeError):
    """Solution values do not line up with the problem's labelling."""


@dataclass(frozen=True)
class _Instance:
    iid: str
    asset: AssetSpec
    efficiencies: dict[str, float]
    marginal_cost: float
    capacity_base: float | None  # None = uncapped dispatch
    build_year: int | None  # None for the current horizon's expandable slot
    # (build_year, capacity) of each vintage merged across build years; empty otherwise
    members: tuple[tuple[int, float], ...] = ()


@dataclass
class DispatchResult:
    """What a solved horizon hands on: its cost, new builds, flow table and target."""

    horizon: int
    objective: float
    built_capacity: dict[str, float]  # MW built per expandable asset
    flow_rows: list[tuple]  # (carrier, bus, asset_id, instance_id, annual MWh)
    target_value_mt: float  # Mt of hydrogen from the electrolysers: the MGA target


def _instances(network: Network, fleet: Fleet | None, aggregate: bool) -> list[_Instance]:
    fleet = (fleet or Fleet()).active(network.horizon)
    out: list[_Instance] = []
    for asset in sorted(network.assets, key=lambda a: a.id):
        if asset.kind == "load":
            continue
        out.append(
            _Instance(
                iid=asset.id,
                asset=asset,
                efficiencies=dict(asset.buses),
                marginal_cost=asset.marginal_cost,
                capacity_base=asset.existing_capacity,
                build_year=None,
            )
        )
        entries = sorted(fleet.for_asset(asset.id), key=lambda e: (e.build_year, e.lifetime))
        years = [entry.build_year for entry in entries]
        # Vintages of one build year share an instance when the LP sees them
        # alike, whatever their lifetimes: same efficiencies, same marginal
        # cost.  With ``aggregate``, vintages of distinct build years share one
        # too when their recorded parameters match, unless the asset's
        # parameters change over time (its tags) or two vintages share a year.
        merge = aggregate and not AGGREGATION_EXEMPT_TAGS & set(asset.tags) and len(set(years)) == len(years)
        groups: dict[object, list[FleetEntry]] = {}
        for entry in entries:
            if merge:
                key = json.dumps(entry.params, sort_keys=True)
            else:
                efficiencies, marginal_cost = _resolved(entry, asset)
                key = (entry.build_year, json.dumps(efficiencies, sort_keys=True), marginal_cost)
            groups.setdefault(key, []).append(entry)
        first_years = [members[0].build_year for members in groups.values()]
        if len(set(first_years)) < len(first_years):
            raise StructuralError(
                f"asset {asset.id}: vintages of one build year differ in efficiencies or marginal cost"
            )
        for members in groups.values():
            efficiencies, marginal_cost = _resolved(members[0], asset)
            merged = merge and len(members) > 1
            out.append(
                _Instance(
                    iid=f"{asset.id}@{members[0].build_year}",
                    asset=asset,
                    efficiencies=json.loads(json.dumps(efficiencies, sort_keys=True)),
                    marginal_cost=marginal_cost,
                    capacity_base=sum(m.capacity_mw for m in members),
                    build_year=members[0].build_year,
                    members=tuple((m.build_year, m.capacity_mw) for m in members) if merged else (),
                )
            )
    return out


def _resolved(entry: FleetEntry, asset: AssetSpec) -> tuple[dict, float]:
    """The efficiencies and marginal cost the LP uses for a vintage: its frozen ones, else the asset's."""
    return entry.params.get("efficiencies", asset.buses), entry.params.get("marginal_cost", asset.marginal_cost)


def _electrolysis_output_coeff(inst: _Instance, network: Network) -> float:
    """Summed positive efficiency towards energy buses (MWh out per metered MWh)."""
    return sum(
        eff
        for bus_id, eff in inst.efficiencies.items()
        if eff > 0 and network.bus_carrier(bus_id).kind == "energy"
    )


def translate(network: Network, fleet: Fleet | None = None, aggregate: bool = False) -> LpProblem:
    """Build the standard-form LP for one planning horizon.

    Rows: one nodal balance equality per (bus, snapshot) except the CO2
    atmosphere bus; dispatch and storage-level capacity rows; cyclic storage
    dynamics; one row per global limit.  The objective is annualized capital
    on newly built capacity plus weighted marginal dispatch cost.

    The fleet's active vintages of one build year share an instance when the
    LP sees them alike.  ``aggregate`` also merges vintages of distinct build
    years with equal recorded ``params`` (``AGGREGATION_EXEMPT_TAGS`` and
    assets with two vintages of one year excepted), and :func:`extract`
    splits their flow rows back onto the vintages.
    """
    weights = network.snapshots.weights
    n_snap = network.snapshots.count
    if n_snap == 0:
        raise StructuralError("network has no snapshots")

    atmosphere = network.co2_bus("atmosphere")
    emission_limits = [l for l in network.limits if l.kind == "net_emission_cap"]
    if emission_limits and atmosphere is None:
        raise StructuralError("net emission cap requires a CO2 atmosphere bus")
    coupling_limits = [l for l in network.limits if l.kind == "import_coupling"]

    instances = _instances(network, fleet, aggregate)
    bld = LpBuilder()

    cap_col: dict[str, int] = {}
    for asset in sorted(network.assets, key=lambda a: a.id):
        if asset.kind != "load" and asset.expandable:
            cap_col[asset.id] = bld.add_col(f"cap::{asset.id}", cost=asset.capital_cost)

    disp_col: dict[tuple[str, int], int] = {}
    chg_col: dict[tuple[str, int], int] = {}
    dis_col: dict[tuple[str, int], int] = {}
    lvl_col: dict[tuple[str, int], int] = {}
    for inst in instances:
        if inst.asset.kind == "store":
            for t in range(n_snap):
                chg_col[inst.iid, t] = bld.add_col(f"chg::{inst.iid}::{t}")
            if not inst.asset.one_way:
                for t in range(n_snap):
                    dis_col[inst.iid, t] = bld.add_col(
                        f"dis::{inst.iid}::{t}", cost=inst.marginal_cost * weights[t]
                    )
            for t in range(n_snap):
                lvl_col[inst.iid, t] = bld.add_col(f"lvl::{inst.iid}::{t}")
        else:
            for t in range(n_snap):
                disp_col[inst.iid, t] = bld.add_col(
                    f"disp::{inst.iid}::{t}", cost=inst.marginal_cost * weights[t]
                )

    # Nodal balance rows (atmosphere excluded: it is capped annually, not hourly).
    balance_row: dict[tuple[str, int], int] = {}
    for bus in sorted(network.buses, key=lambda b: b.id):
        if atmosphere is not None and bus.id == atmosphere.id:
            continue
        for t in range(n_snap):
            balance_row[bus.id, t] = bld.add_row(f"bal::{bus.id}::{t}", "eq", 0.0)
    for asset in network.assets:
        if asset.kind != "load":
            continue
        bus_id = next(iter(asset.buses))
        for t in range(n_snap):
            bld.add_to_rhs(balance_row[bus_id, t], float(asset.demand[t]))

    for inst in instances:
        if inst.asset.kind == "store":
            bus_id = next(iter(inst.efficiencies))
            for t in range(n_snap):
                row = balance_row[bus_id, t]
                bld.add_entry(row, chg_col[inst.iid, t], -1.0)
                if not inst.asset.one_way:
                    bld.add_entry(row, dis_col[inst.iid, t], 1.0)
        else:
            for bus_id, eff in sorted(inst.efficiencies.items()):
                if atmosphere is not None and bus_id == atmosphere.id:
                    continue
                for t in range(n_snap):
                    bld.add_entry(balance_row[bus_id, t], disp_col[inst.iid, t], eff)

    # Capacity and storage rows, per instance in canonical order.
    for inst in instances:
        avail = inst.asset.availability
        new_cap = cap_col.get(inst.asset.id) if inst.build_year is None else None
        if inst.asset.kind == "store":
            if inst.capacity_base is not None or new_cap is not None:
                base = inst.capacity_base or 0.0
                for t in range(n_snap):
                    row = bld.add_row(f"lvlcap::{inst.iid}::{t}", "le", base)
                    bld.add_entry(row, lvl_col[inst.iid, t], 1.0)
                    if new_cap is not None:
                        bld.add_entry(row, new_cap, -1.0)
        else:
            if inst.capacity_base is not None or new_cap is not None:
                base = inst.capacity_base or 0.0
                for t in range(n_snap):
                    a_t = 1.0 if avail is None else float(avail[t])
                    row = bld.add_row(f"cap::{inst.iid}::{t}", "le", a_t * base)
                    bld.add_entry(row, disp_col[inst.iid, t], 1.0)
                    if new_cap is not None:
                        bld.add_entry(row, new_cap, -a_t)

    for inst in instances:
        if inst.asset.kind != "store":
            continue
        for t in range(n_snap):
            row = bld.add_row(f"soc::{inst.iid}::{t}", "eq", 0.0)
            bld.add_entry(row, lvl_col[inst.iid, t], 1.0)
            prev = t - 1
            if t == 0 and inst.asset.cyclic:
                prev = n_snap - 1
            if prev >= 0 and prev != t:
                bld.add_entry(row, lvl_col[inst.iid, prev], -1.0)
            bld.add_entry(row, chg_col[inst.iid, t], -weights[t])
            if not inst.asset.one_way:
                bld.add_entry(row, dis_col[inst.iid, t], weights[t])

    # Global rows, sorted by limit name.
    aux_elec: dict[int, float] = {}
    for inst in instances:
        if ELECTROLYSIS_TAG in inst.asset.tags and inst.asset.kind != "store":
            coeff = _electrolysis_output_coeff(inst, network)
            for t in range(n_snap):
                aux_elec[disp_col[inst.iid, t]] = coeff * weights[t]

    for limit in sorted(network.limits, key=lambda l: l.name):
        if limit.kind == "net_emission_cap":
            load_const = 0.0
            for asset in network.assets:
                if asset.kind != "load":
                    continue
                carrier = network.bus_carrier(next(iter(asset.buses)))
                load_const += carrier.co2_intensity * float(asset.demand @ weights)
            row = bld.add_row(f"glb::{limit.name}", "le", limit.bound - load_const)
            for inst in instances:
                if inst.asset.kind == "store":
                    continue
                eff_atm = inst.efficiencies.get(atmosphere.id, 0.0)
                carrier = network.bus_carrier(next(iter(inst.efficiencies)))
                credit = (
                    -carrier.co2_intensity if inst.asset.kind == "import" else 0.0
                )
                coeff = eff_atm + credit
                if coeff == 0.0:
                    continue
                for t in range(n_snap):
                    bld.add_entry(row, disp_col[inst.iid, t], coeff * weights[t])
        elif limit.kind == "import_coupling":
            row = bld.add_row(f"glb::{limit.name}", "le", 0.0)
            for inst in instances:
                if inst.asset.kind == "import":
                    for t in range(n_snap):
                        bld.add_entry(row, disp_col[inst.iid, t], weights[t])
                elif ELECTROLYSIS_TAG in inst.asset.tags and inst.asset.kind != "store":
                    coeff = _electrolysis_output_coeff(inst, network)
                    for t in range(n_snap):
                        bld.add_entry(row, disp_col[inst.iid, t], -coeff * weights[t])
        else:  # sequestration_cap and generic_linear share annual-flow semantics
            sense = {"le": "le", "ge": "ge", "eq": "eq"}[limit.sense]
            row = bld.add_row(f"glb::{limit.name}", sense, limit.bound)
            for inst in instances:
                weight = limit.coefficients.get(inst.asset.id)
                if weight is None or inst.asset.kind == "store":
                    continue
                for t in range(n_snap):
                    bld.add_entry(row, disp_col[inst.iid, t], weight * weights[t])

    meta = {
        "name": f"{network.meta.get('name', 'network')}@{network.horizon}",
        "horizon": network.horizon,
        "scenario": network.meta.get("scenario"),
        "network": network,
        "instances": [
            {
                "iid": inst.iid,
                "asset_id": inst.asset.id,
                "build_year": inst.build_year,
                "kind": inst.asset.kind,
                "capacity_base": inst.capacity_base,
                "efficiencies": dict(inst.efficiencies),
                "marginal_cost": inst.marginal_cost,
                "members": list(inst.members),
            }
            for inst in instances
        ],
    }
    return bld.build(aux={TARGET_AUX: aux_elec}, meta=meta)


def extract(problem: LpProblem, solution) -> DispatchResult:
    """Map a solved LP back to built capacity, the flow table and the target.

    Every column label must be one that :func:`translate` writes; an unknown
    label is an internal consistency error, not user error.  An instance that
    merges vintages of several build years is reported per vintage: its flow
    rows are split by capacity share and take its place in the row order.
    """
    if solution.x is None:
        raise ConsistencyError(f"cannot extract from a solution with status {solution.status!r}")
    network: Network = problem.meta["network"]
    weights = network.snapshots.weights
    n_snap = network.snapshots.count
    x = solution.x

    built: dict[str, float] = {}
    metered: dict[str, dict[str, np.ndarray]] = {"disp": {}, "chg": {}, "dis": {}}  # kind -> iid -> MWh a snapshot
    for j, label in enumerate(problem.col_labels):
        parts = label.split("::")
        kind = parts[0]
        if kind == "cap":
            built[parts[1]] = float(x[j])
        elif kind in metered:
            t = int(parts[2])
            metered[kind].setdefault(parts[1], np.zeros(n_snap))[t] = x[j] * weights[t]
        elif kind != "lvl":
            raise ConsistencyError(f"unrecognized column label {label!r}")

    atmosphere = network.co2_bus("atmosphere")
    flow_rows: list[tuple] = []
    for rec in sorted(problem.meta["instances"], key=lambda r: r["iid"]):
        iid = rec["iid"]
        asset = network.asset(rec["asset_id"])
        if rec["kind"] == "store":
            bus_id = next(iter(asset.buses))
            net = metered["dis"].get(iid, np.zeros(n_snap)) - metered["chg"][iid]  # positive = discharge
            rows = [(network.bus(bus_id).carrier, bus_id, asset.id, iid, float(net.sum()))]
        else:
            total = float(metered["disp"][iid].sum())
            rows = [
                (network.bus(bus_id).carrier, bus_id, asset.id, iid, eff * total)
                for bus_id, eff in sorted(rec["efficiencies"].items())
                if atmosphere is None or bus_id != atmosphere.id
            ]
        if rec["members"]:
            # A merged instance's rows, repeated for each vintage in build-year order, shared by capacity.
            held = sum(capacity for _, capacity in rec["members"])
            shares = [(f"{asset.id}@{year}", capacity / held if held > 0 else 0.0) for year, capacity in rec["members"]]
            rows = [(*row[:3], mid, row[4] * share) for mid, share in shares for row in rows]
        flow_rows.extend(rows)

    for asset in sorted(network.assets, key=lambda a: a.id):
        if asset.kind != "load":
            continue
        bus_id = next(iter(asset.buses))
        annual = float(asset.demand @ weights)
        flow_rows.append((network.bus_carrier(bus_id).name, bus_id, asset.id, asset.id, -annual))

    return DispatchResult(
        horizon=network.horizon,
        objective=float(problem.c @ x),
        built_capacity=built,
        flow_rows=flow_rows,
        target_value_mt=twh_to_mt(problem.aux_value(TARGET_AUX, x) / 1e6),
    )
