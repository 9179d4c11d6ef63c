"""Temporal segmentation of snapshot series and build-year fleet aggregation."""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .fleet import Fleet, FleetEntry
from .translate import DispatchResult


@dataclass(frozen=True)
class Segmentation:
    """Contiguous grouping of snapshots into segments.

    ``labels[t]`` is the segment index of original snapshot ``t`` (segments
    are numbered left to right); ``orig_weights`` are the source snapshot
    hours and ``seg_weights`` the summed hours per segment.
    """

    labels: np.ndarray
    orig_weights: np.ndarray
    seg_weights: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(self.seg_weights.size)

    def reduce_series(self, series: np.ndarray) -> np.ndarray:
        """Weighted segment means of one per-snapshot series."""
        series = np.asarray(series, dtype=float)
        out = np.zeros(self.n_segments)
        for s in range(self.n_segments):
            mask = self.labels == s
            w = self.orig_weights[mask]
            out[s] = float((series[mask] * w).sum() / w.sum())
        return out


def segment(series_matrix: np.ndarray, n: int, weights: np.ndarray | None = None) -> Segmentation:
    """Group snapshots into ``n`` contiguous segments by greedy pair merging.

    Each series is standardized to unit variance, then the adjacent pair of
    segments whose merge least increases total within-segment variance is
    merged repeatedly (earliest pair on ties) until ``n`` segments remain.
    """
    series_matrix = np.atleast_2d(np.asarray(series_matrix, dtype=float))
    if series_matrix.ndim != 2 or series_matrix.size == 0:
        raise ValueError("series matrix must be non-empty, shaped (snapshots, series)")
    if series_matrix.shape[0] == 1 and series_matrix.shape[1] > 1:
        pass  # single snapshot, many series is legitimate
    t, _ = series_matrix.shape
    if not 1 <= n <= t:
        raise ValueError(f"target segments {n} outside 1..{t}")
    if weights is None:
        weights = np.ones(t)
    weights = np.asarray(weights, dtype=float)

    std = series_matrix.std(axis=0)
    std[std == 0] = 1.0
    z = series_matrix / std

    seg_w = [float(w) for w in weights]
    seg_mean = [z[i].copy() for i in range(t)]
    bounds = [(i, i) for i in range(t)]  # inclusive snapshot ranges

    def merge_cost(i: int) -> float:
        wa, wb = seg_w[i], seg_w[i + 1]
        diff = seg_mean[i] - seg_mean[i + 1]
        return float(wa * wb / (wa + wb) * (diff @ diff))

    while len(seg_w) > n:
        costs = [merge_cost(i) for i in range(len(seg_w) - 1)]
        i = int(np.argmin(costs))  # argmin takes the earliest on ties
        wa, wb = seg_w[i], seg_w[i + 1]
        seg_mean[i] = (wa * seg_mean[i] + wb * seg_mean[i + 1]) / (wa + wb)
        seg_w[i] = wa + wb
        bounds[i] = (bounds[i][0], bounds[i + 1][1])
        del seg_w[i + 1], seg_mean[i + 1], bounds[i + 1]

    labels = np.zeros(t, dtype=np.int64)
    for s, (lo, hi) in enumerate(bounds):
        labels[lo : hi + 1] = s
    return Segmentation(
        labels=labels,
        orig_weights=weights,
        seg_weights=np.array(seg_w, dtype=float),
    )


def _profile_refs(asset: dict):
    """``(container, key)`` of every per-snapshot profile of one asset document."""
    availability = asset.get("availability")
    if isinstance(availability, dict) and "variants" in availability:
        variants = availability["variants"]
        yield from ((variants, name) for name in variants)
    elif availability is not None:
        yield asset, "availability"
    if asset.get("shape") is not None:
        yield asset, "shape"
    if isinstance(asset.get("demand_mw"), (list, tuple)):
        yield asset, "demand_mw"


def reduce_document(document: dict, n: int) -> dict:
    """Segment a model document's profiles down to ``n`` snapshots.

    The segmentation is fitted on every profile in the document (availability
    including all weather variants, load shapes and explicit demand series) so
    one consistent grouping serves every scenario.
    """
    weights = np.asarray(document["snapshots"]["weights"], dtype=float)
    doc = copy.deepcopy(document)
    refs = [ref for asset in doc.get("assets", []) for ref in _profile_refs(asset)]
    profiles = [np.asarray(container[key], dtype=float) for container, key in refs]
    series = [p for p in profiles if p.ndim == 1 and p.size == weights.size]
    if not series:
        raise ValueError("document has no per-snapshot series to segment")

    seg = segment(np.column_stack(series), n, weights)
    doc["snapshots"]["weights"] = seg.seg_weights.tolist()
    for (container, key), profile in zip(refs, profiles):
        container[key] = seg.reduce_series(profile).tolist()
    return doc


@dataclass(frozen=True)
class AggregationMap:
    """Provenance of merged fleet entries: merged instance id -> members."""

    groups: dict


def aggregate_build_years(fleet: Fleet, exemptions=frozenset()) -> tuple[Fleet, AggregationMap]:
    """Merge fleet entries identical except for build year and expiry.

    Entries merge when asset and frozen parameters match; expiry is ignored.
    Precondition: the fleet is already phased out at one horizon and is
    discarded after that horizon's solve, where co-active same-parameter
    vintages are interchangeable.  A merged entry does not preserve its
    members' phase-out years, so it must not be carried to a later horizon.
    Exempt assets (time-varying parameters) pass through untouched, and so
    does every entry of an asset with two vintages in one build year: the
    merged entry would take an instance id that the other vintage holds too.
    """
    vintages = Counter((entry.asset_id, entry.build_year) for entry in fleet)
    exemptions = frozenset(exemptions) | {asset for (asset, _), count in vintages.items() if count > 1}
    merged: list[FleetEntry] = []
    groups: dict[str, tuple[FleetEntry, ...]] = {}
    buckets: dict[tuple, list[FleetEntry]] = {}
    passthrough: list[FleetEntry] = []
    for entry in fleet:
        if entry.asset_id in exemptions:
            passthrough.append(entry)
            continue
        key = (entry.asset_id, _params_key(entry.params))
        buckets.setdefault(key, []).append(entry)
    for key in sorted(buckets, key=str):
        members = sorted(buckets[key], key=lambda e: e.build_year)
        if len(members) == 1:
            merged.append(members[0])
            continue
        build_year = members[0].build_year
        expiry = max(m.expiry_year() for m in members)
        entry = FleetEntry(
            asset_id=members[0].asset_id,
            build_year=build_year,
            capacity_mw=sum(m.capacity_mw for m in members),
            lifetime=expiry - build_year,
            params=dict(members[0].params),
        )
        merged.append(entry)
        groups[entry.instance_id()] = tuple(members)
    out = Fleet(tuple(sorted(merged + passthrough, key=lambda e: (e.asset_id, e.build_year))))
    return out, AggregationMap(groups=groups)


def _params_key(params: dict) -> str:
    import json

    return json.dumps(params, sort_keys=True)


def disaggregate(result: DispatchResult, agg_map: AggregationMap) -> DispatchResult:
    """Split merged-group dispatch and flows back onto members, proportional to capacity.

    A merged instance's flow rows are replaced in place by the same rows for
    each member, in build-year order, with the annual flow times its share.
    """
    dispatch = dict(result.dispatch_mwh)
    store_net = dict(result.store_net_mwh)
    info = dict(result.instance_info)
    shares: dict[str, list[tuple[str, float]]] = {}
    for iid, members in agg_map.groups.items():
        if iid not in info:
            continue
        rec = info.pop(iid)
        total_cap = sum(m.capacity_mw for m in members)
        series = dispatch.pop(iid, None)
        net_series = store_net.pop(iid, None)
        shares[iid] = []
        for member in members:
            share = member.capacity_mw / total_cap if total_cap > 0 else 0.0
            mid = member.instance_id()
            shares[iid].append((mid, share))
            info[mid] = {
                **rec,
                "iid": mid,
                "build_year": member.build_year,
                "capacity_base": member.capacity_mw,
            }
            if series is not None:
                dispatch[mid] = series * share
            if net_series is not None:
                store_net[mid] = net_series * share
    flow_rows = []
    for iid, rows in groupby(result.flow_rows, key=lambda row: row[3]):
        if iid not in shares:
            flow_rows.extend(rows)
            continue
        rows = list(rows)
        for mid, share in shares[iid]:
            flow_rows.extend((carrier, bus, asset_id, mid, annual * share) for carrier, bus, asset_id, _, annual in rows)
    out = copy.copy(result)
    out.dispatch_mwh = dispatch
    out.store_net_mwh = store_net
    out.instance_info = info
    out.flow_rows = flow_rows
    return out
