"""Temporal segmentation: fewer, longer snapshots fitted on a document's profiles.

Build-year aggregation of the fleet lives in :func:`corridor_kit.translate.translate`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np


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
