import numpy as np
import pytest

from corridor_kit.network import build_network
from corridor_kit.reduction import reduce_document, segment
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import solve
from corridor_kit.translate import translate


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
