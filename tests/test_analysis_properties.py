"""Property test: the endpoint sweep's coverage counts against their per-point definition."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from corridor_kit.analysis import Interval, coverage_breakpoints

# Few distinct endpoints, so that ties and zero-width intervals are common.
endpoint = st.one_of(st.integers(0, 6).map(float), st.floats(-3.0, 3.0, allow_nan=False))
intervals = st.lists(st.tuples(endpoint, endpoint).map(lambda p: Interval(*sorted(p))), min_size=1, max_size=30)


def per_point_breakpoints(ivs):
    """(endpoint, intervals containing it, intervals spanning it to the next endpoint), one point at a time."""
    points = sorted({iv.lo for iv in ivs} | {iv.hi for iv in ivs})
    out = []
    for k, x in enumerate(points):
        at = sum(1 for iv in ivs if iv.contains(x))
        if k + 1 < len(points):
            nxt = points[k + 1]
            right = sum(1 for iv in ivs if iv.lo <= x and iv.hi >= nxt)
        else:
            right = 0
        out.append((x, at, right))
    return out


@given(intervals)
def test_coverage_breakpoints_match_per_point_counts(ivs):
    breaks = coverage_breakpoints(ivs)
    assert breaks == per_point_breakpoints(ivs)
    assert all(type(x) is float and type(at) is int and type(right) is int for x, at, right in breaks)
