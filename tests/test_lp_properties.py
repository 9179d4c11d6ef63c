"""Property tests: vectorized standardization, KKT residuals, the explicit
inverse's update and the solves of LPs without rows or columns against their
oracles."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

import corridor_kit.simplex as simplex_mod
from corridor_kit.lp import LpProblem
from corridor_kit.simplex import LpSolution, _Standardizer, solve, verify_kkt

from lp_oracles import (
    BroadcastSimplexCore,
    LoopStandardizer,
    closed_form_minimum,
    columns_of,
    explicit_inverse,
    loop_verify_kkt,
)

bound = st.floats(-5.0, 5.0, allow_nan=False)


def coefficients(low: float, high: float):
    magnitude = st.floats(low, high)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))


@st.composite
def lps(draw, coeff=coefficients(1e-6, 1e6)):
    """Small LPs with free variables, finite bounds, negative right-hand sides and all senses."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    a = np.array(draw(st.lists(coeff, min_size=m * n, max_size=m * n))).reshape(m, n)
    rows, cols = np.nonzero(a)
    lb = np.array([draw(st.one_of(st.just(0.0), st.just(-np.inf), bound)) for _ in range(n)])
    ub = np.array(
        [draw(st.one_of(st.just(np.inf), st.floats(0.0, 6.0))) + (0.0 if np.isinf(lo) else lo) for lo in lb]
    )
    return LpProblem(
        c=np.array(draw(st.lists(coeff, min_size=n, max_size=n))),
        a_rows=rows.astype(np.int64),
        a_cols=cols.astype(np.int64),
        a_vals=a[rows, cols],
        senses=draw(st.lists(st.sampled_from(["le", "eq", "ge"]), min_size=m, max_size=m)),
        b=np.array(draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=m, max_size=m))),
        lb=lb,
        ub=ub,
        row_labels=[f"r{i}" for i in range(m)],
        col_labels=[f"x{j}" for j in range(n)],
    )


@given(lps())
def test_standardizer_bit_identical_to_loop_oracle(problem):
    fast, loop = _Standardizer(problem), LoopStandardizer(problem)
    # The sparse form holds exactly the oracle's nonzeros, column-major.
    work = fast.columns
    assert (work.m, work.n) == loop.a_std.shape
    cols, rows = np.nonzero(loop.a_std.T)
    assert work.rows.tobytes() == rows.tobytes() and work.cols.tobytes() == cols.tobytes()
    assert work.vals.tobytes() == loop.a_std[rows, cols].tobytes()
    assert work.start.tobytes() == np.searchsorted(cols, np.arange(work.n + 1)).tobytes()
    for name in ("b_std", "c_std", "row_scale", "flip"):
        got, want = getattr(fast, name), getattr(loop, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@given(lps(), st.data())
def test_dense_columns_are_the_oracles_columns(problem, data):
    # Any columns of the working matrix, artificial unit columns included,
    # gathered as a row-major block, the layout of the oracle's matrix, by
    # which the explicit inverse's products round.
    loop = LoopStandardizer(problem)
    m = loop.a_std.shape[0]
    units = np.array(data.draw(st.lists(st.integers(0, m - 1), unique=True)), dtype=np.int64)
    work = _Standardizer(problem).columns.with_units(np.sort(units))
    want = np.hstack([loop.a_std, np.eye(m)[:, np.sort(units)]])
    cols = np.array(data.draw(st.lists(st.integers(0, work.n - 1), max_size=2 * work.n)), dtype=np.int64)
    block = work.dense(cols)
    assert block.shape == (m, cols.size) and block.flags.c_contiguous
    # Only the sign of a zero may differ: the oracle's flipped rows hold -0.
    assert (block + 0.0).tobytes() == (want[:, cols] + 0.0).tobytes()


# The residuals sum the same products in another order than the dense
# matrix-vector products of the oracle, so they differ by rounding of order
# 1e-16 * sum |a_ij y_i|.  Coefficients within [1/8, 8] in magnitude keep that
# below the 1e-12 absolute tolerance; at 1e-6..1e6 it reaches 2e-12.
well_scaled = lps(coeff=coefficients(0.125, 8.0))


def _assert_residuals_agree(problem, solution):
    got, want = verify_kkt(problem, solution), loop_verify_kkt(problem, solution)
    for name in ("primal", "dual", "complementarity", "gap"):
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= 1e-12 + 1e-9 * abs(w), (name, g, w)


@given(well_scaled, st.data())
def test_verify_kkt_matches_loop_oracle_on_any_point(problem, data):
    point = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=problem.n, max_size=problem.n)
    duals = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=problem.m, max_size=problem.m)
    solution = LpSolution(status="optimal", x=np.array(data.draw(point)), y=np.array(data.draw(duals)))
    _assert_residuals_agree(problem, solution)


@given(well_scaled)
def test_verify_kkt_matches_loop_oracle_on_solver_output(problem):
    solution = solve(problem)
    if solution.x is not None:
        _assert_residuals_agree(problem, solution)


def _update_case(m, seed, lo, hi):
    """Inverse and FTRAN column: magnitudes 10**lo..10**hi, 30% zeros, random signs."""
    rng = np.random.default_rng(seed)
    lo, hi = min(lo, hi), max(lo, hi)

    def draw(*shape):
        v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
        v[rng.random(shape) < 0.3] = 0.0
        return v * rng.choice([-1.0, 1.0], shape)  # zeros of both signs

    return draw(m, m), draw(m)


magnitude = st.integers(-150, 150)


# Every size the explicit inverse serves, and the largest solve16 LP.
@given(st.integers(1, 139) | st.just(531), st.integers(0, 2**32 - 1), magnitude, magnitude, st.data())
def test_explicit_update_is_the_broadcast_update(m, seed, lo, hi, data):
    # Byte for byte, down to the sign of a zero: -0 - (-0) is +0 but
    # -0 - (+0) is -0, so a product that wrote +0 would show here.
    b_inv, d = _update_case(m, seed, lo, hi)
    row = data.draw(st.integers(0, m - 1))
    d[row] = d[row] or 1.0
    piv, row_r = d[row], b_inv[row].copy()
    want = b_inv - (d / piv)[:, None] * row_r
    want[row] = row_r / piv
    factor = simplex_mod._ExplicitInverse(columns_of(np.eye(m)), np.arange(m), 90)
    factor.b_inv = b_inv
    factor.update(row, d)
    assert factor.b_inv.tobytes() == want.tobytes()


@given(lps())
def test_solve_bytes_match_broadcast_core(problem):
    with explicit_inverse():
        got = solve(problem)
    with mock.patch.object(simplex_mod, "_SimplexCore", BroadcastSimplexCore):
        want = solve(problem)
    assert (got.status, got.iterations, got.basis) == (want.status, want.iterations, want.basis)
    for g, w in ((got.x, want.x), (got.y, want.y)):
        assert (g is None and w is None) or g.tobytes() == w.tobytes()


# Bounds, costs and right-hand sides on a grid of quarters: a violation below
# the solver's feasibility tolerance is no infeasibility to it, so values
# that differ by 1e-12 would compare tolerance against exact arithmetic.
quarter = st.integers(-20, 20).map(lambda k: k / 4.0)


def _empty_lp(c, senses, b, lb, ub):
    return LpProblem(
        c=np.array(c, dtype=float),
        a_rows=np.zeros(0, dtype=np.int64),
        a_cols=np.zeros(0, dtype=np.int64),
        a_vals=np.zeros(0),
        senses=list(senses),
        b=np.array(b, dtype=float),
        lb=np.array(lb, dtype=float),
        ub=np.array(ub, dtype=float),
        row_labels=[f"r{i}" for i in range(len(b))],
        col_labels=[f"x{j}" for j in range(len(c))],
    )


@st.composite
def bounds_only_lps(draw):
    n = draw(st.integers(1, 6))
    lb = [draw(quarter | st.just(-np.inf)) for _ in range(n)]
    ub = [draw(quarter | st.just(np.inf)) for _ in range(n)]
    c = draw(st.lists(st.just(0.0) | quarter, min_size=n, max_size=n))
    return _empty_lp(c, [], [], lb, ub)


@st.composite
def column_free_lps(draw):
    m = draw(st.integers(1, 6))
    senses = draw(st.lists(st.sampled_from(["le", "eq", "ge"]), min_size=m, max_size=m))
    b = draw(st.lists(st.just(0.0) | quarter, min_size=m, max_size=m))
    return _empty_lp([], senses, b, [], [])


@given(bounds_only_lps() | column_free_lps())
def test_lps_without_rows_or_columns_match_the_closed_forms(problem):
    # Both kinds take the one standard-form path; the closed forms are the
    # oracle for what it returns.
    sol = solve(problem)
    status, best = closed_form_minimum(problem)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(best, abs=1e-12)
        assert sol.residuals.passes(1e-8)
        assert verify_kkt(problem, sol).passes(1e-8)
        assert (sol.x.size, sol.y.size) == (problem.n, problem.m)
