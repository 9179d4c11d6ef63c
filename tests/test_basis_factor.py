"""The kernel basis factor: its solves, and the answers of the simplex built on it.

``_KernelFactor`` serves every LP from ``_KERNEL_MIN_ROWS`` standard-form rows
on.  Its pivot path differs from the explicit inverse's, so it is held to
tolerances here, not to bytes: its peeled kernel inverse against
``np.linalg.inv``, its FTRAN, BTRAN and refined solves against dense solves of
the same basis, and its LP solves against the explicit-inverse path and the
vertex oracle.  The refined solve is one function on both factors; that it
raises when refinement fails is checked on both.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import corridor_kit.mga as mga_mod
import corridor_kit.simplex as simplex_mod
from corridor_kit.fleet import fleet_from_document
from corridor_kit.mga import PIN_LABEL, _cheapest_representative, add_cost_budget
from corridor_kit.network import build_network
from corridor_kit.pathway import phase_out
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import (
    REFACTOR_EVERY,
    _ExplicitInverse,
    _factor_solve,
    _KernelFactor,
    _peeled_inverse_t,
    _slack_basis,
    _Standardizer,
    solve,
)
from corridor_kit.translate import translate

from lp_oracles import (
    KernelSolvesReference,
    artificial_heavy_problem,
    columns_of,
    enumerate_vertices_minimum,
    explicit_inverse,
    random_problem,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st


def kernel_path():
    """Patch that puts every LP with rows on the kernel factor."""
    return mock.patch.object(simplex_mod, "_KERNEL_MIN_ROWS", 0)


def _working_matrix(m: int, rng: np.random.Generator):
    """Sparse structural columns, unit columns of both signs and slacks; the start basis.

    The start basis takes a +1 unit column (slack or structural) on every row
    that has one and an artificial on every other row, as the simplex does.
    Returns the column count before the artificials, the start basis and the
    working matrix with the artificial columns appended.
    """
    n_struct, n_unit = m, m // 3
    structural = np.zeros((m, n_struct))
    for j in range(n_struct):
        rows = rng.choice(m, size=int(rng.integers(2, 6)), replace=False)
        structural[rows, j] = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-1.0, 1.0, rows.size)
    unit = np.zeros((m, n_unit))
    unit[rng.integers(0, m, n_unit), np.arange(n_unit)] = rng.choice([-1.0, 1.0], n_unit)
    slack_rows = np.flatnonzero(rng.random(m) < 0.5)
    slack = np.zeros((m, slack_rows.size))
    slack[slack_rows, np.arange(slack_rows.size)] = 1.0
    a = np.hstack([structural, unit, slack])
    basis = _slack_basis(columns_of(a), np.zeros(a.shape[1]))
    missing = np.flatnonzero(basis == -1)
    basis[missing] = a.shape[1] + np.arange(missing.size)
    working = np.hstack([a, np.eye(m)[:, missing]])
    return a.shape[1], basis, working


def _pivot_randomly(factor, basis, working, n, count, rng):
    """``count`` pivots on well-sized entries, entering structural, unit or slack columns."""
    for _ in range(count):
        nonbasic = np.setdiff1d(np.arange(n), basis)
        j = int(rng.choice(nonbasic))
        d = factor.ftran(j)
        solid = np.flatnonzero(np.abs(d) >= 0.5 * np.abs(d).max())
        row = int(rng.choice(solid))
        factor.update(row, d)
        basis[row] = j


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _assert_solves(factor, basis, working, rng):
    """FTRAN, BTRAN and refined solves of vectors, a working column and a unit row against dense solves."""
    b = working[:, basis]
    for v in (rng.standard_normal(b.shape[0]), working[:, int(rng.integers(working.shape[1]))]):
        _assert_close(factor.ftran(v.copy()), np.linalg.solve(b, v))
        _assert_close(factor.btran(v.copy()), np.linalg.solve(b.T, v))
        _assert_close(_factor_solve(factor, basis, v), np.linalg.solve(b, v))
        _assert_close(_factor_solve(factor, basis, v, transpose=True), np.linalg.solve(b.T, v))
    j = int(rng.integers(working.shape[1]))
    _assert_close(factor.ftran(j), np.linalg.solve(b, working[:, j]))
    pos = int(rng.integers(b.shape[0]))
    _assert_close(factor.btran(pos), np.linalg.solve(b.T, np.eye(b.shape[0])[pos]))


@settings(max_examples=40)
@given(
    st.integers(20, 400),
    st.integers(0, 2**32 - 1),
    st.integers(0, REFACTOR_EVERY),
    st.integers(0, REFACTOR_EVERY),
)
def test_kernel_factor_solves_like_the_dense_basis(m, seed, before, after):
    rng = np.random.default_rng(seed)
    n, basis, working = _working_matrix(m, rng)
    factor = _KernelFactor(columns_of(working), basis.copy(), REFACTOR_EVERY)
    assert factor.inverses == 0  # the start basis is all unit columns
    _pivot_randomly(factor, basis, working, n, before, rng)
    _assert_solves(factor, basis, working, rng)
    assert factor.refactor(basis)
    _pivot_randomly(factor, basis, working, n, after, rng)
    _assert_solves(factor, basis, working, rng)


def test_kernel_factor_grows_past_refactor_every():
    # Pivots outside pricing (drive-out, restoration) can pass refactor_every
    # etas before the next refactorization.
    rng = np.random.default_rng(3)
    n, basis, working = _working_matrix(60, rng)
    factor = _KernelFactor(columns_of(working), basis.copy(), 4)
    _pivot_randomly(factor, basis, working, n, 13, rng)
    assert factor.etas == 13
    _assert_solves(factor, basis, working, rng)


def _assert_reference_bytes(factor, reference, working, rng):
    """FTRAN of every working column and of vectors, and BTRAN of vectors and positions, byte for byte."""
    m, n = working.shape
    for j in range(n):
        assert factor.ftran(j).tobytes() == reference.ftran(j).tobytes()
    sparse = np.where(rng.random(m) < 0.7, 0.0, rng.standard_normal(m))
    for v in (rng.standard_normal(m), sparse, -sparse, working[:, int(rng.integers(n))].copy()):
        assert factor.ftran(v.copy()).tobytes() == reference.ftran(v.copy()).tobytes()
        assert factor.btran(v.copy()).tobytes() == reference.btran(v.copy()).tobytes()
    for pos in rng.choice(m, size=min(m, 4), replace=False):
        assert factor.btran(int(pos)).tobytes() == reference.btran(int(pos)).tobytes()


def _pivot_both(factor, reference, basis, n, count, repeat, rng):
    """``count`` pivots on well-sized entries; with ``repeat``, on the last pivot's position where it is well-sized."""
    row = None
    for _ in range(count):
        j = int(rng.choice(np.setdiff1d(np.arange(n), basis)))
        d = factor.ftran(j)
        assert d.tobytes() == reference.ftran(j).tobytes()
        scale = np.abs(d).max()
        if scale == 0.0:
            continue
        if not (repeat and row is not None and abs(d[row]) >= 0.1 * scale):
            row = int(rng.choice(np.flatnonzero(np.abs(d) >= 0.5 * scale)))
        factor.update(row, d)
        reference.update(row, d.copy())
        basis[row] = j


@settings(max_examples=25)
@given(
    st.integers(6, 120),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
    st.integers(0, REFACTOR_EVERY + 12),
    st.booleans(),
)
@example(m=40, seed=5, before=3, after=REFACTOR_EVERY + 8, repeat=True)  # the eta file grows
@example(m=6, seed=0, before=0, after=0, repeat=False)
def test_kernel_solves_keep_the_reference_bytes(m, seed, before, after, repeat):
    # The start basis is all unit columns: an empty kernel, and no working
    # column has a kernel entry.  After the refactorization the kernel is
    # nonempty and the slacks on unit rows still have none.
    rng = np.random.default_rng(seed)
    n, basis, working = _working_matrix(m, rng)
    factor = _KernelFactor(columns_of(working), basis.copy(), REFACTOR_EVERY)
    reference = KernelSolvesReference(factor, REFACTOR_EVERY)
    _assert_reference_bytes(factor, reference, working, rng)
    _pivot_both(factor, reference, basis, n, before, repeat, rng)
    _assert_reference_bytes(factor, reference, working, rng)
    assert factor.refactor(basis)
    reference.refactored()
    _assert_reference_bytes(factor, reference, working, rng)
    _pivot_both(factor, reference, basis, n, after, repeat, rng)
    assert factor.etas == reference.etas
    _assert_reference_bytes(factor, reference, working, rng)


def test_refined_solve_raises_when_refinement_does_not_converge():
    for kind, inverse in ((_KernelFactor, "k_inv_t"), (_ExplicitInverse, "b_inv")):
        rng = np.random.default_rng(5)
        n, basis, working = _working_matrix(80, rng)
        factor = kind(columns_of(working), basis.copy(), REFACTOR_EVERY)
        _pivot_randomly(factor, basis, working, n, 30, rng)
        assert factor.refactor(basis) and getattr(factor, inverse).size
        v = rng.standard_normal(80)
        for transpose in (False, True):
            _factor_solve(factor, basis, v, transpose)
        # With twice the (kernel) inverse, each step overshoots by the whole
        # residual: the refinement oscillates instead of converging.
        getattr(factor, inverse)[:] *= 2.0
        for transpose in (False, True):
            with pytest.raises(np.linalg.LinAlgError):
                _factor_solve(factor, basis, v, transpose)


def _planted_kernel(n_col: int, n_bump: int, n_row: int, seed: int) -> np.ndarray:
    """A kernel with ``n_col`` column singletons, a dense bump and ``n_row`` row singletons, shuffled.

    Ordered as planted, it is upper triangular but for the dense
    ``n_bump`` x ``n_bump`` bump, with 0-3 entries right of the diagonal per
    row; its rows and columns are then permuted at random.
    """
    rng = np.random.default_rng(seed)
    k = n_col + n_bump + n_row
    m = np.zeros((k, k))
    for i in range(k - 1):
        later = rng.choice(np.arange(i + 1, k), size=min(k - 1 - i, int(rng.integers(0, 4))), replace=False)
        m[i, later] = rng.uniform(-0.5, 0.5, later.size)
    m[np.arange(k), np.arange(k)] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
    bump = slice(n_col, n_col + n_bump)
    m[bump, bump] = rng.uniform(-1.0, 1.0, (n_bump, n_bump)) + n_bump * np.eye(n_bump)
    return m[np.ix_(rng.permutation(k), rng.permutation(k))]


@settings(max_examples=30)
@given(st.integers(0, 160), st.integers(0, 70), st.integers(0, 60), st.integers(0, 2**32 - 1))
@example(n_col=100, n_bump=0, n_row=40, seed=1)  # no bump
@example(n_col=0, n_bump=60, n_row=0, seed=2)  # fully dense: no singletons
@example(n_col=150, n_bump=54, n_row=51, seed=3)  # solve16-sized
def test_peeled_kernel_inverse_matches_inv(n_col, n_bump, n_row, seed):
    kernel = _planted_kernel(n_col, n_bump, n_row, seed)
    if not kernel.size:
        return
    real_inv = np.linalg.inv
    inverted = []
    rows, cols = np.nonzero(kernel)
    with mock.patch.object(np.linalg, "inv", lambda a: inverted.append(a.shape[0]) or real_inv(a)):
        got = _peeled_inverse_t(kernel.shape[0], rows, cols, kernel[rows, cols])
    want = real_inv(kernel.T)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    assert len(inverted) == 1 and inverted[0] <= n_bump  # only the bump, or less of it


def test_refactor_rejects_singular_peels():
    # Columns 0-6, then the slacks of rows 0-2, the start basis.  No column
    # 0-6 is a unit column, so a basis of three of them is all kernel.
    a = np.array(
        [
            [2.0, 3.0, 2.0, 0.0, 1.0, 1.0, 7.0],
            [0.0, 0.0, 3.0, 0.0, 2.0, 2.0, 4.0],
            [0.0, 0.0, 0.0, 5.0, 1.0, 3.0, 2.0],
        ]
    )
    factor = _KernelFactor(columns_of(np.hstack([a, np.eye(3)])), np.array([7, 8, 9]), REFACTOR_EVERY)
    # The slack of row 2 leaves the kernel rows 0-1: columns 0 and 1 are
    # column singletons on row 0, and rows 0 and 1 row singletons on column 2.
    assert not factor.refactor(np.array([0, 1, 9]))
    assert not factor.refactor(np.array([2, 3, 9]))
    # Column 0 is a column singleton on row 0; the bump, rows 1-2 of columns
    # 4 and 6, is [[2, 4], [1, 2]] and singular, and [[2, 2], [1, 3]] with
    # column 5 is not.
    assert not factor.refactor(np.array([0, 4, 6]))
    assert factor.refactor(np.array([0, 4, 5]))


def test_kernel_factor_rejects_singular_bases():
    # Columns: two equal structural columns, a -1 unit column on row 0, and
    # the slacks of rows 0-2, which make up the start basis.
    a = np.array(
        [
            [2.0, 2.0, -1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    factor = _KernelFactor(columns_of(a), np.array([3, 4, 5]), REFACTOR_EVERY)
    assert factor.refactor(np.array([0, 4, 5]))
    assert not factor.refactor(np.array([0, 1, 5]))  # the kernel [[2, 2], [1, 1]]
    assert not factor.refactor(np.array([3, 2, 5]))  # two unit columns on row 0


def test_singular_kernel_fails_numerically_then_retries(monkeypatch):
    # A kernel inverse that fails makes the attempt a numerical failure, and
    # solve() then runs the cautious retry.
    problem = random_problem(np.random.default_rng(21), 40, 30)
    real_inv = np.linalg.inv
    calls = []

    def fail_first(a):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real_inv(a)

    real_solve = simplex_mod._solve_standardized
    attempts = []

    def record(problem, std, refactor_every, stall_iterations):
        sol = real_solve(problem, std, refactor_every, stall_iterations)
        attempts.append((sol.status, refactor_every))
        return sol

    monkeypatch.setattr(simplex_mod, "_solve_standardized", record)
    monkeypatch.setattr(simplex_mod, "REFACTOR_EVERY", 10)
    with kernel_path(), mock.patch.object(np.linalg, "inv", fail_first):
        sol = solve(problem)
    assert attempts == [("numerical_failure", 10), ("optimal", 20)]
    assert sol.status == "optimal" and sol.residuals.passes(1e-8)


def _assert_paths_agree(problem):
    """Both basis factors: the same status, objectives within 1e-9, KKT within 1e-8."""
    with explicit_inverse():
        explicit = solve(problem)
    with kernel_path():
        kernel = solve(problem)
    assert kernel.status == explicit.status
    if kernel.status == "optimal":
        assert kernel.objective == pytest.approx(explicit.objective, rel=1e-9, abs=1e-9)
        assert kernel.residuals.passes(1e-8) and explicit.residuals.passes(1e-8)
    return kernel


def test_kernel_path_agrees_on_the_fixture(doc8, base_scenario):
    network = apply_scenario(build_network(doc8, 2030), base_scenario, 2030)
    problem = translate(network, phase_out(fleet_from_document(doc8), 2030))
    assert problem.m >= simplex_mod._KERNEL_MIN_ROWS  # the default path is the kernel factor
    optimal = _assert_paths_agree(problem)
    assert optimal.status == "optimal"

    budgeted = add_cost_budget(problem, optimal.objective, 0.05)
    extremal = _assert_paths_agree(budgeted)
    assert extremal.status == "optimal"

    cleanups = []
    with mock.patch.object(mga_mod, "solve", lambda lp: cleanups.append(lp) or solve(lp)):
        _cheapest_representative(budgeted, extremal, "min", problem.c)
    (cleanup,) = cleanups
    assert cleanup.row_labels[-1] == PIN_LABEL
    assert _assert_paths_agree(cleanup).status == "optimal"


def test_kernel_path_agrees_on_random_families():
    rng = np.random.default_rng(17)
    for n, m in [(100, 90), (120, 150)]:
        problem = random_problem(rng, n, m)
        assert _Standardizer(problem).columns.m >= simplex_mod._KERNEL_MIN_ROWS
        _assert_paths_agree(problem)
    for n, m, bounded in [(100, 170, False), (70, 100, True)]:
        for _ in range(2):
            problem = artificial_heavy_problem(rng, n, m, bounded)
            assert _Standardizer(problem).columns.m >= simplex_mod._KERNEL_MIN_ROWS
            _assert_paths_agree(problem)


def test_kernel_path_matches_the_vertex_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(30):
        problem = random_problem(rng, int(rng.integers(2, 7)), int(rng.integers(1, 8)))
        sol = _assert_paths_agree(problem)
        status, best = enumerate_vertices_minimum(problem)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(best, abs=1e-9 * (1 + abs(best)))
            checked += 1
    assert checked >= 20


def test_kernel_path_loads_no_scipy():
    script = """
import sys
from corridor_kit.fixture import fixture_document
from corridor_kit.fleet import fleet_from_document
from corridor_kit.network import build_network
from corridor_kit.pathway import phase_out
from corridor_kit.reduction import reduce_document
from corridor_kit.scenarios import apply_scenario, enumerate_scenarios, load_categories
from corridor_kit import simplex
from corridor_kit.translate import translate

doc = reduce_document(fixture_document(), 8)
scenario = enumerate_scenarios(load_categories())[0]
network = apply_scenario(build_network(doc, 2030), scenario, 2030)
problem = translate(network, phase_out(fleet_from_document(doc), 2030))
assert problem.m >= simplex._KERNEL_MIN_ROWS
solution = simplex.solve(problem)
assert solution.status == "optimal" and solution.inverses > 0
print("scipy" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]
