"""Reference LP solver: primal revised simplex with dual extraction.

The solver is deterministic (fixed tie-breaking, no randomization) and
favours exact vertex solutions over speed: clean basic solutions give
well-defined row duals for downstream shadow-price work.  Every LP takes one
path, the standard form and the simplex core, and ``optimal`` is certified
at one place, the KKT check at the end of each solve.

The core reaches a primal-feasible basis in one of two ways.  An LP on the
kernel factor (``_KERNEL_MIN_ROWS`` standard-form rows and more) whose start
basis holds artificial columns takes the dual simplex start, unless its
caller asks for the primal start: the slack/artificial basis is dual
feasible for the costs clipped at zero, so dual pivots reach primal
feasibility without phase 1.  Every other LP runs phase 1, the primal
simplex on the sum of the artificials.  Phase 2 and the primal restoration
then run on the true costs either way.

Dual sign convention
--------------------
Row duals are reported as marginal values of the optimal objective with
respect to the right-hand side: ``y_i = d(objective)/d(b_i)``.  For a
minimization this means ``y_i <= 0`` on ``<=`` rows, ``y_i >= 0`` on ``>=``
rows and free sign on equalities.  The convention is asserted on every
optimal solve as part of the KKT residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LpProblem

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_NUMERICAL = "numerical_failure"
STATUS_TIMEOUT = "timeout"
_RESTART = "restart"  # not a status: the dual start gave way to phase 1 from the slack basis

# Standard-form rows from which the simplex inverts only the basis kernel
# (_KernelFactor); smaller LPs keep the explicit inverse (_ExplicitInverse).
# The measured crossover: a kernel iteration costs 1.21-1.48x an explicit one
# at 66-71 rows, 0.97-1.29x at 97-104, 0.49-1.15x (5 of 6 LPs below 1) at
# 128-137 and 0.40-0.71x at 159-203 (README, solver notes).  The cut could
# sit lower, but moving it changes the answers of the LPs it moves.
_KERNEL_MIN_ROWS = 140

MAX_ITERATIONS = 50000  # iterations of one solve; a solve that reaches it reports a timeout
PIVOT_TOL = 1e-9  # pricing / pivot tolerance on the equilibrated matrix
FEAS_TOL = 1e-8  # relative primal feasibility threshold: phase 1, and restoration's noise floor and clamp
KKT_TOL = 1e-8  # relative residual required to report "optimal"
AT_BOUND_TOL = 1e-7  # verify_kkt: a variable this close to a bound (relative) is at it
DRIVE_OUT_TOL = 1e-7  # smallest |pivot| that drives a basic artificial out after phase 1
PHASE2_ROUNDS = 6  # rounds of pricing then restoration before phase 2 reports a numerical failure
RESTORE_STEPS = 200  # dual-simplex steps one restoration may take
RESTORE_BORDERLINE = 1e-7  # a negative basic this shallow (relative) with no entering column is left to the clamp
DUAL_RATIO_TIE = 1e-12  # restoration's ratio test: relative gap within which ratios tie
PRICING_NOISE = 1e-12  # pricing's roundoff allowance per unit of 1 + |y|.|A_j|
RAY_REPRICE_NOISE = 1e-9  # the same allowance when a ray's column is re-priced accurately
PRIMAL_RATIO_TIE = 1e-9  # pricing's ratio test: relative gap within which ratios tie
REFACTOR_EVERY = 90  # pricing iterations between two refactorizations
STALL_ITERATIONS = 300  # non-improving pivots before Bland's rule (until progress resumes) or a dual restart


@dataclass
class ResidualReport:
    """Relative KKT residuals of a claimed-optimal primal/dual pair."""

    primal: float
    dual: float
    complementarity: float
    gap: float

    def passes(self, tol: float = KKT_TOL) -> bool:
        return max(self.primal, self.dual, self.complementarity, self.gap) <= tol

    def worst(self) -> float:
        return max(self.primal, self.dual, self.complementarity, self.gap)


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    residuals: ResidualReport | None = None
    basis: tuple | None = None  # opaque basis fingerprint (standard-form column ids)
    phase1_iterations: int = 0  # of ``iterations``, those of the start: the dual start's and phase 1's
    inverses: int = 0  # basis inverses computed (refactorizations with a nonempty kernel on the kernel path)
    start: str = "primal"  # "dual" if the dual simplex start ran to the end, "primal" after phase 1 or no start


def verify_kkt(problem: LpProblem, solution: LpSolution) -> ResidualReport:
    """Recompute relative KKT residuals for a primal/dual pair in original space.

    Residuals are primal infeasibility, dual infeasibility (reduced-cost and
    dual-sign violations), complementary slackness and the relative duality
    gap.  "Relative" means against the solution scale: row violations are
    normalized by ``1 + |b_i| + |A_i||x| + ||x||_inf`` and bound violations by
    ``1 + |bound| + ||x||_inf``, so a residual only counts when it is
    meaningful against the magnitudes the arithmetic actually carried.
    Products with the matrix run over its triplets; no dense copy is built.
    """
    x, y = solution.x, solution.y
    if x is None or y is None:
        raise ValueError("solution carries no primal/dual values to verify")
    if x.size != problem.n or y.size != problem.m:
        raise ValueError("solution dimensions do not match the problem")
    m, n = problem.m, problem.n
    rows, cols, vals = problem.a_rows, problem.a_cols, problem.a_vals
    b, c, lb, ub = problem.b, problem.c, problem.lb, problem.ub
    senses = np.asarray(problem.senses, dtype=str)
    le, ge = senses == "le", senses == "ge"
    fin_lo, fin_hi = np.isfinite(lb), np.isfinite(ub)
    lo, hi = np.where(fin_lo, lb, 0.0), np.where(fin_hi, ub, 0.0)
    lo_scale, hi_scale = 1.0 + np.abs(lo), 1.0 + np.abs(hi)

    ax = np.bincount(rows, weights=vals * x[cols], minlength=m)
    activity = np.bincount(rows, weights=np.abs(vals) * np.abs(x[cols]), minlength=m)
    xscale = float(np.abs(x).max(initial=0.0))

    resid = ax - b
    viol = np.where(le, np.maximum(resid, 0.0), np.where(ge, np.maximum(-resid, 0.0), np.abs(resid)))
    primal = _worst(
        viol / (1.0 + np.abs(b) + activity + xscale),
        ((lo - x) / (lo_scale + xscale))[fin_lo],
        ((x - hi) / (hi_scale + xscale))[fin_hi],
    )

    z = c - np.bincount(cols, weights=vals * y[rows], minlength=n)
    obj = float(c @ x)
    scale = 1.0 + abs(obj)

    y_rel = y / (1.0 + np.abs(y))
    at_lo = fin_lo & (x <= lo + AT_BOUND_TOL * lo_scale)
    at_hi = fin_hi & (x >= hi - AT_BOUND_TOL * hi_scale)
    zj = z / (1.0 + np.abs(c))
    # A fixed variable (at both bounds) admits any sign.
    z_viol = np.where(at_lo, -zj, np.where(at_hi, zj, np.abs(zj)))[~(at_lo & at_hi)]
    dual = _worst(y_rel[le], -y_rel[ge], z_viol)

    slack = np.minimum(np.where(fin_lo, x - lo, np.inf), np.where(fin_hi, hi - x, np.inf))
    bounded = np.isfinite(slack)
    comp = _worst(
        (np.abs(y * resid) / scale)[senses != "eq"],
        np.abs(z[bounded] * slack[bounded]) / scale,
    )

    bound_terms = np.where((z > 0) & fin_lo, z * lo, np.where((z < 0) & fin_hi, z * hi, 0.0))
    dual_obj = float(y @ b) + float(np.sum(bound_terms))
    gap = abs(obj - dual_obj) / (1.0 + abs(obj))

    return ResidualReport(primal=primal, dual=dual, complementarity=comp, gap=gap)


def _worst(*parts: np.ndarray) -> float:
    """Largest entry over all parts, and at least 0."""
    return float(np.concatenate(parts).max(initial=0.0))


class _Columns:
    """A sparse matrix held column by column, the standard revised-simplex storage.

    The nonzeros of column ``j`` are ``rows[start[j]:start[j + 1]]``, in
    ascending order, with their values ``vals``; ``cols`` repeats ``j`` for
    each of them.  Sums over a column or a row run in this order.
    """

    def __init__(self, m: int, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.m, self.n = m, n
        self.rows, self.cols, self.vals = rows, cols, vals
        self.start = np.searchsorted(cols, np.arange(n + 1))

    def gather(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of columns ``cols``: each one's index in ``cols``, and its index in ``rows``/``vals``."""
        first = self.start[cols]
        counts = self.start[cols + 1] - first
        at = np.repeat(np.arange(cols.size), counts)
        return at, np.arange(at.size) + (first - np.cumsum(counts) + counts)[at]

    def dense(self, cols: np.ndarray) -> np.ndarray:
        """Columns ``cols`` as a dense, row-major m x len(cols) block.

        Products with the block round by its layout; ``np.linalg.inv``
        copies its argument into a layout of its own, so an inverse does not
        depend on it.
        """
        at, entries = self.gather(cols)
        block = np.zeros((self.m, cols.size))
        block[self.rows[entries], at] = self.vals[entries]
        return block

    def single_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns with exactly one nonzero: their ids, that entry's row and its value."""
        cols = np.flatnonzero(np.diff(self.start) == 1)
        first = self.start[cols]
        return cols, self.rows[first], self.vals[first]

    def with_units(self, rows: np.ndarray) -> "_Columns":
        """This matrix followed by one column for each of ``rows``, +1 on that row."""
        n, k = self.n, rows.size
        cols = np.concatenate([self.cols, n + np.arange(k)])
        return _Columns(self.m, n + k, np.concatenate([self.rows, rows]), cols, np.concatenate([self.vals, np.ones(k)]))

    def column_dots(self, v: np.ndarray, j: int) -> tuple[float, float]:
        """``v . a_j`` and ``|v| . |a_j|`` for column ``j``."""
        span = slice(self.start[j], self.start[j + 1])
        entries = v[self.rows[span]]
        vals = self.vals[span]
        return float(entries @ vals), float(np.abs(entries) @ np.abs(vals))


class _Standardizer:
    """Conversion to equality form with nonnegative variables and scaled rows.

    The standard form is built straight from the problem's triplets as one
    :class:`_Columns` matrix, ``columns``; every entry is the one a
    row-by-row dense construction would give, and the zeros are left out.
    A gather fills them with +0 where a flipped dense row held -0; no answer
    depends on the sign of a zero.
    """

    def __init__(self, problem: LpProblem):
        n, m = problem.n, problem.m
        lb, ub = problem.lb, problem.ub

        # Shift finite lower bounds to zero; split free variables in two.
        self.shift = np.where(np.isfinite(lb), lb, 0.0)
        self.split = np.flatnonzero(~np.isfinite(lb))
        n_struct = n + self.split.size
        # Finite upper bounds become explicit "le" rows over the shifted variables.
        ub_rows = np.flatnonzero(np.isfinite(ub))
        n_ub = ub_rows.size
        m_std = m + n_ub

        senses = np.concatenate([np.asarray(problem.senses, dtype=str), np.full(n_ub, "le")])
        is_le = senses == "le"
        slack_rows = np.flatnonzero(is_le | (senses == "ge"))
        n_slack = slack_rows.size
        n_std = n_struct + n_slack

        # Every entry: the LP's, their mirrors in the split columns, the
        # upper-bound rows and the slack columns.
        mirror = np.full(n, -1)
        mirror[self.split] = np.arange(n, n_struct)
        a_rows, a_cols, a_vals = problem.a_rows, problem.a_cols, problem.a_vals
        mirrored = mirror[a_cols] >= 0
        ub_pos = m + np.arange(n_ub)
        free = mirror[ub_rows] >= 0
        rows = np.concatenate([a_rows, a_rows[mirrored], ub_pos, ub_pos[free], slack_rows])
        cols = np.concatenate(
            [a_cols, mirror[a_cols[mirrored]], ub_rows, mirror[ub_rows[free]], n_struct + np.arange(n_slack)]
        )
        vals = np.concatenate(
            [a_vals, -a_vals[mirrored], np.ones(n_ub), -np.ones(free.sum()), np.where(is_le[slack_rows], 1.0, -1.0)]
        )
        # Column by column, each duplicate summed from zero in triplet order
        # (as a dense scatter-add sums them), and the zero sums left out.
        key = cols * m_std + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.diff(key, prepend=-1) != 0
        summed = np.zeros(np.count_nonzero(head))
        np.add.at(summed, np.cumsum(head) - 1, vals[order])
        nonzero = summed != 0
        cols, rows = np.divmod(key[head][nonzero], m_std)
        vals = summed[nonzero]

        # b - A shift, each row summed in column order.
        lp = (rows < m) & (cols < n)
        b = problem.b - np.bincount(rows[lp], weights=vals[lp] * self.shift[cols[lp]], minlength=m)
        b = np.concatenate([b, ub[ub_rows] - self.shift[ub_rows]])

        # Row equilibration with powers of two keeps the arithmetic exact.
        structural = cols < n_struct
        mx = np.zeros(m_std)
        np.maximum.at(mx, rows[structural], np.abs(vals[structural]))
        self.row_scale = np.ones(m_std)
        scaled = mx > 0
        self.row_scale[scaled] = 2.0 ** np.round(np.log2(mx[scaled]))
        vals[structural] /= self.row_scale[rows[structural]]
        b_arr = b / self.row_scale
        self.c_std = np.concatenate([problem.c, -problem.c[self.split], np.zeros(n_slack)])

        # Flip rows so the right-hand side is nonnegative.
        self.flip = np.where(b_arr < 0, -1.0, 1.0)
        vals *= self.flip[rows]
        self.columns = _Columns(m_std, n_std, rows, cols, vals)
        self.b_std = b_arr * self.flip
        self.n_orig, self.m_orig = n, m

    def recover_x(self, x_std: np.ndarray) -> np.ndarray:
        x = x_std[: self.n_orig].copy()
        x[self.split] -= x_std[self.n_orig : self.n_orig + self.split.size]
        return x + self.shift

    def recover_y(self, y_std: np.ndarray) -> np.ndarray:
        y = y_std * self.flip / self.row_scale
        return y[: self.m_orig]


def solve(problem: LpProblem, primal_start: bool = False) -> LpSolution:
    """Solve the problem with the reference revised simplex.

    Every LP, one without rows or without columns too, goes through the
    standard form and the one simplex core, once, and a solve reports
    ``optimal`` only once :func:`verify_kkt` has passed it.  With
    ``primal_start`` the core runs phase 1 even where it would take the dual
    start (see :class:`_SimplexCore`).  Infeasible and
    unbounded models, iteration-cap timeouts and failed residual checks are
    reported through the solution status, never raised; malformed input
    (non-finite coefficients, NaN or wrong-side infinite bounds) raises
    ``ValueError``.  A singular refactorization, a failed restoration or
    final residuals that miss the tolerance end the solve
    ``numerical_failure``, with the iterations and inverses it took.
    """
    for arr in (problem.c, problem.a_vals, problem.b):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coefficients in LP")
    # Every comparison with NaN is false, so this also rejects NaN bounds.
    if not (np.all(problem.lb < np.inf) and np.all(problem.ub > -np.inf)):
        raise ValueError("NaN bound, lower bound +inf or upper bound -inf in LP")

    return _solve_standardized(problem, _Standardizer(problem), primal_start)


def _solve_standardized(problem: LpProblem, std: _Standardizer, primal_start: bool) -> LpSolution:
    core = _SimplexCore(std.columns, std.b_std, std.c_std, primal_start)
    status, iterations = core.run()
    counts = dict(
        iterations=iterations, phase1_iterations=core.phase1_iterations, inverses=core.inverses, start=core.start
    )

    if status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_TIMEOUT, STATUS_NUMERICAL):
        return LpSolution(status=status, **counts)

    # Final polish.  An optimal core ends on a primal restoration that made no
    # pivot, so its basic solution is already the refined, clamped solve of
    # the final basis; the duals come from the factor's refined solve with the
    # transposed basis.  A redundant row can keep an artificial column basic
    # at zero; such a column pins that row's dual to zero.
    basis = core.basis
    n_std = std.columns.n
    structural = basis < n_std
    cost_basic = np.zeros(basis.size)
    cost_basic[structural] = std.c_std[basis[structural]]
    try:
        y_std = _factor_solve(core.factor, basis, cost_basic, transpose=True)
    except np.linalg.LinAlgError:
        return LpSolution(status=STATUS_NUMERICAL, **counts)
    x_std = np.zeros(n_std)
    x_std[basis[structural]] = core.x_b[structural]

    sol = LpSolution(
        status=STATUS_OPTIMAL,
        x=std.recover_x(x_std),
        y=std.recover_y(y_std),
        basis=tuple(int(j) for j in basis),
        **counts,
    )
    sol.objective = float(problem.c @ sol.x)
    sol.residuals = verify_kkt(problem, sol)
    if not sol.residuals.passes(KKT_TOL):
        sol.status = STATUS_NUMERICAL
    return sol


def _slack_basis(a: _Columns, c: np.ndarray) -> np.ndarray:
    """Initial basis positions held by usable slack columns, -1 elsewhere.

    A usable slack is a zero-cost unit column whose one entry is +1; where
    several share a row, the lowest column index takes it.
    """
    basis = np.full(a.m, -1, dtype=np.int64)
    cols, rows, vals = a.single_entries()
    usable = (vals == 1.0) & (c[cols] == 0.0)
    claimed, first = np.unique(rows[usable], return_index=True)
    basis[claimed] = cols[usable][first]
    return basis


def _unit_columns(work: _Columns) -> tuple[np.ndarray, np.ndarray]:
    """Row and sign of each signed unit column of the working matrix; sign 0 for the others."""
    cols, rows, vals = work.single_entries()
    unit = np.abs(vals) == 1.0
    unit_row = np.zeros(work.n, dtype=np.int64)
    unit_sign = np.zeros(work.n)
    unit_row[cols[unit]], unit_sign[cols[unit]] = rows[unit], vals[unit]
    return unit_row, unit_sign


class _ExplicitInverse:
    """The basis inverse held explicitly, for LPs below ``_KERNEL_MIN_ROWS`` rows.

    The working matrix is held densely.  Pricing is one product with it, an
    FTRAN one product of the inverse with one of its columns, a pivot a
    rank-1 update of the m x m inverse and a refactorization the inverse of
    the whole basis, the one dense basis this factor gathers.
    """

    def __init__(self, work: _Columns, basis: np.ndarray, etas: int):
        self.work, self.m = work, work.m
        self.inverses = 0  # basis inverses computed
        self.dense = work.dense(np.arange(work.n))
        self.abs_dense = np.abs(self.dense)
        self.b_inv = np.eye(self.m)  # the start basis is the identity

    def times_a(self, v: np.ndarray, magnitude: bool = False) -> np.ndarray:
        """``v @ A`` over the working matrix, or ``v @ |A|`` for a nonnegative ``v`` with ``magnitude``."""
        return v @ (self.abs_dense if magnitude else self.dense)

    def refactor(self, basis: np.ndarray) -> bool:
        """Invert the basis afresh; False if it is singular."""
        self.inverses += 1
        try:
            self.b_inv = np.linalg.inv(self.work.dense(basis))
        except np.linalg.LinAlgError:
            return False
        return True

    def ftran(self, j: int | np.ndarray) -> np.ndarray:
        """``B^-1 a_j`` for working column ``j``, or ``B^-1 v`` for a vector."""
        return self.b_inv @ (j if isinstance(j, np.ndarray) else self.dense[:, j])

    def btran(self, v: int | np.ndarray) -> np.ndarray:
        """``v B^-1``, or row ``v`` of ``B^-1`` for a basis position."""
        if isinstance(v, np.ndarray):
            return v @ self.b_inv
        return self.b_inv[v]

    def update(self, row: int, d: np.ndarray):
        """Replace the basic column at ``row`` by the one whose FTRAN is ``d``."""
        piv = d[row]
        row_r = self.b_inv[row].copy()
        self.b_inv -= (d / piv)[:, None] * row_r
        self.b_inv[row] = row_r / piv


def _singleton_rounds(major: np.ndarray, minor: np.ndarray, major_live: np.ndarray, minor_live: np.ndarray):
    """Peel the lines of one direction that hold a single live entry, round by round.

    ``major`` and ``minor`` are the entries' line ids in the two directions
    (columns and rows for column singletons).  Each round takes every major
    line with one entry on a live minor line, pivots it on that entry and
    retires both lines in ``major_live`` and ``minor_live``; retiring the
    minor lines makes the next round's singletons.  Returns the rounds as
    ``(major ids, minor ids)`` and the entries left on live minor lines.
    Raises ``LinAlgError`` when two singletons of a round share a minor line.
    """
    rounds = []
    live = np.count_nonzero(minor_live)
    while True:
        keep = minor_live[minor]
        major, minor = major[keep], minor[keep]
        single = np.flatnonzero(np.bincount(major, minlength=major_live.size)[major] == 1)
        if not single.size:
            return rounds, major, minor
        lead, pivot = major[single], minor[single]
        major_live[lead] = minor_live[pivot] = False
        live -= single.size
        if np.count_nonzero(minor_live) != live:
            raise np.linalg.LinAlgError("two singletons on one line")
        rounds.append((lead, pivot))


def _peeled_inverse_t(k: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``(K^-1)^T`` of the k x k kernel with entries ``vals`` at ``(rows, cols)``, inverting densely only its bump.

    Column singletons are peeled first, then row singletons (Suhl & Suhl
    1990).  Ordered in levels, the column-singleton rounds in peel order, the
    bump, then the row-singleton rounds in reverse peel order, the permuted
    kernel ``M`` is block upper triangular, and each round's diagonal block
    is diagonal.  ``M^-1`` is assembled by block back-substitution, from the
    last level up, one dense product per level; only the bump goes through
    ``np.linalg.inv``.  Raises ``LinAlgError`` if the kernel is singular: two
    singletons claim one row or one column, or the bump is singular.
    """
    row_live, col_live = np.ones(k, dtype=bool), np.ones(k, dtype=bool)
    col_rounds, live_cols, live_rows = _singleton_rounds(cols, rows, col_live, row_live)
    row_rounds, _, _ = _singleton_rounds(live_rows, live_cols, row_live, col_live)
    bump = (np.flatnonzero(row_live), np.flatnonzero(col_live))
    levels = [(r, c) for c, r in col_rounds] + [bump] + row_rounds[::-1]
    # Each kernel row's and column's position in M.
    at_r, at_c = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    at_r[np.concatenate([r for r, _ in levels])] = np.arange(k)
    at_c[np.concatenate([c for _, c in levels])] = np.arange(k)
    permuted = np.zeros((k, k))
    permuted[at_r[rows], at_c[cols]] = vals
    inv = np.zeros((k, k))  # M^-1, filled from the last level up
    end = k
    for i in range(len(levels) - 1, -1, -1):
        start = end - levels[i][0].size
        diagonal = permuted[start:end, start:end]
        upper = permuted[start:end, end:]
        used = np.flatnonzero(upper.any(axis=0))
        rest = -(upper[:, used] @ inv[end + used, end:])
        if i == len(col_rounds):  # the bump
            d_inv = np.linalg.inv(diagonal)
            inv[start:end, start:end] = d_inv
            inv[start:end, end:] = d_inv @ rest
        else:
            d_inv = 1.0 / np.diagonal(diagonal)
            np.fill_diagonal(inv[start:end, start:end], d_inv)
            inv[start:end, end:] = d_inv[:, None] * rest
        end = start
    return np.ascontiguousarray(inv[at_c][:, at_r].T)  # entry (s, t) is M^-1[at_c[t], at_r[s]]


class _KernelFactor:
    """The inverse of the basis kernel and a product-form eta file, for larger LPs.

    Every basic column that is a signed unit column (a slack, an artificial or
    a unit structural column) pivots on its own row, so, reordered, the basis
    is block triangular: ``[[K, 0], [C, D]]``.  ``D`` holds the signs of the
    unit columns on their rows ``R_U``; the kernel ``K = B[R_S, S]`` is the
    rest of the basis on the remaining rows, and the coupling block
    ``C = B[R_U, S]`` is kept as triplets.  A refactorization inverts only
    ``K``, and of ``K`` densely only the bump left once its singletons are
    peeled off (:func:`_peeled_inverse_t`).  Pricing runs over the working
    matrix's triplets: the kernel path gathers no dense m x m basis.

    Between refactorizations each pivot appends one eta to a product-form
    file, which is applied to a vector in one step.  A pivot on position
    ``r`` with FTRAN column ``d`` sets entry ``r`` to ``t = w_r / d_r`` and
    subtracts ``d_j t`` from every other entry ``j``.  Over ``k`` pivots the
    values ``t`` solve a k x k lower triangular system ``L t = w[r]`` (the
    right-hand side only for the first pivot on each position), and the
    result is ``w`` with its pivoted entries zeroed plus ``N t``: column ``i``
    of ``N`` is ``-d_i`` with 1 on its pivot row, and 0 on the rows a later
    pivot sets again.  ``L^-1`` is kept explicitly and grows by one row per
    pivot.  A pivoted entry thus takes its value from its own pivot, never as
    the difference of two large terms, whose rounding would leave noise where
    a degenerate position should read exactly zero.  The first pivots are
    also listed apart, position and eta index, for the right-hand side.

    Each refactorization also lays out every working column's entries
    kernel rows first, then unit rows, each part in row order, with each
    entry's slot among the kernel or the unit rows.  FTRAN of a working
    column then reads two slices and skips the coupling block when the
    column has no kernel entry.
    """

    def __init__(self, work: _Columns, basis: np.ndarray, etas: int):
        self.work = work
        m = self.m = work.m
        self.inverses = 0  # refactorizations with a nonempty kernel
        self.abs_vals = np.abs(work.vals)
        self.unit_row, self.unit_sign = _unit_columns(work)
        self.entry_col_start = work.start[work.cols]  # each entry's column start
        self.col_start = work.start.tolist()  # FTRAN reads a column's bounds as Python ints
        # The eta file: N transposed (one row per pivot), L^-1 and the pivot
        # positions; the first pivot on each position, its position and eta.
        self.eta_n = np.zeros((etas, m))
        self.eta_l_inv = np.zeros((etas, etas))
        self.eta_pos = np.zeros(etas, dtype=np.int64)
        self.first_pos = np.zeros(etas, dtype=np.int64)
        self.first_eta = np.zeros(etas, dtype=np.int64)
        self.pivoted = np.zeros(m, dtype=bool)
        self.refactor(basis)  # all unit columns: no inverse to compute

    def times_a(self, v: np.ndarray, magnitude: bool = False) -> np.ndarray:
        """``v @ A`` over the working matrix, or ``v @ |A|`` for a nonnegative ``v`` with ``magnitude``."""
        work = self.work
        weights = v[work.rows]
        weights *= self.abs_vals if magnitude else work.vals
        return np.bincount(work.cols, weights=weights, minlength=work.n)

    def refactor(self, basis: np.ndarray) -> bool:
        """Split the basis into unit columns and the kernel, and invert the kernel.

        False if the basis is singular: two unit columns on one row, or a
        singular kernel (see :func:`_peeled_inverse_t`).
        """
        m = self.m
        self.etas = self.firsts = 0
        self.pivoted[:] = False
        sign = self.unit_sign[basis]
        unit = sign != 0.0
        u_pos, s_pos = np.flatnonzero(unit), np.flatnonzero(~unit)
        u_rows = self.unit_row[basis[u_pos]]
        kernel_row = np.ones(m, dtype=bool)
        kernel_row[u_rows] = False
        s_rows = np.flatnonzero(kernel_row)
        if s_rows.size != s_pos.size:
            return False
        # Each row's index among the kernel rows or among the unit rows.
        row_slot = np.empty(m, dtype=np.int64)
        row_slot[s_rows] = np.arange(s_rows.size)
        row_slot[u_rows] = np.arange(u_rows.size)
        # The kernel columns' entries, split into K and the coupling block C.
        work = self.work
        col, entries = work.gather(basis[s_pos])
        rows, vals = work.rows[entries], work.vals[entries]
        slot, in_k = row_slot[rows], kernel_row[rows]
        if s_pos.size:
            self.inverses += 1
            try:
                self.k_inv_t = _peeled_inverse_t(s_pos.size, slot[in_k], col[in_k], vals[in_k])
            except np.linalg.LinAlgError:
                return False
        else:
            self.k_inv_t = np.zeros((0, 0))
        coupled = np.flatnonzero(~in_k)
        coupled = coupled[np.argsort(slot[coupled], kind="stable")]  # row by row
        self.c_row, self.c_col, self.c_val = slot[coupled], col[coupled], vals[coupled]
        self.u_pos, self.u_rows, self.u_sign = u_pos, u_rows, sign[u_pos]
        self.s_pos, self.s_rows = s_pos, s_rows
        self._split_columns(kernel_row, row_slot)
        return True

    def _split_columns(self, kernel_row: np.ndarray, row_slot: np.ndarray):
        """Lay out each working column's kernel-row entries before its unit-row entries.

        Column ``j``'s kernel entries become ``f_vals[start[j]:f_split[j]]``
        and its unit entries ``f_vals[f_split[j]:start[j + 1]]``, each part
        in row order, with each entry's slot in ``f_slot``.  The partition is
        stable within each column: an entry moves by the count of entries of
        the other part that it passes.  ``f_split`` is a list, as FTRAN
        reads one entry of it at a time.
        """
        work = self.work
        if not self.s_pos.size:  # all unit rows: the working order as it is
            self.f_vals, self.f_slot, self.f_split = work.vals, row_slot[work.rows], self.col_start
            return
        in_k = kernel_row[work.rows]
        before = np.zeros(in_k.size + 1, dtype=np.int64)  # kernel entries before each entry
        np.cumsum(in_k, out=before[1:])
        col_before = before[work.start]  # kernel entries before each column
        before = before[:-1]
        at_kernel = self.entry_col_start + (before - col_before[work.cols])
        at_unit = np.arange(in_k.size) + (col_before[work.cols + 1] - before)
        at = np.where(in_k, at_kernel, at_unit)
        self.f_vals = np.empty_like(work.vals)
        self.f_vals[at] = work.vals
        self.f_slot = np.empty_like(work.rows)
        self.f_slot[at] = row_slot[work.rows]
        self.f_split = (work.start[:-1] + np.diff(col_before)).tolist()

    def ftran(self, j: int | np.ndarray) -> np.ndarray:
        """``B^-1 a_j`` for working column ``j``, or ``B^-1 v`` for a vector."""
        # An empty coupling block C subtracts +0 from the unit part, which
        # leaves every value as it is, so its bincount is skipped.
        x = np.empty(self.m)
        if isinstance(j, np.ndarray):
            x_s = j[self.s_rows] @ self.k_inv_t
            a_u = j[self.u_rows]
            if self.c_row.size:
                a_u -= np.bincount(self.c_row, weights=self.c_val * x_s[self.c_col], minlength=a_u.size)
            x[self.s_pos] = x_s
        else:
            start, split, end = self.col_start[j], self.f_split[j], self.col_start[j + 1]
            a_u = np.zeros(self.u_pos.size)
            if split < end:
                a_u[self.f_slot[split:end]] = self.f_vals[split:end]
            if start < split:
                x_s = self.f_vals[start:split] @ self.k_inv_t.take(self.f_slot[start:split], axis=0)
                if self.c_row.size:
                    a_u -= np.bincount(self.c_row, weights=self.c_val * x_s[self.c_col], minlength=a_u.size)
                x[self.s_pos] = x_s
            else:  # no kernel entry: x_s is +0, and its coupling would subtract +0
                x[self.s_pos] = 0.0
        x[self.u_pos] = a_u * self.u_sign
        k = self.etas
        if k:
            pos = self.eta_pos[:k]
            first = self.first_pos[: self.firsts]
            rhs = np.zeros(k)
            rhs[self.first_eta[: self.firsts]] = x[first]
            t = self.eta_l_inv[:k, :k] @ rhs
            x[pos] = 0.0
            x += t @ self.eta_n[:k]
        return x

    def btran(self, v: int | np.ndarray) -> np.ndarray:
        """``v B^-1``, or row ``v`` of ``B^-1`` for a basis position.

        For a position, the eta part ``N^T e_pos`` is column ``pos`` of ``N``:
        one column read instead of a k x m product with a unit vector.  Adding
        +0.0 maps -0.0 to +0.0, as that product's sum does, so the bytes are
        the same.
        """
        k = self.etas
        if isinstance(v, np.ndarray):
            if k:
                v = v.copy()
                s = self.eta_n[:k] @ v
        else:
            pos, v = v, np.zeros(self.m)
            v[pos] = 1.0
            if k:
                s = self.eta_n[:k, pos] + 0.0
        if k:
            s = s @ self.eta_l_inv[:k, :k]
            # Every pivoted position has one first pivot.
            v[self.first_pos[: self.firsts]] = s[self.first_eta[: self.firsts]]
        y = np.empty(self.m)
        y_u = v[self.u_pos] * self.u_sign
        y[self.u_rows] = y_u
        v_s = v[self.s_pos]
        if self.c_col.size:  # as in FTRAN, an empty C would subtract +0
            v_s -= np.bincount(self.c_col, weights=self.c_val * y_u[self.c_row], minlength=v_s.size)
        y[self.s_rows] = self.k_inv_t @ v_s
        return y

    def update(self, row: int, d: np.ndarray):
        """Replace the basic column at ``row`` by the one whose FTRAN is ``d``."""
        k = self.etas
        if k == self.eta_pos.size:  # more pivots than the file holds since the last refactorization
            self._grow()
        piv = d[row]
        n_t = self.eta_n
        if k:
            # Row k of L is -N[row, :k]; L^-1 grows by the matching row.
            np.divide(n_t[:k, row] @ self.eta_l_inv[:k, :k], piv, out=self.eta_l_inv[k, :k])
            n_t[:k, row] = 0.0
        self.eta_l_inv[k, k] = 1.0 / piv
        np.negative(d, out=n_t[k])
        n_t[k, row] = 1.0
        self.eta_pos[k] = row
        if not self.pivoted[row]:
            self.pivoted[row] = True
            self.first_pos[self.firsts], self.first_eta[self.firsts] = row, k
            self.firsts += 1
        self.etas = k + 1

    def _grow(self):
        k = self.eta_pos.size
        self.eta_n = np.concatenate([self.eta_n, np.zeros((k, self.m))])
        self.eta_pos, self.first_pos, self.first_eta = (
            np.concatenate([a, np.zeros(k, dtype=np.int64)]) for a in (self.eta_pos, self.first_pos, self.first_eta)
        )
        l_inv = np.zeros((2 * k, 2 * k))
        l_inv[:k, :k] = self.eta_l_inv
        self.eta_l_inv = l_inv


def _factor_solve(factor, basis: np.ndarray, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``B^-1 v`` (``B^-T v`` with ``transpose``) for the factor's current basis, refined twice.

    FTRAN (BTRAN) with the factor, then two steps of iterative refinement
    with the residual ``v - B x`` over the basis columns' triplets in the
    factor's working matrix.  Raises ``LinAlgError`` if the refined residual
    misses ``KKT_TOL`` against the size of ``v`` and ``|B| |x|``.
    """
    work = factor.work
    at, entries = work.gather(basis)
    rows, vals = work.rows[entries], work.vals[entries]
    if transpose:
        apply, into, out = factor.btran, at, rows
    else:
        apply, into, out = factor.ftran, rows, at

    def residual(x):
        product = vals * x[out]
        return v - np.bincount(into, weights=product, minlength=work.m), product

    x = apply(v)
    r, product = residual(x)
    for _ in range(2):
        if not np.any(r):
            break
        x = x + apply(r)
        r, product = residual(x)
    activity = np.bincount(into, weights=np.abs(product), minlength=work.m)
    if not np.all(np.abs(r) <= KKT_TOL * (1.0 + np.abs(v) + activity)):
        raise np.linalg.LinAlgError("refined solve did not converge")
    return x


class _SimplexCore:
    """Revised simplex on equality form ``A x = b, x >= 0, b >= 0``: a start, then phase 2.

    The working matrix ``work`` is ``A`` followed by one artificial column
    for each row the slack basis leaves uncovered, appended once.  The start
    drives the artificials out of the basis, or to zero in it, and leaves a
    primal-feasible basis.  On the kernel factor, unless ``primal_start``,
    it is the dual simplex (:meth:`_dual_start`): the costs clipped at zero
    make the slack/artificial basis dual feasible, and no phase-1 objective
    is needed.  The explicit path keeps phase 1, so its bytes stay those of
    the byte oracle, and ``primal_start`` keeps it for callers whose answers
    depend on which of several optimal vertices phase 1 leads to.  A dual
    start that meets a ray within phase 1's tolerance, or stalls, restarts on
    phase 1 from the slack basis.  Phase 2 and the primal restoration follow
    with the true costs.  ``start`` reports the start that finished.  A primal
    pass stalls as the dual start does, after ``STALL_ITERATIONS`` pivots
    without progress, and then prices by Bland's rule until progress resumes.
    Every use of the basis inverse and every pricing product goes through a
    basis factor: :class:`_ExplicitInverse` below ``_KERNEL_MIN_ROWS`` rows
    and :class:`_KernelFactor` from there on.  A factor computes ``ftran(j)``
    (``B^-1 a_j``), ``btran(v)`` (``v B^-1``; a row of ``B^-1`` is
    ``btran(pos)``), ``update(row, d)`` after a pivot and ``refactor(basis)``,
    and prices with ``times_a``.  The solves of the primal restoration, the
    final polish and the ray check are one function on either factor,
    :func:`_factor_solve`: its FTRAN or BTRAN, refined with residuals over the
    working matrix's triplets.  A factor starts on the slack/artificial basis,
    the identity, with room for ``REFACTOR_EVERY`` etas.  Each pass reads
    ``REFACTOR_EVERY`` and ``STALL_ITERATIONS`` from the module as it starts.
    """

    def __init__(self, a: _Columns, b: np.ndarray, c: np.ndarray, primal_start: bool = False):
        self.a = a
        self.b = b
        self.c = c
        self.primal_start = primal_start
        self.m, self.n = a.m, a.n
        self.iterations = 0
        self.phase1_iterations = 0
        self.start = "primal"

    @property
    def inverses(self) -> int:
        """Basis inverses computed (refactorizations with a nonempty kernel on the kernel path)."""
        return self.factor.inverses

    def run(self) -> tuple[str, int]:
        m, n = self.m, self.n

        # Initial basis: reuse slack columns where they enter positively,
        # add artificial columns elsewhere.  It is the identity, so the start
        # factor and basic solution need no factorization.
        basis = _slack_basis(self.a, self.c)
        missing = np.flatnonzero(basis == -1)
        n_art = missing.size
        basis[missing] = n + np.arange(n_art)
        self.basis = basis
        self.work = self.a.with_units(missing)
        factor = _ExplicitInverse if m < _KERNEL_MIN_ROWS else _KernelFactor
        self.factor = factor(self.work, basis, REFACTOR_EVERY)
        n_work = n + n_art
        self.is_artificial = np.zeros(n_work, dtype=bool)
        self.is_artificial[n:] = True
        self.allowed = np.ones(n_work, dtype=bool)
        self.x_b = self.b.copy()

        feas_scale = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)

        # The start: the dual simplex on the kernel factor, else phase 1.
        if n_art:
            status = _RESTART
            if factor is _KernelFactor and not self.primal_start:
                status = self._dual_start(feas_scale)
            if status == _RESTART:
                status = self._phase1(feas_scale)
            self.phase1_iterations = self.iterations
            if status is not None:
                return status, self.iterations
            self._drive_out_artificials()
        self.allowed &= ~self.is_artificial

        # Phase 2: the real objective.  Degenerate churn can leave the final
        # basis dual feasible but slightly primal infeasible (drift hidden by
        # clamping); dual-simplex restoration steps repair that exactly, then
        # pricing resumes until both sides hold.
        cost = np.concatenate([self.c, np.zeros(n_art)])
        for _ in range(PHASE2_ROUNDS):
            status = self._iterate(cost, phase=2)
            if status is not None:
                return status, self.iterations
            feasible, pivoted = self._restore_primal(cost)
            if feasible and not pivoted:
                return STATUS_OPTIMAL, self.iterations
            if not feasible:
                return STATUS_NUMERICAL, self.iterations
        return STATUS_NUMERICAL, self.iterations

    def _phase1(self, feas_scale: float) -> str | None:
        """Minimize the sum of the artificials; None once it is within ``FEAS_TOL``, else a status."""
        phase1_cost = np.zeros(self.work.n)
        phase1_cost[self.n :] = 1.0
        status = self._iterate(phase1_cost, phase=1)
        if status is not None:
            return status
        art_mask = self.is_artificial[self.basis]
        infeas = float(self.x_b[art_mask].sum()) if art_mask.any() else 0.0
        if infeas > FEAS_TOL * feas_scale:
            return STATUS_INFEASIBLE
        return None

    def _dual_start(self, feas_scale: float) -> str | None:
        """Dual simplex from the slack/artificial basis to a primal-feasible one.

        The costs are ``max(c, 0)`` and 0 on the artificials, so the start
        basis, of zero-cost columns only, is dual feasible; an artificial is
        a variable fixed at zero.  Each iteration the basic with the largest
        infeasibility above ``FEAS_TOL * feas_scale`` leaves: a negative
        basic value, or a basic artificial away from zero.  Its row of
        ``B^-1 A`` (one BTRAN, one ``times_a``) gives the dual ratio test
        over the allowed nonbasic structural columns whose entry drives the
        leaving value to zero, ties within ``DUAL_RATIO_TIE`` going to the
        largest entry.  The reduced costs are updated by that row, and
        recomputed at each refactorization.  Returns None once no basic is
        infeasible (the basic values then clamped at zero), a final status,
        or ``_RESTART`` after resetting the slack basis for phase 1: when a
        ray on a fresh factorization leaves a shortfall that phase 1 would
        accept, or the dual objective has not risen for ``STALL_ITERATIONS``
        pivots.
        """
        n, basis, factor = self.n, self.basis, self.factor
        ftran, btran, times_a = factor.ftran, factor.btran, factor.times_a
        start_basis = basis.copy()
        cost = np.zeros(self.work.n)
        np.maximum(self.c, 0.0, out=cost[:n])
        # Kept from pivot to pivot, not re-derived from the basis: the
        # columns that may enter (allowed, structural and nonbasic), which
        # basics are artificial, and the basic costs.
        may_enter = self.allowed & ~self.is_artificial
        enters = may_enter.copy()
        enters[basis] = False
        art_basic = self.is_artificial[basis]
        cost_b = cost[basis]
        infeas = np.empty(self.m)
        eligible = np.empty(self.work.n, dtype=bool)
        floor = FEAS_TOL * feas_scale
        refactor_every, stall_iterations = REFACTOR_EVERY, STALL_ITERATIONS
        self.start = "dual"
        z = cost - times_a(btran(cost_b))
        since_refactor, fresh = 0, True
        best_obj, stall = float(cost_b @ self.x_b), 0
        while True:
            if since_refactor >= refactor_every:
                if not self._refactor():
                    return STATUS_NUMERICAL
                z = cost - times_a(btran(cost_b))
                since_refactor, fresh = 0, True
            x_b = self.x_b
            # A negative basic is infeasible, and so is an artificial away from zero.
            np.negative(x_b, out=infeas)
            np.abs(x_b, out=infeas, where=art_basic)
            row = int(infeas.argmax())
            if infeas[row] <= floor:
                np.maximum(x_b, 0.0, out=x_b)
                return None
            if self.iterations >= MAX_ITERATIONS:
                return STATUS_TIMEOUT
            self.iterations += 1
            alpha = times_a(btran(row))
            # Entering at a positive value moves x_b[row] by -alpha_j per unit;
            # signed, the row's entries that drive x_b[row] to zero are positive.
            if not x_b[row] > 0.0:
                np.negative(alpha, out=alpha)
            np.greater(alpha, PIVOT_TOL, out=eligible)
            eligible &= enters
            cand = eligible.nonzero()[0]
            if not cand.size:
                if not fresh:  # rule out factorization drift first
                    since_refactor = refactor_every
                    continue
                held = art_basic.copy()
                held[row] = False
                peak = float(np.abs(alpha[n:]).max(initial=0.0))
                shortfall = (abs(x_b[row]) / peak if peak > 0.0 else np.inf) + float(np.abs(x_b[held]).sum())
                if shortfall > floor:
                    return STATUS_INFEASIBLE
                return self._restart(start_basis)
            ratios = np.maximum(z[cand], 0.0) / alpha[cand]
            best = float(ratios.min())
            tie = cand[ratios <= best + DUAL_RATIO_TIE * (1.0 + abs(best))]
            j = int(tie[0]) if tie.size == 1 else int(tie[np.argmax(np.abs(alpha[tie]))])
            # The signs of z[j] / alpha[j] and alpha cancel in their product.
            z -= (z[j] / alpha[j]) * alpha
            z[j] = 0.0
            leaving = basis[row]
            self._pivot(row, j, ftran(j), clamp=False)
            enters[leaving], enters[j] = may_enter[leaving], False
            art_basic[row], cost_b[row] = False, cost[j]  # j is structural
            since_refactor, fresh = since_refactor + 1, False
            obj = float(cost_b @ self.x_b)
            if obj > best_obj + PIVOT_TOL * (1.0 + abs(best_obj)):
                best_obj, stall = obj, 0
            else:
                stall += 1
                if stall >= stall_iterations:
                    return self._restart(start_basis)

    def _restart(self, start_basis: np.ndarray) -> str:
        """Reset the slack/artificial basis for phase 1; the iterations so far still count."""
        self.basis[:] = start_basis
        self.factor.refactor(self.basis)  # unit columns only: no inverse computed
        self.x_b = self.b.copy()
        self.allowed[:] = True
        self.start = "primal"
        return _RESTART

    def _refactor(self) -> bool:
        if not self.factor.refactor(self.basis):
            return False
        self.x_b = self.factor.ftran(self.b)
        return True

    def _drive_out_artificials(self):
        """Pivot basic artificials out wherever a structural pivot exists."""
        eligible = self.allowed & ~self.is_artificial
        eligible[self.basis] = False
        # A pivot replaces only its own position's artificial, so the others stay to visit.
        for pos in np.flatnonzero(self.is_artificial[self.basis]).tolist():
            row = self.factor.times_a(self.factor.btran(pos))
            candidates = np.flatnonzero((np.abs(row) > DRIVE_OUT_TOL) & eligible)
            if not candidates.size:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[0])
            self._pivot(pos, j, self.factor.ftran(j))
            eligible[j] = False

    def _pivot(self, row: int, col: int, d: np.ndarray, clamp: bool = True):
        piv = d[row]
        leaving = self.basis[row]
        if self.is_artificial[leaving]:
            self.allowed[leaving] = False
        theta = self.x_b[row] / piv
        self.x_b -= theta * d
        self.x_b[row] = theta
        if clamp:
            np.maximum(self.x_b, 0.0, out=self.x_b)
        self.factor.update(row, d)
        self.basis[row] = col

    def _restore_primal(self, cost: np.ndarray) -> tuple[bool, bool]:
        """Repair exact primal infeasibility of a priced-optimal basis.

        Solves for the basic solution afresh with the factor's refined solve,
        without clamping, then runs dual-simplex steps (leaving: the most
        negative basic, or the basic whose clamp would break a row; entering:
        dual ratio test, which preserves the nonnegative reduced costs pricing
        just established) until the exact basic solution is feasible.  The
        factor is refactorized only once a step is needed.
        Returns (feasible, pivoted).
        """
        if not self.m:
            return True, False  # no rows: nothing to restore
        try:
            self.x_b = _factor_solve(self.factor, self.basis, self.b)
        except np.linalg.LinAlgError:
            return False, False
        # Negativity below the solution-scale noise floor is genuine basis
        # infeasibility left by degenerate churn; anything shallower is solve
        # noise the final clamp absorbs, unless clamping it breaks a row.
        scale = 1.0 + float(np.max(np.abs(self.x_b)))
        pivoted = False
        for _ in range(RESTORE_STEPS):
            row = int(np.argmin(self.x_b))
            value = float(self.x_b[row])
            if value >= -FEAS_TOL * scale:
                row = self._clamp_breaks_row()
                if row is None:
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    return True, pivoted
                value = float(self.x_b[row])
            if not pivoted and not self.factor.refactor(self.basis):
                return False, False
            y = self.factor.btran(cost[self.basis])
            z = cost - self.factor.times_a(y)
            row_r = self.factor.times_a(self.factor.btran(row))
            eligible = (row_r < -PIVOT_TOL) & self.allowed
            eligible[self.basis] = False
            cand = np.nonzero(eligible)[0]
            if cand.size == 0:
                if value >= -RESTORE_BORDERLINE * scale:
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    return True, pivoted
                return False, pivoted
            ratios = np.maximum(z[cand], 0.0) / (-row_r[cand])
            best = float(ratios.min())
            tie = cand[ratios <= best + DUAL_RATIO_TIE * (1.0 + abs(best))]
            j = int(tie.min())
            self._pivot(row, j, self.factor.ftran(j), clamp=False)
            pivoted = True
        return False, pivoted

    def _clamp_breaks_row(self) -> int | None:
        """The basic whose clamp to zero moves a broken row most, or None if no row breaks.

        Clamping the negative basic values moves each row by ``B min(x_b, 0)``;
        a row breaks when that exceeds ``FEAS_TOL`` of its own scale
        ``1 + b_i + |B_i| |x_b|``.  The solution-scale floor alone would let a
        large basic value elsewhere hide the violation of a small row.
        """
        short = np.minimum(self.x_b, 0.0)
        if not short.any():
            return None
        at, entries = self.work.gather(self.basis)
        rows, vals = self.work.rows[entries], self.work.vals[entries]
        moved = vals * short[at]
        shift = np.bincount(rows, weights=moved, minlength=self.m)
        activity = np.bincount(rows, weights=np.abs(vals * self.x_b[at]), minlength=self.m)
        broken = np.abs(shift) > FEAS_TOL * (1.0 + self.b + activity)
        if not broken.any():
            return None
        return int(at[np.argmax(np.where(broken[rows], np.abs(moved), 0.0))])

    def _close(self, closed: np.ndarray):
        """Reset the columns pricing skips: disallowed and basic ones."""
        np.logical_not(self.allowed, out=closed)
        closed[self.basis] = True

    def _iterate(self, cost: np.ndarray, phase: int) -> str | None:
        tol, pricing_noise, reprice_noise, ratio_tie = PIVOT_TOL, PRICING_NOISE, RAY_REPRICE_NOISE, PRIMAL_RATIO_TIE
        refactor_every, stall_iterations = REFACTOR_EVERY, STALL_ITERATIONS
        # Pricing is normalized per column so the stopping rule matches the
        # relative reduced-cost criterion the KKT verifier applies; a second,
        # dual-scale term filters out roundoff noise of order |y|.|A_j| that
        # would otherwise admit degenerate zero-cost rays as "improving".
        denom = 1.0 + np.abs(cost)
        since_refactor = 0
        since_noise = 999
        noise = None
        ray_verified = False
        # Columns pricing skips: disallowed, basic, or banned as a degenerate
        # ray until the next refactorization.
        closed = np.empty(cost.size, dtype=bool)
        self._close(closed)
        z = np.empty(cost.size)
        score = np.empty(cost.size)
        basis, factor = self.basis, self.factor  # both kept for the whole solve
        ftran, btran, times_a = factor.ftran, factor.btran, factor.times_a
        cost_b = cost[basis]  # the basic costs, kept from pivot to pivot
        # The dual start's stall rule: Bland's rule, a guard against cycling, only while stalled.
        best_obj, stall = float(cost_b @ self.x_b), 0

        while True:
            if self.iterations >= MAX_ITERATIONS:
                return STATUS_TIMEOUT
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= refactor_every:
                if not self._refactor():
                    return STATUS_NUMERICAL
                np.maximum(self.x_b, 0.0, out=self.x_b)
                since_refactor = 0
                self._close(closed)

            y = btran(cost_b)
            # The noise floor |y|.|A_j| drifts slowly; refreshing it every few
            # iterations halves the pricing cost without affecting the rule.
            since_noise += 1
            if since_noise >= 16 or noise is None:
                noise = times_a(np.abs(y), magnitude=True)
                thr = tol * denom + pricing_noise * (1.0 + noise)
                since_noise = 0
            np.subtract(cost, times_a(y), out=z)
            np.add(z, thr, out=score)
            np.divide(score, denom, out=score)  # eligible iff score < 0
            np.putmask(score, closed, np.inf)

            bland = stall >= stall_iterations
            if bland:
                neg = np.nonzero(score < 0.0)[0]
                if neg.size == 0:
                    if since_noise:  # confirm with a fresh noise floor
                        since_noise = 999
                        continue
                    return None
                j = int(neg[0])
            else:
                j = int(score.argmin())
                if score[j] >= 0.0:
                    if since_noise:
                        since_noise = 999
                        continue
                    return None

            d = ftran(j)
            pos = (d > tol).nonzero()[0]
            if pos.size == 0:
                # Rule out factorization drift before declaring unboundedness.
                if not ray_verified:
                    if not self._refactor():
                        return STATUS_NUMERICAL
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    since_refactor = 0
                    since_noise = 999
                    self._close(closed)
                    ray_verified = True
                    continue
                # Fresh factorization and still no blocking row: re-price this
                # column accurately; a vanishing reduced cost marks a harmless
                # degenerate ray, not an unbounded direction.
                y_acc = _factor_solve(factor, basis, cost_b, transpose=True)
                dot, magnitude = self.work.column_dots(y_acc, j)
                z_acc = cost[j] - dot
                noise_j = 1.0 + magnitude
                if z_acc >= -(tol * denom[j] + reprice_noise * noise_j):
                    closed[j] = True
                    ray_verified = False
                    continue
                return STATUS_UNBOUNDED if phase == 2 else STATUS_NUMERICAL
            ray_verified = False
            ratios = self.x_b[pos] / d[pos]
            theta = float(ratios[ratios.argmin()])
            tie = pos[ratios <= theta + ratio_tie * (1.0 + abs(theta))]
            if tie.size == 1:
                row = int(tie[0])
            elif bland:
                row = int(tie[np.argmin(basis[tie])])
            else:
                # Prefer the largest pivot among (near-)tied ratios; tiny
                # pivots degrade the basis conditioning under degeneracy.
                row = int(tie[np.argmax(d[tie])])

            leaving = basis[row]
            self._pivot(row, j, d)
            cost_b[row] = cost[j]
            # A basic column is never banned, so only a disallowed one stays closed.
            closed[leaving] = not self.allowed[leaving]
            closed[j] = True

            obj = float(cost_b @ self.x_b)
            if obj < best_obj - tol * (1.0 + abs(best_obj)):
                best_obj, stall = obj, 0
            else:
                stall += 1
