"""Independent oracles for small LPs used across the test suite.

Besides the brute-force vertex enumeration and the closed forms of LPs
without rows or without columns, this keeps the row-by-row
reference versions of KKT verification and standardization, against which
the vectorized ones in :mod:`corridor_kit.simplex` are property-tested, the
simplex core with its explicit inverse written inline, against which the
solver on ``_ExplicitInverse`` must give the same bytes, the kernel
factor's solves in their row-masking form, against which its FTRAN and
BTRAN must give the same bytes, and the LP file writer over the dense
matrix.
"""

from __future__ import annotations

import itertools
import sys
from unittest import mock

import numpy as np

import corridor_kit.simplex as simplex_mod
from corridor_kit.lp import LpProblem
from corridor_kit.lp import _SENSE_TOKEN as SENSE_TOKEN
from corridor_kit.simplex import (
    STATUS_INFEASIBLE,
    STATUS_NUMERICAL,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    STATUS_UNBOUNDED,
    ResidualReport,
    _Columns,
    _factor_solve,
    _slack_basis,
)


def columns_of(a: np.ndarray) -> _Columns:
    """The nonzeros of a dense matrix as the simplex's column-by-column working matrix."""
    cols, rows = np.nonzero(a.T)
    return _Columns(a.shape[0], a.shape[1], rows, cols, a[rows, cols])


def dense(problem: LpProblem) -> np.ndarray:
    """The m x n constraint matrix, duplicate triplets summed in triplet order."""
    a = np.zeros((problem.m, problem.n))
    np.add.at(a, (problem.a_rows, problem.a_cols), problem.a_vals)
    return a


def enumerate_vertices_minimum(problem: LpProblem) -> tuple[str, float | None]:
    """Brute-force LP optimum by enumerating candidate vertices.

    Collects every constraint facet (rows tightened to equalities plus finite
    bound facets), solves each n-subset, keeps feasible points, and returns
    ("optimal", best objective) or ("infeasible", None).  Only sensible for
    a handful of variables; intended as an oracle, not a solver.
    """
    n, m = problem.n, problem.m
    a = dense(problem)
    facets_a: list[np.ndarray] = [a[i] for i in range(m)]
    facets_b: list[float] = [float(problem.b[i]) for i in range(m)]
    for j in range(n):
        if np.isfinite(problem.lb[j]):
            e = np.zeros(n)
            e[j] = 1.0
            facets_a.append(e)
            facets_b.append(float(problem.lb[j]))
        if np.isfinite(problem.ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            facets_a.append(e)
            facets_b.append(float(problem.ub[j]))
    fa = np.asarray(facets_a)
    fb = np.asarray(facets_b)
    k = fa.shape[0]
    if k < n:
        raise ValueError("not enough facets to pin a vertex; problem likely unbounded")

    combos = list(itertools.combinations(range(k), n))
    mats = fa[np.asarray(combos)]  # (n_combos, n, n)
    rhss = fb[np.asarray(combos)]
    dets = np.abs(np.linalg.det(mats))
    best = np.inf
    found = False
    for idx in np.nonzero(dets > 1e-10)[0]:
        x = np.linalg.solve(mats[idx], rhss[idx])
        if _feasible(problem, a, x):
            found = True
            best = min(best, float(problem.c @ x))
    if not found:
        return "infeasible", None
    return "optimal", best


def closed_form_minimum(problem: LpProblem) -> tuple[str, float | None]:
    """Status and optimum of an LP without columns or without rows, in closed form.

    Without columns each row reads ``0 (sense) b_i``, and the LP is feasible
    iff every row holds at zero.  Without rows each variable sits at its
    cheaper bound: an empty bound interval makes the LP infeasible, and a
    cost pointing at an infinite bound of a nonempty one unbounded.
    """
    if problem.n == 0:
        feasible = all(
            (s == "le" and bi >= 0) or (s == "ge" and bi <= 0) or (s == "eq" and bi == 0)
            for s, bi in zip(problem.senses, problem.b)
        )
        return ("optimal", 0.0) if feasible else ("infeasible", None)
    if problem.m:
        raise ValueError("closed form only for LPs without columns or without rows")
    lb, ub, c = problem.lb, problem.ub, problem.c
    if np.any(lb > ub):
        return "infeasible", None
    if np.any(((c > 0) & ~np.isfinite(lb)) | ((c < 0) & ~np.isfinite(ub))):
        return "unbounded", None
    x = np.where(c > 0, lb, np.where(c < 0, ub, np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))))
    return "optimal", float(c @ x)


def _feasible(problem: LpProblem, a: np.ndarray, x: np.ndarray, tol: float = 1e-7) -> bool:
    ax = a @ x
    for i in range(problem.m):
        r = ax[i] - problem.b[i]
        scale = 1.0 + abs(problem.b[i])
        s = problem.senses[i]
        if s == "le" and r > tol * scale:
            return False
        if s == "ge" and r < -tol * scale:
            return False
        if s == "eq" and abs(r) > tol * scale:
            return False
    if np.any(x < problem.lb - tol * (1 + np.abs(problem.lb))):
        return False
    finite_ub = np.isfinite(problem.ub)
    if np.any(x[finite_ub] > problem.ub[finite_ub] + tol * (1 + np.abs(problem.ub[finite_ub]))):
        return False
    return True


def random_problem(rng: np.random.Generator, n_vars: int, n_rows: int, bounded: bool = True) -> LpProblem:
    """A random dense-ish LP with a known feasible point baked into the rhs."""
    a = rng.uniform(-2.0, 2.0, size=(n_rows, n_vars))
    a[rng.uniform(size=a.shape) < 0.3] = 0.0
    x_feas = rng.uniform(0.0, 3.0, size=n_vars)
    senses = []
    b = np.zeros(n_rows)
    ax = a @ x_feas
    for i in range(n_rows):
        kind = rng.integers(0, 3)
        if kind == 0:
            senses.append("le")
            b[i] = ax[i] + rng.uniform(0.0, 2.0)
        elif kind == 1:
            senses.append("ge")
            b[i] = ax[i] - rng.uniform(0.0, 2.0)
        else:
            senses.append("eq")
            b[i] = ax[i]
    c = rng.uniform(-1.0, 1.0, size=n_vars)
    ub = np.full(n_vars, 10.0 if bounded else np.inf)
    rows, cols = np.nonzero(a)
    return LpProblem(
        c=c,
        a_rows=rows.astype(np.int64),
        a_cols=cols.astype(np.int64),
        a_vals=a[rows, cols],
        senses=senses,
        b=b,
        lb=np.zeros(n_vars),
        ub=ub,
        row_labels=[f"r{i}" for i in range(n_rows)],
        col_labels=[f"x{j}" for j in range(n_vars)],
    )


def artificial_heavy_problem(rng: np.random.Generator, n_vars: int, n_rows: int, bounded: bool) -> LpProblem:
    """A random LP whose standard form leans on artificial columns.

    Half its rows are equalities and a third are ``>=`` rows, 40% of the
    variables are free (mirrored columns), a fifth of the rows touch only
    variables that are zero at the feasible point (so equalities among them
    have degenerate artificials, which phase 1 can leave basic and the
    drive-out pivots away), and some equalities appear again doubled
    (redundant rows, whose artificials stay basic at zero).
    """
    a = rng.uniform(-2.0, 2.0, size=(n_rows, n_vars))
    a[rng.uniform(size=a.shape) < 0.4] = 0.0
    free = rng.uniform(size=n_vars) < 0.4
    x_feas = np.where(free, rng.uniform(-3.0, 3.0, n_vars), rng.uniform(0.0, 3.0, n_vars))
    at_zero = ~free & (rng.uniform(size=n_vars) < 0.3)
    x_feas[at_zero] = 0.0
    homogeneous = rng.uniform(size=n_rows) < 0.2
    a[np.ix_(homogeneous, ~at_zero)] = 0.0
    kind = rng.choice(3, size=n_rows, p=[0.5, 0.35, 0.15])
    ax = a @ x_feas
    room = rng.uniform(0.0, 2.0, n_rows)
    b = np.where(kind == 0, ax, np.where(kind == 1, ax - room, ax + room))
    senses = [("eq", "ge", "le")[k] for k in kind]
    eq = np.flatnonzero(kind == 0)
    again = eq[rng.uniform(size=eq.size) < 0.3]
    a = np.vstack([a, 2.0 * a[again]])
    b = np.concatenate([b, 2.0 * b[again]])
    senses += ["eq"] * again.size
    rows, cols = np.nonzero(a)
    return LpProblem(
        c=rng.uniform(-1.0, 1.0, n_vars),
        a_rows=rows.astype(np.int64),
        a_cols=cols.astype(np.int64),
        a_vals=a[rows, cols],
        senses=senses,
        b=b,
        lb=np.where(free, -np.inf, 0.0),
        ub=np.full(n_vars, 10.0 if bounded else np.inf),
        row_labels=[f"r{i}" for i in range(a.shape[0])],
        col_labels=[f"x{j}" for j in range(n_vars)],
    )


def loop_verify_kkt(problem: LpProblem, solution) -> ResidualReport:
    """Row-by-row KKT residuals over the dense matrix: the oracle for ``verify_kkt``."""
    x, y = solution.x, solution.y
    a = dense(problem)
    ax = a @ x if problem.m else np.zeros(0)
    activity = np.abs(a) @ np.abs(x) if problem.m else np.zeros(0)
    xscale = float(np.max(np.abs(x))) if x.size else 0.0

    primal = 0.0
    for i in range(problem.m):
        resid = ax[i] - problem.b[i]
        sense = problem.senses[i]
        if sense == "le":
            viol = max(0.0, resid)
        elif sense == "ge":
            viol = max(0.0, -resid)
        else:
            viol = abs(resid)
        primal = max(primal, viol / (1.0 + abs(problem.b[i]) + activity[i] + xscale))
    for j in range(problem.n):
        if np.isfinite(problem.lb[j]):
            primal = max(primal, (problem.lb[j] - x[j]) / (1.0 + abs(problem.lb[j]) + xscale))
        if np.isfinite(problem.ub[j]):
            primal = max(primal, (x[j] - problem.ub[j]) / (1.0 + abs(problem.ub[j]) + xscale))
    primal = max(primal, 0.0)

    z = problem.c - (a.T @ y if problem.m else 0.0)
    obj = float(problem.c @ x)
    scale = 1.0 + abs(obj)

    dual = 0.0
    for i in range(problem.m):
        if problem.senses[i] == "le":
            dual = max(dual, y[i] / (1.0 + abs(y[i])))
        elif problem.senses[i] == "ge":
            dual = max(dual, -y[i] / (1.0 + abs(y[i])))
    for j in range(problem.n):
        lo, hi = problem.lb[j], problem.ub[j]
        at_lo = np.isfinite(lo) and x[j] <= lo + 1e-7 * (1 + abs(lo))
        at_hi = np.isfinite(hi) and x[j] >= hi - 1e-7 * (1 + abs(hi))
        zj = z[j] / (1.0 + abs(problem.c[j]))
        if at_lo and at_hi:
            continue
        if at_lo:
            dual = max(dual, -zj)
        elif at_hi:
            dual = max(dual, zj)
        else:
            dual = max(dual, abs(zj))
    dual = max(dual, 0.0)

    comp = 0.0
    for i in range(problem.m):
        if problem.senses[i] != "eq":
            comp = max(comp, abs(y[i] * (ax[i] - problem.b[i])) / scale)
    for j in range(problem.n):
        lo, hi = problem.lb[j], problem.ub[j]
        gap_lo = x[j] - lo if np.isfinite(lo) else np.inf
        gap_hi = hi - x[j] if np.isfinite(hi) else np.inf
        slack = min(gap_lo, gap_hi)
        if np.isfinite(slack):
            comp = max(comp, abs(z[j] * slack) / scale)

    dual_obj = float(y @ problem.b) if problem.m else 0.0
    for j in range(problem.n):
        if z[j] > 0 and np.isfinite(problem.lb[j]):
            dual_obj += z[j] * problem.lb[j]
        elif z[j] < 0 and np.isfinite(problem.ub[j]):
            dual_obj += z[j] * problem.ub[j]
    gap = abs(obj - dual_obj) / (1.0 + abs(obj))

    return ResidualReport(primal=primal, dual=dual, complementarity=comp, gap=gap)


class LoopStandardizer:
    """Row-by-row conversion to scaled equality form: the oracle for ``_Standardizer``."""

    def __init__(self, problem: LpProblem):
        n, m = problem.n, problem.m
        a = dense(problem)

        self.shift = np.where(np.isfinite(problem.lb), problem.lb, 0.0)
        self.split = [j for j in range(n) if not np.isfinite(problem.lb[j])]
        n_struct = n + len(self.split)
        costs = list(problem.c) + [-problem.c[j] for j in self.split]

        # b - A shift, each row summed in column order.
        ax = np.zeros(m)
        for i in range(m):
            for j in range(n):
                ax[i] += a[i, j] * self.shift[j]
        b = list(problem.b - ax)
        senses = list(problem.senses)
        self.ub_rows = []
        for j in range(n):
            if np.isfinite(problem.ub[j]):
                b.append(problem.ub[j] - self.shift[j])
                senses.append("le")
                self.ub_rows.append(j)

        a_full = np.zeros((len(b), n_struct))
        a_full[:m, :n] = a
        for k, j in enumerate(self.split):
            a_full[:m, n + k] = -a[:, j]
        for k, j in enumerate(self.ub_rows):
            a_full[m + k, j] = 1.0
            if j in self.split:
                a_full[m + k, n + self.split.index(j)] = -1.0

        self.row_scale = np.ones(len(b))
        for i in range(len(b)):
            mx = np.max(np.abs(a_full[i])) if a_full.shape[1] else 0.0
            if mx > 0:
                self.row_scale[i] = 2.0 ** np.round(np.log2(mx))
        a_full = a_full / self.row_scale[:, None]
        b_arr = np.asarray(b) / self.row_scale

        slack_cols = []
        for i, sense in enumerate(senses):
            if sense == "le":
                slack_cols.append((i, 1.0))
            elif sense == "ge":
                slack_cols.append((i, -1.0))

        n_slack = len(slack_cols)
        self.a_std = np.zeros((len(b), n_struct + n_slack))
        self.a_std[:, :n_struct] = a_full
        for k, (i, sgn) in enumerate(slack_cols):
            self.a_std[i, n_struct + k] = sgn
        self.c_std = np.concatenate([np.asarray(costs, dtype=float), np.zeros(n_slack)])

        self.flip = np.where(b_arr < 0, -1.0, 1.0)
        self.a_std *= self.flip[:, None]
        self.b_std = b_arr * self.flip


def dense_write_lp_file(problem: LpProblem, path) -> None:
    """LP file written row by row from :func:`dense`: the oracle for ``write_lp_file``."""
    a = dense(problem)
    lines = ["\\ " + problem.meta.get("name", "problem")]
    for j, label in enumerate(problem.col_labels):
        lines.append(f"\\ x{j} = {label}")
    for i, label in enumerate(problem.row_labels):
        lines.append(f"\\ r{i} = {label}")
    lines.append("Minimize")
    terms = [f"{problem.c[j]:+.17g} x{j}" for j in range(problem.n) if problem.c[j] != 0]
    lines.append(" obj: " + (" ".join(terms) if terms else "0 x0"))
    lines.append("Subject To")
    for i in range(problem.m):
        cols = np.nonzero(a[i])[0]
        expr = " ".join(f"{a[i, j]:+.17g} x{j}" for j in cols) or "0 x0"
        lines.append(f" r{i}: {expr} {SENSE_TOKEN[problem.senses[i]]} {problem.b[i]:.17g}")
    lines.append("Bounds")
    for j in range(problem.n):
        lo, hi = problem.lb[j], problem.ub[j]
        if lo == -np.inf and hi == np.inf:
            lines.append(f" x{j} free")
        elif hi == np.inf:
            lines.append(f" {lo:.17g} <= x{j}")
        else:
            lines.append(f" {lo:.17g} <= x{j} <= {hi:.17g}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def explicit_inverse():
    """Patch that keeps every LP on the explicit basis inverse, whatever its size.

    The byte oracles below describe the explicit-inverse simplex; the kernel
    factor takes its own pivot path and is checked against them by tolerance.
    """
    return mock.patch.object(simplex_mod, "_KERNEL_MIN_ROWS", sys.maxsize)


class BroadcastSimplexCore:
    """The simplex core with its explicit inverse inline: the byte oracle for ``_SimplexCore``.

    It computes what ``_SimplexCore`` on ``_ExplicitInverse`` computes, with
    the basis inverse and the whole working matrix, densified row-major, as
    its own attributes: every pivot updates the inverse with one broadcast
    m x m outer product.  It also inverts the start basis, the inverse
    ``_SimplexCore`` skips.  It keeps no phase-1 or inverse counters and
    reports both as 0.  It always runs phase 1, the start of the explicit
    path, and reports the primal start.  It is its own ``factor``: its ``ftran`` and
    ``btran`` of a vector are products with its inverse, and the refined
    solves of the restoration, the final polish and the ray check are
    ``_factor_solve`` on them.
    """

    phase1_iterations = 0
    inverses = 0
    start = "primal"

    def __init__(
        self,
        a: _Columns,
        b: np.ndarray,
        c: np.ndarray,
        refactor_every: int,
        stall_iterations: int,
        primal_start: bool = False,
    ):
        self.a = a
        self.b = b
        self.c = c
        self.refactor_every, self.stall_iterations = refactor_every, stall_iterations
        self.m, self.n = a.m, a.n
        self.iterations = 0

    def run(self) -> tuple[str, int]:
        m, n = self.m, self.n

        # Initial basis: reuse slack columns where they enter positively,
        # add artificial columns elsewhere.
        basis = _slack_basis(self.a, self.c)
        missing = np.flatnonzero(basis == -1)
        n_art = missing.size
        basis[missing] = n + np.arange(n_art)
        self.work = self.a.with_units(missing)
        a_work = self.work.dense(np.arange(self.work.n))
        self.a_work = a_work
        self.basis = basis
        self.is_artificial = np.zeros(a_work.shape[1], dtype=bool)
        self.is_artificial[n:] = True
        self.allowed = np.ones(a_work.shape[1], dtype=bool)

        self.b_inv = np.eye(m)
        self.x_b = self.b.copy()
        self._refactor()

        feas_scale = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)

        # Phase 1: minimize the sum of artificial variables.
        if n_art:
            phase1_cost = np.zeros(a_work.shape[1])
            phase1_cost[n:] = 1.0
            status = self._iterate(phase1_cost, phase=1)
            if status is not None:
                return status, self.iterations
            art_mask = self.is_artificial[self.basis]
            infeas = float(self.x_b[art_mask].sum()) if art_mask.any() else 0.0
            if infeas > simplex_mod.FEAS_TOL * feas_scale:
                return STATUS_INFEASIBLE, self.iterations
            self._drive_out_artificials()
        self.allowed &= ~self.is_artificial

        # Phase 2: the real objective.  Degenerate churn can leave the final
        # basis dual feasible but slightly primal infeasible (drift hidden by
        # clamping); dual-simplex restoration steps repair that exactly, then
        # pricing resumes until both sides hold.
        cost = np.concatenate([self.c, np.zeros(a_work.shape[1] - n)])
        for _ in range(6):
            status = self._iterate(cost, phase=2)
            if status is not None:
                return status, self.iterations
            feasible, pivoted = self._restore_primal(cost)
            if feasible and not pivoted:
                return STATUS_OPTIMAL, self.iterations
            if not feasible:
                return STATUS_NUMERICAL, self.iterations
        return STATUS_NUMERICAL, self.iterations

    @property
    def factor(self):
        return self

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return self.b_inv @ v

    def btran(self, v: np.ndarray) -> np.ndarray:
        return v @ self.b_inv

    def _invert(self) -> bool:
        try:
            self.b_inv = np.linalg.inv(self.a_work[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        return True

    def _refactor(self) -> bool:
        if not self._invert():
            return False
        self.x_b = self.b_inv @ self.b
        return True

    def _drive_out_artificials(self):
        """Pivot basic artificials out wherever a structural pivot exists."""
        tol = 1e-7
        eligible = self.allowed & ~self.is_artificial
        eligible[self.basis] = False
        for pos in range(self.m):
            if not self.is_artificial[self.basis[pos]]:
                continue
            row = self.b_inv[pos] @ self.a_work
            candidates = np.flatnonzero((np.abs(row) > tol) & eligible)
            if not candidates.size:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[0])
            d = self.b_inv @ self.a_work[:, j]
            self._pivot(pos, j, d)
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
        row_r = self.b_inv[row].copy()
        self.b_inv -= (d / piv)[:, None] * row_r
        self.b_inv[row] = row_r / piv
        self.basis[row] = col

    def _restore_primal(self, cost: np.ndarray) -> tuple[bool, bool]:
        """Repair exact primal infeasibility of a priced-optimal basis.

        Solves for the basic solution afresh with the current inverse,
        refined, without clamping, then runs dual-simplex steps (leaving: the
        most negative basic, or the basic whose clamp would break a row;
        entering: dual ratio test, which preserves the nonnegative reduced
        costs pricing just established) until the exact basic solution is
        feasible.  The basis is inverted only once a step is needed.
        Returns (feasible, pivoted).
        """
        if not self.m:
            return True, False  # no rows: nothing to restore
        try:
            self.x_b = _factor_solve(self, self.basis, self.b)
        except np.linalg.LinAlgError:
            return False, False
        # Negativity below the solution-scale noise floor is genuine basis
        # infeasibility left by degenerate churn; anything shallower is solve
        # noise the final clamp absorbs, unless clamping it breaks a row.
        scale = 1.0 + float(np.max(np.abs(self.x_b)))
        pivoted = False
        for _ in range(200):
            row = int(np.argmin(self.x_b))
            value = float(self.x_b[row])
            if value >= -1e-8 * scale:
                row = self._clamp_breaks_row()
                if row is None:
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    return True, pivoted
                value = float(self.x_b[row])
            if not pivoted and not self._invert():
                return False, False
            y = cost[self.basis] @ self.b_inv
            z = cost - y @ self.a_work
            row_r = self.b_inv[row] @ self.a_work
            eligible = (row_r < -1e-9) & self.allowed
            eligible[self.basis] = False
            cand = np.nonzero(eligible)[0]
            if cand.size == 0:
                if value >= -1e-7 * scale:  # borderline noise; leave to the clamp
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    return True, pivoted
                return False, pivoted
            ratios = np.maximum(z[cand], 0.0) / (-row_r[cand])
            best = float(ratios.min())
            tie = cand[ratios <= best + 1e-12 * (1.0 + abs(best))]
            j = int(tie.min())
            d = self.b_inv @ self.a_work[:, j]
            self._pivot(row, j, d, clamp=False)
            pivoted = True
        return False, pivoted

    def _clamp_breaks_row(self) -> int | None:
        """The basic whose clamp to zero moves a broken row most, or None if no row breaks."""
        short = np.minimum(self.x_b, 0.0)
        if not short.any():
            return None
        block = self.a_work[:, self.basis]
        moved = block * short
        activity = np.abs(block * self.x_b).sum(axis=1)
        broken = np.abs(moved.sum(axis=1)) > simplex_mod.FEAS_TOL * (1.0 + self.b + activity)
        if not broken.any():
            return None
        return int(np.argmax(np.abs(moved[broken]).max(axis=0)))

    def _iterate(self, cost: np.ndarray, phase: int) -> str | None:
        tol = simplex_mod.PIVOT_TOL
        # Pricing is normalized per column so the stopping rule matches the
        # relative reduced-cost criterion the KKT verifier applies; a second,
        # dual-scale term filters out roundoff noise of order |y|.|A_j| that
        # would otherwise admit degenerate zero-cost rays as "improving".
        denom = 1.0 + np.abs(cost)
        abs_a = np.abs(self.a_work)
        best_obj, stall = float(cost[self.basis] @ self.x_b), 0
        since_refactor = 0
        since_noise = 999
        noise = None
        ray_verified = False
        banned = np.zeros(self.a_work.shape[1], dtype=bool)
        in_basis = np.zeros(self.a_work.shape[1], dtype=bool)
        in_basis[self.basis] = True

        while True:
            if self.iterations >= simplex_mod.MAX_ITERATIONS:
                return STATUS_TIMEOUT
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= self.refactor_every:
                if not self._refactor():
                    return STATUS_NUMERICAL
                np.maximum(self.x_b, 0.0, out=self.x_b)
                since_refactor = 0
                banned[:] = False

            y = cost[self.basis] @ self.b_inv
            # The noise floor |y|.|A_j| drifts slowly; refreshing it every few
            # iterations halves the pricing cost without affecting the rule.
            since_noise += 1
            if since_noise >= 16 or noise is None:
                noise = np.abs(y) @ abs_a
                thr = tol * denom + 1e-12 * (1.0 + noise)
                since_noise = 0
            z = cost - y @ self.a_work
            score = (z + thr) / denom  # eligible iff score < 0
            score[~self.allowed] = np.inf
            score[in_basis] = np.inf
            score[banned] = np.inf

            bland = stall >= self.stall_iterations
            if bland:
                neg = np.nonzero(score < 0.0)[0]
                if neg.size == 0:
                    if since_noise:  # confirm with a fresh noise floor
                        since_noise = 999
                        continue
                    return None
                j = int(neg[0])
            else:
                j = int(np.argmin(score))
                if score[j] >= 0.0:
                    if since_noise:
                        since_noise = 999
                        continue
                    return None

            d = self.b_inv @ self.a_work[:, j]
            pos = np.nonzero(d > tol)[0]
            if pos.size == 0:
                # Rule out factorization drift before declaring unboundedness.
                if not ray_verified:
                    if not self._refactor():
                        return STATUS_NUMERICAL
                    np.maximum(self.x_b, 0.0, out=self.x_b)
                    since_refactor = 0
                    since_noise = 999
                    banned[:] = False
                    ray_verified = True
                    continue
                # Fresh factorization and still no blocking row: re-price this
                # column accurately; a vanishing reduced cost marks a harmless
                # degenerate ray, not an unbounded direction.
                y_acc = _factor_solve(self, self.basis, cost[self.basis], transpose=True)
                z_acc = cost[j] - float(y_acc @ self.a_work[:, j])
                noise_j = 1.0 + float(np.abs(y_acc) @ abs_a[:, j])
                if z_acc >= -(tol * denom[j] + 1e-9 * noise_j):
                    banned[j] = True
                    ray_verified = False
                    continue
                return STATUS_UNBOUNDED if phase == 2 else STATUS_NUMERICAL
            ray_verified = False
            ratios = self.x_b[pos] / d[pos]
            theta = float(ratios.min())
            tie = pos[ratios <= theta + 1e-9 * (1.0 + abs(theta))]
            if bland:
                row = int(tie[np.argmin(self.basis[tie])])
            else:
                # Prefer a well-sized pivot among (near-)tied ratios; tiny
                # pivots degrade the basis conditioning under degeneracy.
                solid = tie[d[tie] >= 1e-7]
                pick = solid if solid.size else tie
                row = int(pick[np.argmax(d[pick])])

            in_basis[self.basis[row]] = False
            in_basis[j] = True
            self._pivot(row, j, d)

            obj = float(cost[self.basis] @ self.x_b)
            if obj < best_obj - tol * (1.0 + abs(best_obj)):
                best_obj, stall = obj, 0
            else:
                stall += 1


class KernelSolvesReference:
    """``_KernelFactor``'s FTRAN, BTRAN and eta update in their row-masking form: their byte reference.

    It reads the factor's refactorization (the kernel inverse, the coupling
    block and the unit columns) and keeps its own eta file.  FTRAN of a
    working column masks the column's rows into kernel and unit rows, as the
    vector FTRAN masks every row; the first pivot on each position is a flag
    per eta, and BTRAN masks the pivot positions by it.  Call
    :meth:`refactored` after each refactorization of the factor.
    """

    def __init__(self, factor, etas: int):
        self.factor = factor
        m = factor.m
        self.eta_n = np.zeros((etas, m))
        self.eta_l_inv = np.zeros((etas, etas))
        self.eta_pos = np.zeros(etas, dtype=np.int64)
        self.eta_first = np.zeros(etas, dtype=bool)
        self.pivoted = np.zeros(m, dtype=bool)
        self.refactored()

    def refactored(self):
        f = self.factor
        self.etas = 0
        self.pivoted[:] = False
        self.kernel_row = np.ones(f.m, dtype=bool)
        self.kernel_row[f.u_rows] = False
        self.slot = np.empty(f.m, dtype=np.int64)
        self.slot[f.s_rows] = np.arange(f.s_rows.size)
        self.slot[f.u_rows] = np.arange(f.u_rows.size)

    def _solve(self, rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
        f = self.factor
        in_k = self.kernel_row[rows]
        x_s = vals[in_k] @ f.k_inv_t[self.slot[rows[in_k]]]
        a_u = np.zeros(f.u_pos.size)
        a_u[self.slot[rows[~in_k]]] = vals[~in_k]
        a_u -= np.bincount(f.c_row, weights=f.c_val * x_s[f.c_col], minlength=a_u.size)
        x = np.empty(f.m)
        x[f.s_pos] = x_s
        x[f.u_pos] = a_u * f.u_sign
        return x

    def ftran(self, j) -> np.ndarray:
        f = self.factor
        if isinstance(j, np.ndarray):
            x = self._solve(np.arange(f.m), j)
        else:
            span = slice(f.work.start[j], f.work.start[j + 1])
            x = self._solve(f.work.rows[span], f.work.vals[span])
        k = self.etas
        if k:
            pos = self.eta_pos[:k]
            t = self.eta_l_inv[:k, :k] @ np.where(self.eta_first[:k], x[pos], 0.0)
            x[pos] = 0.0
            x += t @ self.eta_n[:k]
        return x

    def btran(self, v) -> np.ndarray:
        f = self.factor
        if not isinstance(v, np.ndarray):
            v = np.eye(1, f.m, v)[0]
        k = self.etas
        if k:
            first = self.eta_first[:k]
            s = (self.eta_n[:k] @ v) @ self.eta_l_inv[:k, :k]
            v = v.copy()
            v[self.eta_pos[:k][first]] = s[first]
        y = np.empty(f.m)
        y_u = v[f.u_pos] * f.u_sign
        y[f.u_rows] = y_u
        coupled = np.bincount(f.c_col, weights=f.c_val * y_u[f.c_row], minlength=f.s_pos.size)
        y[f.s_rows] = f.k_inv_t @ (v[f.s_pos] - coupled)
        return y

    def update(self, row: int, d: np.ndarray):
        k = self.etas
        if k == self.eta_pos.size:
            size = self.eta_pos.size
            self.eta_n = np.concatenate([self.eta_n, np.zeros((size, self.factor.m))])
            self.eta_pos = np.concatenate([self.eta_pos, np.zeros(size, dtype=np.int64)])
            self.eta_first = np.concatenate([self.eta_first, np.zeros(size, dtype=bool)])
            l_inv = np.zeros((2 * size, 2 * size))
            l_inv[:size, :size] = self.eta_l_inv
            self.eta_l_inv = l_inv
        piv = d[row]
        n_t = self.eta_n
        if k:
            self.eta_l_inv[k, :k] = n_t[:k, row] @ self.eta_l_inv[:k, :k]
            self.eta_l_inv[k, :k] /= piv
            n_t[:k, row] = 0.0
        self.eta_l_inv[k, k] = 1.0 / piv
        np.negative(d, out=n_t[k])
        n_t[k, row] = 1.0
        self.eta_pos[k] = row
        self.eta_first[k] = not self.pivoted[row]
        self.pivoted[row] = True
        self.etas = k + 1
