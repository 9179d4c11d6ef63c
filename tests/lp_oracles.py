"""Independent oracles for small LPs used across the test suite.

Besides the brute-force vertex enumeration, this keeps the row-by-row
reference versions of KKT verification and standardization, against which
the vectorized ones in :mod:`corridor_kit.simplex` are property-tested.
"""

from __future__ import annotations

import itertools

import numpy as np

from corridor_kit.lp import LpProblem
from corridor_kit.simplex import ResidualReport


def enumerate_vertices_minimum(problem: LpProblem) -> tuple[str, float | None]:
    """Brute-force LP optimum by enumerating candidate vertices.

    Collects every constraint facet (rows tightened to equalities plus finite
    bound facets), solves each n-subset, keeps feasible points, and returns
    ("optimal", best objective) or ("infeasible", None).  Only sensible for
    a handful of variables; intended as an oracle, not a solver.
    """
    n, m = problem.n, problem.m
    a = problem.dense()
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


def loop_verify_kkt(problem: LpProblem, solution) -> ResidualReport:
    """Row-by-row KKT residuals over the dense matrix: the oracle for ``verify_kkt``."""
    x, y = solution.x, solution.y
    a = problem.dense()
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
        a = problem.dense()

        self.shift = np.where(np.isfinite(problem.lb), problem.lb, 0.0)
        self.split = [j for j in range(n) if not np.isfinite(problem.lb[j])]
        n_struct = n + len(self.split)
        costs = list(problem.c) + [-problem.c[j] for j in self.split]

        b = list(problem.b - a @ self.shift)
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

        slack_of_row = {}
        slack_cols = []
        for i, sense in enumerate(senses):
            if sense == "le":
                slack_of_row[i] = n_struct + len(slack_cols)
                slack_cols.append((i, 1.0))
            elif sense == "ge":
                slack_of_row[i] = n_struct + len(slack_cols)
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
        self.slack_of_row = slack_of_row
