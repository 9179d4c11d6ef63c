"""Standard-form linear program container with labelled rows and columns."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SENSES = ("le", "eq", "ge")


@dataclass
class LpProblem:
    """``min c.x  s.t.  A x (sense) b,  lb <= x <= ub``.

    The matrix is stored as triplets in canonical (construction) order.  Row
    and column labels link every coefficient back to a domain object; ``aux``
    holds named auxiliary coefficient vectors (sparse, column index -> value)
    such as the electrolysis output used as an extremization target.
    """

    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    senses: list[str]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    row_labels: list[str]
    col_labels: list[str]
    aux: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.c.size)

    @property
    def m(self) -> int:
        return int(self.b.size)

    def aux_value(self, name: str, x: np.ndarray) -> float:
        vec = self.aux[name]
        return float(sum(coeff * x[j] for j, coeff in sorted(vec.items())))

    def with_row(
        self,
        label: str,
        coeffs: dict[int, float],
        sense: str,
        rhs: float,
        objective: np.ndarray | None = None,
    ) -> "LpProblem":
        """Return a copy with one extra row and (optionally) a new objective."""
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        cols = np.array(sorted(coeffs), dtype=np.int64)
        vals = np.array([coeffs[j] for j in sorted(coeffs)], dtype=float)
        rows = np.full(cols.size, self.m, dtype=np.int64)
        return LpProblem(
            c=self.c.copy() if objective is None else np.asarray(objective, dtype=float).copy(),
            a_rows=np.concatenate([self.a_rows, rows]),
            a_cols=np.concatenate([self.a_cols, cols]),
            a_vals=np.concatenate([self.a_vals, vals]),
            senses=list(self.senses) + [sense],
            b=np.concatenate([self.b, [float(rhs)]]),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            row_labels=list(self.row_labels) + [label],
            col_labels=list(self.col_labels),
            aux={k: dict(v) for k, v in self.aux.items()},
            meta=dict(self.meta),
        )


class LpBuilder:
    """Incremental construction helper preserving insertion order."""

    def __init__(self):
        self.costs: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.col_labels: list[str] = []
        self.senses: list[str] = []
        self.b: list[float] = []
        self.row_labels: list[str] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def add_col(self, label: str, cost: float = 0.0, lb: float = 0.0, ub: float = np.inf) -> int:
        self.col_labels.append(label)
        self.costs.append(float(cost))
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        return len(self.col_labels) - 1

    def add_row(self, label: str, sense: str, rhs: float) -> int:
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        self.row_labels.append(label)
        self.senses.append(sense)
        self.b.append(float(rhs))
        return len(self.row_labels) - 1

    def add_entry(self, row: int, col: int, val: float) -> None:
        if val == 0.0:
            return
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(float(val))

    def add_to_rhs(self, row: int, delta: float) -> None:
        self.b[row] += delta

    def build(self, aux: dict | None = None, meta: dict | None = None) -> LpProblem:
        return LpProblem(
            c=np.array(self.costs, dtype=float),
            a_rows=np.array(self._rows, dtype=np.int64),
            a_cols=np.array(self._cols, dtype=np.int64),
            a_vals=np.array(self._vals, dtype=float),
            senses=list(self.senses),
            b=np.array(self.b, dtype=float),
            lb=np.array(self.lb, dtype=float),
            ub=np.array(self.ub, dtype=float),
            row_labels=list(self.row_labels),
            col_labels=list(self.col_labels),
            aux=aux or {},
            meta=meta or {},
        )


_SENSE_TOKEN = {"le": "<=", "eq": "=", "ge": ">="}


def write_lp_file(problem: LpProblem, path) -> None:
    """Write the problem in plain-text LP interchange format for cross-checks.

    Columns are emitted as ``x0..xN`` and rows as ``r0..rM``; the original
    labels are listed in leading comments.  Each row lists its columns in
    ascending order, duplicate triplets summed and zero sums left out.
    """
    keys, at = np.unique(problem.a_rows * problem.n + problem.a_cols, return_inverse=True)
    sums = np.zeros(keys.size)
    np.add.at(sums, at, problem.a_vals)  # duplicates summed in triplet order
    nonzero = sums != 0
    row_of, col_of = np.divmod(keys[nonzero], max(problem.n, 1))
    sums = sums[nonzero]
    starts = np.searchsorted(row_of, np.arange(problem.m + 1))
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
        row = slice(starts[i], starts[i + 1])
        entries = zip(col_of[row].tolist(), sums[row].tolist())
        expr = " ".join(f"{v:+.17g} x{j}" for j, v in entries) or "0 x0"
        lines.append(f" r{i}: {expr} {_SENSE_TOKEN[problem.senses[i]]} {problem.b[i]:.17g}")
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
