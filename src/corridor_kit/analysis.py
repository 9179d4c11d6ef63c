"""Post-processing: robust corridors, sensitivity regression, subsidy estimates.

All corridor intervals are closed; boundary membership counts.  Coverage
computations use an endpoint sweep: between consecutive endpoints coverage is
constant, and at an endpoint it is at least the coverage of either adjacent
open atom, so every output interval endpoint is an input endpoint.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import mt_to_twh
from .scenarios import parse_scenario_id

KG_PER_MWH = 30.0  # hydrogen mass per MWh at the lower heating value
# The sensitivity regression pools this horizon and every later one, and the
# subsidy is priced here unless another horizon is asked for.
HEADLINE_HORIZON = 2040
DEFAULT_QUANTILES = (0.7, 0.8, 0.9, 1.0)  # coverage levels of the corridor table
CORRIDOR_HEADER = (
    "horizon", "epsilon", "coverage", "piece", "lo_mt", "hi_mt", "lo_twh", "hi_twh",
    "tapering_mt", "n_scenarios", "n_excluded",
)
SUBSIDY_HEADER = ("scenario_id", "rate_eur_per_kg", "volume_eur_per_year")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _as_intervals(intervals) -> list[Interval]:
    out = []
    for item in intervals:
        out.append(item if isinstance(item, Interval) else Interval(float(item[0]), float(item[1])))
    if not out:
        raise ValueError("need at least one interval")
    return out


def corridor(intervals) -> Interval | None:
    """Intersection of all intervals, or None when they do not overlap."""
    ivs = _as_intervals(intervals)
    lo = max(iv.lo for iv in ivs)
    hi = min(iv.hi for iv in ivs)
    return Interval(lo, hi) if lo <= hi else None


def coverage_breakpoints(intervals) -> list[tuple[float, int, int]]:
    """Sweep summary: (endpoint, coverage at the point, coverage just right of it)."""
    ivs = _as_intervals(intervals)
    points = sorted({iv.lo for iv in ivs} | {iv.hi for iv in ivs})
    lo = np.sort([iv.lo for iv in ivs])
    hi = np.sort([iv.hi for iv in ivs])
    # An interval covers x if lo <= x <= hi, and the atom right of x if
    # lo <= x < hi: no endpoint lies between x and the next point.
    started = np.searchsorted(lo, points, side="right")
    at = started - np.searchsorted(hi, points, side="left")
    right = started - np.searchsorted(hi, points, side="right")
    right[-1] = 0
    return [(x, int(a), int(r)) for x, a, r in zip(points, at, right)]


def quantile_corridor(intervals, q: float) -> list[Interval]:
    """Points covered by at least a fraction ``q`` of the intervals.

    May be a union of disjoint closed intervals (single points degenerate to
    zero-width intervals).  ``q = 1`` coincides with :func:`corridor`.
    """
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ivs = _as_intervals(intervals)
    need = q * len(ivs) - 1e-9
    breaks = coverage_breakpoints(ivs)
    pieces: list[list[float]] = []

    def push(lo, hi):
        if pieces and pieces[-1][1] == lo:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi])

    for k, (x, at, right) in enumerate(breaks):
        if at >= need:
            push(x, x)
        if k + 1 < len(breaks) and right >= need:
            push(x, breaks[k + 1][0])
    return [Interval(lo, hi) for lo, hi in pieces]


def tapering_point(intervals) -> float:
    """Lowest point of maximum coverage (reported when the corridor is empty).

    Maximum coverage is always attained at an input endpoint, so the sweep
    over endpoints is exhaustive; ties break towards the lowest point.
    """
    breaks = coverage_breakpoints(intervals)
    best = max(at for _, at, _ in breaks)
    for x, at, _ in breaks:
        if at == best:
            return x
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ScenarioInterval:
    scenario_id: str
    horizon: int
    epsilon: float
    interval: Interval


def intervals_from_records(records, horizon: int, epsilon: float) -> tuple[list[ScenarioInterval], int]:
    """Per-scenario [min, max] production intervals at one horizon and slack.

    Scenarios with a failed (or missing) min or max record at this horizon are
    excluded; the second return value counts them.
    """
    by_scenario: dict[str, dict[str, float]] = {}
    scenarios = set()
    for rec in records:
        if rec.horizon != horizon or rec.epsilon != epsilon:
            continue
        if rec.sense not in ("min", "max"):
            continue
        scenarios.add(rec.scenario_id)
        if rec.status == "optimal":
            by_scenario.setdefault(rec.scenario_id, {})[rec.sense] = rec.h2_mt
    out = []
    excluded = 0
    for sid in sorted(scenarios):
        pair = by_scenario.get(sid, {})
        if "min" in pair and "max" in pair:
            lo, hi = pair["min"], pair["max"]
            if lo > hi:
                # Zero-slack runs can cross by solver noise; collapse those.
                if lo - hi > 1e-6 * max(1.0, abs(lo)):
                    raise ValueError(f"scenario {sid}: min {lo} exceeds max {hi} at {horizon}")
                lo = hi = (lo + hi) / 2.0
            out.append(ScenarioInterval(sid, horizon, epsilon, Interval(lo, hi)))
        else:
            excluded += 1
    return out, excluded


@dataclass
class SensitivityResult:
    coefficients: dict  # category -> estimated change pessimistic -> optimistic
    intercept: float
    coefficients_no_intercept: dict
    categories: list
    skipped: list  # categories without >= 2 observed levels
    n_points: int
    n_dropped: int  # failed records excluded


class CollinearDesignError(ValueError):
    def __init__(self, names):
        self.names = list(names)
        super().__init__(f"design matrix is rank deficient; collinear categories: {self.names}")


def sensitivity(
    records,
    categories,
    sense: str = "optimal",
    epsilon: float | None = None,
    horizons=None,
) -> SensitivityResult:
    """Least-squares fit of production against dummy-encoded setting levels.

    Levels are encoded 0..1 from pessimistic to optimistic ({0, 1} for two
    levels, {0, 0.5, 1} for three); the fitted coefficient is then the
    estimated average change in production from the first to the last level
    of a category, across all other settings.  The intercept-bearing fit is
    primary; the no-intercept variant is reported alongside.
    """
    rows = []
    dropped = 0
    wanted_h = set(horizons) if horizons is not None else None
    for rec in records:
        if rec.sense != sense or rec.epsilon != epsilon:
            continue
        if wanted_h is not None and rec.horizon not in wanted_h:
            continue
        if rec.status != "optimal":
            dropped += 1
            continue
        rows.append((rec.scenario_id, rec.h2_mt))
    if not rows:
        raise ValueError("no usable records for the requested sense/epsilon/horizons")

    cat_by_name = {cat.name: cat for cat in categories}
    levels_seen: dict[str, set] = {name: set() for name in cat_by_name}
    parsed = []
    for sid, h2 in rows:
        levels = parse_scenario_id(sid)
        parsed.append((levels, h2))
        for name in cat_by_name:
            if name in levels:
                levels_seen[name].add(levels[name])

    active = [name for name in cat_by_name if len(levels_seen[name]) >= 2]
    skipped = [name for name in cat_by_name if name not in active]
    if not active:
        raise ValueError("no category varies across the records")

    x = np.zeros((len(parsed), len(active)))
    y = np.zeros(len(parsed))
    for i, (levels, h2) in enumerate(parsed):
        y[i] = h2
        for k, name in enumerate(active):
            x[i, k] = cat_by_name[name].encoding(levels[name])

    design = np.column_stack([x, np.ones(len(parsed))])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        collinear = _collinear_categories(x, active)
        raise CollinearDesignError(collinear)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    beta_ni, *_ = np.linalg.lstsq(x, y, rcond=None)
    return SensitivityResult(
        coefficients={name: float(beta[k]) for k, name in enumerate(active)},
        intercept=float(beta[-1]),
        coefficients_no_intercept={name: float(beta_ni[k]) for k, name in enumerate(active)},
        categories=list(active),
        skipped=skipped,
        n_points=len(parsed),
        n_dropped=dropped,
    )


def _collinear_categories(x: np.ndarray, names) -> list[str]:
    out = []
    for k, name in enumerate(names):
        others = np.delete(x, k, axis=1)
        design = np.column_stack([others, np.ones(x.shape[0])])
        col = x[:, k]
        resid = col - design @ np.linalg.lstsq(design, col, rcond=None)[0]
        if np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(col)):
            out.append(name)
    return out or list(names)


@dataclass(frozen=True)
class SubsidyEstimate:
    rate_eur_per_kg: float
    volume_eur_per_year: float
    bracket: tuple  # (epsilon_low, epsilon_high) or ("fallback", epsilon)


def subsidy(target_mt: float, ladder) -> SubsidyEstimate:
    """Subsidy rate making ``target_mt`` of production cost-optimal.

    ``ladder`` lists ``(epsilon, M_mt, mu_raw)`` sorted by slack, starting at
    the cost optimum (``epsilon = 0``, where the implied rate is zero since no
    incentive is needed at the optimum).  Between two rungs the rate is the
    linear interpolation of the rungs' marginal rates ``1/mu``; above the top
    rung the top rung's rate is used.  ``mu_raw`` is in MWh per EUR and the
    result is converted to EUR/kg.
    """
    if target_mt < 0:
        raise ValueError("target must be >= 0")
    rungs = sorted(((float(e), float(m), mu) for e, m, mu in ladder), key=lambda r: r[0])
    if not rungs or rungs[0][0] != 0.0:
        raise ValueError("ladder must include the epsilon = 0 (cost-optimal) rung")
    for (e1, m1, _), (e2, m2, _) in zip(rungs, rungs[1:]):
        if m2 < m1 - 1e-9 * max(1.0, abs(m1)):
            raise ValueError(
                f"production must be non-decreasing in slack; M({e2})={m2} < M({e1})={m1}"
            )

    def rate(rung) -> float:
        eps, _, mu = rung
        if eps == 0.0:
            return 0.0
        if mu is None or mu <= 0:
            raise ValueError(f"budget dual non-positive at epsilon={eps}; cannot price the rung")
        return (1.0 / mu) / KG_PER_MWH

    if target_mt <= rungs[0][1]:
        return SubsidyEstimate(0.0, 0.0, (0.0, 0.0))
    for low, high in zip(rungs, rungs[1:]):
        e1, m1, _ = low
        e2, m2, _ = high
        if m1 < target_mt <= m2:
            w_low = (m2 - target_mt) / (m2 - m1)
            w_high = (target_mt - m1) / (m2 - m1)
            t = w_low * rate(low) + w_high * rate(high)
            return SubsidyEstimate(t, t * target_mt * 1e9, (e1, e2))
    top = rungs[-1]
    t = rate(top)
    return SubsidyEstimate(t, t * target_mt * 1e9, ("fallback", top[0]))


QUANTS = (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(fh, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to the open text stream ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        write_table(fh, header, rows)


def pooled_horizons(records) -> list[int]:
    """The horizons the sensitivity regression pools: ``HEADLINE_HORIZON`` and later, else all."""
    horizons = sorted({r.horizon for r in records})
    return [h for h in horizons if h >= HEADLINE_HORIZON] or horizons


def corridor_rows(records, epsilons, quantiles=DEFAULT_QUANTILES) -> list[list]:
    """The rows of ``corridor.csv`` (columns ``CORRIDOR_HEADER``) at the given slack levels.

    Per horizon and slack level, one row per piece of each coverage
    quantile's corridor, with the tapering point when the full intersection
    is empty; a quantile without pieces gets one row of blanks.  A (horizon,
    slack) pair without a usable scenario interval has no rows.
    """
    rows = []
    for horizon in sorted({r.horizon for r in records}):
        for eps in epsilons:
            ivs, excluded = intervals_from_records(records, horizon, eps)
            if not ivs:
                continue
            plain = [si.interval for si in ivs]
            taper = None if corridor(plain) is not None else tapering_point(plain)
            for q in sorted(quantiles):
                pieces = quantile_corridor(plain, q)
                if not pieces:
                    rows.append([horizon, eps, q, 0, None, None, None, None, taper, len(ivs), excluded])
                for k, piece in enumerate(pieces):
                    twh = (mt_to_twh(piece.lo), mt_to_twh(piece.hi))
                    rows.append([horizon, eps, q, k, piece.lo, piece.hi, *twh, taper, len(ivs), excluded])
    return rows


def subsidy_rows(records, target_mt: float, horizon: int) -> tuple[list[tuple], int]:
    """Each scenario's subsidy for ``target_mt`` at ``horizon``, and how many scenarios were skipped.

    A scenario's ladder is its optimal record and its ``max`` record at every
    slack level in ``records``.  It is skipped when one of them is missing or
    failed, or when :func:`subsidy` cannot price the ladder (production falls
    with slack, or a budget dual is not positive).  The rows (columns
    ``SUBSIDY_HEADER``) are one per priced scenario in id order, then their
    ``MEAN``; there are none when no scenario is priced.
    """
    eps_values = sorted({r.epsilon for r in records if r.epsilon is not None})
    at_horizon = {}
    for rec in records:
        if rec.horizon == horizon:
            at_horizon.setdefault((rec.scenario_id, rec.sense, rec.epsilon), rec)
    rows, skipped = [], 0
    for sid in sorted({r.scenario_id for r in records}):
        optimal = at_horizon.get((sid, "optimal", None))
        tops = [at_horizon.get((sid, "max", eps)) for eps in eps_values]
        if any(rec is None or rec.status != "optimal" for rec in (optimal, *tops)):
            skipped += 1
            continue
        ladder = [(0.0, optimal.h2_mt, None)] + [(rec.epsilon, rec.h2_mt, rec.mu_raw) for rec in tops]
        try:
            est = subsidy(target_mt, ladder)
        except ValueError:
            skipped += 1
            continue
        rows.append((sid, est.rate_eur_per_kg, est.volume_eur_per_year))
    if rows:
        rows.append(("MEAN", sum(r[1] for r in rows) / len(rows), sum(r[2] for r in rows) / len(rows)))
    return rows, skipped


def report(records, out_dir, categories=None, quantiles=DEFAULT_QUANTILES) -> dict:
    """Emit the analysis CSV bundle; returns {name: path}.

    ``pathway_ranges.csv``: distribution quantiles of production per
    (horizon, sense, epsilon) across scenarios, in Mt and TWh.
    ``corridor.csv``: :func:`corridor_rows` at every slack level of the
    records.  ``sensitivity.csv``: regression coefficients per sense (written
    only when categories are supplied and the fit is possible).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}

    horizons = sorted({r.horizon for r in records})
    eps_values = sorted({r.epsilon for r in records if r.epsilon is not None})

    rows = []
    for horizon in horizons:
        combos = [("optimal", None)] + [(s, e) for e in eps_values for s in ("min", "max")]
        for sense, eps in combos:
            vals = [
                r.h2_mt
                for r in records
                if r.horizon == horizon and r.sense == sense and r.epsilon == eps and r.status == "optimal"
            ]
            failed = sum(
                1
                for r in records
                if r.horizon == horizon and r.sense == sense and r.epsilon == eps and r.status != "optimal"
            )
            if not vals and not failed:
                continue
            qs = [float(np.quantile(vals, q)) if vals else None for q in QUANTS]
            row = [horizon, sense, eps, len(vals), failed]
            for q in qs:
                row.extend([q, None if q is None else mt_to_twh(q)])
            rows.append(row)
    header = ["horizon", "sense", "epsilon", "n", "n_failed"]
    for q in QUANTS:
        header.extend([f"q{q}_mt", f"q{q}_twh"])
    path = out_dir / "pathway_ranges.csv"
    _write_csv(path, header, rows)
    written["pathway_ranges"] = path

    path = out_dir / "corridor.csv"
    _write_csv(path, CORRIDOR_HEADER, corridor_rows(records, eps_values, quantiles))
    written["corridor"] = path

    if categories is not None:
        rows = []
        pool = pooled_horizons(records)
        for sense, eps_opts in (("optimal", [None]), ("min", eps_values), ("max", eps_values)):
            for eps in eps_opts:
                try:
                    res = sensitivity(records, categories, sense=sense, epsilon=eps, horizons=pool)
                except (ValueError, CollinearDesignError):
                    continue
                for name in res.categories:
                    with_i = res.coefficients[name]
                    without_i = res.coefficients_no_intercept[name]
                    rows.append(
                        [
                            sense,
                            eps,
                            name,
                            with_i,
                            without_i if abs(with_i - without_i) > 1e-6 else None,
                            res.n_points,
                            res.n_dropped,
                        ]
                    )
        if rows:
            path = out_dir / "sensitivity.csv"
            _write_csv(
                path,
                ["sense", "epsilon", "category", "coefficient_mt", "no_intercept_variant_mt", "n", "n_dropped"],
                rows,
            )
            written["sensitivity"] = path
    return written
