import numpy as np
import pytest

from corridor_kit.analysis import (
    CollinearDesignError,
    Interval,
    corridor,
    quantile_corridor,
    report,
    sensitivity,
    subsidy,
    subsidy_rows,
    tapering_point,
)
from corridor_kit.pathway import PathwayRecord
from corridor_kit.scenarios import Level, SettingCategory


def ivs(*pairs):
    return [Interval(lo, hi) for lo, hi in pairs]


def test_corridor_endpoint_sweep_example():
    assert corridor(ivs((0, 10), (5, 15), (8, 20))) == Interval(8, 10)


def test_corridor_disjoint_empty():
    assert corridor(ivs((0, 1), (2, 3))) is None


def test_corridor_single_interval():
    assert corridor(ivs((4, 9))) == Interval(4, 9)


def test_quantile_two_thirds():
    pieces = quantile_corridor(ivs((0, 10), (5, 15), (8, 20)), 2 / 3)
    assert pieces == [Interval(5, 15)]


def test_quantile_one_equals_corridor():
    intervals = ivs((0, 10), (5, 15), (8, 20))
    assert quantile_corridor(intervals, 1.0) == [corridor(intervals)]


def test_quantile_epsilon_hull():
    pieces = quantile_corridor(ivs((0, 10), (5, 15), (8, 20)), 1e-9)
    assert pieces == [Interval(0, 20)]


def test_quantile_disjoint_union():
    pieces = quantile_corridor(ivs((0, 2), (1, 3), (6, 9), (7, 8)), 0.5)
    assert pieces == [Interval(1, 2), Interval(7, 8)]


def test_quantile_rejects_bad_q():
    with pytest.raises(ValueError):
        quantile_corridor(ivs((0, 1)), 0.0)
    with pytest.raises(ValueError):
        quantile_corridor(ivs((0, 1)), 1.5)


def test_tapering_tie_break_lowest():
    assert tapering_point(ivs((0, 1), (2, 3))) == 0.0


def test_tapering_sweep_example():
    assert tapering_point(ivs((0, 2), (1, 3), (5, 6))) == 1.0


def test_tapering_touching_point():
    assert tapering_point(ivs((0, 1), (1, 2))) == 1.0


def brute_force_quantile(intervals, q, probes):
    need = q * len(intervals) - 1e-9
    hits = [x for x in probes if sum(1 for iv in intervals if iv.lo <= x <= iv.hi) >= need]
    return hits


def test_quantile_matches_dense_probe_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        raw = np.sort(rng.integers(0, 40, size=(n, 2)), axis=1)
        intervals = [Interval(float(lo), float(hi)) for lo, hi in raw]
        q = float(rng.choice([0.3, 0.5, 0.75, 0.9, 1.0]))
        pieces = quantile_corridor(intervals, q)
        endpoints = sorted({iv.lo for iv in intervals} | {iv.hi for iv in intervals})
        probes = set(endpoints)
        for a, b in zip(endpoints, endpoints[1:]):
            probes.add((a + b) / 2)
        probes |= {endpoints[0] - 1, endpoints[-1] + 1}
        for x in sorted(probes):
            inside = any(p.lo <= x <= p.hi for p in pieces)
            covered = sum(1 for iv in intervals if iv.contains(x)) >= q * n - 1e-9
            assert inside == covered, (intervals, q, x)
        for piece in pieces:
            assert piece.lo in endpoints and piece.hi in endpoints


def test_quantile_nesting_monotone_in_q():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        raw = np.sort(rng.uniform(0, 30, size=(n, 2)), axis=1)
        intervals = [Interval(float(lo), float(hi)) for lo, hi in raw]
        full = corridor(intervals)
        previous = None
        for q in (1.0, 0.9, 0.75, 0.5, 0.25):
            pieces = quantile_corridor(intervals, q)
            if full is not None and q == 1.0:
                assert pieces == [full]
            if previous is not None:
                # Every point admitted at the stricter level stays admitted.
                for piece in previous:
                    for x in (piece.lo, piece.hi, (piece.lo + piece.hi) / 2):
                        assert any(p.lo <= x <= p.hi for p in pieces)
            previous = pieces


def make_categories():
    return (
        SettingCategory("alpha", (Level("a", {}), Level("b", {}), Level("c", {}))),
        SettingCategory("beta", (Level("a", {}), Level("b", {}))),
    )


def planted_records(noise=0.0):
    cats = make_categories()
    records = []
    for la in ("a", "b", "c"):
        for lb in ("a", "b"):
            x1 = cats[0].encoding(la)
            x2 = cats[1].encoding(lb)
            y = 5.0 + 3.0 * x1 - 2.0 * x2 + noise
            records.append(
                PathwayRecord(
                    scenario_id=f"alpha-{la}_beta-{lb}",
                    horizon=2040,
                    sense="optimal",
                    epsilon=None,
                    status="optimal",
                    cost_eur=1.0,
                    h2_mt=y,
                )
            )
    return cats, records


def test_sensitivity_recovers_planted_coefficients():
    cats, records = planted_records()
    res = sensitivity(records, cats, sense="optimal", epsilon=None, horizons=[2040])
    assert res.coefficients["alpha"] == pytest.approx(3.0, abs=1e-10)
    assert res.coefficients["beta"] == pytest.approx(-2.0, abs=1e-10)
    assert res.intercept == pytest.approx(5.0, abs=1e-10)


def test_sensitivity_constant_response():
    cats, records = planted_records()
    flat = [
        PathwayRecord(r.scenario_id, r.horizon, r.sense, r.epsilon, r.status, r.cost_eur, 7.5)
        for r in records
    ]
    res = sensitivity(flat, cats, sense="optimal", epsilon=None)
    assert res.coefficients["alpha"] == pytest.approx(0.0, abs=1e-10)
    assert res.coefficients["beta"] == pytest.approx(0.0, abs=1e-10)
    assert res.intercept == pytest.approx(7.5, abs=1e-10)


def test_sensitivity_drops_and_counts_failures():
    cats, records = planted_records()
    records.append(
        PathwayRecord("alpha-a_beta-a", 2040, "optimal", None, "infeasible")
    )
    res = sensitivity(records, cats, sense="optimal", epsilon=None)
    assert res.n_dropped == 1


def test_sensitivity_collinear_design_named():
    cats = (
        SettingCategory("alpha", (Level("a", {}), Level("b", {}))),
        SettingCategory("beta", (Level("a", {}), Level("b", {}))),
    )
    records = []
    for lvl in ("a", "b"):  # alpha and beta perfectly correlated
        records.append(
            PathwayRecord(
                scenario_id=f"alpha-{lvl}_beta-{lvl}",
                horizon=2040,
                sense="optimal",
                epsilon=None,
                status="optimal",
                cost_eur=1.0,
                h2_mt=1.0,
            )
        )
    with pytest.raises(CollinearDesignError) as err:
        sensitivity(records, cats, sense="optimal", epsilon=None)
    assert set(err.value.names) >= {"alpha"}


def test_subsidy_midpoint_interpolation():
    ladder = [(0.0, 5.0, None), (0.05, 20.0, 1.0 / (0.2 * 30.0)), (0.10, 30.0, 1.0 / (0.8 * 30.0))]
    est = subsidy(25.0, ladder)
    assert est.rate_eur_per_kg == pytest.approx(0.5)
    assert est.volume_eur_per_year == pytest.approx(0.5 * 25.0 * 1e9)


def test_subsidy_degenerate_at_rung():
    ladder = [(0.0, 5.0, None), (0.05, 20.0, 1.0 / (0.2 * 30.0)), (0.10, 30.0, 1.0 / (0.8 * 30.0))]
    est = subsidy(20.0, ladder)
    assert est.rate_eur_per_kg == pytest.approx(0.2)


def test_subsidy_below_optimal_is_free():
    ladder = [(0.0, 30.0, None), (0.10, 50.0, 0.01)]
    est = subsidy(25.0, ladder)
    assert est.rate_eur_per_kg == 0.0
    assert est.volume_eur_per_year == 0.0


def test_subsidy_fallback_branch_boundary():
    mu_top = 1.0 / (0.9 * 30.0)
    ladder = [(0.0, 5.0, None), (0.10, 40.0, mu_top)]
    at_top = subsidy(40.0, ladder)
    assert at_top.bracket == (0.0, 0.10)
    beyond = subsidy(45.0, ladder)
    assert beyond.bracket == ("fallback", 0.10)
    assert beyond.rate_eur_per_kg == pytest.approx(0.9)


def test_subsidy_interpolated_rate_between_rungs():
    ladder = [(0.0, 5.0, None), (0.05, 20.0, 1.0 / (0.2 * 30.0)), (0.10, 30.0, 1.0 / (0.8 * 30.0))]
    est = subsidy(22.0, ladder)
    assert 0.2 <= est.rate_eur_per_kg <= 0.8


def test_subsidy_non_monotone_ladder_rejected():
    ladder = [(0.0, 10.0, None), (0.05, 8.0, 0.1)]
    with pytest.raises(ValueError):
        subsidy(9.0, ladder)


def test_subsidy_requires_zero_rung():
    with pytest.raises(ValueError):
        subsidy(10.0, [(0.05, 20.0, 0.1)])


def ladder_records(sid, tops, optimal_status="optimal", horizon=2040):
    """One scenario's optimal record (5 Mt) and its ``max`` records, ``tops`` = [(eps, h2_mt, mu_raw)]."""
    values = (1.0, 5.0) if optimal_status == "optimal" else (None, None)
    out = [PathwayRecord(sid, horizon, "optimal", None, optimal_status, *values)]
    out += [PathwayRecord(sid, horizon, "max", eps, "optimal", 1.1, h2, mu) for eps, h2, mu in tops]
    return out


GOOD_TOPS = [(0.05, 20.0, 1.0 / (0.2 * 30.0)), (0.10, 30.0, 1.0 / (0.8 * 30.0))]


@pytest.mark.parametrize(
    "defect",
    [
        dict(tops=GOOD_TOPS[:1]),  # no max record at the top slack level
        dict(tops=GOOD_TOPS, optimal_status="infeasible"),
        dict(tops=[GOOD_TOPS[0], (0.10, 15.0, GOOD_TOPS[1][2])]),  # production falls with slack
        dict(tops=[GOOD_TOPS[0], (0.10, 30.0, 0.0)]),  # the budget dual prices nothing
    ],
    ids=["missing-max-rung", "failed-optimal", "non-monotone", "non-positive-dual"],
)
def test_subsidy_rows_skip_a_defective_ladder(defect):
    records = ladder_records("good", GOOD_TOPS) + ladder_records("bad", **defect)
    records += ladder_records("bad", GOOD_TOPS, horizon=2050)  # another horizon does not fill the gap
    rows, skipped = subsidy_rows(records, 25.0, 2040)
    assert skipped == 1
    priced = (pytest.approx(0.5), pytest.approx(0.5 * 25.0 * 1e9))
    assert rows == [("good", *priced), ("MEAN", *priced)]


def test_subsidy_rows_mean_over_priced_scenarios():
    faster = [(0.05, 20.0, 1.0 / (0.4 * 30.0)), (0.10, 30.0, 1.0 / (1.0 * 30.0))]
    records = ladder_records("a", GOOD_TOPS) + ladder_records("b", faster)
    rows, skipped = subsidy_rows(records, 25.0, 2040)
    assert skipped == 0
    assert [row[0] for row in rows] == ["a", "b", "MEAN"]
    assert rows[-1][1] == pytest.approx((0.5 + 0.7) / 2)
    assert subsidy_rows(records, 25.0, 2035) == ([], 2)


def sample_records():
    records = []
    for sid, h_min, h_max in (("s1", 1.0, 6.0), ("s2", 2.0, 5.0)):
        records.append(PathwayRecord(sid, 2040, "optimal", None, "optimal", 1.0, 3.0))
        records.append(PathwayRecord(sid, 2040, "min", 0.1, "optimal", 1.0, h_min, -0.01))
        records.append(PathwayRecord(sid, 2040, "max", 0.1, "optimal", 1.1, h_max, 0.01))
    return records


def test_report_files_and_round_trip(tmp_path):
    records = sample_records()
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    written1 = report(records, out1)
    written2 = report(list(records), out2)
    assert set(written1) == {"pathway_ranges", "corridor"}
    for name in written1:
        assert written1[name].read_text() == written2[name].read_text()
    corridor_lines = written1["corridor"].read_text().splitlines()
    assert len(corridor_lines) >= 2  # header + one row per horizon/quantile piece


def test_report_empty_store_headers_only(tmp_path):
    written = report([], tmp_path / "empty")
    for path in written.values():
        lines = path.read_text().splitlines()
        assert len(lines) == 1


def test_report_corridor_row_count_one_per_horizon(tmp_path):
    records = sample_records()
    written = report(records, tmp_path / "rows", quantiles=(1.0,))
    lines = written["corridor"].read_text().splitlines()[1:]
    horizons = {line.split(",")[0] for line in lines}
    assert horizons == {"2040"}
