"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; each criterion is a separate test with its tolerance pinned inline.
"""

import time

import numpy as np
import pytest

from corridor_kit.analysis import Interval, quantile_corridor, subsidy, sensitivity, tapering_point, corridor
from corridor_kit.fleet import fleet_from_document
from corridor_kit.mga import SlackSpec, add_cost_budget, extremize
from corridor_kit.network import build_network
from corridor_kit.pathway import PathwayRecord, run_pathways
from corridor_kit.reduction import reduce_document
from corridor_kit.scenarios import apply_scenario
from corridor_kit.simplex import solve, verify_kkt
from corridor_kit.translate import translate

from lp_oracles import dense, enumerate_vertices_minimum, random_problem

HORIZONS = [2030, 2035, 2040, 2045, 2050]


def _report(num: int, text: str):
    print(f"\n[criterion {num:02d}] PASS  {text}")


def test_criterion_01_solver_correctness():
    rng = np.random.default_rng(7042)
    start = time.time()
    solved = 0
    oracle_checked = 0
    for k in range(50):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, max(2, n)))
        prob = random_problem(rng, n, m)
        sol = solve(prob)
        assert sol.status in ("optimal", "infeasible"), f"problem {k}: {sol.status}"
        if sol.status == "optimal":
            solved += 1
            rep = verify_kkt(prob, sol)
            assert rep.primal <= 1e-8 and rep.dual <= 1e-8 and rep.gap <= 1e-8, (
                f"problem {k}: residuals {rep}"
            )
        if n <= 6:
            status, best = enumerate_vertices_minimum(prob)
            assert sol.status == status
            if status == "optimal":
                assert abs(sol.objective - best) <= 1e-9 * (1 + abs(best))
                oracle_checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    assert solved >= 30 and oracle_checked >= 3
    _report(
        1,
        f"50 random LPs: {solved} optimal with KKT residuals <= 1e-8, "
        f"{oracle_checked} vertex-oracle agreements to 1e-9, {elapsed:.1f}s < 10s",
    )


def _two_stage_oracle(network, fleet, sense, budget):
    """Independent lexicographic solve: min cost, then extremize h among optima.

    Stage one re-derives the optimum cost from scratch and must reproduce the
    recorded budget; stage two then pins the cost at that budget (so both
    paths face the identical feasible set) and extremizes the target through
    a direct row construction rather than the production budget machinery.
    """
    prob = translate(network, fleet)
    stage1 = solve(prob)
    assert stage1.status == "optimal"
    c_opt = stage1.objective
    assert abs(c_opt - budget) <= 1e-6 * budget, f"lineage optimum {c_opt} != budget {budget}"
    coeffs = {int(j): float(prob.c[j]) for j in np.nonzero(prob.c)[0]}
    target = prob.aux["electrolysis_output_mwh"]
    objective = np.zeros(prob.n)
    for j, coeff in target.items():
        objective[j] = coeff
    if sense == "max":
        objective = -objective
    stage2_prob = prob.with_row("oracle_budget", coeffs, "le", budget, objective=objective)
    stage2 = solve(stage2_prob)
    assert stage2.status == "optimal"
    h_mwh = stage2_prob.aux_value("electrolysis_output_mwh", stage2.x)
    return h_mwh / 1e6 / 33.33


def test_criterion_02_mga_exact_at_zero_slack(doc8, base_scenario):
    every = list(run_pathways(doc8, HORIZONS, base_scenario, [SlackSpec(0.0, "min"), SlackSpec(0.0, "max")]))
    recs = [s.record for s in every if s.record.sense == "optimal"]
    assert all(r.status == "optimal" for r in recs)
    worst = 0.0
    for sense in ("min", "max"):
        steps = [s for s in every if s.record.sense == sense]
        assert len(steps) == len(HORIZONS)
        for step in steps:
            assert step.record.status == "optimal"
            budget = next(r.cost_eur for r in recs if r.horizon == step.record.horizon)
            h_oracle = _two_stage_oracle(step.network, step.fleet, sense, budget)
            diff = abs(step.record.h2_mt - h_oracle)
            worst = max(worst, diff)
            assert diff <= 1e-6 * max(1.0, abs(h_oracle)), (
                f"{sense}@{step.record.horizon}: {step.record.h2_mt} vs oracle {h_oracle}"
            )
    _report(2, f"zero-slack min/max equal the two-stage oracle on every horizon (worst gap {worst:.2e} Mt)")


def test_criterion_03_epsilon_nesting_first_horizon(doc8, base_scenario):
    slacks = [SlackSpec(eps, sense) for eps in (0.02, 0.05, 0.10) for sense in ("max", "min")]
    every = list(run_pathways(doc8, [2030], base_scenario, slacks))
    maxima, minima = [], []
    for eps in (0.02, 0.05, 0.10):
        up = [s for s in every if (s.record.sense, s.record.epsilon) == ("max", eps)]
        dn = [s for s in every if (s.record.sense, s.record.epsilon) == ("min", eps)]
        assert up[0].record.status == dn[0].record.status == "optimal"
        maxima.append(up[0].record.h2_mt)
        minima.append(dn[0].record.h2_mt)
    tol = 1e-6  # Mt; the per-solve budget is enforced to 1e-8 * c_star
    assert maxima[0] <= maxima[1] + tol and maxima[1] <= maxima[2] + tol, maxima
    assert minima[0] >= minima[1] - tol and minima[1] >= minima[2] - tol, minima
    _report(3, f"first-horizon nesting: max {['%.2f' % v for v in maxima]}, min {['%.2f' % v for v in minima]}")


def test_criterion_04_budget_respected(mini_matrix):
    records = mini_matrix["records"]
    c_star = {
        (r.scenario_id, r.horizon): r.cost_eur
        for r in records
        if r.sense == "optimal" and r.status == "optimal"
    }
    checked = 0
    for rec in records:
        if rec.sense not in ("min", "max") or rec.status != "optimal":
            continue
        budget = (1 + rec.epsilon) * c_star[(rec.scenario_id, rec.horizon)]
        assert rec.cost_eur <= budget * (1 + 1e-8), (
            f"{rec.scenario_id} {rec.sense}@{rec.horizon} eps={rec.epsilon}: "
            f"cost {rec.cost_eur} > budget {budget}"
        )
        checked += 1
    assert checked >= 100
    _report(4, f"all {checked} extremal records satisfy cost <= (1+eps) c* (1+1e-8)")


def test_criterion_05_dual_finite_difference(doc8, scenario_index):
    rel_delta = 1e-4
    samples = 0
    worst = 0.0
    sids = [
        f"ccs-{c}_biomass-b_imports-{i}_electrolyser-{e}_transport-b_weather-a"
        for c in "abc"
        for i in "ab"
        for e in "ab"
    ][:6]
    for sid in sids:
        scenario = scenario_index[sid]
        network = apply_scenario(build_network(doc8, 2030), scenario, 2030)
        fleet = fleet_from_document(doc8).active(2030)
        problem = translate(network, fleet)
        base = solve(problem)
        assert base.status == "optimal"
        for eps in (0.02, 0.05, 0.10):
            budgeted = add_cost_budget(problem, base.objective, eps)
            sol, mu = extremize(budgeted, "max")
            if sol.status != "optimal" or mu is None or mu <= 0:
                continue
            rhs = budgeted.meta["budget_rhs"]
            row = budgeted.row_labels.index("budget")
            activity = float(dense(budgeted)[row] @ sol.x)
            if abs(activity - rhs) > 1e-6 * rhs:
                continue  # budget not binding
            delta = rel_delta * base.objective
            bumped = add_cost_budget(problem, base.objective + delta / (1 + eps), eps)
            sol2, _ = extremize(bumped, "max")
            if sol2.status != "optimal":
                continue
            slope = (sol2.objective - sol.objective) / (bumped.meta["budget_rhs"] - rhs)
            rel_err = abs(slope - mu) / abs(mu)
            worst = max(worst, rel_err)
            assert rel_err <= 0.05, f"{sid} eps={eps}: mu {mu} vs slope {slope}"
            samples += 1
    assert samples >= 10, f"only {samples} binding samples"
    _report(5, f"{samples} binding extremizations: budget dual matches FD slope (worst {worst:.2%})")


def test_criterion_06_corridor_algebra_oracle():
    rng = np.random.default_rng(60321)
    start = time.time()
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        raw = np.sort(rng.uniform(0, 50, size=(n, 2)), axis=1)
        raw = np.round(raw, 2)
        intervals = [Interval(float(lo), float(hi)) for lo, hi in raw]
        q = float(rng.choice([0.25, 0.5, 0.7, 0.75, 0.9, 1.0]))
        pieces = quantile_corridor(intervals, q)
        endpoints = sorted({iv.lo for iv in intervals} | {iv.hi for iv in intervals})
        probes = list(endpoints)
        probes += [(a + b) / 2 for a, b in zip(endpoints, endpoints[1:])]
        probes += [endpoints[0] - 1.0, endpoints[-1] + 1.0]
        need = q * n - 1e-9
        for x in probes:
            inside = any(p.lo <= x <= p.hi for p in pieces)
            covered = sum(1 for iv in intervals if iv.lo <= x <= iv.hi) >= need
            assert inside == covered, (trial, x, q)
        full = corridor(intervals)
        q1 = quantile_corridor(intervals, 1.0)
        if full is None:
            assert q1 == []
            taper = tapering_point(intervals)
            best = max(sum(1 for iv in intervals if iv.lo <= x <= iv.hi) for x in probes)
            at_taper = sum(1 for iv in intervals if iv.lo <= taper <= iv.hi)
            assert at_taper == best
            lower = [
                x for x in endpoints
                if sum(1 for iv in intervals if iv.lo <= x <= iv.hi) == best
            ]
            assert taper == min(lower)
        else:
            assert q1 == [full]
    elapsed = time.time() - start
    assert elapsed < 5.0, f"corridor oracle took {elapsed:.1f}s"
    _report(6, f"1000 random interval sets: sweep equals brute-force coverage, {elapsed:.1f}s < 5s")


def test_criterion_07_subsidy_formula():
    ladder = [
        (0.0, 5.0, None),
        (0.02, 15.0, 1.0 / (0.15 * 30.0)),
        (0.05, 20.0, 1.0 / (0.2 * 30.0)),
        (0.10, 30.0, 1.0 / (0.8 * 30.0)),
    ]
    # Mid-bracket interpolation reproduces the closed form exactly.
    est = subsidy(25.0, ladder)
    assert est.rate_eur_per_kg == pytest.approx(0.5, abs=1e-15)
    assert est.volume_eur_per_year == pytest.approx(12.5e9, abs=1e-3)
    # Degenerate interpolation at a rung.
    assert subsidy(20.0, ladder).rate_eur_per_kg == pytest.approx(0.2, abs=1e-15)
    # No subsidy needed below the cost optimum.
    assert subsidy(4.0, ladder).rate_eur_per_kg == 0.0
    # The fallback branch triggers exactly above the top rung.
    assert subsidy(30.0, ladder).bracket == (0.05, 0.10)
    beyond = subsidy(30.0 + 1e-9, ladder)
    assert beyond.bracket == ("fallback", 0.10)
    assert beyond.rate_eur_per_kg == pytest.approx(0.8)
    _report(7, "subsidy interpolation exact on hand-built ladders; fallback iff target > M(0.10)")


def test_criterion_08_sensitivity_regression(mini_matrix, mini_categories):
    from corridor_kit.scenarios import Level, SettingCategory

    cats = (
        SettingCategory("alpha", (Level("a", {}), Level("b", {}), Level("c", {}))),
        SettingCategory("beta", (Level("a", {}), Level("b", {}))),
        SettingCategory("gamma", (Level("a", {}), Level("b", {}))),
    )
    planted = []
    for la in "abc":
        for lb in "ab":
            for lc in "ab":
                y = 2.5 + 3.0 * cats[0].encoding(la) - 2.0 * cats[1].encoding(lb) + 0.25 * cats[2].encoding(lc)
                planted.append(
                    PathwayRecord(
                        f"alpha-{la}_beta-{lb}_gamma-{lc}", 2040, "optimal", None,
                        "optimal", 1.0, y,
                    )
                )
    res = sensitivity(planted, cats, sense="optimal", epsilon=None)
    assert res.coefficients["alpha"] == pytest.approx(3.0, abs=1e-10)
    assert res.coefficients["beta"] == pytest.approx(-2.0, abs=1e-10)
    assert res.coefficients["gamma"] == pytest.approx(0.25, abs=1e-10)

    records = mini_matrix["records"]
    reg_cats = [c for c in mini_categories if len(c.levels) >= 2]
    opt = sensitivity(records, reg_cats, sense="optimal", epsilon=None, horizons=[2040, 2045, 2050])
    low = sensitivity(records, reg_cats, sense="min", epsilon=0.05, horizons=[2040, 2045, 2050])
    assert opt.coefficients["ccs"] < 0, opt.coefficients
    assert opt.coefficients["electrolyser"] > 0, opt.coefficients
    assert low.coefficients["imports"] < 0, low.coefficients
    _report(
        8,
        "planted factorial recovered to 1e-10; fixture signs: "
        f"ccs {opt.coefficients['ccs']:+.2f}, electrolyser {opt.coefficients['electrolyser']:+.2f} (optimal), "
        f"imports {low.coefficients['imports']:+.2f} (min)",
    )


def test_criterion_09_directional_import_dependence(mini_matrix):
    records = mini_matrix["records"]
    horizon_90pct = 2040  # the horizon where the cap reaches 10% of baseline

    def min_h(sid, eps):
        hits = [
            r for r in records
            if r.scenario_id == sid and r.horizon == horizon_90pct and r.sense == "min" and r.epsilon == eps
        ]
        assert hits and hits[0].status == "optimal", f"no usable min record for {sid} eps={eps}"
        return hits[0].h2_mt

    restricted = "ccs-a_biomass-b_imports-a_electrolyser-a_transport-b_weather-a"
    unrestricted = "ccs-a_biomass-b_imports-b_electrolyser-a_transport-b_weather-a"
    h_restricted = min_h(restricted, 0.10)
    h_unrestricted = min_h(unrestricted, 0.02)
    assert h_restricted > 0.1, f"restricted minimum {h_restricted} not strictly positive"
    assert h_unrestricted <= 1e-6, f"unrestricted minimum {h_unrestricted} not zero"
    _report(
        9,
        f"2040 minimum production: {h_restricted:.2f} Mt under restricted imports + lowest storage cap "
        f"(eps=0.10) vs {h_unrestricted:.2g} Mt unrestricted (eps=0.02)",
    )


def test_criterion_10_aggregation_equivalence(doc8, base_scenario):
    plain = list(run_pathways(doc8, HORIZONS, base_scenario, aggregate=False))
    merged = list(run_pathways(doc8, HORIZONS, base_scenario, aggregate=True))
    assert len(plain) == len(merged) == len(HORIZONS)
    worst_cost = worst_h = 0.0
    for a, b in zip(plain, merged):
        assert a.record.status == b.record.status == "optimal"
        dc = abs(a.record.cost_eur - b.record.cost_eur) / a.record.cost_eur
        dh = abs(a.record.h2_mt - b.record.h2_mt) / max(1.0, a.record.h2_mt)
        worst_cost, worst_h = max(worst_cost, dc), max(worst_h, dh)
        assert dc <= 1e-6 and dh <= 1e-6, f"horizon {a.record.horizon}: {dc}, {dh}"
    _report(10, f"aggregated pathway equals unaggregated (cost gap {worst_cost:.1e}, h gap {worst_h:.1e})")


def test_criterion_11_segmentation_fidelity(fixture_doc, doc8, base_scenario):
    # Weighted demand conserved exactly by construction of segment means.
    net32 = build_network(fixture_doc, 2030)
    net8 = build_network(doc8, 2030)
    for asset in net32.assets:
        if asset.kind != "load":
            continue
        full = float(asset.demand @ net32.snapshots.weights)
        red = float(net8.asset(asset.id).demand @ net8.snapshots.weights)
        assert red == pytest.approx(full, rel=1e-12)
    assert net8.snapshots.total_hours == pytest.approx(8760.0)

    costs = {}
    for label, doc in (("8", doc8), ("32", fixture_doc)):
        net = apply_scenario(build_network(doc, 2030), base_scenario, 2030)
        prob = translate(net, fleet_from_document(doc).active(2030))
        sol = solve(prob)
        assert sol.status == "optimal"
        costs[label] = sol.objective
    gap = abs(costs["8"] - costs["32"]) / costs["32"]
    assert gap <= 0.05, f"8-segment cost differs by {gap:.2%}"
    _report(11, f"8-segment optimum within {gap:.2%} of the 32-segment optimum; demand conserved exactly")


def test_criterion_12_matrix_accounting(mini_matrix):
    records = mini_matrix["records"]
    scenarios = mini_matrix["scenarios"]
    horizons = mini_matrix["horizons"]
    epsilons = mini_matrix["epsilons"]
    cap = len(scenarios) * len(horizons) * (1 + 2 * len(epsilons))
    assert len(records) <= cap
    n_failed = sum(1 for r in records if r.status != "optimal")

    # Every chain is a horizon prefix; anything shorter ends in a recorded failure.
    for scenario in scenarios:
        combos = [("optimal", None)] + [(s, e) for e in epsilons for s in ("min", "max")]
        for sense, eps in combos:
            chain = sorted(
                (r for r in records if r.scenario_id == scenario.id and r.sense == sense and r.epsilon == eps),
                key=lambda r: r.horizon,
            )
            if not chain:
                continue
            assert [r.horizon for r in chain] == horizons[: len(chain)]
            if len(chain) < len(horizons):
                assert chain[-1].status != "optimal", (
                    f"{scenario.id} {sense} eps={eps} aborted without a recorded failure"
                )
    wall, cpu = mini_matrix["wall_seconds"], mini_matrix["cpu_seconds"]
    assert wall < 300.0, f"matrix took {wall:.0f}s wall, {cpu:.0f}s process time"
    _report(
        12,
        f"{len(records)} records (cap {cap}), {n_failed} failures recorded, "
        f"matrix wall {wall:.0f}s < 300s (process time {cpu:.0f}s)",
    )
