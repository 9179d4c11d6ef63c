"""Near-optimal exploration: extremize a target functional under a cost budget.

Per horizon, the objective is replaced by the target (total electrolysis
hydrogen output) and the original cost enters as one extra "budget" row
``cost . x <= (1 + eps) * c_star``, where ``c_star`` is that horizon's
optimum from the cost-optimal pathway of the same scenario.  Min and max
sequences inherit their fleet from the same-sense solution at the previous
horizon (the lineage rule), while the budget always references the optimal
sequence.

The horizon loop (phase-out, carry-over, build, translate, extract) lives
in :mod:`corridor_kit.pathway`; this module supplies only the budgeted
per-horizon step that replaces the cost-optimal solve.  Each horizon's
network is taken from the optimal pathway's step, so a (scenario, horizon)
network is built once for all its pathways; the pathways share nothing else,
and each translates its own LPs.

The reported ranges are conservative: the extremum at horizon ``i`` is taken
over solutions reachable from this lineage's predecessor only, whereas the
full near-optimal space at ``i`` allows any near-optimal predecessor, so the
true attainable range can be wider.  Nothing here asserts tightness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lp import LpProblem
from .pathway import HorizonStep, _run_chain
from .scenarios import Scenario
from .simplex import solve

BUDGET_LABEL = "budget"
PIN_LABEL = "target_pin"
TARGET_AUX = "electrolysis_output_mwh"


@dataclass(frozen=True)
class SlackSpec:
    epsilon: float
    sense: str  # "min" or "max"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, not {self.sense!r}")


def add_cost_budget(
    problem: LpProblem,
    cost: np.ndarray,
    c_star: float,
    epsilon: float,
    target: dict[int, float] | None = None,
) -> LpProblem:
    """Attach the cost-budget row and swap the objective for the target.

    ``cost`` is the original objective being budgeted; ``target`` a sparse
    column->coefficient map (defaults to the problem's electrolysis output).
    """
    if c_star is None:
        raise ValueError("c_star missing: run the cost-optimal pathway first")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    cost = np.asarray(cost, dtype=float)
    if target is None:
        target = problem.aux[TARGET_AUX]
    objective = np.zeros(problem.n)
    for j, coeff in target.items():
        objective[j] = coeff
    coeffs = {int(j): float(cost[j]) for j in np.nonzero(cost)[0]}
    rhs = (1.0 + epsilon) * c_star
    out = problem.with_row(BUDGET_LABEL, coeffs, "le", rhs, objective=objective)
    out.meta["cost_vector"] = cost
    out.meta["budget_rhs"] = rhs
    out.meta["c_star"] = c_star
    out.meta["epsilon"] = epsilon
    return out


def extremize(problem: LpProblem, sense: str):
    """Min- or maximize the target subject to the budget row.

    Returns ``(solution, mu)`` where ``mu`` is the budget-row dual expressed
    as the marginal change of the extremized target value per unit of budget
    (>= 0 for maximizations, <= 0 for minimizations, 0 when non-binding).
    The solution's objective is reported as the target value itself.
    """
    if BUDGET_LABEL not in problem.row_labels:
        raise ValueError("problem has no budget row; call add_cost_budget first")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, not {sense!r}")
    solve_problem = replace(problem, c=-problem.c) if sense == "max" else problem
    solution = solve(solve_problem)
    if solution.status != "optimal":
        return solution, None
    row = problem.row_labels.index(BUDGET_LABEL)
    mu = float(solution.y[row])
    if sense == "max":
        # The solver minimized -target: flip value and marginal back.
        solution.objective = -solution.objective
        mu = -mu
    return solution, mu


def _cheapest_representative(budgeted: LpProblem, solution, sense: str):
    """Among solutions attaining the extremal target value, pick the cheapest.

    An extremization alone leaves every other dimension free inside the cost
    budget, so a vertex solver may return a solution that wastes the whole
    budget on unused capacity; carried into the next horizon such a fleet can
    make later budgets unreachable.  Re-solving for minimum cost with the
    target pinned at its extremal value is a deterministic tie-break that
    leaves the recorded extremal value untouched.
    """
    h_star = float(budgeted.c @ solution.x)
    slack = 1e-9 * abs(h_star) + 1e-2
    pin_sense = "le" if sense == "min" else "ge"
    bound = h_star + slack if sense == "min" else h_star - slack
    target_coeffs = {int(j): float(budgeted.c[j]) for j in np.nonzero(budgeted.c)[0]}
    cost = budgeted.meta["cost_vector"]
    cleanup = budgeted.with_row(PIN_LABEL, target_coeffs, pin_sense, bound, objective=cost)
    cleanup.meta["cost_vector"] = cost
    refined = solve(cleanup)
    if refined.status != "optimal":
        return solution
    return refined


def run_extremal_pathway(
    document: dict,
    horizons: list[int],
    scenario: Scenario,
    slack: SlackSpec,
    optimal_steps: list[HorizonStep],
    aggregate: bool = False,
) -> list[HorizonStep]:
    """Extremal sequence along its own lineage, budgeted by the optimal one.

    ``optimal_steps`` is the cost-optimal chain of the same scenario; it must
    cover every requested horizon with an optimal record, whose cost is that
    horizon's ``c_star`` and whose network is shared rather than rebuilt;
    nothing else is shared.  A failed extremization is recorded and aborts the
    chain.
    """
    optimal_of = {
        s.record.horizon: s
        for s in optimal_steps
        if s.record.sense == "optimal" and s.record.status == "optimal"
    }
    for horizon in horizons:
        if horizon not in optimal_of:
            raise ValueError(f"no optimal-cost record for horizon {horizon}")

    def step(problem, horizon, is_last):
        c_star = optimal_of[horizon].record.cost_eur
        budgeted = add_cost_budget(problem, problem.c, c_star, slack.epsilon)
        solution, mu = extremize(budgeted, slack.sense)
        if solution.status == "optimal" and not is_last:
            # The tie-break matters only for the fleet the next horizon inherits.
            solution = _cheapest_representative(budgeted, solution, slack.sense)
        return slack.sense, slack.epsilon, budgeted, solution, mu

    networks = {h: s.network for h, s in optimal_of.items()}
    return _run_chain(document, horizons, scenario, step, aggregate, networks)
