"""Near-optimal exploration: extremize a target functional under a cost budget.

Per horizon, the objective is replaced by the target (total electrolysis
hydrogen output) and the original cost enters as one extra "budget" row
``cost . x <= (1 + eps) * c_star``, where ``c_star`` is that horizon's
optimum from the cost-optimal pathway of the same scenario.  Min and max
sequences inherit their fleet from the same-sense solution at the previous
horizon (the lineage rule), while the budget always references the optimal
sequence.

This module holds only the LP-level work: the budget row, the extremization
and :func:`budgeted_step`, one horizon's budgeted solve with its cleanup.
The horizon loop (phase-out, carry-over, build, translate, extract) that
runs it for every min/max pathway is :func:`corridor_kit.pathway.run_pathways`.

The reported ranges are conservative: the extremum at horizon ``i`` is taken
over solutions reachable from this lineage's predecessor only, whereas the
full near-optimal space at ``i`` allows any near-optimal predecessor, so the
true attainable range can be wider.  Nothing here asserts tightness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .lp import LpProblem
from .simplex import solve as _simplex_solve
from .translate import TARGET_AUX

BUDGET_LABEL = "budget"
PIN_LABEL = "target_pin"
# The cleanup's pin holds the target within PIN_SLACK_REL * |h*| + PIN_SLACK_MWH
# of the extremum h* (in the LP's target unit, MWh); 1e-2 MWh is 3.0e-10 Mt.
PIN_SLACK_REL = 1e-9
PIN_SLACK_MWH = 1e-2

logger = logging.getLogger(__name__)


def solve(problem: LpProblem):
    """``simplex.solve`` with the primal start, for the extremizations and the cleanups.

    Which optimal vertex these re-solves end at moves recorded answers inside
    the cleanup pin's slack, and a zero-slack cleanup on the dual start can
    pick a fleet that leaves the next horizon's budget out of reach.  So they
    keep phase 1 until neither depends on the vertex (ROADMAP items 1 and
    2).  The solver is bound at import, so a tracer that rebinds both
    ``simplex.solve`` and this function counts each re-solve once.
    """
    return _simplex_solve(problem, primal_start=True)


@dataclass(frozen=True)
class SlackSpec:
    epsilon: float
    sense: str  # "min" or "max"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, not {self.sense!r}")


def add_cost_budget(problem: LpProblem, c_star: float, epsilon: float) -> LpProblem:
    """Attach the cost-budget row and swap the objective for the target.

    The budget row holds the problem's own cost vector; the target is its
    electrolysis output.  ``meta`` records the row's ``budget_rhs`` and the
    ``epsilon`` it was built with.
    """
    if c_star is None:
        raise ValueError("c_star missing: run the cost-optimal pathway first")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    objective = np.zeros(problem.n)
    for j, coeff in problem.aux[TARGET_AUX].items():
        objective[j] = coeff
    coeffs = {int(j): float(problem.c[j]) for j in np.nonzero(problem.c)[0]}
    rhs = (1.0 + epsilon) * c_star
    out = problem.with_row(BUDGET_LABEL, coeffs, "le", rhs, objective=objective)
    out.meta.update(budget_rhs=rhs, epsilon=epsilon)
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


def pinned_cleanup(budgeted: LpProblem, solution, sense: str, cost: np.ndarray) -> LpProblem:
    """The cleanup LP: least ``cost`` with the target pinned within the slack of ``solution``'s extremum."""
    h_star = float(budgeted.c @ solution.x)
    slack = PIN_SLACK_REL * abs(h_star) + PIN_SLACK_MWH
    pin_sense = "le" if sense == "min" else "ge"
    bound = h_star + slack if sense == "min" else h_star - slack
    target_coeffs = {int(j): float(budgeted.c[j]) for j in np.nonzero(budgeted.c)[0]}
    return budgeted.with_row(PIN_LABEL, target_coeffs, pin_sense, bound, objective=cost)


def _cheapest_representative(budgeted: LpProblem, solution, sense: str, cost: np.ndarray):
    """Among solutions attaining the extremal target value, pick the cheapest.

    An extremization alone leaves every other dimension free inside the cost
    budget, so a vertex solver may return a solution that wastes the whole
    budget on unused capacity; carried into the next horizon such a fleet can
    make later budgets unreachable.  Re-solving for minimum cost with the
    target pinned at its extremal value is a deterministic tie-break.  The pin
    holds the target within ``PIN_SLACK_REL |h*| + PIN_SLACK_MWH`` of the
    extremum ``h*``, and the pathway records the target value of the
    solution returned here, so a recorded value can sit anywhere inside that
    slack rather than at ``h*``.  ``cost`` is the cost vector that the budget
    row holds.  If the cleanup solve is not optimal, the extremization's own
    solution is kept and a warning names the LP, its scenario, the sense, the
    slack level and the status.
    """
    refined = solve(pinned_cleanup(budgeted, solution, sense, cost))
    if refined.status != "optimal":
        logger.warning(
            "%s (scenario %s): %s cleanup solve at epsilon %s ended %s; keeping the extremal solution as found",
            budgeted.meta.get("name"), budgeted.meta.get("scenario"), sense, budgeted.meta.get("epsilon"),
            refined.status,
        )
        return solution
    return refined


def budgeted_step(problem: LpProblem, c_star: float, slack: SlackSpec, is_last: bool):
    """One horizon of an extremal pathway: ``(solution, mu)`` of ``problem`` under its budget.

    ``problem`` is the horizon's translated cost-minimization LP and
    ``c_star`` its optimal cost.  Unless ``is_last``, an optimal extremization
    is replaced by its cheapest representative, the solution whose fleet the
    next horizon inherits.
    """
    budgeted = add_cost_budget(problem, c_star, slack.epsilon)
    solution, mu = extremize(budgeted, slack.sense)
    if solution.status == "optimal" and not is_last:
        # The tie-break matters only for the fleet the next horizon inherits.
        solution = _cheapest_representative(budgeted, solution, slack.sense, problem.c)
    return solution, mu
