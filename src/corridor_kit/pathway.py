"""Myopic multi-horizon pathways: one horizon loop for all the pathways of a scenario.

Each planning horizon is optimized without foresight of later ones; unexpired
capacity built at earlier horizons is carried forward with parameters frozen
as built, and assets at the end of their lifetime are phased out.  At each
horizon, :func:`run_pathways` builds the scenario's network once, steps the
cost-optimal pathway, then steps each min/max pathway under a budget taken
from that horizon's optimal cost (the budgeted solve is
:func:`corridor_kit.mga.budgeted_step`).  Every pathway carries its own fleet
and translates its own LPs; a step that fails or raises ends only its own
pathway, unless it is the optimal one.  With ``aggregate``, each LP merges
equal vintages of distinct build years (see :func:`corridor_kit.translate.translate`);
the fleet carried to the next horizon keeps them apart.
"""

from __future__ import annotations

import traceback
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .fleet import Fleet, FleetEntry, fleet_from_document
from .mga import SlackSpec, budgeted_step
from .network import Network, build_network
from .scenarios import Scenario, apply_scenario
from .simplex import solve
from .translate import DispatchResult, extract, translate

BUILD_THRESHOLD_MW = 1e-6  # ignore numerically-zero builds when carrying over
# Solver noise: a negative build within this share of the largest build
# (at least 1 MW) counts as zero; anything more negative is an error.
NEGATIVE_BUILD_RTOL = 1e-8


@dataclass(frozen=True)
class PathwayRecord:
    """One optimization outcome within a pathway run."""

    scenario_id: str
    horizon: int
    sense: str  # optimal / min / max
    epsilon: float | None
    status: str
    cost_eur: float | None = None
    h2_mt: float | None = None
    mu_raw: float | None = None  # budget-row dual, MWh of target per EUR

    def __post_init__(self):
        if self.sense == "optimal" and self.epsilon is not None:
            raise ValueError("optimal records carry no epsilon")
        if self.status != "optimal" and (
            self.cost_eur is not None or self.h2_mt is not None or self.mu_raw is not None
        ):
            raise ValueError("failed records carry no value fields")


@dataclass
class HorizonStep:
    record: PathwayRecord
    dispatch: DispatchResult | None
    fleet: Fleet | None  # the fleet entering this horizon (after phase-out); None if the step raised
    network: Network | None = None
    error: str | None = None  # the traceback of a step that raised


def phase_out(fleet: Fleet, horizon: int) -> Fleet:
    """Keep only entries active at the horizon (built and not yet expired)."""
    return fleet.active(horizon)


def carry_over(
    previous: DispatchResult, previous_fleet: Fleet, network: Network, horizon: int
) -> Fleet:
    """Append capacity built in the previous horizon, then phase out at ``horizon``.

    Parameters of each new entry (bus efficiencies, marginal cost) are frozen
    at build time so later horizons dispatch the vintage exactly as built.
    """
    entries = []
    noise = NEGATIVE_BUILD_RTOL * max([1.0, *previous.built_capacity.values()])
    for asset_id in sorted(previous.built_capacity):
        capacity = previous.built_capacity[asset_id]
        if capacity < -noise:
            raise ValueError(f"negative built capacity for {asset_id}: {capacity}")
        if capacity <= BUILD_THRESHOLD_MW:
            continue
        asset = network.asset(asset_id)
        entries.append(
            FleetEntry(
                asset_id=asset_id,
                build_year=previous.horizon,
                capacity_mw=capacity,
                lifetime=asset.lifetime,
                params={
                    "efficiencies": dict(asset.buses),
                    "marginal_cost": asset.marginal_cost,
                },
            )
        )
    return phase_out(previous_fleet.extended(entries), horizon)


def run_pathways(
    document: dict,
    horizons: list[int],
    scenario: Scenario,
    slacks: Sequence[SlackSpec] = (),
    aggregate: bool = False,
) -> Iterator[HorizonStep]:
    """The optimal pathway and one extremal pathway per slack, horizon by horizon.

    At each horizon the scenario's network is built once and the optimal
    pathway steps first; its cost is that horizon's ``c_star``, which budgets
    a step of every live extremal pathway, in the order of ``slacks``.  Each
    pathway carries its own fleet and translates its own LP, and every step is
    yielded as soon as it completes.

    A non-optimal record ends its pathway, and so does a step that raises: it
    is recorded as ``worker_error`` at its horizon, with its traceback on
    ``step.error``.  When the optimal pathway ends, every pathway ends.
    """
    if list(horizons) != sorted(set(horizons)):
        raise ValueError("horizons must be strictly increasing")
    start = fleet_from_document(document)
    optimal: HorizonStep | None = None
    latest: list[HorizonStep | None] = [None] * len(slacks)  # each extremal pathway's latest step
    for horizon in horizons:
        try:
            network = apply_scenario(build_network(document, horizon), scenario, horizon)
            optimal = _advance(
                optimal, start, network, scenario, aggregate, "optimal", None, lambda lp: (solve(lp), None)
            )
        except Exception:
            yield _failed(scenario, horizon, "optimal", None)
            return
        yield optimal
        if optimal.dispatch is None:
            return
        c_star, is_last = optimal.record.cost_eur, horizon == horizons[-1]
        for i, slack in enumerate(slacks):
            prev = latest[i]
            if prev is not None and prev.dispatch is None:
                continue
            try:
                latest[i] = _advance(
                    prev, start, network, scenario, aggregate, slack.sense, slack.epsilon,
                    lambda lp: budgeted_step(lp, c_star, slack, is_last),
                )
            except Exception:
                latest[i] = _failed(scenario, horizon, slack.sense, slack.epsilon)
            yield latest[i]


def _advance(prev, start, network, scenario, aggregate, sense, epsilon, solve_lp) -> HorizonStep:
    """One pathway's step at the network's horizon: carry its fleet, translate, solve, extract.

    ``prev`` is the pathway's previous step (``None`` at its first horizon,
    whose fleet is ``start`` phased out).  ``solve_lp(problem)`` returns
    ``(solution, mu)``; the dispatch is extracted from the translated LP,
    whose cost vector prices ``cost_eur``.
    """
    horizon = network.horizon
    if prev is None:
        fleet = phase_out(start, horizon)
    else:
        fleet = carry_over(prev.dispatch, prev.fleet, prev.network, horizon)
    # Merged vintages live only inside this horizon's LP: the carried fleet
    # keeps every vintage, and extract splits the flow rows back onto them.
    problem = translate(network, fleet, aggregate)
    solution, mu = solve_lp(problem)
    dispatch, values = None, {}
    if solution.status == "optimal":
        dispatch = extract(problem, solution)
        values = dict(cost_eur=dispatch.objective, h2_mt=dispatch.target_value_mt, mu_raw=mu)
    record = PathwayRecord(scenario.id, horizon, sense, epsilon, solution.status, **values)
    return HorizonStep(record=record, dispatch=dispatch, fleet=fleet, network=network)


def _failed(scenario, horizon, sense, epsilon) -> HorizonStep:
    """The ``worker_error`` step of a pathway whose step at ``horizon`` raised."""
    record = PathwayRecord(scenario.id, horizon, sense, epsilon, "worker_error")
    return HorizonStep(record=record, dispatch=None, fleet=None, error=traceback.format_exc())
