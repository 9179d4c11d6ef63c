"""Myopic multi-horizon driver: sequential per-horizon optimizations.

Each planning horizon is optimized without foresight of later ones; unexpired
capacity built at earlier horizons is carried forward with parameters frozen
as built, and assets at the end of their lifetime are phased out.  The same
horizon loop drives the min/max pathways of :mod:`corridor_kit.mga`, which
supply only a budgeted per-horizon solve and share the optimal chain's
networks; every chain translates its own LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fleet import Fleet, FleetEntry, fleet_from_document
from .network import Network, build_network
from .reduction import aggregate_build_years, disaggregate
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
    fleet: Fleet  # the fleet entering this horizon (after phase-out)
    network: Network | None = None


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


def exempt_asset_ids(network: Network) -> frozenset:
    """Assets whose parameters change over time and must never be aggregated."""
    return frozenset(a.id for a in network.assets for tag in ("electrolysis", "carbon-capture") if tag in a.tags)


def run_optimal_pathway(
    document: dict,
    horizons: list[int],
    scenario: Scenario,
    aggregate: bool = False,
) -> list[HorizonStep]:
    """Cost-optimal sequence over the horizons with capacity carry-over.

    An infeasible (or otherwise failed) horizon is recorded and aborts the
    chain; earlier steps are retained.
    """
    if list(horizons) != sorted(set(horizons)):
        raise ValueError("horizons must be strictly increasing")

    def step(problem, horizon, is_last):
        return "optimal", None, problem, solve(problem), None

    return _run_chain(document, horizons, scenario, step, aggregate)


def _run_chain(document, horizons, scenario, step, aggregate, networks=None):
    """The myopic horizon loop shared by the optimal and the min/max pathways.

    ``step(problem, horizon, is_last)`` solves one horizon's translated LP and
    returns ``(sense, epsilon, solved_problem, solution, mu)``; the dispatch is
    extracted from ``solved_problem``, whose cost vector prices ``cost_eur``.
    A non-optimal solution is recorded and aborts the chain.  ``networks``
    maps each horizon to the scenario's network, built by another chain;
    without it each horizon's network is built here.
    """
    steps: list[HorizonStep] = []
    fleet = fleet_from_document(document)
    prev: HorizonStep | None = None
    for horizon in horizons:
        if prev is not None:
            fleet = carry_over(prev.dispatch, prev.fleet, prev.network, horizon)
        else:
            fleet = phase_out(fleet, horizon)
        if networks is not None:
            network = networks[horizon]
        else:
            network = apply_scenario(build_network(document, horizon), scenario, horizon)
        work_fleet, agg_map = fleet, None
        if aggregate:
            # The grouping lives only inside this horizon's solve, on a fleet
            # already phased out for it.
            work_fleet, agg_map = aggregate_build_years(fleet, exempt_asset_ids(network))
        problem = translate(network, work_fleet)
        sense, epsilon, solved, solution, mu = step(problem, horizon, horizon == horizons[-1])
        dispatch, values = None, {}
        if solution.status == "optimal":
            dispatch = extract(solved, solution)
            if agg_map is not None:
                dispatch = disaggregate(dispatch, agg_map)
            values = dict(cost_eur=dispatch.objective, h2_mt=dispatch.target_value_mt, mu_raw=mu)
        record = PathwayRecord(
            scenario_id=scenario.id,
            horizon=horizon,
            sense=sense,
            epsilon=epsilon,
            status=solution.status,
            **values,
        )
        prev = HorizonStep(record=record, dispatch=dispatch, fleet=fleet, network=network)
        steps.append(prev)
        if dispatch is None:
            break
    return steps
