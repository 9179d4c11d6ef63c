"""Built-asset fleet carried between planning horizons."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FleetEntry:
    """One build decision: capacity of an asset with parameters frozen as built.

    ``params`` holds the bus efficiencies and marginal cost at build time;
    capital is sunk and never re-enters an objective.  The entry is active at
    horizon Y iff ``build_year <= Y < build_year + lifetime``.
    """

    asset_id: str
    build_year: int
    capacity_mw: float
    lifetime: int
    params: dict = field(default_factory=dict)

    def active_at(self, horizon: int) -> bool:
        return self.build_year <= horizon < self.build_year + self.lifetime


@dataclass(frozen=True)
class Fleet:
    entries: tuple[FleetEntry, ...] = ()

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def active(self, horizon: int) -> "Fleet":
        return Fleet(tuple(e for e in self.entries if e.active_at(horizon)))

    def for_asset(self, asset_id: str) -> tuple[FleetEntry, ...]:
        return tuple(e for e in self.entries if e.asset_id == asset_id)

    def extended(self, new_entries) -> "Fleet":
        return Fleet(self.entries + tuple(new_entries))


def fleet_from_document(document: dict) -> Fleet:
    """Initial infrastructure listed under the document's ``initial_fleet`` key."""
    entries = []
    for spec in document.get("initial_fleet", []):
        entries.append(
            FleetEntry(
                asset_id=spec["asset"],
                build_year=int(spec["build_year"]),
                capacity_mw=float(spec["capacity_mw"]),
                lifetime=int(spec["lifetime"]),
                params=dict(spec.get("params", {})),
            )
        )
    return Fleet(tuple(entries))
