"""Interaction topology: which leaders constrain each vehicle.

Each vehicle is mapped to a parent set of at most two vehicles strictly
ahead of it in the common longitudinal coordinate.  A lane follower depends
on its leader; a vehicle cutting in between a follower and its leader takes
the leader's place; a lane-changing vehicle depends on both its current
leader and the target-lane leader.  Rear vehicles are never parents, which
keeps the graph acyclic, and the reversed fleet order of the state's
neighbour index, front to back, is therefore always a valid evaluation
order.

The shield credits each parent by ``shield.credited_speed``: its resolved
safe command in ``mass``, the floor of its ``shield.reach`` box in ``hss``.

The parent map and the evaluation order are pure functions of the facts
``step_world`` works out once per step and hands down, the live vehicles'
neighbourhoods and the state's neighbour index; this module imports
nothing from the package at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from mergeshield.world import NeighborIndex

__all__ = ["InteractionTopology", "cutting_in", "build_topology", "evaluation_order"]


@dataclass(frozen=True)
class InteractionTopology:
    """Map vehicle id -> tuple of parent vehicle ids."""

    entries: dict

    def parents(self, vid: int) -> tuple:
        return self.entries.get(vid, ())


def cutting_in(ego, c_ol, c_oal) -> bool:
    """Adjacent leader mid-change into the ego's lane, inserting between the
    ego and its current leader (or with no current leader ahead)."""
    if c_oal is None or c_oal.target_lane == c_oal.lane or c_oal.target_lane != ego.lane:
        return False
    if not ((c_oal.state.x, -c_oal.vid) > (ego.state.x, -ego.vid)):
        return False
    return c_ol is None or ((c_ol.state.x, -c_ol.vid) > (c_oal.state.x, -c_oal.vid))


def build_topology(vehicles: list, near: dict) -> InteractionTopology:
    """Construct the parent map of one snapshot from ``near``, each live
    vehicle's ``Neighborhood`` by vid; a crashed vehicle has no parents."""
    entries: dict = {}
    for ego in vehicles:
        if ego.crashed:
            entries[ego.vid] = ()
            continue
        c_ol, c_oal, _ = near[ego.vid]

        if cutting_in(ego, c_ol, c_oal):
            parents = (c_oal.vid,)
        else:
            parents = () if c_ol is None else (c_ol.vid,)
        if ego.target_lane != ego.lane and c_oal is not None and c_oal.vid not in parents:
            parents += (c_oal.vid,)
        entries[ego.vid] = parents
    return InteractionTopology(entries=entries)


def evaluation_order(topology: InteractionTopology, index: "NeighborIndex") -> list:
    """Vehicle ids front to back (ties by id), the index's fleet order
    reversed; parents come first.

    The parent-ahead invariant makes this a topological order; a parent
    that does not rank above its child means the invariant broke, which is
    an internal error.
    """
    rank = index.rank
    for vid, parents in topology.entries.items():
        for pid in parents:
            if rank[pid] <= rank[vid]:
                raise RuntimeError(
                    f"interaction topology violates the parent-ahead invariant: "
                    f"{pid} -> {vid}"
                )
    return [v.vid for v in reversed(index.ordered)]
