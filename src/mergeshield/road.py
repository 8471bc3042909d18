"""Merging-road geometry.

The paper's congested on-ramp merge: one through lane (index 0, centreline
y = 0) and the on-ramp acceleration lane (index 1, ``ramp_lane``, one lane
width to the right, increasing y).  There is exactly one through lane
because that is the scenario evaluated, and because perception models one
adjacent lane per vehicle: the other lane.  A second through lane would
put a vehicle cutting in from the far side outside every neighbour query
and so outside the shield.  The ramp runs parallel to the highway; lane
changes between ramp and highway are geometrically possible only inside
the merge window ``[merge_start, merge_end]``.  Arc position along the
highway reference line equals the x coordinate in both lanes, which makes
longitudinal gaps comparable across lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from mergeshield.dynamics import check_floats

__all__ = ["RoadNetwork"]


@dataclass(frozen=True)
class RoadNetwork:
    #: the ramp's lane index; the through lane is 0
    ramp_lane: ClassVar[int] = 1

    lane_width: float = 4.0
    merge_start: float = 200.0
    merge_length: float = 100.0

    def __post_init__(self):
        check_floats(self, ("lane_width", "merge_length"))

    @property
    def merge_end(self) -> float:
        return self.merge_start + self.merge_length

    def centerline_y(self, lane: int) -> float:
        return lane * self.lane_width

    def in_merge_window(self, x: float) -> bool:
        return self.merge_start <= x <= self.merge_end

    def shift_lane(self, lane: int, direction: int, x: float) -> int | None:
        """The other lane, if a left (-1) or right (+1) change from ``lane``
        leads there and ``x`` lies inside the merge window; else None."""
        target = lane + direction
        if target != 1 - lane or not self.in_merge_window(x):
            return None
        return target
