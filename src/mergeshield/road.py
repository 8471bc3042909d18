"""Merging-road geometry.

One through highway lane (index 0, centreline y = 0) plus an on-ramp
acceleration lane (index ``highway_lanes``, one lane width to the right,
increasing y).  The ramp runs parallel to the highway; lane changes between
ramp and highway are geometrically possible only inside the merge window
``[merge_start, merge_end]``.  Arc position along the highway reference line
equals the x coordinate for every lane, which makes longitudinal gaps
comparable across lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RoadNetwork"]


@dataclass(frozen=True)
class RoadNetwork:
    highway_lanes: int = 1
    lane_width: float = 4.0
    merge_start: float = 200.0
    merge_length: float = 100.0

    def __post_init__(self):
        if self.highway_lanes < 1:
            raise ValueError("need at least one highway lane")
        if not self.lane_width > 0:
            raise ValueError(f"lane_width must be positive, got {self.lane_width}")
        if not self.merge_length > 0:
            raise ValueError(f"merge_length must be positive, got {self.merge_length}")

    @property
    def merge_end(self) -> float:
        return self.merge_start + self.merge_length

    @property
    def ramp_lane(self) -> int:
        return self.highway_lanes

    def centerline_y(self, lane: int) -> float:
        return lane * self.lane_width

    def in_merge_window(self, x: float) -> bool:
        return self.merge_start <= x <= self.merge_end

    def shift_lane(self, lane: int, direction: int, x: float) -> int | None:
        """Target lane for a left (-1) or right (+1) change, if reachable."""
        target = lane + direction
        if target < 0 or target > self.ramp_lane:
            return None
        if target == self.ramp_lane or lane == self.ramp_lane:
            # ramp adjacency only inside the merge window
            if not self.in_merge_window(x):
                return None
        return target
