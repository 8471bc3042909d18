"""Per-vehicle and fleet reward functions.

Two reward flavours share the same component forms: the default one adds a
collision penalty, the custom one drops it entirely (a safety shield makes
collision penalties pointless) and re-weights toward speed and merging.
Headway enters through the log-ratio of the actual gap to the desired
``tau * v`` gap, so the reward is zero exactly at the desired headway,
positive closer in, negative farther out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from mergeshield import world as _world
from mergeshield.dynamics import check_floats
from mergeshield.shield import bumper_gap

if TYPE_CHECKING:
    from mergeshield.world import Vehicle, World

__all__ = [
    "RewardWeights",
    "V_FLOOR",
    "headway_reward",
    "speed_reward",
    "merge_reward",
    "custom_reward",
    "default_reward",
    "fleet_rewards",
]

#: speed floor keeping the headway ratio defined near standstill [m/s]
V_FLOOR = 1.0


@dataclass(frozen=True)
class RewardWeights:
    """The reward flavour, ``default`` or ``custom``, with the weights and
    scales of both.

    ``w_c`` only enters the default flavour.  The custom flavour uses
    ``w_h = 1, w_s = 4, w_m = 8``: merging is prioritised, speed second,
    small headway third.  The desired headway ``tau`` and the merge
    length are the scenario's and the road's, read from the world.
    """

    function: str = "custom"
    w_c: float = 200.0
    w_s: float = 4.0
    w_h: float = 1.0
    w_m: float = 8.0
    v_min: float = 10.0
    v_max: float = 30.0

    def __post_init__(self):
        check_floats(self)
        if self.function not in ("default", "custom"):
            raise ValueError(f"function must be default or custom, got {self.function!r}")
        if not (0.0 < self.v_min < self.v_max):
            raise ValueError(f"need 0 < v_min < v_max, got [{self.v_min}, {self.v_max}]")


def headway_reward(dx_ol: float, v_e: float, tau: float) -> float:
    """-log of the gap over the desired gap ``tau * v_e``.

    Zero at the desired headway, positive when closer, negative when
    farther.  Speeds below ``V_FLOOR`` clamp to the floor value.
    """
    if not dx_ol > 0:
        raise ValueError(f"leader gap must be positive, got {dx_ol}")
    v = V_FLOOR if V_FLOOR > v_e else v_e
    return -math.log(dx_ol / (tau * v))


def speed_reward(v_e: float, v_min: float, v_max: float) -> float:
    """Linear ramp between the desired speed band, saturated at 1."""
    r = (v_e - v_min) / (v_max - v_min)
    return 1.0 if 1.0 < r else r


def merge_reward(x_m: float, merge_length: float) -> float:
    """Penalty for lingering on the merge lane, growing toward its end."""
    d = x_m - merge_length
    return -math.exp(-(d * d) / (10.0 * merge_length))


def _leader_gap(world: "World", vehicle: "Vehicle") -> float | None:
    c_ol = _world.neighbors(world, vehicle).c_ol
    if c_ol is None:
        return None
    gap = bumper_gap(vehicle, c_ol)
    return gap if gap > 0 else None


def custom_reward(vehicle: "Vehicle", weights: RewardWeights, world: "World") -> float:
    """Shielded-driving reward: no collision term by design.  The desired
    headway is the scenario's ``tau`` and the merge penalty scales with the
    road's merge length."""
    gap = _leader_gap(world, vehicle)
    r_h = 0.0 if gap is None else headway_reward(gap, vehicle.state.speed, world.scenario.tau)
    r_s = speed_reward(vehicle.state.speed, weights.v_min, weights.v_max)
    r_m = 0.0
    if vehicle.lane == world.road.ramp_lane:
        r_m = merge_reward(vehicle.x_m(world.road), world.road.merge_length)
    return weights.w_h * r_h + weights.w_s * r_s + weights.w_m * r_m


def default_reward(vehicle: "Vehicle", weights: RewardWeights, world: "World") -> float:
    """Baseline reward with a collision term: ``r_c = -1`` when crashed."""
    r_c = -1.0 if vehicle.crashed else 0.0
    return weights.w_c * r_c + custom_reward(vehicle, weights, world)


def fleet_rewards(world: "World", weights: RewardWeights, *, vids) -> dict:
    """Per-vehicle (individual, neighbourhood-averaged) rewards of the
    vehicles ``vids``.

    ``weights.function`` selects the reward flavour.  The episode loop
    names the vehicles that acted this step, so a wreck from an earlier
    step gets no reward.  Individual rewards are computed once
    each, and only for the named vehicles and the members of their
    perceived groups, which can include wrecks.

    The group average adds left to right from ``0 + own``, the order a
    plain ``sum`` used before Python 3.12 made float sums compensated, so
    records are the same bytes on every supported Python.
    """
    fn = {"default": default_reward, "custom": custom_reward}[weights.function]
    individual: dict = {}
    wanted = set(vids)
    out = {}
    for v in world.vehicles:
        if v.vid in wanted:
            own = individual.get(v.vid)
            if own is None:
                own = individual[v.vid] = fn(v, weights, world)
            total = 0 + own
            group = _world.perceived(world, v)
            for o in group:
                r = individual.get(o.vid)
                if r is None:
                    r = individual[o.vid] = fn(o, weights, world)
                total += r
            out[v.vid] = (own, total / (1 + len(group)))
    return out
