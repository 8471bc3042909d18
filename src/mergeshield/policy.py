"""Built-in decision policies.

Policies map the world state to one of the five behavioural actions of
:class:`mergeshield.world.BehaviorAction` per live vehicle per step.  A
policy sees the step index, the world and, if it asks for them, one
observation per live vehicle; rewards are recorded but never handed back.
The random policy's action is a pure function of (seed, step index,
vehicle id), drawn from the stream of numpy's
``default_rng(SeedSequence(entropy=seed, spawn_key=(step,)))``, which
:mod:`mergeshield.seedstream` reproduces bit for bit in integer arithmetic
(numpy is not needed); the heuristic's is a pure function of the world
state.  The heuristic reads the world's perception queries as attributes
of the ``world`` module at call time, so a patched ``world.neighbors`` is
seen here too.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from mergeshield import shield as _shield
from mergeshield import world as _world
from mergeshield.seedstream import SeedPool
from mergeshield.world import BehaviorAction

if TYPE_CHECKING:
    from mergeshield.world import Vehicle, World

__all__ = [
    "POLICY_KINDS",
    "PolicySpec",
    "Policy",
    "RandomPolicy",
    "HeuristicPolicy",
    "heuristic_policy",
    "build_policy",
]


#: decision-makers :func:`build_policy` can build
POLICY_KINDS = ("random", "heuristic")


@dataclass(frozen=True)
class PolicySpec:
    """Which decision-maker drives the episode: one of :data:`POLICY_KINDS`."""

    kind: str = "random"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")


#: action by its integer encoding, for indexing with a draw; then each as a
#: constant, as a read off the class goes through the enum's metaclass
_ACTIONS = tuple(BehaviorAction)
_LANE_RIGHT, _LANE_LEFT, _FOLLOW_LANE, _SPEED_UP, _SLOW_DOWN = _ACTIONS


def heuristic_policy(vehicle: "Vehicle", world: "World") -> BehaviorAction:
    """Scripted merging baseline.

    Ramp vehicles speed-match the target lane and request a lane change
    whenever the lateral gap test passes; highway vehicles hold their lane,
    speed up under a generous headway and give way when a ramp vehicle is
    working the merge section.
    """
    road = world.road
    cfg = world.scenario
    v = vehicle.state.speed

    if vehicle.target_lane != vehicle.lane:
        return _FOLLOW_LANE

    if vehicle.lane == road.ramp_lane and not vehicle.merge_failed:
        near = _world.neighbors(world, vehicle)
        if road.in_merge_window(vehicle.state.x):
            if _shield.allow_lane_change(vehicle, near.c_oal, near.c_oar, world.shield):
                return _LANE_LEFT
            if near.c_oal is not None:
                gap_leader_v = near.c_oal.state.speed
                if v > gap_leader_v + 1.0:
                    return _SLOW_DOWN
                if v < gap_leader_v - 1.0:
                    return _SPEED_UP
            return _FOLLOW_LANE
        if v < 0.8 * vehicle.params.v_cap and v < cfg.initial_speed_range[1]:
            return _SPEED_UP
        return _FOLLOW_LANE

    # highway vehicle: give way near the merge section when ramp traffic is
    # present, but never yield below a crawl (stopped queues help nobody)
    if vehicle.state.x < road.merge_end and v > 8.0:
        # the fleet is sorted by x; every vehicle that can pass the
        # |dx| < 60 test lies in [fl(x - 60), fl(x + 60)]; the ego is off
        # the ramp or has failed its merge, so the filter skips it
        index = _world.neighbor_index(world)
        lo = bisect.bisect_left(index.xs, vehicle.state.x - 60.0)
        hi = bisect.bisect_right(index.xs, vehicle.state.x + 60.0)
        for other in index.ordered[lo:hi]:
            if other.lane != road.ramp_lane or other.crashed or other.merge_failed:
                continue
            if not (road.merge_start - 50.0 <= other.state.x <= road.merge_end):
                continue
            dx = other.state.x - vehicle.state.x
            if abs(dx) < 60.0 and math.hypot(dx, other.state.y - vehicle.state.y) <= cfg.comm_range:
                return _SLOW_DOWN

    c_ol = _world.neighbors(world, vehicle).c_ol
    gap_ok = c_ol is None or (
        c_ol.state.x - vehicle.state.x > 2.0 * cfg.tau * (1.0 if 1.0 > v else v) + 15.0)
    if gap_ok and v < cfg.initial_speed_range[1]:
        return _SPEED_UP
    return _FOLLOW_LANE


class Policy:
    """Joint decision interface: one action per live vehicle per step.

    ``start_episode`` receives the episode seed before the first step.
    ``decide`` maps the step index, the world and the observations (by
    vid, empty unless ``needs_observations``) to actions by vid; a live
    vehicle without one follows its lane.
    """

    #: set False when the policy never reads observations (lets the episode
    #: loop skip building them)
    needs_observations = True

    def start_episode(self, seed: int) -> None:
        pass

    def decide(self, step_index, world, observations):
        raise NotImplementedError


class RandomPolicy(Policy):
    """Seeded uniform policy; deterministic per (seed, step, vehicle id).

    One generator per step draws a vector indexed by vehicle id: numpy's
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(step,)))
    .integers(0, 5, size)``, computed by :class:`SeedPool`, which mixes the
    seed into the entropy pool once per episode and each step's key into a
    copy of it.  A longer draw from the same generator starts with the
    shorter one, so a vehicle's action does not depend on the fleet's size,
    on which vehicles are crashed or on the order of calls.
    """

    needs_observations = False

    def __init__(self, seed: int = 0):
        self.start_episode(seed)

    def start_episode(self, seed):
        self._pool = SeedPool(seed)

    def decide(self, step_index, world, observations):
        live = [v.vid for v in world.vehicles if not v.crashed]
        if not live:
            return {}
        draws = self._pool.generator(step_index).integers(len(_ACTIONS), 1 + max(live))
        return {vid: _ACTIONS[draws[vid]] for vid in live}


class HeuristicPolicy(Policy):
    """Deterministic scripted merger / giver-of-way."""

    def decide(self, step_index, world, observations):
        actions = {}
        for vehicle in world.vehicles:
            if vehicle.crashed:
                continue
            actions[vehicle.vid] = heuristic_policy(vehicle, world)
        return actions


def build_policy(spec: PolicySpec) -> Policy:
    if spec.kind == "random":
        return RandomPolicy()
    return HeuristicPolicy()
