"""Discrete behavioural action space and built-in decision policies.

Policies map per-vehicle observations to one of five behavioural actions per
step.  Built-ins are pure functions of (observation, seed, step index).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from mergeshield.world import Vehicle, World

__all__ = [
    "BehaviorAction",
    "POLICY_KINDS",
    "PolicySpec",
    "Policy",
    "RandomPolicy",
    "HeuristicPolicy",
    "random_policy",
    "heuristic_policy",
    "build_policy",
]


class BehaviorAction(enum.IntEnum):
    """Behavioural decision issued once per vehicle per step.

    Integer values are the encoding used by episode records.
    """

    LANE_RIGHT = 0
    LANE_LEFT = 1
    FOLLOW_LANE = 2
    SPEED_UP = 3
    SLOW_DOWN = 4


#: decision-makers :func:`build_policy` can build
POLICY_KINDS = ("random", "heuristic")


@dataclass(frozen=True)
class PolicySpec:
    """Which decision-maker drives the episode: one of :data:`POLICY_KINDS`."""

    kind: str = "random"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")


def random_policy(observation, rng: np.random.Generator) -> BehaviorAction:
    """Uniform draw over the five actions; blind to the observation."""
    return BehaviorAction(int(rng.integers(0, len(BehaviorAction))))


def heuristic_policy(observation, vehicle: "Vehicle", world: "World") -> BehaviorAction:
    """Scripted merging baseline.

    Ramp vehicles speed-match the target lane and request a lane change
    whenever the lateral gap test passes; highway vehicles hold their lane,
    speed up under a generous headway and give way when a ramp vehicle is
    working the merge section.
    """
    from mergeshield import shield as shield_mod
    from mergeshield.world import neighbor_index, neighbors

    road = world.road
    cfg = world.scenario
    v = vehicle.state.speed

    if vehicle.lc_phase == "changing":
        return BehaviorAction.FOLLOW_LANE

    if vehicle.lane == road.ramp_lane and not vehicle.merge_failed:
        near = neighbors(world, vehicle)
        if road.in_merge_window(vehicle.state.x):
            if shield_mod.allow_lane_change(vehicle, near.c_oal, near.c_oar, world.shield):
                return BehaviorAction.LANE_LEFT
            if near.c_oal is not None:
                gap_leader_v = near.c_oal.state.speed
                if v > gap_leader_v + 1.0:
                    return BehaviorAction.SLOW_DOWN
                if v < gap_leader_v - 1.0:
                    return BehaviorAction.SPEED_UP
            return BehaviorAction.FOLLOW_LANE
        if v < 0.8 * vehicle.params.v_cap and v < cfg.initial_speed_range[1]:
            return BehaviorAction.SPEED_UP
        return BehaviorAction.FOLLOW_LANE

    # highway vehicle: give way near the merge section when ramp traffic is
    # present, but never yield below a crawl (stopped queues help nobody)
    if vehicle.state.x < road.merge_end and v > 8.0:
        for other in neighbor_index(world).lanes.get(road.ramp_lane, ()):
            if other.vid == vehicle.vid or other.crashed or other.merge_failed:
                continue
            if not (road.merge_start - 50.0 <= other.state.x <= road.merge_end):
                continue
            dx = other.state.x - vehicle.state.x
            if abs(dx) < 60.0 and math.hypot(dx, other.state.y - vehicle.state.y) <= cfg.comm_range:
                return BehaviorAction.SLOW_DOWN

    near = neighbors(world, vehicle)
    gap_ok = near.c_ol is None or (near.c_ol.state.x - vehicle.state.x) > 2.0 * cfg.tau * max(v, 1.0) + 15.0
    if gap_ok and v < cfg.initial_speed_range[1]:
        return BehaviorAction.SPEED_UP
    return BehaviorAction.FOLLOW_LANE


class Policy:
    """Joint decision interface: one action per live vehicle per step."""

    #: set False when the policy never reads observations (lets the episode
    #: loop skip building them)
    needs_observations = True

    def start_episode(self, world: "World", seed: int) -> None:
        pass

    def decide(self, step_index, world, observations, rewards, dones):
        raise NotImplementedError

    def end_episode(self, summary: dict) -> None:
        pass


class RandomPolicy(Policy):
    """Seeded uniform policy; deterministic per (seed, step, vehicle id)."""

    needs_observations = False

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def start_episode(self, world, seed):
        self.seed = int(seed)

    def decide(self, step_index, world, observations, rewards, dones):
        actions = {}
        for vehicle in world.vehicles:
            if vehicle.crashed:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(step_index, vehicle.vid))
            )
            actions[vehicle.vid] = random_policy(observations.get(vehicle.vid), rng)
        return actions


class HeuristicPolicy(Policy):
    """Deterministic scripted merger / giver-of-way."""

    def decide(self, step_index, world, observations, rewards, dones):
        actions = {}
        for vehicle in world.vehicles:
            if vehicle.crashed:
                continue
            actions[vehicle.vid] = heuristic_policy(observations.get(vehicle.vid), vehicle, world)
        return actions


def build_policy(spec: PolicySpec) -> Policy:
    if spec.kind == "random":
        return RandomPolicy()
    return HeuristicPolicy()
