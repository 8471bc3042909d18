"""Episode loop: policy -> step -> rewards -> record, fully deterministic.

The record stores the initial snapshot plus one post-step snapshot per
step, each carrying the actions, shield outcomes and rewards that produced
it.  Only the vehicles that acted in a step, including any that crashed
during it, are rewarded for it.
"""

from __future__ import annotations

from mergeshield.config import RunConfig, resolved_dict
from mergeshield.metrics import EpisodeSummary, summarize_episode
from mergeshield.policy import Policy, build_policy
from mergeshield.records import EpisodeRecord, snapshot_step, snapshot_vehicle
from mergeshield.reward import fleet_rewards
from mergeshield.seedstream import SeedPool
from mergeshield.world import World, observe, spawn, step_world

__all__ = ["build_world", "run_episode", "is_violation"]


def build_world(cfg: RunConfig, seed: int) -> World:
    """The episode's initial world: the fleet spawned from the stream of
    ``np.random.default_rng(seed)``, which :mod:`mergeshield.seedstream`
    reproduces bit for bit without numpy."""
    cfg = cfg.resolved()
    rng = SeedPool(seed).generator()
    vehicles = spawn(cfg.scenario, cfg.road, rng, params=cfg.vehicle)
    return World(road=cfg.road, scenario=cfg.scenario, shield=cfg.shield,
                 vehicles=vehicles)


def run_episode(cfg: RunConfig, seed: int, policy: Policy | None = None) -> tuple:
    """Run one episode; returns (record, summary).

    ``policy`` defaults to a fresh instance built from the config spec; a
    supplied policy object can be reused across episodes.
    """
    cfg = cfg.resolved()
    world = build_world(cfg, seed)
    if policy is None:
        policy = build_policy(cfg.policy)
    policy.start_episode(seed)

    record = EpisodeRecord(
        seed=seed,
        config=resolved_dict(cfg),
        initial=tuple(map(snapshot_vehicle, world.vehicles)),
    )

    for k in range(cfg.scenario.episode_steps):
        live = world.live_vehicles()
        if not live:
            break
        if policy.needs_observations:
            observations = {v.vid: observe(world, v) for v in live}
        else:
            observations = {}
        actions = policy.decide(k, world, observations)
        outcomes, topology = step_world(world, actions)
        reward_pairs = fleet_rewards(world, cfg.reward, vids=actions)
        previous = record.steps[-1].vehicles if record.steps else record.initial
        record.steps.append(snapshot_step(world, k, actions, outcomes, topology, reward_pairs,
                                          previous))
    summary = summarize_episode(record, cfg.shield.mode, cfg.policy.kind)
    record.summary = summary.to_dict()
    return record, summary


def is_violation(summary: EpisodeSummary, cfg: RunConfig) -> bool:
    """Safety violation: a collision or a min headway below
    ``run.headway_violation_threshold``, which does not follow ``scenario.tau``."""
    return summary.collisions > 0 or (
        summary.min_headway < cfg.headway_violation_threshold
    )
