"""``episode.run_episode``'s loop, and ``episode.is_violation``: a
collision or a headway below the threshold."""

import math

import pytest

from mergeshield.config import RunConfig
from mergeshield.episode import is_violation, run_episode
from mergeshield.metrics import EpisodeSummary
from mergeshield.policy import PolicySpec
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

CFG = RunConfig(headway_violation_threshold=0.45)


def summary(min_headway, collisions=0):
    return EpisodeSummary(
        seed=0, steps=150, shield_mode="mass", policy="random", min_headway=min_headway,
        avg_speed=20.0, merging_pct=100.0, collisions=collisions, merged_count=3, ramp_count=3,
    )


@pytest.mark.parametrize("min_headway, collisions, violated", [
    (2.0, 1, True),                         # a collision, whatever the headway
    (math.nextafter(0.45, 0.0), 0, True),   # just below the threshold
    (0.45, 0, False),                       # exactly at it
    (math.inf, 0, False),                   # no leader pair, no collision
])
def test_violation(min_headway, collisions, violated):
    assert is_violation(summary(min_headway, collisions), CFG) is violated


def test_the_episode_ends_once_every_vehicle_is_wrecked():
    # unshielded, the two vehicles of seed 8 collide long before step 200;
    # the loop stops in the step after, instead of recording wrecks
    cfg = RunConfig(scenario=ScenarioConfig(n_vehicles=2, n_ramp=1, episode_steps=200),
                    shield=ShieldConfig(mode="none"), policy=PolicySpec(kind="random"))
    record, summary = run_episode(cfg, 8)
    assert 1 < len(record.steps) < 200
    assert summary.steps == len(record.steps)
    assert all(r.crashed for r in record.steps[-1].vehicles)
    assert not all(r.crashed for r in record.steps[-2].vehicles)
