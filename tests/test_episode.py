"""``episode.is_violation``: a collision or a headway below the threshold."""

import math

import pytest

from mergeshield.config import RunConfig
from mergeshield.episode import is_violation
from mergeshield.metrics import EpisodeSummary

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
