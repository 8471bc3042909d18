"""Golden digests of whole episode records.

Each case hashes the bytes ``write_episode`` would write for one short
episode.  A change that moves any simulated number, shield decision or
record field changes a digest; such a change must update the digest here
and state the behavioural reason in ``CHANGES.md``.
"""

import hashlib

import pytest

from mergeshield.config import RunConfig
from mergeshield.episode import run_episode
from mergeshield.policy import PolicySpec
from mergeshield.records import episode_lines
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

#: (shield mode, policy, seed) -> sha256 of the record; 80-step episodes.
GOLDEN = {
    ("mass", "random", 1): "a51254524576a8299f4a9283ac13d96642f561fa38ebfc8beee62bd0b1afae99",
    ("hss", "heuristic", 2): "999d9e64b73570fcfed0e267d9a65a098e502f8d26b19f9654724dc7a846e09d",
    ("none", "random", 0): "ffd1666ed0da0e2d8e318faff092012c0c5d2c3ab339d420d4480f18940215c6",
}


def _rows(record):
    return [row for step in record.steps for row in step.vehicles]


def _binds_soft_lateral_row(record, summary):
    return any(row.slack is not None and row.slack > 0.0
               and any(label.startswith("lat_rear:") for label in row.active)
               for row in _rows(record))


def _merges_and_faults(record, summary):
    return summary.merged_count > 0 and any(row.fault for row in _rows(record))


def _collides(record, summary):
    return summary.collisions > 0


#: what each case is there to cover; a digest says nothing about coverage
COVERAGE = {
    ("mass", "random", 1): _binds_soft_lateral_row,
    ("hss", "heuristic", 2): _merges_and_faults,
    ("none", "random", 0): _collides,
}


#: 40 vehicles on a long road, mass shield, heuristic policy, seed 0, 40
#: steps: hundreds of binding brake caps from highway speed and about four
#: neighbour queries per vehicle and step
DENSE_GOLDEN = "0bc4d39af807aeb48d9075ff6c427cbadda52e5ad42f537277b52a3916eff967"


def digest(record):
    text = "\n".join(episode_lines(record)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode,policy,seed", sorted(GOLDEN))
def test_episode_record_digest(mode, policy, seed):
    cfg = RunConfig(
        scenario=ScenarioConfig(episode_steps=80),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
    )
    record, summary = run_episode(cfg, seed)
    assert COVERAGE[(mode, policy, seed)](record, summary)
    assert digest(record) == GOLDEN[(mode, policy, seed)]


def test_dense_episode_record_digest():
    cfg = RunConfig(
        scenario=ScenarioConfig(n_vehicles=40, episode_steps=40),
        road=RoadNetwork(merge_start=2000.0),
        shield=ShieldConfig(mode="mass"),
        policy=PolicySpec(kind="heuristic"),
        allow_offrange=True,
    )
    record, _ = run_episode(cfg, 0)
    assert digest(record) == DENSE_GOLDEN
