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
    ("mass", "random", 1): "6ccd2c5bff1083784d0b292a91948e95538fc2ea6a2d46f7de7e2d02f2d2fefd",
    ("hss", "heuristic", 2): "14922b98b34ab42bb35707e80cf2dc61e8909ce7a27593a9e8f3e97520ef1774",
    ("none", "random", 0): "0f1bc7b81c5a6dfda13eab99f39937f2b611c442951beef7fb61c9e8603684a2",
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
DENSE_GOLDEN = "2739c7945453c11e50d74fba766d1d1eb226e244b053efeff3036f42449f565f"


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
