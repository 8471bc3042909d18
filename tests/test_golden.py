"""Golden digests of whole episode records.

Each case hashes the bytes ``write_episode`` would write for one short
episode, as two digests: the header line (config echo and initial
snapshot) and the step and summary lines.  A change that moves any
simulated number, shield decision or record field changes a digest; such a
change must update the digest here and state the behavioural reason in
``CHANGES.md``.  A change to the config echo alone moves only the header
digest.
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

#: (shield mode, policy, seed) -> sha256 of the (header, steps and summary)
#: of the record; 80-step episodes.
GOLDEN = {
    ("mass", "random", 1): (
        "c930f829b046dd02e526c43adfe382ba21cca79c41bb3a974fad4b65b90a07c1",
        "9856bbaa93935a766b5514e23af77a206214bb777d677d730358fa479de045cc",
    ),
    ("hss", "heuristic", 2): (
        "9276d8ec785d9343fb3e7b87fbfa674692b13598e7b74b5c239c470e9e2300eb",
        "8409f0d60d14d0f81923a4424f0a30251c84aea0e89d132f65f30b011f5068d1",
    ),
    ("none", "random", 0): (
        "929fe2e4572233739231166679f214561774825d3d7fc40ddea9749333ae714a",
        "a07724bbed2fe489accb16ab77adebb9d1bcf4484747972ad6be3dfe15ccf401",
    ),
    ("mass", "heuristic", 2): (
        "fe7156b995228982b9177e2dac7abc7bdef877ad87cbbef1fb5ea56b5e4b6dfd",
        "cafab650e53049d03679904150e30804d97c1a7e8d176e765835a7841754fffc",
    ),
    ("hss", "random", 1): (
        "b237f4fabaf5abe0d27f8ee829231be826960a9676940fce332ff43312c67119",
        "fc54b1e7841721df378ee9be14e9224b7fb6cd1a5a59dbd8eec9b2ad39fc80d9",
    ),
    ("none", "heuristic", 2): (
        "7f43f38e2855bf8f93ff85d87a3a36aec61af65669f36c4a48837dd17b6f37c2",
        "9562141f18ef1294521380bd72b257af0b5de1fbd61dd005910907cbc65160c3",
    ),
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
    ("mass", "heuristic", 2): _merges_and_faults,
    ("hss", "random", 1): _binds_soft_lateral_row,
    ("none", "heuristic", 2): _collides,
}


#: 40 vehicles on a long road, mass shield, heuristic policy, seed 0, 40
#: steps: hundreds of binding brake caps from highway speed and about four
#: neighbour queries per vehicle and step
DENSE_GOLDEN = (
    "3204e99e9a159b65741f2a74714e0fcf60d8d355ae9585eb2b5bda12f2f97982",
    "bc8b75dab14aba6398405987071c88cb3a4dde776366ba39b78f76e72b2dc858",
)


def digests(record):
    """sha256 of the header line and of the step and summary lines, each
    block newline-terminated as in the written file."""
    lines = episode_lines(record)
    return tuple(hashlib.sha256(("\n".join(block) + "\n").encode()).hexdigest()
                 for block in (lines[:1], lines[1:]))


@pytest.mark.parametrize("mode,policy,seed", sorted(GOLDEN))
def test_episode_record_digest(mode, policy, seed):
    cfg = RunConfig(
        scenario=ScenarioConfig(episode_steps=80),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
    )
    record, summary = run_episode(cfg, seed)
    assert COVERAGE[(mode, policy, seed)](record, summary)
    assert digests(record) == GOLDEN[(mode, policy, seed)]


def test_dense_episode_record_digest():
    cfg = RunConfig(
        scenario=ScenarioConfig(n_vehicles=40, episode_steps=40),
        road=RoadNetwork(merge_start=2000.0),
        shield=ShieldConfig(mode="mass"),
        policy=PolicySpec(kind="heuristic"),
        allow_offrange=True,
    )
    record, _ = run_episode(cfg, 0)
    assert digests(record) == DENSE_GOLDEN
