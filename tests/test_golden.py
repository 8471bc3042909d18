"""Golden digests of whole episode records.

Each case hashes the bytes ``write_episode`` would write for one short
episode, as three digests: the header line (config echo and initial
snapshot), the step lines, and the summary line.  A change that moves any
simulated number, shield decision or record field changes a digest; such a
change must update the digest here and state the behavioural reason in
``CHANGES.md``.  A change to the config echo alone moves only the header
digest, and a change to the record format alone leaves the summary digest
as it was.
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

#: (shield mode, policy, seed) -> sha256 of the (header, steps, summary)
#: of the record; 80-step episodes.
GOLDEN = {
    ("mass", "random", 1): (
        "635b0ec32d86cb348fc9b41e9c2c6f521dda991890ebf52861d4cefa7545a117",
        "12ced84f83d65d41b22d64309a1c3620640f22e2ea91269d98723b279a2ea8d4",
        "f499111dfd7c4793910663891500f662ef2f318ee8921b04eef2e8d90f34e8ee",
    ),
    ("hss", "heuristic", 2): (
        "c9ee8c804227ac926bcb47e629031746abf49a4ee95765dde248edd770e3863f",
        "d27c40454b6e02c1b37146fde61c45a6cc683eb68517f9074b3c4c3894c8084a",
        "8abafd58bbc302bba8d668cc7d8d18b3b8179b500d7b45b76e72c088284131a1",
    ),
    ("none", "random", 0): (
        "a07bd11de459d134246a14e96132f839e07b57da658875448e557cd74ce47493",
        "17cd484b3a5466fd0ef54c8f89e1170161594b16d002a2944721a1b1e9ab5b83",
        "e9a636ad52a8a453d3d8e5df66e665b2b78a44e3cc0acc464bf45e5ff40486b4",
    ),
    ("mass", "heuristic", 2): (
        "baeca8084b2950ec1d45263df6eefcc5f4583efcbd004a4dfefdfc92485607bd",
        "69faa46f7aa6978ae9e17f3003c6d7a3b3af08f7c351f639d5447bc31a46214b",
        "19cdd9fe0cc9b56b431d86373f96a1b1ec2f27c307b7deed693176c1ed8dbeed",
    ),
    ("hss", "random", 1): (
        "327253f62242606209fc06c69a05123f7f7b5342385daaf2190f68130ffa367b",
        "005150fbeb26f343e1d99f77a020c734fcf1fdce1b6d9c1da6db6cb6d84fd0bb",
        "133f9090f8c41933551921b465ccaef51e0a953712bc320f6a1beeea7ec4d2d1",
    ),
    ("none", "heuristic", 2): (
        "da0b0182ef7a8dbac9c3eb08d8d3337538f1ba2736720b6eda456b134a06a788",
        "21fa5e8493e2ae7d77dadebaf88a18ee5da0bafb41f3a706b7268baa686bb17d",
        "b2038ace38ecaac9224a4d6a2147b487046d1d3bfeb91debeb51c0ee065f1e74",
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
    "564de9cb3342ce5feea7430664bfbd398ccbdfe349f21f9624b7dd8ef1b236a3",
    "c1b4fa8628c01941800ed5585b72f0d11d7be2e6f39c3b2772ee9079ff6f7ffd",
    "2dfb3e016820612c48ef3345b3cb6689dc176db85aef965a822812275ffb7c90",
)


def digests(record):
    """sha256 of the header line, of the step lines and of the summary
    line, each block newline-terminated as in the written file."""
    lines = episode_lines(record)
    return tuple(hashlib.sha256(("\n".join(block) + "\n").encode()).hexdigest()
                 for block in (lines[:1], lines[1:-1], lines[-1:]))


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
