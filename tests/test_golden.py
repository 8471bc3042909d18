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
        "142c35d77dde55deb6600590a5a1ded416528bd3c7ebd601d249bf48493895a1",
        "8d28c5e6e0dc4696bc2b66375876b2752aee7a7302960c5592f5816939f4a55f",
        "8410748353097a3f1c09ce38a2929229a67b43746e71d1d8efcada066a2de4bb",
    ),
    ("hss", "heuristic", 2): (
        "c91fec538ab6501b9d488344f2736ac189dc0b18320d9705d73c0de7834db06b",
        "2883b6c7d4cdd33e13fa4a2dc2297f06734226cd701a3803786c4ec927e4c881",
        "93f2a22c2634dfbf176d3c20735f6296281409aef2066c28a347fe78379cee96",
    ),
    ("none", "random", 0): (
        "6760d050e468e0528139358639a4037cdb4e15396dc3c7ca8199596ffe7f3352",
        "17cd484b3a5466fd0ef54c8f89e1170161594b16d002a2944721a1b1e9ab5b83",
        "e9a636ad52a8a453d3d8e5df66e665b2b78a44e3cc0acc464bf45e5ff40486b4",
    ),
    ("mass", "heuristic", 2): (
        "88900f22fef63236964b478e76f98a629a7a5ba39e84618653a98a657b7b217c",
        "88788d433c4a7a0edbdce0751aa7a4f75736bb155cf0b9dfc81d3ce569718819",
        "60a59a4dc35c00c3d9202e7e30f14acfb87c9e2d23bb21a2a7f05b36c5c347a5",
    ),
    ("hss", "random", 1): (
        "620f0cf4cdeeb8628cce3571d33393e490d7898d0ee6289dfa6d0aac0fd64263",
        "de09ef2c91ebfc564d3e7611d68a9171464be8971ce717317317dfd3e7313d9c",
        "0e8409b0d2b31ee204e489fe5f1ae206ad061381548cea0957ab9f83a30f262e",
    ),
    ("none", "heuristic", 2): (
        "0ac45acc6ba73ede44c5be35c21afb80085dbd1e68a31a61c1e577acbc491579",
        "21fa5e8493e2ae7d77dadebaf88a18ee5da0bafb41f3a706b7268baa686bb17d",
        "b2038ace38ecaac9224a4d6a2147b487046d1d3bfeb91debeb51c0ee065f1e74",
    ),
    ("hss", "random", 7): (
        "465efdb5123e2065f420eaf4c4bc67ef42f1130d5dfa154d839251caf7821f0e",
        "75c9189063773f289152caa4f9f39d749e97ba484c7c185c465f79d7a7a9f9cc",
        "76d70a83412fc3ad63a90944b77ff6e538bf9ca25342ce16c7e617b7d5c21bcb",
    ),
    ("mass", "random", 7): (
        "21b0c9eb0f0461861fef7e3dea55b7ad89ded45f7e86f1cac7b5f54252d42cd6",
        "2e0a485b1eeac33c0cd51265c04bc314981fe9f464c0133fd58feba37f160fd4",
        "e57e9e7b58b5677edcf5f472744173eec47e3aaa76ff494eda311329e9dc768d",
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


def _merges_without_faults(record, summary):
    return summary.merged_count > 0 and not any(row.fault for row in _rows(record))


def _collides(record, summary):
    return summary.collisions > 0


#: what each case is there to cover; a digest says nothing about coverage
COVERAGE = {
    ("mass", "random", 1): _binds_soft_lateral_row,
    ("hss", "heuristic", 2): _merges_without_faults,
    ("none", "random", 0): _collides,
    ("mass", "heuristic", 2): _merges_without_faults,
    ("hss", "random", 1): _binds_soft_lateral_row,
    ("none", "heuristic", 2): _collides,
    ("hss", "random", 7): _merges_and_faults,
    ("mass", "random", 7): _merges_and_faults,
}


#: 40 vehicles on a long road, mass shield, heuristic policy, seed 0, 40
#: steps: over a hundred binding brake caps from highway speed and about four
#: neighbour queries per vehicle and step
DENSE_GOLDEN = (
    "a903b582b5be51737f1d8896490f5d8ce8236a1263aa69f20d19e09ed24e4327",
    "3adbb46c40468fa8ac5a4fe685220c98427aa7b604b5d360baae795f07c4ad7c",
    "c1d761cbdb50d9835517a83aec5e66f77b3cfd215dec992e137a20cf77cc026f",
)


#: the same fleet, road, shield and policy on seed 1 for 80 steps, like the
#: other cases: the brake guard's closed form runs on about 46% of its calls
DENSE_80_GOLDEN = (
    "512e74e62e93090d8b6478cb031000c365fe8e152f1082262eab218b2c8c8e7d",
    "2c15566edcbcfb46d859adbca0e58181d0481430bf3f0be5aaa4128abb99b23b",
    "b099f08480a0f39846de8d2a697a0b2da9210ac9a551eee154b312f935733df5",
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


def dense_record(seed, steps):
    """The record of a dense episode: 40 vehicles, merge section at 2000 m,
    ``mass`` shield, heuristic policy."""
    cfg = RunConfig(
        scenario=ScenarioConfig(n_vehicles=40, episode_steps=steps),
        road=RoadNetwork(merge_start=2000.0),
        shield=ShieldConfig(mode="mass"),
        policy=PolicySpec(kind="heuristic"),
        allow_offrange=True,
    )
    return run_episode(cfg, seed)[0]


def test_dense_episode_record_digest():
    assert digests(dense_record(0, 40)) == DENSE_GOLDEN


def test_dense_80_step_episode_record_digest():
    assert digests(dense_record(1, 80)) == DENSE_80_GOLDEN
