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
        "3e9c5dcf917bdfd2f228679b2b47dd3facba46732e366fb67ff3fa4f7b14c559",
        "8d28c5e6e0dc4696bc2b66375876b2752aee7a7302960c5592f5816939f4a55f",
        "8410748353097a3f1c09ce38a2929229a67b43746e71d1d8efcada066a2de4bb",
    ),
    ("hss", "heuristic", 2): (
        "729d570ce656bc9cf47f02fd27362e0806879bac41d1d3bda233039b348deb87",
        "2883b6c7d4cdd33e13fa4a2dc2297f06734226cd701a3803786c4ec927e4c881",
        "93f2a22c2634dfbf176d3c20735f6296281409aef2066c28a347fe78379cee96",
    ),
    ("none", "random", 0): (
        "43086aa00861f8013b3acda4202912bff5f128ad76e5e5b6f25424172e7499ec",
        "17cd484b3a5466fd0ef54c8f89e1170161594b16d002a2944721a1b1e9ab5b83",
        "e9a636ad52a8a453d3d8e5df66e665b2b78a44e3cc0acc464bf45e5ff40486b4",
    ),
    ("mass", "heuristic", 2): (
        "77b28bf15871dbbbfae997a688c67f2638fcd9dbc764f632ec11155537e414e7",
        "88788d433c4a7a0edbdce0751aa7a4f75736bb155cf0b9dfc81d3ce569718819",
        "60a59a4dc35c00c3d9202e7e30f14acfb87c9e2d23bb21a2a7f05b36c5c347a5",
    ),
    ("hss", "random", 1): (
        "e15afb3babf5860919d9dcafa9ef1df114dc0b4af97a84d0ab63e319931ac5f3",
        "de09ef2c91ebfc564d3e7611d68a9171464be8971ce717317317dfd3e7313d9c",
        "0e8409b0d2b31ee204e489fe5f1ae206ad061381548cea0957ab9f83a30f262e",
    ),
    ("none", "heuristic", 2): (
        "bccbe379a41ced0fa2c55d5d3f3acf50a8421ed49f4975bf4e6f90c625623055",
        "21fa5e8493e2ae7d77dadebaf88a18ee5da0bafb41f3a706b7268baa686bb17d",
        "b2038ace38ecaac9224a4d6a2147b487046d1d3bfeb91debeb51c0ee065f1e74",
    ),
    ("hss", "random", 7): (
        "0359f86b309caaf35d3a371ab61ff970071b593e6608caaeb38b05f9adb3ed01",
        "75c9189063773f289152caa4f9f39d749e97ba484c7c185c465f79d7a7a9f9cc",
        "76d70a83412fc3ad63a90944b77ff6e538bf9ca25342ce16c7e617b7d5c21bcb",
    ),
    ("mass", "random", 7): (
        "e8b31efb453ee2d5e1a365e2429458b8c3eec620c3890cc1cb0aaaedbd9a084a",
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
    "a868ccb377a8982b8dc7b0991ad3d856c330f15dbe6067373ef9a113588ea1f0",
    "3adbb46c40468fa8ac5a4fe685220c98427aa7b604b5d360baae795f07c4ad7c",
    "c1d761cbdb50d9835517a83aec5e66f77b3cfd215dec992e137a20cf77cc026f",
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
