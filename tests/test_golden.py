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
        "8ba44c72e1c82ef8da2cbcc4a8bfdd0114ee7270b72e253b6c2f5141b96e8527",
        "208ee010feb3d4b618accc9f15d786d7a14650da23280c4d31691ff5122c3467",
        "8410748353097a3f1c09ce38a2929229a67b43746e71d1d8efcada066a2de4bb",
    ),
    ("hss", "heuristic", 2): (
        "56447b1f0143be6cdc8f3461b28befd7d6e523380f867fa7c3e4c9f1308bc9b7",
        "2883b6c7d4cdd33e13fa4a2dc2297f06734226cd701a3803786c4ec927e4c881",
        "93f2a22c2634dfbf176d3c20735f6296281409aef2066c28a347fe78379cee96",
    ),
    ("none", "random", 0): (
        "25525479265dccdca2baef90079ae99825d54f07f9d20364f4eeb6c02de3d4b1",
        "17cd484b3a5466fd0ef54c8f89e1170161594b16d002a2944721a1b1e9ab5b83",
        "e9a636ad52a8a453d3d8e5df66e665b2b78a44e3cc0acc464bf45e5ff40486b4",
    ),
    ("mass", "heuristic", 2): (
        "875b57331e1c241714a75ec53294494c7a6d2fd2764ff95b533f4090d77c63bb",
        "88788d433c4a7a0edbdce0751aa7a4f75736bb155cf0b9dfc81d3ce569718819",
        "60a59a4dc35c00c3d9202e7e30f14acfb87c9e2d23bb21a2a7f05b36c5c347a5",
    ),
    ("hss", "random", 1): (
        "a081ba9e568235d7b75256501befe72deac4e10237b93ef7e5a8455a569acbf0",
        "88b9d2bf3a17d449d3f5a34776ed96e5424cff3e4ec46823007f35bfd7df8842",
        "0e8409b0d2b31ee204e489fe5f1ae206ad061381548cea0957ab9f83a30f262e",
    ),
    ("none", "heuristic", 2): (
        "74813d3123cfdcdaaa31f8b5004580cfa8ec7de25daaa874a27b7ec1212a6e38",
        "21fa5e8493e2ae7d77dadebaf88a18ee5da0bafb41f3a706b7268baa686bb17d",
        "b2038ace38ecaac9224a4d6a2147b487046d1d3bfeb91debeb51c0ee065f1e74",
    ),
    ("hss", "random", 7): (
        "ce5f1d2adf3f6c04161f0dd9e3cc181b2e309167fd8797445ad79884137e9f1b",
        "d0fc7dc6d184fd1eec05600dd8d49010f0f9bf19e194da83a6b949ae230d9106",
        "76d70a83412fc3ad63a90944b77ff6e538bf9ca25342ce16c7e617b7d5c21bcb",
    ),
    ("mass", "random", 7): (
        "064f8ae65fb85b1a6db42fe4036fe453088c6fe7ba4e83c4ce7b8e864e033fb8",
        "0159f40f163a3deb239d83524f22ff3f8c33b6f6dd261490f449a66fb978c7f7",
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
    "f0840f4f3946a58d632c5887d11fb19ebbdb2f80a71a78e7f39dab0b973287ec",
    "3adbb46c40468fa8ac5a4fe685220c98427aa7b604b5d360baae795f07c4ad7c",
    "c1d761cbdb50d9835517a83aec5e66f77b3cfd215dec992e137a20cf77cc026f",
)


#: the same fleet, road, shield and policy on seed 1 for 80 steps, like the
#: other cases: the brake guard's closed form runs on about 46% of its calls
DENSE_80_GOLDEN = (
    "d3648b08e6e00903a88172f5d66a0589446be6946f35c59e0b83719a6a9d421e",
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
