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
#: mass/random seed 1 binds soft lateral rows with slack, hss/heuristic
#: seed 2 merges and faults, none/random seed 0 collides.
GOLDEN = {
    ("mass", "random", 1): "418de5e2155355f9e0673b7aabef444fcdc80685da28bf0310f1bf28812f3604",
    ("hss", "heuristic", 2): "999d9e64b73570fcfed0e267d9a65a098e502f8d26b19f9654724dc7a846e09d",
    ("none", "random", 0): "b912af29fa389500d169a6ea07f85487fee21dfc7066b71744892d9f7e90adde",
}


#: 40 vehicles on a long road, mass shield, heuristic policy, seed 0, 40
#: steps: hundreds of binding brake caps from highway speed and about four
#: neighbour queries per vehicle and step
DENSE_GOLDEN = "0bc4d39af807aeb48d9075ff6c427cbadda52e5ad42f537277b52a3916eff967"


def record_digest(cfg, seed):
    record, _ = run_episode(cfg, seed)
    text = "\n".join(episode_lines(record)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode,policy,seed", sorted(GOLDEN))
def test_episode_record_digest(mode, policy, seed):
    cfg = RunConfig(
        scenario=ScenarioConfig(episode_steps=80),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
    )
    assert record_digest(cfg, seed) == GOLDEN[(mode, policy, seed)]


def test_dense_episode_record_digest():
    cfg = RunConfig(
        scenario=ScenarioConfig(n_vehicles=40, episode_steps=40),
        road=RoadNetwork(merge_start=2000.0),
        shield=ShieldConfig(mode="mass"),
        policy=PolicySpec(kind="heuristic"),
        allow_offrange=True,
    )
    assert record_digest(cfg, 0) == DENSE_GOLDEN
