import pytest

from mergeshield.config import RunConfig
from mergeshield.episode import run_episode
from mergeshield.metrics import summarize_episode
from mergeshield.policy import PolicySpec
from mergeshield.records import read_episode, write_episode
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig


@pytest.mark.parametrize("mode,policy", [("mass", "random"), ("hss", "heuristic"), ("none", "random")])
def test_write_read_round_trip(tmp_path, mode, policy):
    cfg = RunConfig(
        scenario=ScenarioConfig(episode_steps=60),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
    )
    record, summary = run_episode(cfg, 1)
    path = tmp_path / "episode.jsonl"
    write_episode(record, path)
    again = read_episode(path)

    assert again.seed == record.seed
    assert again.config == record.config
    assert again.initial == record.initial
    assert len(again.steps) == len(record.steps) == 60
    for got, want in zip(again.steps, record.steps):
        assert got.step == want.step
        # a row stores its rewards only beside an action; a crashed vehicle
        # has no action but is still handed rewards in memory
        assert got.vehicles == tuple(
            row if row.action is not None else row._replace(reward=None, reward_overall=None)
            for row in want.vehicles
        )
        assert got.topology == {vid: tuple(p) for vid, p in want.topology.items()}
    assert again.summary == record.summary == summary.to_dict()
    assert summarize_episode(again, mode, policy).to_dict() == again.summary


def test_vehicle_row_is_immutable():
    record, _ = run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=1)), 0)
    row = record.steps[0].vehicles[0]
    with pytest.raises(AttributeError):
        row.x = 0.0
    with pytest.raises(AttributeError):
        row.active = ("headway:1",)
