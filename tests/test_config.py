import pytest

from mergeshield.config import RunConfig, load_config, validate_config
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig


def _errors(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    report = validate_config(path)
    assert not report.ok
    return report.errors


def test_external_policy_fails_validation(tmp_path):
    errors = _errors(tmp_path, "policy:\n  kind: external\n  endpoint: localhost:5555\n")
    assert errors
    assert all(e.startswith("policy") for e in errors)


def test_ramp_geometry_is_an_unknown_road_key(tmp_path):
    errors = _errors(tmp_path, "road:\n  ramp_geometry: [[0.0, 4.0], [200.0, 4.0]]\n")
    assert "road.ramp_geometry: unknown key" in errors


@pytest.mark.parametrize("section, key, source", [
    ("shield", "tau", "scenario.tau"),
    ("shield", "dt", "scenario.dt"),
    ("reward", "tau", "scenario.tau"),
    ("reward", "merge_length", "road.merge_length"),
])
def test_derived_key_fails_validation(tmp_path, section, key, source):
    # resolved() takes these from another section, so a value here would be
    # overwritten without a word
    errors = _errors(tmp_path, f"{section}:\n  {key}: 0.7\n")
    assert errors == [f"{section}.{key}: taken from {source}; set it there"]


def test_shield_and_reward_take_scenario_values(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenario:\n  tau: 0.7\n  dt: 0.05\nroad:\n  merge_length: 120.0\n")
    cfg = load_config(path)
    assert (cfg.shield.tau, cfg.shield.dt) == (0.7, 0.05)
    assert (cfg.reward.tau, cfg.reward.merge_length) == (0.7, 120.0)
    programmatic = RunConfig(scenario=ScenarioConfig(tau=0.7, dt=0.05),
                             road=RoadNetwork(merge_length=120.0),
                             shield=ShieldConfig(tau=0.9)).resolved()
    assert programmatic == cfg
