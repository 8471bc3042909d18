from dataclasses import fields

import pytest

from mergeshield.config import _DERIVED, RunConfig, load_config, resolved_dict, validate_config
from mergeshield.dynamics import VehicleParams
from mergeshield.reward import RewardWeights
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

#: config sections echoed in record headers, by the dataclass behind each
ECHOED_SECTIONS = {
    "scenario": ScenarioConfig,
    "road": RoadNetwork,
    "vehicle": VehicleParams,
    "shield": ShieldConfig,
    "reward": RewardWeights,
}


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
    # the reward reads tau and the merge length from the world, so its
    # section holds no copy of either
    assert cfg.reward == RewardWeights()
    programmatic = RunConfig(scenario=ScenarioConfig(tau=0.7, dt=0.05),
                             road=RoadNetwork(merge_length=120.0),
                             shield=ShieldConfig(tau=0.9)).resolved()
    assert programmatic == cfg


def test_echo_covers_every_config_field():
    # a field the header does not echo must be derived from another
    # section, and the header echoes nothing that is not a field
    echo = resolved_dict(RunConfig())
    assert sorted(echo) == sorted(ECHOED_SECTIONS)
    for section, cls in ECHOED_SECTIONS.items():
        names = {f.name for f in fields(cls)}
        missing = {n for n in names - set(echo[section]) if (section, n) not in _DERIVED}
        assert missing == set(), section
        extra = set(echo[section]) - names - ({"function"} if section == "reward" else set())
        assert extra == set(), section


@pytest.mark.parametrize("section, key", [
    ("vehicle", "delta_max"),
    ("shield", "wc_brake"),
    ("shield", "wc_accel"),
    ("shield", "tau_lat"),
])
def test_removed_key_is_unknown(tmp_path, section, key):
    errors = _errors(tmp_path, f"{section}:\n  {key}: -3.0\n")
    assert errors == [f"{section}.{key}: unknown key"]


@pytest.mark.parametrize("section, cls, key, value", [
    ("scenario", ScenarioConfig, "episode_steps", 0),
    ("scenario", ScenarioConfig, "episode_steps", -3),
    ("vehicle", VehicleParams, "width", 0.0),
    ("vehicle", VehicleParams, "width", -1.0),
])
def test_bad_value_fails_in_code_and_in_yaml(tmp_path, section, cls, key, value):
    # an episode without steps would fail late in the metrics, and a
    # footprint without width never overlaps, so no collision is seen
    with pytest.raises(ValueError, match=key):
        cls(**{key: value})
    errors = _errors(tmp_path, f"{section}:\n  {key}: {value}\n")
    assert len(errors) == 1 and errors[0].startswith(f"{section}: ")
    assert key in errors[0]


@pytest.mark.parametrize("allow, warned", [(False, True), (True, False)])
def test_offrange_vehicle_count_warns_unless_allowed(tmp_path, allow, warned):
    path = tmp_path / "run.yaml"
    path.write_text(f"scenario:\n  n_vehicles: 40\nrun:\n  allow_offrange: {str(allow).lower()}\n")
    report = validate_config(path)
    assert report.ok
    assert bool(report.warnings) == warned
    if warned:
        assert report.warnings[0].startswith("scenario.n_vehicles: 40 is outside")


def test_reference_vehicle_count_never_warns(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenario:\n  n_vehicles: 11\n")
    assert validate_config(path).warnings == []


@pytest.mark.parametrize("key, value, kind", [
    ("episodes", '"x"', "int"),
    ("episodes", "2.0", "int"),
    ("episodes", "true", "int"),
    ("out_dir", "3", "str"),
    ("emit_trajectories", "1", "bool"),
    ("headway_violation_threshold", '"abc"', "float"),
    ("headway_violation_threshold", "true", "float"),
    ("allow_offrange", "0", "bool"),
])
def test_wrongly_typed_run_value_is_reported(tmp_path, key, value, kind):
    errors = _errors(tmp_path, f"run:\n  {key}: {value}\n")
    assert errors == [f"run.{key}: must be {kind}"]


def test_int_run_value_passes_as_float(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("run:\n  headway_violation_threshold: 1\n  episodes: 3\n")
    cfg = load_config(path)
    assert (cfg.headway_violation_threshold, cfg.episodes) == (1, 3)


def test_run_section_must_be_a_mapping(tmp_path):
    assert _errors(tmp_path, "run: [1, 2]\n") == ["run: must be a mapping"]


def test_reward_section_must_be_a_mapping(tmp_path):
    assert _errors(tmp_path, "reward: [1]\n") == ["reward: must be a mapping"]


def test_highway_lanes_is_gone(tmp_path):
    # the road is the through lane plus the ramp; perception shows one
    # adjacent lane, so a second through lane would escape the shield
    with pytest.raises(TypeError, match="highway_lanes"):
        RoadNetwork(highway_lanes=2)
    assert _errors(tmp_path, "road:\n  highway_lanes: 1\n") == ["road.highway_lanes: unknown key"]


@pytest.mark.parametrize("section, key, value, kind", [
    ("road", "merge_start", '"abc"', "float"),
    ("scenario", "n_vehicles", '"9"', "int"),
    ("shield", "eta", '"0.5"', "float"),
    ("scenario", "n_ramp", "1.5", "int"),
    ("scenario", "initial_speed_range", "[10, abc]", "a pair of numbers"),
    ("scenario", "initial_speed_range", "[10, 20, 30]", "a pair of numbers"),
    ("scenario", "initial_speed_range", "20", "a pair of numbers"),
    ("vehicle", "length", "true", "float"),
    ("shield", "mode", "3", "str"),
    ("policy", "kind", "[random]", "str"),
])
def test_wrongly_typed_section_value_is_reported(tmp_path, section, key, value, kind):
    errors = _errors(tmp_path, f"{section}:\n  {key}: {value}\n")
    assert errors == [f"{section}.{key}: must be {kind}"]


def test_section_values_of_their_declared_types_pass(tmp_path):
    # an int passes as a float, null keeps the default of an optional
    # field and a list of two numbers is a speed range
    path = tmp_path / "run.yaml"
    path.write_text("road:\n  merge_start: 2000\nscenario:\n  n_ramp: null\n"
                    "  initial_speed_range: [10, 20.5]\n")
    cfg = load_config(path)
    assert cfg.road.merge_start == 2000
    assert cfg.scenario.n_ramp is None
    assert cfg.scenario.initial_speed_range == (10, 20.5)
    want = RunConfig(road=RoadNetwork(merge_start=2000),
                     scenario=ScenarioConfig(initial_speed_range=(10, 20.5)))
    assert resolved_dict(cfg) == resolved_dict(want)

