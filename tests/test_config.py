import math
import re
from dataclasses import fields, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeshield.config import (
    _DERIVED,
    RunConfig,
    ValidationReport,
    load_config,
    resolved_dict,
    validate_config,
)
from mergeshield.dynamics import VehicleParams
from mergeshield.episode import run_episode
from mergeshield.records import episode_lines
from mergeshield.reward import RewardWeights
from mergeshield.road import RoadNetwork
from mergeshield.seedstream import SeedPool
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig, spawn

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
    # the scenario or the road holds these, and the shield and the reward
    # read them there: a value here would be a second copy
    errors = _errors(tmp_path, f"{section}:\n  {key}: 0.7\n")
    assert errors == [f"{section}.{key}: taken from {source}; set it there"]


def test_shield_and_reward_take_scenario_values(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenario:\n  tau: 0.7\n  dt: 0.05\nroad:\n  merge_length: 120.0\n")
    cfg = load_config(path)
    assert (cfg.scenario.tau, cfg.scenario.dt) == (0.7, 0.05)
    # the shield and the reward read tau, dt and the merge length from the
    # world, so their sections hold no copy of any
    assert cfg.shield == ShieldConfig() and cfg.reward == RewardWeights()
    assert [f.name for f in fields(ShieldConfig)] == ["mode", "eta"]
    with pytest.raises(TypeError):
        ShieldConfig(tau=0.9)
    programmatic = RunConfig(scenario=ScenarioConfig(tau=0.7, dt=0.05),
                             road=RoadNetwork(merge_length=120.0))
    assert programmatic == cfg and programmatic.resolved() is programmatic


def test_echo_covers_every_config_field():
    # the header echoes every field of each section once, in declaration
    # order, and nothing that is not a field: a key another section holds
    # is no field of its section
    echo = resolved_dict(RunConfig())
    assert sorted(echo) == sorted(ECHOED_SECTIONS)
    for section, cls in ECHOED_SECTIONS.items():
        names = [f.name for f in fields(cls)]
        assert list(echo[section]) == names, section
        assert not {key for sec, key in _DERIVED if sec == section} & set(names), section


@pytest.mark.parametrize("section, key", [
    ("vehicle", "delta_max"),
    ("shield", "wc_brake"),
    ("shield", "wc_accel"),
    ("shield", "tau_lat"),
    ("shield", "lag_margin"),
    ("shield", "k_eps"),
])
def test_removed_key_is_unknown(tmp_path, section, key):
    errors = _errors(tmp_path, f"{section}:\n  {key}: -3.0\n")
    assert errors == [f"{section}.{key}: unknown key"]


@pytest.mark.parametrize("section, cls, key, value", [
    ("scenario", ScenarioConfig, "episode_steps", 0),
    ("scenario", ScenarioConfig, "episode_steps", -3),
    ("scenario", ScenarioConfig, "n_vehicles", 0),
    ("scenario", ScenarioConfig, "comm_range", 0.0),
    ("scenario", ScenarioConfig, "dt", 0.0),
    ("vehicle", VehicleParams, "width", 0.0),
    ("vehicle", VehicleParams, "width", -1.0),
    ("scenario", ScenarioConfig, "n_ramp", -1),
    ("scenario", ScenarioConfig, "n_ramp", 10),
    ("scenario", ScenarioConfig, "dv_step", 0.0),
    ("scenario", ScenarioConfig, "dv_step", -2.0),
    ("shield", ShieldConfig, "eta", 1.5),
    ("shield", ShieldConfig, "mode", "bogus"),
    ("road", RoadNetwork, "merge_length", 0.0),
    ("road", RoadNetwork, "merge_length", -100.0),
])
def test_bad_value_fails_in_code_and_in_yaml(tmp_path, section, cls, key, value):
    # an episode without steps or without vehicles would fail late in the
    # metrics, a vehicle with no range hears no neighbour, a zero time step
    # never moves the world, a footprint without width never overlaps, so
    # no collision is seen, a ramp count outside the default fleet of 9
    # spawned another fleet than the header echoed, a negative speed step
    # makes SPEED_UP slow down, and a headway decay above 1 lets the
    # barrier change sign in one step
    with pytest.raises(ValueError, match=key):
        cls(**{key: value})
    errors = _errors(tmp_path, f"{section}:\n  {key}: {value}\n")
    assert len(errors) == 1 and errors[0].startswith(f"{section}: ")
    assert key in errors[0]


@pytest.mark.parametrize("n_ramp", [0, 9])
def test_n_ramp_at_either_bound_spawns_that_many_ramp_vehicles(n_ramp):
    cfg = ScenarioConfig(n_vehicles=9, n_ramp=n_ramp)
    vehicles = spawn(cfg, RoadNetwork(), SeedPool(0).generator())
    assert len(vehicles) == 9
    assert sum(v.spawned_on_ramp for v in vehicles) == n_ramp


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


@pytest.mark.parametrize("key, value", [("tau", 0.0), ("tau", -0.5), ("dt", 0.0), ("dt", -0.1)])
def test_scenario_rejects_a_tau_or_dt_that_is_not_positive(key, value):
    # the scenario alone holds both; the shield, the integrator and the
    # reward read them there
    with pytest.raises(ValueError, match=f"^{key} must be positive, got {value}$"):
        ScenarioConfig(**{key: value})


def test_top_level_must_be_a_mapping(tmp_path):
    # a falsy document is no empty config; only null or an empty file is
    for text in ("[1, 2]\n", "[]\n", "0\n", "false\n", "''\n"):
        assert _errors(tmp_path, text) == ["top level must be a mapping of sections"], text


@pytest.mark.parametrize("text", ["", "\n", "null\n", "~\n", "scenario:\nrun: null\n"])
def test_null_or_empty_config_is_the_default(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    report = validate_config(path)
    assert report.errors == [] and report.config == RunConfig()


@pytest.mark.parametrize("name", ["missing.yaml", "."])
def test_unreadable_config_is_reported_with_its_path(tmp_path, name):
    path = tmp_path / name
    report = validate_config(path)
    assert len(report.errors) == 1 and str(path) in report.errors[0]
    assert report.config is None


def test_run_section_must_be_a_mapping(tmp_path):
    for value in ("[1, 2]", "[]", "0", "false", "''"):
        assert _errors(tmp_path, f"run: {value}\n") == ["run: must be a mapping"], value


@pytest.mark.parametrize("text, error", [("scenario: 0\n", "scenario: must be a mapping"),
                                         ("scenario: []\n", "scenario: must be a mapping"),
                                         ("road: ''\n", "road: must be a mapping"),
                                         ("vehicle: false\n", "vehicle: must be a mapping")])
def test_falsy_section_is_not_an_empty_one(tmp_path, text, error):
    assert _errors(tmp_path, text) == [error]


def test_reward_section_must_be_a_mapping(tmp_path):
    assert _errors(tmp_path, "reward: [1]\n") == ["reward: must be a mapping"]


def test_report_lines_list_errors_then_warnings():
    assert ValidationReport().lines() == ["config ok"]
    report = ValidationReport(errors=["a: e1", "b: e2"], warnings=["c: w"])
    assert report.lines() == ["error: a: e1", "error: b: e2", "warning: c: w"]
    assert ValidationReport(warnings=["c: w"]).lines() == ["warning: c: w"]


def test_bad_reward_function_fails_at_construction():
    # a bad flavour fails where it is built, with its field named, not as
    # a KeyError at the first reward
    with pytest.raises(ValueError, match="function must be default or custom, got 'bogus'"):
        RewardWeights(function="bogus")
    with pytest.raises(ValueError, match="function must be default or custom"):
        RunConfig(reward=RewardWeights(function="bogus"))


@pytest.mark.parametrize("value, function", [("null", "custom"), ("default", "default"),
                                             ("custom", "custom")])
def test_reward_function_is_a_reward_key(tmp_path, value, function):
    # null keeps the default like every other key, and the header echoes
    # the flavour as the first reward key
    path = tmp_path / "run.yaml"
    path.write_text(f"reward:\n  function: {value}\n")
    cfg = load_config(path)
    assert cfg.reward == RewardWeights(function=function)
    assert list(resolved_dict(cfg)["reward"].items())[0] == ("function", function)


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


FLOAT_RULE = "a finite float, 0 or of magnitude 1e-09 to 1e+09"


@pytest.mark.parametrize("text, path", [
    ("road: {merge_start: .nan}", "road.merge_start"),
    ("road: {merge_length: .inf}", "road.merge_length"),
    ("road: {lane_width: .inf}", "road.lane_width"),
    ("scenario: {comm_range: .inf}", "scenario.comm_range"),
    ("scenario: {dt: .inf}", "scenario.dt"),
    ("vehicle: {v_cap: .inf}", "vehicle.v_cap"),
    ("shield: {eta: .inf}", "shield.eta"),
    ("shield: {eta: .nan}", "shield.eta"),
    ("reward: {v_max: .inf}", "reward.v_max"),
    ("run: {headway_violation_threshold: -.inf}", "run.headway_violation_threshold"),
    ("road: {merge_start: 1" + "0" * 400 + "}", "road.merge_start"),
    ("road: {merge_start: 2.0e+9}", "road.merge_start"),
    ("scenario: {dt: 1.0e-300}", "scenario.dt"),
    ("vehicle: {a_min: -5.0e-324}", "vehicle.a_min"),
])
def test_non_finite_or_out_of_range_float_is_reported(tmp_path, text, path):
    # the header echo cannot hold a NaN or an infinity, and braking steps
    # of |a_min| * dt squared leave the float range for magnitudes far
    # outside the rule's (an int beyond the float range overflows at once)
    assert _errors(tmp_path, text + "\n") == [f"{path}: must be {FLOAT_RULE}"]


def test_speed_range_with_an_infinity_is_reported(tmp_path):
    assert _errors(tmp_path, "scenario: {initial_speed_range: [10, .inf]}\n") == \
        [f"scenario.initial_speed_range: must be a pair of numbers, each {FLOAT_RULE}"]


def test_zero_and_floats_at_the_magnitude_limits_pass(tmp_path):
    # loading builds each section's dataclass, so the rule in code passes
    # these limits too
    path = tmp_path / "run.yaml"
    path.write_text("road: {merge_start: 0}\nscenario: {dt: 1.0e-9, comm_range: 1.0e+9}\n"
                    "vehicle: {v_cap: 1.0e+9, length: 1.0e-9}\n")
    cfg = load_config(path)
    assert (cfg.road.merge_start, cfg.scenario.dt, cfg.scenario.comm_range, cfg.vehicle.v_cap,
            cfg.vehicle.length) == (0, 1e-9, 1e9, 1e9, 1e-9)


@pytest.mark.parametrize("cls, key, value", [
    (ScenarioConfig, "dt", 1e-300),
    (ScenarioConfig, "dt", math.inf),
    (ScenarioConfig, "dt", 2e9),
    (ShieldConfig, "eta", 1e-300),
    (VehicleParams, "a_min", -1e-300),
    (VehicleParams, "a_min", -math.inf),
    (VehicleParams, "a_max", 1e-10),
    (VehicleParams, "a_max", math.nan),
    (ShieldConfig, "eta", math.inf),
    (ScenarioConfig, "tau", math.inf),
    (ScenarioConfig, "spawn_spacing_min", math.nan),
    pytest.param(ScenarioConfig, "initial_speed_range", (10.0, math.inf),
                 id="ScenarioConfig-initial_speed_range-inf"),
    (RoadNetwork, "merge_start", math.nan),
    (VehicleParams, "v_cap", math.inf),
    (RewardWeights, "w_s", math.nan),
    (RunConfig, "headway_violation_threshold", math.nan),
    (ScenarioConfig, "comm_range", 1e12),
    (VehicleParams, "length", 1e-12),
    (RoadNetwork, "merge_start", -2e9),
    (RewardWeights, "w_h", 1e-10),
    (RunConfig, "headway_violation_threshold", 1e10),
    pytest.param(ScenarioConfig, "initial_speed_range", (1e-12, 20.0),
                 id="ScenarioConfig-initial_speed_range-tiny"),
])
def test_dataclass_built_in_code_applies_the_float_rule(cls, key, value):
    # YAML rejects these; built in code, tau = inf used to overflow in
    # spawn, a NaN spacing put every vehicle at NaN x and a NaN weight
    # failed only when the record was written.  Every float field obeys
    # the one rule, magnitudes included
    with pytest.raises(ValueError, match=f"^{key} must be {re.escape(FLOAT_RULE)}, got"):
        cls(**{key: value})


@pytest.mark.parametrize("cls", [ScenarioConfig, RoadNetwork, VehicleParams, ShieldConfig,
                                 RewardWeights, RunConfig])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_every_float_field_built_in_code_must_be_finite(cls, value):
    floats = [f.name for f in fields(cls) if get_type_hints(cls)[f.name] is float]
    assert floats
    for key in floats:
        with pytest.raises(ValueError, match=f"^{key} must be {re.escape(FLOAT_RULE)}"):
            cls(**{key: value})


def test_float_rule_repros_fail_before_the_shield():
    # both used to crash inside the shield: ZeroDivisionError in
    # brake_margin and OverflowError in brake_cap
    with pytest.raises(ValueError, match=f"^dt must be {re.escape(FLOAT_RULE)}"):
        run_episode(RunConfig(scenario=ScenarioConfig(dt=1e-300, episode_steps=3)), 0)
    with pytest.raises(ValueError, match=f"^a_min must be {re.escape(FLOAT_RULE)}"):
        run_episode(RunConfig(vehicle=VehicleParams(a_min=-1e-300),
                              scenario=ScenarioConfig(episode_steps=3)), 0)


@pytest.mark.parametrize("dt, accel", [(1e-9, 1e-9), (1e-9, 1e9), (1e9, 1e-9), (1e9, 1e9)])
@pytest.mark.parametrize("mode", ["hss", "mass"])
def test_episode_runs_at_the_magnitude_limits(dt, accel, mode):
    cfg = RunConfig(scenario=ScenarioConfig(dt=dt, episode_steps=3),
                    vehicle=VehicleParams(a_min=-accel, a_max=accel),
                    shield=ShieldConfig(mode=mode))
    record, summary = run_episode(cfg, 0)
    assert len(record.steps) == 3 and len(episode_lines(record)) == 5


@pytest.mark.parametrize("text, errors", [
    ('scenario: {episode_steps: 0}\nvehicle: {width: 0.0}\nrun: {episodes: "x"}\n',
     ["scenario: episode_steps must be >= 1", "vehicle: width must be positive, got 0.0",
      "run.episodes: must be int"]),
    ("reward: {function: x}\nrun: {episodes: x}\n",
     ["reward: function must be default or custom, got 'x'", "run.episodes: must be int"]),
    ("scenario: {initial_speed_range: [30, 60]}\nrun: {episodes: 0}\n",
     ["run.episodes: must be >= 1",
      "scenario.initial_speed_range: top speed 60 exceeds vehicle.v_cap = 40.0"]),
    ("run: {episodes: 0, headway_violation_threshold: 0}\nfoo: 1\n1: 2\n",
     ["1: unknown section", "foo: unknown section", "run.episodes: must be >= 1",
      "run.headway_violation_threshold: must be positive"]),
])
def test_every_failing_section_is_reported(tmp_path, text, errors):
    assert _errors(tmp_path, text) == errors


@pytest.mark.parametrize("key, value, message", [
    ("episodes", 0, "must be >= 1"),
    ("episodes", -2, "must be >= 1"),
    ("headway_violation_threshold", 0.0, "must be positive"),
    ("headway_violation_threshold", -1.0, "must be positive"),
])
def test_run_options_are_checked_in_code_as_in_yaml(tmp_path, key, value, message):
    # a run config built in code used to take a batch of no episodes and
    # a threshold no headway can fall below; YAML reports the same error
    # under its run path
    with pytest.raises(ValueError, match=f"^{key}: {message}$"):
        RunConfig(**{key: value})
    assert _errors(tmp_path, f"run:\n  {key}: {value}\n") == [f"run.{key}: {message}"]


@pytest.mark.parametrize("top, v_cap, ok", [(60.0, 40.0, False), (40.0, 40.0, True),
                                            (60.0, 70.0, True)])
def test_spawn_speeds_stay_under_the_speed_cap(tmp_path, top, v_cap, ok):
    # a vehicle spawned above v_cap starts outside its own reach box: at
    # (30, 60) seed 0 spawned two at up to 49.1 m/s, and step 0 faulted
    scenario, vehicle = ScenarioConfig(initial_speed_range=(30.0, top)), VehicleParams(v_cap=v_cap)
    path = tmp_path / "run.yaml"
    path.write_text(f"scenario: {{initial_speed_range: [30.0, {top}]}}\nvehicle: {{v_cap: {v_cap}}}\n")
    message = f"scenario.initial_speed_range: top speed {top} exceeds vehicle.v_cap = {v_cap}"
    if ok:
        RunConfig(scenario=scenario, vehicle=vehicle)
        assert validate_config(path).ok
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(scenario=scenario, vehicle=vehicle)
        assert _errors(tmp_path, path.read_text()) == [message]


def _schema_hints():
    """Each YAML section's keys with their field annotations."""
    hints = {name: {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}
             for name, cls in ECHOED_SECTIONS.items()}
    hints["policy"] = {"kind": str}
    hints["run"] = {k: kind for k, kind in get_type_hints(RunConfig).items()
                    if k not in ECHOED_SECTIONS and k != "policy"}
    return hints


SCHEMA_HINTS = _schema_hints()
WRONG_VALUES = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(-3, 12), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(-3, 3), max_size=2),
)
#: small values of each annotated type, so no config asks for a large
#: fleet or a long run
TYPED_VALUES = {
    int: st.integers(-3, 12),
    float: st.one_of(st.integers(-3, 12), st.floats(-1e3, 1e3)),
    str: st.sampled_from(("none", "hss", "mass", "random", "heuristic", "default", "custom", "x")),
    bool: st.booleans(),
    tuple: st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
}


def _typed(kind):
    if get_origin(kind) is UnionType:
        return st.one_of([st.none() if k is type(None) else _typed(k) for k in get_args(kind)])
    return TYPED_VALUES[kind]


@st.composite
def yaml_configs(draw):
    """YAML mappings of known and unknown sections and keys; four in five
    values of a known key are of its declared type, the rest of any type."""
    names = draw(st.lists(st.sampled_from([*SCHEMA_HINTS, "bogus"]), unique=True, max_size=5))
    data = {}
    for name in names:
        if draw(st.integers(0, 9)) == 0:
            data[name] = draw(WRONG_VALUES)  # a section that is no mapping
            continue
        hints = SCHEMA_HINTS.get(name, {})
        section = {}
        for key in draw(st.lists(st.sampled_from([*hints, "bogus"]), unique=True, max_size=4)):
            if key in hints and draw(st.integers(0, 4)):
                section[key] = draw(_typed(hints[key]))
            else:
                section[key] = draw(st.one_of(*TYPED_VALUES.values(), WRONG_VALUES))
        data[name] = section
    return data


ERROR_PATH = re.compile(r"top level|[A-Za-z_]\w*(\.\w+)?: ")


@settings(max_examples=150, deadline=None)
@given(data=yaml_configs())
def test_validated_config_runs_or_every_error_has_its_path(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    report = validate_config(path)
    if report.ok:
        cfg = report.config
        cfg = replace(cfg, scenario=replace(cfg.scenario, episode_steps=3))
        record, _ = run_episode(cfg, 0)
        episode_lines(record)
    else:
        assert all(ERROR_PATH.match(e) for e in report.errors), report.errors
