import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeshield.config import RunConfig
from mergeshield.episode import run_episode
from mergeshield.metrics import summarize_episode
from mergeshield.policy import PolicySpec
from mergeshield.records import (EpisodeRecord, StepRecord, VehicleRow, _dump, episode_lines,
                                 read_episode, snapshot_vehicle, write_episode)
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

from conftest import make_vehicle
from record_oracle import step_dict

MODES = ("none", "hss", "mass")
POLICIES = ("random", "heuristic")


def oracle_line(step):
    return _dump({"kind": "step", **step_dict(step)})


def step_lines(steps):
    """The step lines ``episode_lines`` writes for ``steps``, as one record."""
    return episode_lines(EpisodeRecord(seed=0, config={}, steps=list(steps)))[1:]


def row(vid=0, action=2, **fields):
    """A hand-built row: a settled highway vehicle, with an action unless
    ``action`` is None, overridden by ``fields``."""
    base = dict(vid=vid, lane=0, target_lane=0, x=12.5, y=1.75, v_x=20.0, v_y=0.0,
                psi=0.0, merged=False, merge_failed=False, crashed=False)
    if action is not None:
        base.update(action=action, v_nominal=21.0, v_safe=20.5, v_cbf=-0.5,
                    lane_change_allowed=True, slack=0.0, active=("headway:1",),
                    fault=False, reward=0.25, reward_overall=-1.5)
    base.update(fields)
    return VehicleRow(**base)


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
        assert got.vehicles == want.vehicles
        assert got.topology == {vid: tuple(p) for vid, p in want.topology.items()}
    assert again.summary == record.summary == summary.to_dict()
    assert summarize_episode(again, mode, policy).to_dict() == again.summary


@pytest.mark.parametrize("action", [2, None])
def test_row_dict_is_what_its_json_reads_back(action):
    # ``active`` is a list in the dict, as JSON reads it, and a tuple in the row
    r = row(action=action)
    d = r.to_dict()
    assert json.loads(_dump(d)) == d
    assert VehicleRow.from_dict(d) == r


@pytest.mark.parametrize("v, psi", [(20.0, 0.0), (17.3, 0.11), (0.3, -0.05), (29.9, 1e-3)])
def test_a_row_reads_its_vehicle_speed_bit_for_bit(v, psi):
    vehicle = make_vehicle(0, 100.0, v, psi=psi)
    assert snapshot_vehicle(vehicle).speed.hex() == vehicle.state.speed.hex()


def test_header_and_step_rows_have_one_shape():
    # the five fields that follow from other data are written nowhere
    lines = episode_lines(run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=2)), 0)[0])
    header, step = json.loads(lines[0]), json.loads(lines[1])
    state = ["vid", "lane", "target_lane", "x", "y", "v_x", "v_y", "psi", "merged",
             "merge_failed", "crashed"]
    assert all(list(r) == state for r in header["initial"])
    assert all(list(r)[:len(state)] == state for r in step["vehicles"])


def test_vehicle_row_is_immutable():
    record, _ = run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=1)), 0)
    row = record.steps[0].vehicles[0]
    with pytest.raises(AttributeError):
        row.x = 0.0
    with pytest.raises(AttributeError):
        row.active = ("headway:1",)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", POLICIES)
def test_step_lines_match_the_dict_encoding(mode, policy):
    cfg = RunConfig(
        scenario=ScenarioConfig(episode_steps=30),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
    )
    record, _ = run_episode(cfg, 3)
    lines = episode_lines(record)
    assert len(record.steps) == 30
    assert lines[1:-1] == [oracle_line(step) for step in record.steps]


def test_hand_built_rows_match_the_dict_encoding():
    steps = [
        # zeros of both signs, after and before the same value: each keeps
        # its own sign
        StepRecord(step=0, vehicles=(row(0, y=0.0, v_y=0.0, psi=0.0),
                                     row(1, y=-0.0, v_y=-0.0, psi=-0.0),
                                     row(2, y=0.0, v_y=-0.0, psi=0.0, v_cbf=-0.0)),
                   topology={1: (0,), 0: (), 2: (1, 0)}),
        # an int 2 in a float field stays "2", beside the float 2.0
        StepRecord(step=1, vehicles=(row(0, x=2.0, v_x=2.0),
                                     row(1, x=2, v_x=2, reward=2, slack=0)),
                   topology={}),
        # no active constraint, no topology, rows without an action, and
        # labels that need escaping
        StepRecord(step=2, vehicles=(row(0, active=()), row(1, action=None),
                                     row(2, active=('quote"d', "back\\slash", "tab\t", "\u00e9"))),
                   topology={}),
        StepRecord(step=3, vehicles=(), topology={}),
        StepRecord(step=4, vehicles=(row(3, action=None, crashed=True),), topology={3: ()}),
    ]
    got = step_lines(steps)
    assert got == [oracle_line(step) for step in steps]
    assert '"y":-0.0' in got[0] and '"y":0.0' in got[0]
    assert '"x":2,' in got[1] and '"x":2.0,' in got[1]


#: the fields a row writes as JSON numbers
FLOAT_FIELDS = ("x", "y", "v_x", "v_y", "psi", "v_nominal", "v_safe", "v_cbf", "slack", "reward",
                "reward_overall")


def test_float_fields_are_the_rows_float_annotations():
    # the module's annotations are strings, which NamedTuple may wrap
    kinds = {name: getattr(kind, "__forward_arg__", kind)
             for name, kind in VehicleRow.__annotations__.items()}
    assert FLOAT_FIELDS == tuple(name for name, kind in kinds.items() if kind.startswith("float"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_floats_raise(bad, name):
    step = StepRecord(step=0, vehicles=(row(0, **{name: bad}),), topology={})
    with pytest.raises(ValueError):
        oracle_line(step)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        step_lines([step])


@pytest.mark.parametrize("value", [2, True, False, 0])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_an_int_or_bool_in_one_float_field_is_written_as_json_dumps_writes_it(value, name):
    # the other fields stay floats, so only this field leaves the float path
    step = StepRecord(step=0, vehicles=(row(0, **{name: value}), row(1, action=None)),
                      topology={})
    got = step_lines([step])
    assert got == [oracle_line(step)]
    assert f'"{name}":{json.dumps(value)}' in got[0]


def test_a_shared_command_object_and_an_equal_one_of_the_other_zero():
    # v_safe is v_nominal: one object, one text; an equal -0.0 beside a
    # 0.0 is another object and writes its own sign
    shared = 17.25
    steps = [StepRecord(step=0, vehicles=(row(0, v_nominal=shared, v_safe=shared, v_cbf=0.0),
                                          row(1, v_nominal=0.0, v_safe=-0.0, v_cbf=-0.0),
                                          row(2, v_nominal=-0.0, v_safe=0.0, v_cbf=0.0)),
                        topology={})]
    got = step_lines(steps)
    assert got == [oracle_line(step) for step in steps]
    assert '"v_nominal":17.25,"v_safe":17.25,' in got[0]
    assert '"v_nominal":0.0,"v_safe":-0.0,' in got[0]
    assert '"v_nominal":-0.0,"v_safe":0.0,' in got[0]


#: the values a drawn float field takes: both zeros, and nonzero values
#: that repeat often across fields
SHARED_POOL = (0.0, -0.0, 17.25, -0.5, 20.0, 5e-324)


@st.composite
def shared_text_rows(draw):
    """A row whose float fields come from :data:`SHARED_POOL`, each either
    the one object already drawn for its value or a new equal one, with an
    int or a bool in at most one field."""
    objects = {}

    def field():
        value = draw(st.sampled_from(SHARED_POOL))
        fresh = float.fromhex(value.hex())  # equal, sign included, not the same object
        return objects.setdefault(value.hex(), fresh) if draw(st.booleans()) else fresh

    fields = {name: field() for name in FLOAT_FIELDS}
    odd = draw(st.sampled_from((None,) + FLOAT_FIELDS))
    if odd is not None:
        fields[odd] = draw(st.sampled_from((0, 20, True, False)))
    return row(draw(st.integers(0, 3)), **fields)


@settings(max_examples=400, deadline=None)
@given(st.lists(shared_text_rows(), min_size=1, max_size=3))
def test_rows_whose_speeds_share_values_encode_as_the_oracle(rows):
    # v_safe takes v_x's text when the two are an equal nonzero float, and
    # v_nominal takes v_safe's when it is that object; an equal zero may be
    # the other zero, and an int or bool is written as an int or bool
    step = StepRecord(step=0, vehicles=tuple(rows), topology={})
    assert step_lines([step]) == [oracle_line(step)]


def test_a_repeated_wreck_row_encodes_as_the_oracle():
    # the same row object in every step, then a different wreck row for
    # the same vehicle: the kept text serves only the object it was made for
    wreck = row(3, action=None, crashed=True, y=-0.0, v_y=0.0)
    steps = [StepRecord(step=k, vehicles=(row(0, x=10.0 + k), wreck), topology={})
             for k in range(3)]
    steps.append(StepRecord(step=3, vehicles=(row(0), row(3, action=None, crashed=True, x=7.5)),
                            topology={}))
    steps.append(StepRecord(step=4, vehicles=(wreck,), topology={}))
    assert step_lines(steps) == [oracle_line(step) for step in steps]


def test_an_equal_wreck_row_is_written_with_its_own_zero_signs():
    first = row(3, action=None, crashed=True, y=0.0)
    second = row(3, action=None, crashed=True, y=-0.0)
    assert first == second and first is not second
    steps = [StepRecord(step=k, vehicles=(r,), topology={})
             for k, r in enumerate((first, second, first))]
    got = step_lines(steps)
    assert got == [oracle_line(step) for step in steps]
    assert '"y":0.0' in got[0] and '"y":-0.0' in got[1] and '"y":0.0' in got[2]


def wreck_episode(policy=None):
    """An unshielded random episode in which several vehicles crash early."""
    cfg = RunConfig(scenario=ScenarioConfig(episode_steps=60),
                    shield=ShieldConfig(mode="none"), policy=PolicySpec(kind="random"))
    record, _ = run_episode(cfg, 1, policy)
    return record


def test_a_wreck_shares_its_row_from_its_second_wreck_step_on():
    record = wreck_episode()
    shared = 0
    for i, first in enumerate(record.initial):
        rows = [first] + [step.vehicles[i] for step in record.steps]
        assert all(r.vid == first.vid for r in rows)
        crash = next((k for k, r in enumerate(rows) if r.crashed), None)
        if crash is None:
            assert all(a is not b for a, b in zip(rows, rows[1:]))
            continue
        assert crash > 0 and rows[crash].action is not None
        later = rows[crash + 1:]  # empty for a crash in the last step
        if later:
            assert later[0] is not rows[crash] and later[0].crashed
            assert later[0].action is None
            assert all(r is later[0] for r in later)
            shared += len(later) - 1
    assert shared > 0
    assert episode_lines(record)[1:-1] == [oracle_line(step) for step in record.steps]


def test_a_wreck_given_an_action_records_it():
    # policies act for live vehicles only; one that also acts for the
    # wrecks on even steps still finds each action in the wreck's row
    from mergeshield.policy import RandomPolicy
    from mergeshield.world import BehaviorAction

    class AlsoWrecks(RandomPolicy):
        def decide(self, step_index, world, observations):
            actions = super().decide(step_index, world, observations)
            if step_index % 2 == 0:
                actions.update({v.vid: BehaviorAction.FOLLOW_LANE
                                for v in world.vehicles if v.crashed})
            return actions

    record = wreck_episode(AlsoWrecks())
    wrecks = 0
    for before, step in zip(record.steps, record.steps[1:]):
        for was, now in zip(before.vehicles, step.vehicles):
            if was.crashed:
                wrecks += 1
                assert (now.action is not None) == (step.step % 2 == 0)
    assert wrecks
    assert episode_lines(record)[1:-1] == [oracle_line(step) for step in record.steps]


def test_a_re_read_record_encodes_to_the_same_bytes(tmp_path):
    # rows read back are distinct objects, so no wreck text is reused
    record = wreck_episode()
    path = tmp_path / "episode.jsonl"
    write_episode(record, path)
    again = read_episode(path)
    assert again.steps[-1].vehicles[0] is not again.steps[-2].vehicles[0]
    assert episode_lines(again) == episode_lines(record)
    assert path.read_text() == "\n".join(episode_lines(again)) + "\n"


#: a row field set to a number that ``json.dumps`` writes as an extension
NON_FINITE = {"NaN x": ("x", math.nan), "-Infinity v_x": ("v_x", -math.inf)}


@pytest.mark.parametrize("bad, message", [
    ("{oops", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ("no step", "malformed step line (KeyError: 'vehicles')"),
    ("bad topology key",
     "malformed step line (ValueError: invalid literal for int() with base 10: 'abc')"),
    ("NaN x", "not JSON (NaN is not a JSON number)"),
    ("-Infinity v_x", "not JSON (-Infinity is not a JSON number)"),
])
def test_read_episode_names_the_file_line_of_a_bad_line(tmp_path, bad, message):
    # the bad line is the second step, on file line 4 behind a blank line
    cfg = RunConfig(scenario=ScenarioConfig(episode_steps=3))
    lines = episode_lines(run_episode(cfg, 0)[0])
    step = json.loads(lines[2])
    if bad == "no step":
        del step["vehicles"]
        bad = json.dumps(step)
    elif bad == "bad topology key":
        step["topology"]["abc"] = []
        bad = json.dumps(step)
    elif bad in NON_FINITE:
        key, value = NON_FINITE[bad]
        step["vehicles"][0][key] = value
        bad = json.dumps(step)
    lines = [lines[0], "", lines[1], bad, *lines[3:]]
    path = tmp_path / "episode.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_episode(path)
    assert str(info.value).startswith(f"{path}, line 4: {message}")


@pytest.mark.parametrize("header, message", [
    (None, "not an episode record (missing header line)"),
    ("mergeshield.episode/0", "unsupported schema 'mergeshield.episode/0'"),
])
def test_read_episode_needs_a_header_of_its_schema(tmp_path, header, message):
    lines = episode_lines(run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=2)), 0)[0])
    if header is None:
        lines = lines[1:]
    else:
        lines[0] = _dump({**json.loads(lines[0]), "schema": header})
    path = tmp_path / "episode.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_episode(path)
    assert str(info.value) == f"{path}: {message}"


def test_read_episode_rejects_a_schema_1_record(tmp_path):
    # schema 1 wrote five more fields per row, which ``VehicleRow.from_dict``
    # drops; so the schema check is what rejects the file
    lines = episode_lines(run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=2)), 0)[0])
    objects = [json.loads(line) for line in lines]
    for row_dict in objects[0]["initial"] + [r for d in objects[1:-1] for r in d["vehicles"]]:
        row_dict.update(speed=math.hypot(row_dict["v_x"], row_dict["v_y"]), x_m=0.0,
                        length=5.0, width=2.0, spawned_on_ramp=row_dict["lane"] == 1)
    path = tmp_path / "episode.jsonl"
    path.write_text("\n".join(map(_dump, objects)) + "\n")
    assert episode_lines(read_episode(path)) == lines
    objects[0]["schema"] = "mergeshield.episode/1"
    path.write_text("\n".join(map(_dump, objects)) + "\n")
    with pytest.raises(ValueError) as info:
        read_episode(path)
    assert str(info.value) == f"{path}: unsupported schema 'mergeshield.episode/1'"


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.pop("road"), "config.road.lane_width must be a number, got None"),
    (lambda c: c["vehicle"].pop("length"), "config.vehicle.length must be a number, got None"),
    (lambda c: c["vehicle"].update(length="5"), "config.vehicle.length must be a number, got '5'"),
    (lambda c: c["road"].update(lane_width=True),
     "config.road.lane_width must be a number, got True"),
], ids=["no road", "no length", "text length", "bool lane width"])
def test_read_episode_needs_the_header_numbers_the_rows_are_read_with(tmp_path, edit, message):
    # the metrics read these numbers; a header without them fails where it is read
    lines = episode_lines(run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=2)), 0)[0])
    header = json.loads(lines[0])
    edit(header["config"])
    path = tmp_path / "episode.jsonl"
    path.write_text("\n".join([_dump(header), *lines[1:]]) + "\n")
    with pytest.raises(ValueError) as info:
        read_episode(path)
    assert str(info.value) == f"{path}, line 1: malformed header line (ValueError: {message})"


def test_a_record_that_cannot_be_encoded_leaves_the_files_as_they_were(tmp_path):
    # a NaN float is not JSON: the write fails before it opens any file
    record = run_episode(RunConfig(scenario=ScenarioConfig(episode_steps=3)), 0)[0]
    path = tmp_path / "episode.jsonl"
    write_episode(record, path)
    before = path.read_bytes()
    last = record.steps[-1]
    bad_row = last.vehicles[0]._replace(x=math.nan)
    record.steps[-1] = StepRecord(last.step, (bad_row, *last.vehicles[1:]), last.topology)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_episode(record, path)
    assert [p.name for p in tmp_path.iterdir()] == ["episode.jsonl"]
    assert path.read_bytes() == before
