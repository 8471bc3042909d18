"""Episode records: per-step world snapshots with shield audit data.

One episode serialises to line-delimited JSON: a header line (schema,
seed, resolved config, initial snapshot), one line per step, and a final
summary line.  A vehicle row, the config echo and the summary list their
keys in the declaration order of the fields behind them (a row nests its
shield fields in one ``shield`` object), and floats use the default
full-precision repr, so identical runs serialise to identical bytes.  The
record deliberately excludes the policy kind: a replayed action stream
must reproduce the file bit for bit regardless of who produced the
actions (the summary carries the policy as metadata).

Step lines are written straight from the :class:`VehicleRow` tuples with
no intermediate dicts; the bytes are those ``json.dumps`` writes for the
same dicts.  One encoder serves a whole episode and remembers the repr of
the non-zero floats it has recently written, as positions and speeds recur
from step to step.  Zeros are written afresh each time: ``0.0 == -0.0``
and both hash alike, so a remembered zero would print the other zero's
sign.

A wreck never moves again, so its row is one fact: from the second step
after a vehicle crashed, :func:`snapshot_step` hands on the previous step's
row object (rows are immutable named tuples) instead of building an equal
one.  The encoder keeps the text of each vehicle's last wreck row and
reuses it only for that same object (``is``, never ``==``, for the same
reason zeros are not remembered).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from mergeshield.world import World

__all__ = ["SCHEMA", "VehicleRow", "StepRecord", "EpisodeRecord",
           "snapshot_vehicle", "snapshot_step", "episode_lines", "write_episode",
           "read_episode"]

SCHEMA = "mergeshield.episode/1"


class VehicleRow(NamedTuple):
    """One vehicle at one step (post-step state plus what produced it).

    A named tuple, as is every value built once per vehicle and step
    (``VehicleState``, ``MotionPlan``, ``Neighborhood``, ``QPSolution``,
    ``ShieldOutcome`` and this row): immutable like a frozen dataclass,
    and several times cheaper to build or copy.  A row without an action
    serialises its state fields only.
    """

    vid: int
    lane: int
    target_lane: int
    x: float
    y: float
    v_x: float
    v_y: float
    psi: float
    speed: float
    x_m: float
    length: float
    width: float
    spawned_on_ramp: bool
    merged: bool
    merge_failed: bool
    crashed: bool
    action: int | None = None
    v_nominal: float | None = None
    v_safe: float | None = None
    v_cbf: float | None = None
    lane_change_allowed: bool | None = None
    slack: float | None = None
    active: tuple = ()
    fault: bool | None = None
    reward: float | None = None
    reward_overall: float | None = None

    def to_dict(self) -> dict:
        if self.action is None:
            return dict(zip(_STATE_FIELDS, self))
        d: dict = {}
        for name, value in zip(self._fields, self):
            if name in _SHIELD_FIELDS:
                d.setdefault("shield", {})[name] = value
            else:
                d[name] = value
        d["shield"]["active"] = list(self.active)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VehicleRow":
        values = {**d, **(d.get("shield") or {})}
        values["active"] = tuple(values.get("active", ()))
        return cls(**{name: values[name] for name in cls._fields
                      if name in values or name in _STATE_FIELDS})


#: the fields every row carries, and the fields nested in the ``shield``
#: object of a row that carries an action; the rest sit beside them
_STATE_FIELDS = VehicleRow._fields[:VehicleRow._fields.index("action")]
_SHIELD_FIELDS = VehicleRow._fields[VehicleRow._fields.index("v_nominal"):
                                    VehicleRow._fields.index("reward")]


@dataclass(frozen=True)
class StepRecord:
    step: int
    vehicles: tuple
    topology: dict

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        return cls(
            step=d["step"],
            vehicles=tuple(VehicleRow.from_dict(v) for v in d["vehicles"]),
            topology={int(k): tuple(v) for k, v in d["topology"].items()},
        )


@dataclass
class EpisodeRecord:
    seed: int
    config: dict
    initial: tuple = ()
    steps: list = field(default_factory=list)
    summary: dict | None = None

    def header_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "header",
            "seed": self.seed,
            "config": self.config,
            "initial": [v.to_dict() for v in self.initial],
        }


def snapshot_vehicle(world: "World", vehicle, action=None, outcome=None,
                     reward=None, reward_overall=None) -> VehicleRow:
    # positional, in field order: binding 26 keywords costs more than
    # everything else that goes into a row
    s = vehicle.state
    params = vehicle.params
    row = (
        vehicle.vid, vehicle.lane, vehicle.target_lane,
        s.x, s.y, s.v_x, s.v_y, s.psi, s.speed,
        vehicle.x_m(world.road), params.length, params.width,
        vehicle.spawned_on_ramp, vehicle.merged, vehicle.merge_failed, vehicle.crashed,
        None if action is None else int(action),
    )
    if outcome is None:
        return VehicleRow(*row, reward=reward, reward_overall=reward_overall)
    return VehicleRow(
        *row, outcome.v_nominal, outcome.v_safe, outcome.v_cbf,
        outcome.lane_change_allowed, outcome.slack_used, outcome.active_constraints,
        outcome.fault, reward, reward_overall,
    )


def snapshot_step(world: "World", step_index: int, actions: dict, outcomes: dict,
                  topology: dict, rewards: dict, previous: tuple) -> StepRecord:
    """The post-step rows of the fleet, in ``world.vehicles`` order.

    ``previous`` holds the rows of the step before, in the same order (the
    initial snapshot before step 0).  A vehicle that is crashed, has no
    action and was already a wreck without an action in ``previous`` keeps
    that row object: a wreck never moves, so the row it would get is equal
    field for field.  A vehicle that crashed during the last step carries
    that step's action in its row, so it gets one new wreck row, shared
    from then on.
    """
    rows = []
    for i, vehicle in enumerate(world.vehicles):
        vid = vehicle.vid
        if vehicle.crashed and vid not in actions:
            before = previous[i]
            if before.crashed and before.action is None:
                rows.append(before)
                continue
        reward, reward_overall = rewards.get(vid, (None, None))
        rows.append(snapshot_vehicle(world, vehicle, actions.get(vid), outcomes.get(vid),
                                     reward, reward_overall))
    return StepRecord(step=step_index, vehicles=tuple(rows), topology=topology)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


#: JSON literals of the boolean fields
_LITERAL = {True: "true", False: "false", None: "null"}

#: slots of a step encoder's float memo, a power of two; a float mostly
#: recurs within a step or two, which this many slots hold even on a
#: 40-vehicle road
_FLOAT_SLOTS = 1024


def _step_encoder():
    """A function writing one :class:`StepRecord` as its JSON line.

    Remembers the repr of recent non-zero floats in ``_FLOAT_SLOTS`` slots
    indexed by the float's hash: a float is found again until a later one
    takes its slot.  The table never grows, shrinks or is rebuilt; a dict
    memo cleared whenever it filled up left the heap fragmented and raised
    the peak memory of a 40-vehicle episode by about half a megabyte.  The
    JSON string of every active label is kept for the encoder's lifetime,
    and so is the text of each vehicle's last wreck row (crashed, without
    an action), returned again only for that same row object.
    A field that is not a float goes through ``_dump``, so an ``int`` in a
    float field is written as ``json.dumps`` would write it; NaN and
    infinities raise ``ValueError``, as they do under ``allow_nan=False``.
    """
    mask = _FLOAT_SLOTS - 1
    floats: list = [None] * _FLOAT_SLOTS
    reprs: list = [None] * _FLOAT_SLOTS
    labels: dict = {}
    wreck_rows: dict = {}
    wreck_texts: dict = {}

    def num(v) -> str:
        if v.__class__ is not float:
            return _dump(v)
        i = hash(v) & mask
        if floats[i] == v:  # never a zero, so never the other zero's sign
            return reprs[i]
        if v == 0.0:
            return repr(v)
        if v - v != 0.0:
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        floats[i] = v
        s = reprs[i] = repr(v)
        return s

    def label(text: str) -> str:
        s = labels.get(text)
        if s is None:
            s = labels[text] = _dump(text)
        return s

    def row(r: VehicleRow) -> str:
        (vid, lane, target_lane, x, y, v_x, v_y, psi, speed, x_m, length, width,
         spawned_on_ramp, merged, merge_failed, crashed, action, v_nominal, v_safe,
         v_cbf, lane_change_allowed, slack, active, fault, reward, reward_overall) = r
        if crashed and action is None and wreck_rows.get(vid) is r:
            return wreck_texts[vid]
        head = (f'{{"vid":{vid},"lane":{lane},"target_lane":{target_lane},'
                f'"x":{num(x)},"y":{num(y)},"v_x":{num(v_x)},"v_y":{num(v_y)},'
                f'"psi":{num(psi)},"speed":{num(speed)},"x_m":{num(x_m)},'
                f'"length":{num(length)},"width":{num(width)},'
                f'"spawned_on_ramp":{_LITERAL[spawned_on_ramp]},"merged":{_LITERAL[merged]},'
                f'"merge_failed":{_LITERAL[merge_failed]},"crashed":{_LITERAL[crashed]}')
        if action is None:
            text = head + "}"
            if crashed:
                wreck_rows[vid] = r
                wreck_texts[vid] = text
            return text
        return (f'{head},"action":{action},"shield":{{"v_nominal":{num(v_nominal)},'
                f'"v_safe":{num(v_safe)},"v_cbf":{num(v_cbf)},'
                f'"lane_change_allowed":{_LITERAL[lane_change_allowed]},"slack":{num(slack)},'
                f'"active":[{",".join([label(a) for a in active])}],'
                f'"fault":{_LITERAL[fault]}}},'
                f'"reward":{num(reward)},"reward_overall":{num(reward_overall)}}}')

    def step_line(step: StepRecord) -> str:
        vehicles = ",".join([row(r) for r in step.vehicles])
        topology = ",".join([f'"{vid}":[{",".join(map(str, parents))}]'
                             for vid, parents in sorted(step.topology.items())])
        return (f'{{"kind":"step","step":{step.step},"vehicles":[{vehicles}],'
                f'"topology":{{{topology}}}}}')

    return step_line


def episode_lines(record: EpisodeRecord) -> list:
    lines = [_dump(record.header_dict())]
    lines.extend(map(_step_encoder(), record.steps))
    if record.summary is not None:
        lines.append(_dump({"kind": "summary", **record.summary}))
    return lines


def write_episode(record: EpisodeRecord, path) -> None:
    import os

    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(episode_lines(record)) + "\n")
    os.replace(tmp, path)


def read_episode(path) -> EpisodeRecord:
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines or lines[0].get("kind") != "header":
        raise ValueError(f"{path}: not an episode record (missing header line)")
    header = lines[0]
    if header.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {header.get('schema')!r}")
    record = EpisodeRecord(
        seed=header["seed"],
        config=header["config"],
        initial=tuple(VehicleRow.from_dict(v) for v in header["initial"]),
    )
    for d in lines[1:]:
        if d.get("kind") == "step":
            record.steps.append(StepRecord.from_dict(d))
        elif d.get("kind") == "summary":
            record.summary = {k: v for k, v in d.items() if k != "kind"}
    return record
