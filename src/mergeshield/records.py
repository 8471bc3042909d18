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

A row holds each fact once, and the header's initial rows have the same
shape as the step rows.  What follows from other data is not written:

- the speed is ``hypot(v_x, v_y)``, the :attr:`VehicleRow.speed` property;
- length and width are the header config's ``vehicle`` section, as
  ``world.spawn`` gives the whole fleet one set of vehicle params;
- a vehicle spawned on the ramp if its initial row is in the ramp lane;
- its distance into the merge section follows from ``x``, its lane and
  the config's ``road`` section.

Step lines are written straight from the :class:`VehicleRow` tuples with
no intermediate dicts; the bytes are those ``json.dumps`` writes for the
same dicts.  Equal nonzero floats have the same bits, so they may share
one text; a zero is written by its own sign, as ``0.0 == -0.0``.

A wreck never moves again, so its row is one fact: from the second step
after a vehicle crashed, :func:`snapshot_step` hands on the previous step's
row object (rows are immutable named tuples) instead of building an equal
one.  The encoder keeps the text of each vehicle's last wreck row and
reuses it only for that same object: ``is``, never ``==``, as ``0.0 ==
-0.0`` and an equal row may carry the other zero's sign.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from mergeshield.world import World

__all__ = ["SCHEMA", "VehicleRow", "StepRecord", "EpisodeRecord",
           "snapshot_vehicle", "snapshot_step", "episode_lines", "write_episode",
           "json_objects", "read_episode"]

SCHEMA = "mergeshield.episode/2"

#: the header config's numbers that rows are read with (metric lane, bumpers)
_ROW_CONTEXT = (("road", "lane_width"), ("vehicle", "length"))


class VehicleRow(NamedTuple):
    """One vehicle at one step (post-step state plus what produced it).

    A named tuple, as is every value built once per vehicle and step
    (``VehicleState``, ``MotionPlan``, ``Neighborhood``, ``QPSolution``,
    ``ShieldOutcome`` and this row): immutable like a frozen dataclass,
    and several times cheaper to build or copy.  A row without an action
    serialises its state fields only; what follows from them or from the
    header is not a field (see the module docstring).
    """

    vid: int
    lane: int
    target_lane: int
    x: float
    y: float
    v_x: float
    v_y: float
    psi: float
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

    @property
    def speed(self) -> float:
        """The planar speed, bit for bit ``VehicleState.speed``."""
        return math.hypot(self.v_x, self.v_y)

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


def snapshot_vehicle(vehicle, action=None, outcome=None, reward=None,
                     reward_overall=None) -> VehicleRow:
    # positional, in field order: binding 21 keywords costs more than
    # everything else that goes into a row
    s = vehicle.state
    row = (
        vehicle.vid, vehicle.lane, vehicle.target_lane, s.x, s.y, s.v_x, s.v_y, s.psi,
        vehicle.merged, vehicle.merge_failed, vehicle.crashed,
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
        rows.append(snapshot_vehicle(vehicle, actions.get(vid), outcomes.get(vid),
                                     reward, reward_overall))
    return StepRecord(step=step_index, vehicles=tuple(rows), topology=topology)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


#: JSON literals of the boolean fields
_LITERAL = {True: "true", False: "false", None: "null"}


def _step_encoder():
    """A function writing one :class:`StepRecord` as its JSON line.

    Each block of a row's float fields, the state fields and then the
    shield and reward fields, is checked once: when every field is exactly
    a ``float`` and one sum of ``v - v`` terms is 0 (a NaN or an infinity
    makes it NaN), each is formatted with ``!r``, which gives the text
    ``json.dumps`` writes.  Otherwise the block goes field by field through
    ``num``: a field that is not a float goes through ``_dump``, so an
    ``int`` or ``bool`` is written as ``json.dumps`` writes it, and NaN and
    infinities raise ``ValueError``, as under ``allow_nan=False``.  With
    both blocks all finite floats, a ``v_safe`` equal to ``v_x`` and not
    zero (a tracked command) reuses ``v_x``'s text, and a ``v_nominal``
    that is the ``v_safe`` object (an untouched command) reuses its text.

    The JSON text of every tuple of active labels and of every tuple of
    topology parents is kept for the encoder's lifetime, and so is the
    text of each vehicle's last wreck row (crashed, without an action),
    returned again only for that same row object.
    """
    actives: dict = {}
    parent_lists: dict = {}
    wreck_rows: dict = {}
    wreck_texts: dict = {}

    def num(v) -> str:
        if v.__class__ is not float:
            return _dump(v)
        if v - v != 0.0:
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return repr(v)

    def row(r: VehicleRow) -> str:
        (vid, lane, target_lane, x, y, v_x, v_y, psi, merged, merge_failed, crashed, action,
         v_nominal, v_safe, v_cbf, lane_change_allowed, slack, active, fault, reward,
         reward_overall) = r
        if crashed and action is None and wreck_rows.get(vid) is r:
            return wreck_texts[vid]
        # each float field's text: its repr when all are finite floats, else
        # what ``num`` writes; ``vx`` keeps v_x's value only on the repr path
        if (x.__class__ is y.__class__ is v_x.__class__ is v_y.__class__ is psi.__class__
                is float and x - x + (y - y) + (v_x - v_x) + (v_y - v_y) + (psi - psi) == 0.0):
            vx, x, y, v_x, v_y, psi = v_x, f"{x!r}", f"{y!r}", f"{v_x!r}", f"{v_y!r}", f"{psi!r}"
        else:
            vx, x, y, v_x, v_y, psi = None, num(x), num(y), num(v_x), num(v_y), num(psi)
        head = (f'{{"vid":{vid},"lane":{lane},"target_lane":{target_lane},'
                f'"x":{x},"y":{y},"v_x":{v_x},"v_y":{v_y},"psi":{psi},'
                f'"merged":{_LITERAL[merged]},"merge_failed":{_LITERAL[merge_failed]},'
                f'"crashed":{_LITERAL[crashed]}')
        if action is None:
            text = head + "}"
            if crashed:
                wreck_rows[vid] = r
                wreck_texts[vid] = text
            return text
        if (v_nominal.__class__ is v_safe.__class__ is v_cbf.__class__ is slack.__class__
                is reward.__class__ is reward_overall.__class__ is float
                and v_nominal - v_nominal + (v_safe - v_safe) + (v_cbf - v_cbf)
                + (slack - slack) + (reward - reward)
                + (reward_overall - reward_overall) == 0.0):
            # an equal nonzero float has one text; an equal zero may be the other one
            text = v_x if v_safe == vx != 0.0 else f"{v_safe!r}"
            v_nominal = text if v_nominal is v_safe else f"{v_nominal!r}"
            v_safe = text
            v_cbf, slack = f"{v_cbf!r}", f"{slack!r}"
            reward, reward_overall = f"{reward!r}", f"{reward_overall!r}"
        else:
            v_nominal, v_safe, v_cbf, slack = num(v_nominal), num(v_safe), num(v_cbf), num(slack)
            reward, reward_overall = num(reward), num(reward_overall)
        labels = actives.get(active)
        if labels is None:
            labels = actives[active] = ",".join([_dump(a) for a in active])
        return (f'{head},"action":{action},"shield":{{"v_nominal":{v_nominal},'
                f'"v_safe":{v_safe},"v_cbf":{v_cbf},'
                f'"lane_change_allowed":{_LITERAL[lane_change_allowed]},"slack":{slack},'
                f'"active":[{labels}],'
                f'"fault":{_LITERAL[fault]}}},'
                f'"reward":{reward},"reward_overall":{reward_overall}}}')

    def step_line(step: StepRecord) -> str:
        vehicles = ",".join([row(r) for r in step.vehicles])
        entries = []
        for vid, parents in sorted(step.topology.items()):
            text = parent_lists.get(parents)
            if text is None:
                text = parent_lists[parents] = f'[{",".join(map(str, parents))}]'
            entries.append(f'"{vid}":{text}')
        topology = ",".join(entries)
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
    text = "\n".join(episode_lines(record)) + "\n"  # a record that cannot encode opens no file
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _non_finite(name):
    raise ValueError(f"{name} is not a JSON number")


def json_objects(path) -> list:
    """The non-blank lines of the JSONL file ``path`` as (1-based line
    number, object) pairs.  A line that is not a JSON object, or that holds
    ``NaN``, ``Infinity`` or ``-Infinity`` (which ``json`` reads by default),
    raises ``ValueError`` naming the path and the line's number."""
    lines = []
    with open(path) as f:
        for n, text in enumerate(f, 1):
            if not text.strip():
                continue
            try:
                d = json.loads(text, parse_constant=_non_finite)
            except ValueError as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise ValueError(f"{path}, line {n}: not JSON ({msg})") from None
            if not isinstance(d, dict):
                raise ValueError(f"{path}, line {n}: not a JSON object")
            lines.append((n, d))
    return lines


def read_episode(path) -> EpisodeRecord:
    """The record written to ``path``.  A line that is not a JSON object,
    or a header or step line that lacks a field or holds one of the wrong
    shape, raises ``ValueError`` naming the path and the line's 1-based
    number in the file.  So does a header whose config lacks a number the
    rows are read with (``_ROW_CONTEXT``)."""
    lines = json_objects(path)
    if not lines or lines[0][1].get("kind") != "header":
        raise ValueError(f"{path}: not an episode record (missing header line)")
    n, d = lines[0]
    if d.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {d.get('schema')!r}")
    try:
        record = EpisodeRecord(
            seed=d["seed"],
            config=d["config"],
            initial=tuple(VehicleRow.from_dict(v) for v in d["initial"]),
        )
        for section, key in _ROW_CONTEXT:
            value = record.config.get(section, {}).get(key)
            if value.__class__ not in (int, float):
                raise ValueError(f"config.{section}.{key} must be a number, got {value!r}")
        for n, d in lines[1:]:
            if d.get("kind") == "step":
                record.steps.append(StepRecord.from_dict(d))
            elif d.get("kind") == "summary":
                record.summary = {k: v for k, v in d.items() if k != "kind"}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        # only header and step lines are parsed field by field
        raise ValueError(f"{path}, line {n}: malformed {d['kind']} line "
                         f"({type(exc).__name__}: {exc})") from None
    return record
