"""Evaluation metrics over episode records.

Headway pairs a vehicle with the nearest leader in its metric lane, the
lane whose centreline is closest to its lateral position (a lane-changing
vehicle counts toward the lane it physically occupies most).  Every
vehicle is ``vehicle.length`` long, from the header config, as the fleet
shares one set of params; the ramp vehicles are those whose initial row is
in the ramp lane.  All metrics are pure functions of the record, so
re-reading an exported file and recomputing reproduces the stored summary
exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, fields

from mergeshield.records import EpisodeRecord, json_objects
from mergeshield.reward import V_FLOOR
from mergeshield.road import RoadNetwork

__all__ = [
    "EpisodeSummary",
    "min_time_headway",
    "average_speed",
    "summarize_episode",
    "aggregate_summaries",
    "write_summaries",
    "read_summaries",
    "write_aggregate_csv",
]


#: the JSON values a summary field takes, by its annotation; a bool is none
_JSON = {"int": int, "str": str, "float": (int, float), "float | None": (int, float, type(None))}


@dataclass(frozen=True)
class EpisodeSummary:
    """Headline evaluation quantities of one episode.

    ``min_headway`` is +inf when the episode never produced a same-lane
    leader pair (serialised as null).
    """

    seed: int
    steps: int
    shield_mode: str
    policy: str
    min_headway: float
    avg_speed: float
    merging_pct: float | None
    collisions: int
    merged_count: int
    ramp_count: int

    def to_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.min_headway):
            d["min_headway"] = None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeSummary":
        kinds = {f.name: f.type for f in fields(cls)}
        d = {k: v for k, v in d.items() if k in kinds}
        if d.get("min_headway") is None:
            d["min_headway"] = math.inf
        for k, v in d.items():
            if isinstance(v, bool) or not isinstance(v, _JSON[kinds[k]]):
                raise TypeError(f"{k} must be {kinds[k]}, got {v!r}")
        return cls(**d)


def _rows_iter(record: EpisodeRecord):
    yield record.initial
    for step in record.steps:
        yield step.vehicles


def _ahead_first(row) -> tuple:
    """Sort key of a lane's rows: front first, ties by id."""
    return (-row.x, row.vid)


def min_time_headway(record: EpisodeRecord) -> float:
    """Min over steps and same-lane leader pairs of gap / ego speed.

    Egos below the speed floor are excluded; a collision anywhere in the
    episode yields 0.0; +inf reports an episode without any interaction.
    The record is walked once, and the walk ends at the first crashed row.
    A wreck stays in every later step, so the last rows are looked at first.
    The lane order cannot change the min: no ratio is NaN, and none is a
    negative zero, as vehicle lengths are positive.
    """
    if not record.steps and not record.initial:
        raise ValueError("empty record")
    if any(r.crashed for r in _final_rows(record)):
        return 0.0
    lane_width = record.config["road"]["lane_width"]
    half_length = 0.5 * record.config["vehicle"]["length"]
    best = math.inf
    for rows in _rows_iter(record):
        through = []
        ramp = []
        for r in rows:
            if r.crashed:
                return 0.0
            # the metric lane: the nearest centreline, clamped to the two lanes
            (ramp if round(r.y / lane_width) > 0 else through).append(r)
        for members in (through, ramp):
            members.sort(key=_ahead_first)
            for leader, follower in zip(members, members[1:]):
                speed = follower.speed
                if speed < V_FLOOR:
                    continue
                gap = (leader.x - half_length) - (follower.x + half_length)
                headway = gap / speed
                if headway < best:
                    best = headway
    return best


def average_speed(record: EpisodeRecord) -> float:
    """Mean speed over all alive vehicle-steps."""
    total = 0.0
    count = 0
    for step in record.steps:
        for r in step.vehicles:
            if not r.crashed:
                total += r.speed
                count += 1
    if count == 0:
        raise ValueError("record has no alive vehicle-steps")
    return total / count


def _final_rows(record: EpisodeRecord):
    return record.steps[-1].vehicles if record.steps else record.initial


def summarize_episode(record: EpisodeRecord, shield_mode: str, policy: str) -> EpisodeSummary:
    final = _final_rows(record)
    collisions = sum(1 for r in final if r.crashed)
    on_ramp = {r.vid for r in record.initial if r.lane == RoadNetwork.ramp_lane}
    ramp = sum(1 for r in final if r.vid in on_ramp)
    merged = sum(1 for r in final if r.vid in on_ramp and r.merged)
    return EpisodeSummary(
        seed=record.seed,
        steps=len(record.steps),
        shield_mode=shield_mode,
        policy=policy,
        min_headway=min_time_headway(record),
        avg_speed=average_speed(record),
        merging_pct=100.0 * merged / ramp if ramp else None,
        collisions=collisions,
        merged_count=merged,
        ramp_count=ramp,
    )


def _mean_se(values: list) -> tuple:
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def aggregate_summaries(summaries: list) -> dict:
    """Batch aggregate: mean and standard error per metric, plus extremes
    and pooled merge counts."""
    headways = [s.min_headway for s in summaries if not math.isinf(s.min_headway)]
    speeds = [s.avg_speed for s in summaries]
    pcts = [s.merging_pct for s in summaries if s.merging_pct is not None]
    hw_mean, hw_se = _mean_se(headways)
    sp_mean, sp_se = _mean_se(speeds)
    pct_mean, pct_se = _mean_se(pcts)
    merged = sum(s.merged_count for s in summaries)
    ramp = sum(s.ramp_count for s in summaries)
    return {
        "episodes": len(summaries),
        "min_headway_mean": hw_mean,
        "min_headway_se": hw_se,
        "min_headway_min": min(headways) if headways else None,
        "avg_speed_mean": sp_mean,
        "avg_speed_se": sp_se,
        "merging_pct_mean": pct_mean,
        "merging_pct_se": pct_se,
        "merging_pct_pooled": (100.0 * merged / ramp) if ramp else None,
        "collisions_total": sum(s.collisions for s in summaries),
    }


def write_summaries(summaries: list, path) -> None:
    """One JSON line per summary.  A NaN or infinite number (other than an
    infinite ``min_headway``, written as null) raises ``ValueError`` before
    anything is written."""
    lines = [json.dumps(s.to_dict(), separators=(",", ":"), allow_nan=False) + "\n"
             for s in summaries]
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.writelines(lines)
    os.replace(tmp, path)


def read_summaries(path) -> list:
    """The summaries written to ``path``.  A line that is not a JSON object,
    or an object that is not a summary (a field missing or of a wrong type),
    raises ``ValueError`` naming the path and the line's 1-based number."""
    out = []
    for n, d in json_objects(path):
        try:
            out.append(EpisodeSummary.from_dict(d))
        except TypeError as exc:
            raise ValueError(f"{path}, line {n}: not a summary ({exc})") from None
    return out


def write_aggregate_csv(aggregate: dict, path) -> None:
    """A schema row, then the aggregate's keys and values in its own order."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["schema", "mergeshield.aggregate/1"])
        writer.writerow(aggregate)
        writer.writerow(aggregate.values())
    os.replace(tmp, path)
