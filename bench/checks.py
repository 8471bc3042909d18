"""Correctness gate applied to every benchmark episode.

The checks read the serialised lines, so they test what a user of the
records would see:

* record -> summary round trip: the lines parse back through
  ``StepRecord.from_dict``/``VehicleRow.from_dict`` and ``summarize_episode``
  on the parsed record equals the stored summary line;
* shield audit identity: ``v_safe == v_nominal + v_cbf`` exactly;
* reach box: with a shield on, every non-faulted ``v_safe`` lies inside the
  one-step actuator envelope of the pre-step speed (shield ``none`` has no
  envelope: its command is the raw plan).  ``solve_qp`` accepts a candidate
  that violates a hard row by up to ``REACH_TOL``, so the check allows that
  much and counts every excursion beyond the exact box, which is reported.

Determinism (one seed run twice gives byte-identical lines) is checked by
the runner, which owns the episodes.  This module binds the program
functions it calls at import, so a tracer installed later does not time
the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mergeshield.metrics import summarize_episode
from mergeshield.records import EpisodeRecord, StepRecord, VehicleRow

__all__ = ["EpisodeFacts", "REACH_TOL", "check_episode", "parse_lines"]

#: feasibility tolerance of the active-set enumeration in ``shield.solve_qp``
REACH_TOL = 1e-9


@dataclass(frozen=True)
class EpisodeFacts:
    """What the benchmark reads off one checked episode."""

    problems: tuple
    steps: int
    vehicle_steps: int
    faults: int
    summary: dict
    #: vehicle-steps outside the exact reach box, within ``REACH_TOL``
    reach_excursions: int
    reach_excursion_max: float


def parse_lines(lines: list) -> EpisodeRecord:
    """In-memory counterpart of ``records.read_episode``, which reads a file."""
    header = json.loads(lines[0])
    record = EpisodeRecord(
        seed=header["seed"],
        config=header["config"],
        initial=tuple(VehicleRow.from_dict(v) for v in header["initial"]),
    )
    for line in lines[1:]:
        d = json.loads(line)
        if d["kind"] == "step":
            record.steps.append(StepRecord.from_dict(d))
        elif d["kind"] == "summary":
            record.summary = {k: v for k, v in d.items() if k != "kind"}
    return record


def check_episode(lines: list, shield_mode: str, policy: str) -> EpisodeFacts:
    problems = []
    record = parse_lines(lines)
    if record.summary is None:
        problems.append("no summary line")
    else:
        again = summarize_episode(record, shield_mode, policy).to_dict()
        if again != record.summary:
            problems.append(f"summary round trip differs: stored {record.summary}, "
                            f"recomputed {again}")

    vehicle = record.config["vehicle"]
    dt = record.config["scenario"]["dt"]
    pre_speed = {r.vid: r.speed for r in record.initial}
    vehicle_steps = faults = excursions = 0
    excursion_max = 0.0
    for step in record.steps:
        for r in step.vehicles:
            if r.action is None:
                continue
            vehicle_steps += 1
            faults += bool(r.fault)
            if r.v_safe != r.v_nominal + r.v_cbf:
                problems.append(f"step {step.step} vehicle {r.vid}: v_safe {r.v_safe!r} != "
                                f"v_nominal {r.v_nominal!r} + v_cbf {r.v_cbf!r}")
            if shield_mode != "none" and not r.fault:
                v = pre_speed[r.vid]
                lo = max(0.0, v + vehicle["a_min"] * dt)
                hi = min(vehicle["v_cap"], v + vehicle["a_max"] * dt)
                outside = max(lo - r.v_safe, r.v_safe - hi)
                if outside > 0.0:
                    excursions += 1
                    excursion_max = max(excursion_max, outside)
                if outside > REACH_TOL:
                    problems.append(f"step {step.step} vehicle {r.vid}: v_safe {r.v_safe!r} "
                                    f"outside reach box [{lo!r}, {hi!r}]")
        pre_speed = {r.vid: r.speed for r in step.vehicles}
    return EpisodeFacts(
        problems=tuple(problems),
        steps=len(record.steps),
        vehicle_steps=vehicle_steps,
        faults=faults,
        summary=record.summary or {},
        reach_excursions=excursions,
        reach_excursion_max=excursion_max,
    )
