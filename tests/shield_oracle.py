"""Reference shield pass, independent of the one-loop ``joint_safe_control``.

``headway_cap``, ``brake_guard``, ``filter_vehicle`` and
``joint_safe_control`` below are the shield pass as it was written before
the per-vehicle filter was folded into the loop: one function per cap, each
working out its own bumper gap and next gap from the two vehicles and their
staged ``v_x``.  ``joint_safe_control`` here must return, for every
snapshot and mode, the outcomes ``mergeshield.shield.joint_safe_control``
returns, float for float.  The helpers both share (reach box, credit rule,
lane gate, rear floor, QP, maneuver) are imported from the package.
"""

import math

from mergeshield.dynamics import maneuver
from mergeshield.shield import (
    ShieldConfig,
    ShieldFault,
    ShieldOutcome,
    allow_lane_change,
    brake_cap,
    bumper_gap,
    credited_speed,
    lane_change_feasible,
    lateral_rear_row,
    reach,
    solve_qp,
)
from mergeshield.topology import InteractionTopology, evaluation_order


def next_gap(ego, leader, config: ShieldConfig, v_x_ego: float, v_x_leader: float) -> float:
    """Bumper gap after one explicit-Euler step, which moves each vehicle
    by its staged ``v_x``, given here."""
    return bumper_gap(ego, leader) + (v_x_leader - v_x_ego) * config.dt


def headway_cap(ego, leader, config: ShieldConfig, v_x_ego: float,
                v_x_leader: float) -> float:
    """Headway cap toward one leader, the barrier propagated one step.

    ``h = gap - tau * v_e`` must decay no faster than ``(1 - eta)`` per
    step: ``gap_next - tau * v >= (1 - eta) * h``, with the next gap of
    :func:`next_gap`.  Raises ``ValueError`` when it is not finite.
    """
    tau = config.tau
    h = bumper_gap(ego, leader) - tau * ego.state.speed
    cap = (next_gap(ego, leader, config, v_x_ego, v_x_leader) - (1.0 - config.eta) * h) / tau
    if not math.isfinite(cap):
        raise ValueError(f"headway cap toward vehicle {leader.vid} is not finite")
    return cap


def brake_guard(ego, leader, config: ShieldConfig, v_leader_next: float, v_hi: float,
                v_x_ego: float, v_x_leader: float) -> float | None:
    """Braking-feasibility cap: the largest command whose joint worst-case
    braking run from the next state keeps the headway barrier satisfied.

    ``v_leader_next`` is the leader's credited next speed and ``v_hi`` the
    top of the ego's :func:`reach` box.  Returns None when even ``v_hi`` is
    fine.
    """
    gap_next = next_gap(ego, leader, config, v_x_ego, v_x_leader)
    cap = brake_cap(gap_next, v_hi, v_leader_next, -ego.params.a_min, config.tau, config.dt)
    if cap >= v_hi:
        return None
    return cap


def filter_vehicle(ego, leaders: list, c_oar, v_nominal: float, config: ShieldConfig,
                   lane_change_allowed: bool, staged) -> ShieldOutcome:
    """Filter one vehicle's nominal speed command.

    ``leaders`` holds ``(leader, credited next speed, staged v_x)``
    triples, each adding a headway cap and a brake guard; while the ego
    changes lanes, an adjacent rear vehicle ``c_oar`` adds the soft rear
    floor.  The QP is solved in the ego's :func:`reach` box with its top
    lowered to the smallest cap, the first one of a tie labelling it, and a
    fault falls back to full braking.  ``lane_change_allowed`` (the lane gate's verdict) and
    ``staged``, the ego's staged state, are recorded on the outcome as
    given.
    """
    lo, hi = reach(ego, config.dt)
    # min(max(v_nominal, lo), hi) without the calls, ties as theirs
    v_nom_step = lo if lo > v_nominal else v_nominal
    v_nom_step = hi if hi < v_nom_step else v_nom_step
    cap, bound, binder = hi, None, None
    for leader, v_next, v_x_leader in leaders:
        headway = headway_cap(ego, leader, config, staged.v_x, v_x_leader)
        if headway < cap:
            cap, bound, binder = headway, "headway", leader
        guard = brake_guard(ego, leader, config, v_next, hi, staged.v_x, v_x_leader)
        if guard is not None and guard < cap:
            cap, bound, binder = guard, "brake", leader
    label = "reach_hi" if binder is None else f"{bound}:{binder.vid}"
    floors = ()
    if ego.target_lane != ego.lane and c_oar is not None:
        floors = (lateral_rear_row(ego, c_oar, config),)
    try:
        sol = solve_qp(v_nom_step, floors, lo, cap, label)
    except ShieldFault:
        return ShieldOutcome(v_nom_step, lo, lo - v_nom_step, lane_change_allowed, 0.0,
                             ("fault",), True, staged)
    v_safe = sol.v_safe
    return ShieldOutcome(v_nom_step, v_safe, v_safe - v_nom_step, lane_change_allowed,
                         sol.slack, sol.active, False, staged)


def joint_safe_control(config: ShieldConfig, topology: InteractionTopology,
                       nominal_plans: dict, near: dict, index: "NeighborIndex",
                       road: "RoadNetwork") -> dict:
    """Resolve every vehicle in dependency order, gate lane requests, stage maneuvers.

    ``near`` holds each live vehicle's ``Neighborhood`` by vid, and
    ``index`` is the snapshot's neighbour index, which gives the fleet and
    its order.  Each vehicle's leaders are its topology parents; ``hss``
    puts first the own-lane leader when a cut-in displaced it.  Each leader
    is credited from ``credit``: the outcomes resolved so far in ``mass``,
    none in ``hss``.  Parents are always ahead, so the front-to-back
    evaluation order resolves each before its children.

    Right after its gate verdict (``none`` mode grants every plan), each
    live vehicle's :func:`maneuver` toward the lane that verdict implies is
    staged once, as ``staged`` on its outcome; wrecks get none.  Every cap
    reads the staged ``v_x`` of the ego and of each leader, resolved first,
    in both modes; a wreck's is 0.
    """
    order = evaluation_order(topology, index)
    outcomes: dict = {}
    credit = outcomes if config.mode == "mass" else {}
    by_id = {v.vid: v for v in index.ordered}
    for vid in order:
        vehicle = by_id[vid]
        if vehicle.crashed or vid not in nominal_plans:
            continue
        plan = nominal_plans[vid]
        allowed = True
        if config.mode != "none":
            c_ol, c_oal, c_oar = near[vid]
            # ROADMAP item 4 (shared responsibility) flips the gate's `outcomes` to `credit`
            allowed = not plan.lane_request or (
                allow_lane_change(vehicle, c_oal, c_oar, config)
                and lane_change_feasible(vehicle, c_oal, c_oar, config, outcomes))
        lane = plan.target_lane if allowed else vehicle.target_lane
        staged = maneuver(vehicle.state, road.centerline_y(lane), lane != vehicle.lane, config.dt)
        if config.mode == "none":
            out = ShieldOutcome(plan.v_target, plan.v_target, 0.0, staged=staged)
        else:
            leaders = [by_id[pid] for pid in topology.parents(vid)]
            if config.mode == "hss" and c_ol is not None:
                # on a cut-in the topology hands the ego to the merging
                # vehicle; the worst case also keeps the leader it displaced
                leaders = [c_ol] + [p for p in leaders if p.vid != c_ol.vid]
            leaders = [(p, credited_speed(p, credit, config.dt),
                        0.0 if p.crashed else outcomes[p.vid].staged.v_x) for p in leaders]
            out = filter_vehicle(vehicle, leaders, c_oar, plan.v_target, config, allowed, staged)
        outcomes[vid] = out
    return outcomes
