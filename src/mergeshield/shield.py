"""Safety layer: speed caps, a soft floor, a scalar QP filter, lane gating.

Every barrier bounds the one speed command ``v``: each hard one is a cap
``v <= cap``, and the one soft row ``a * v - slack <= q`` with ``a < 0``
sets a floor that a slack may relax.  The interaction topology names the
leaders that constrain each vehicle in both shield modes; the mode only
picks the next speed a leader is credited with: its resolved safe command
in ``mass`` mode, its worst-case braking in ``hss`` mode, which also keeps
the own-lane leader that a cutting-in vehicle displaced.  Per vehicle and
step the filter takes

* a headway cap per leader: the time-headway barrier
  ``h = gap - tau * v`` propagated one step with decay ``eta``, crediting
  the leader's next speed,
* a braking-feasibility cap per leader: the largest command from which a
  joint worst-case braking run keeps the headway satisfied.  The bare
  one-step barrier alone admits states where bounded deceleration can no
  longer prevent a violation (fast follower, slow leader), so the guard
  keeps the system inside the set where the barrier stays feasible,
* a soft rear floor toward the adjacent rear vehicle during an ongoing lane
  change, relaxed by the slack.

The caps lower the top of the reachability box (one-step actuator
envelope) to their minimum.  The QP minimises ``(v - v_nominal)^2 +
k_eps * slack`` inside that box in closed form (:func:`solve_qp`); caps
below the box raise a fault that callers turn into full braking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from mergeshield.dynamics import check_magnitude

if TYPE_CHECKING:
    from mergeshield.topology import InteractionTopology
    from mergeshield.world import World

__all__ = [
    "Row",
    "bumper_gap",
    "brake_margin",
    "brake_cap",
    "ShieldConfig",
    "ShieldOutcome",
    "ShieldFault",
    "QPSolution",
    "worst_case_speed",
    "headway_cap",
    "brake_guard",
    "lateral_rear_row",
    "allow_lane_change",
    "lane_change_feasible",
    "solve_qp",
    "filter_vehicle",
    "joint_safe_control",
]


class ShieldFault(RuntimeError):
    """Hard-infeasible constraint system; caller falls back to full braking."""


class Row(NamedTuple):
    """The soft floor ``a * v - slack <= q`` (``a < 0``) over the speed
    command; ``kind`` stays only for the benchmark's tracer to count by."""

    a: float
    q: float
    label: str
    kind: str = "soft"


@dataclass(frozen=True)
class ShieldConfig:
    """Shield mode and constraint parameters.

    Worst cases are each vehicle's own acceleration limits
    (``VehicleParams.a_min`` / ``a_max``), and the lateral rows use the
    same headway ``tau`` as the longitudinal ones.  ``lag_margin`` tightens
    every cap to absorb the one-step position lag of the explicit Euler
    integrator (commands move positions only one step later).
    """

    mode: str = "mass"
    tau: float = 0.5
    eta: float = 0.5
    k_eps: float = 1e6
    dt: float = 0.1
    lag_margin: float = 0.15

    def __post_init__(self):
        if self.mode not in ("none", "hss", "mass"):
            raise ValueError(f"shield mode must be none, hss or mass, got {self.mode!r}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if not self.k_eps > 0:
            raise ValueError("k_eps must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        check_magnitude("dt", self.dt)


class ShieldOutcome(NamedTuple):
    """Filtered longitudinal command and audit data for one vehicle-step.

    ``v_nominal`` is the reachability-clamped nominal command, so
    ``v_safe == v_nominal + v_cbf`` holds exactly and an untouched plan has
    ``v_cbf == 0``.
    """

    v_nominal: float
    v_safe: float
    v_cbf: float
    lane_change_allowed: bool = True
    slack_used: float = 0.0
    active_constraints: tuple = ()
    fault: bool = False


class QPSolution(NamedTuple):
    """The filtered command, the slack it uses, the labels of the bounds
    that bind there and the objective value."""

    v_safe: float
    slack: float
    active: tuple
    objective: float


def bumper_gap(follower, leader) -> float:
    """Front-of-follower to rear-of-leader distance along the arc."""
    return (leader.state.x - 0.5 * leader.params.length) - (
        follower.state.x + 0.5 * follower.params.length)


def _travel(v0: float, m: int, k: int, dv: float) -> float:
    """Summed speeds (travel over ``dt``) of ``k`` braking steps from ``v0``
    by a vehicle that stops after ``m`` steps."""
    kk = min(k, m)
    return kk * v0 - dv * kk * (kk - 1) * 0.5


def brake_margin(gap: float, v_follow: float, v_lead: float, brake: float,
                 tau: float, dt: float) -> float:
    """Worst value of ``gap_k - tau * v_follow_k`` while both vehicles brake
    at ``brake`` [m/s^2] from the given speeds (explicit-Euler travel).

    The sign is exact; when a cheap lower bound already proves the margin
    non-negative the bound is returned without evaluating the trajectory.
    The trajectory minimum itself is closed form: the margin is piecewise
    quadratic in the step count with breakpoints where either vehicle stops
    and where the follower decelerates through ``tau * brake``.
    """
    h0 = gap - tau * v_follow
    if v_lead >= v_follow:
        return h0
    lb = h0 - ((v_follow * v_follow - v_lead * v_lead) / (2.0 * brake) + (v_follow - v_lead) * dt)
    if lb >= 0.0:
        return lb

    dv = brake * dt
    m_f = math.ceil(v_follow / dv - 1e-12)
    m_l = math.ceil(v_lead / dv - 1e-12) if v_lead > 0.0 else 0
    k_star = int((v_follow - tau * brake) / dv) if v_follow > tau * brake else 0
    margin = math.inf
    for k in {0, m_l, m_l + 1, k_star, k_star + 1, m_f}:
        if 0 <= k <= m_f:
            # _travel of both vehicles inlined; the follower has not
            # stopped before step k <= m_f
            kl = m_l if m_l < k else k
            s_l = kl * v_lead - dv * kl * (kl - 1) * 0.5
            s_f = k * v_follow - dv * k * (k - 1) * 0.5
            v_k = v_follow - k * dv
            h = gap + dt * (s_l - s_f) - tau * (v_k if v_k > 0.0 else 0.0)
            if h < margin:
                margin = h
    return margin


def brake_cap(gap: float, v_hi: float, v_lead: float, brake: float,
              tau: float, dt: float, closing: float = 0.0) -> float:
    """Largest follower speed ``v`` in ``[0, v_hi]`` whose
    :func:`brake_margin` from the gap ``gap - closing * v`` is non-negative;
    0 when there is none.  ``closing`` must not be negative.

    Closed form.  After ``k`` braking steps the margin is
    ``a_k - b_k * v - tau * max(0, v - k * dv)`` once the follower's travel
    is extended past its stop (which only raises the margin), so it falls
    with ``v`` and has one kink.  The cap is the smallest per-``k`` root
    ``min(a_k / b_k, (a_k + tau * k * dv) / (b_k + tau))`` over every ``k``
    up to the step ``K`` at which a follower from ``v_hi`` stops, and only
    a fixed handful of ``k`` can hold it.  ``b_k`` is linear in ``k``.
    While the leader still moves (``k <= m_l``), so is ``a_k``; both ratios
    are then monotone in ``k``, with their minima at ``k = 0`` or
    ``min(m_l, K)``.  Once it has stopped, ``a_k`` is a convex quadratic in
    ``k``; each ratio is then quasiconvex, and its integer minimiser sits
    next to the real stationary point, if that lies in ``[m_l, K]``.
    """
    if brake_margin(gap - closing * v_hi, v_hi, v_lead, brake, tau, dt) >= 0.0:
        return v_hi
    dv = brake * dt
    m_l = math.ceil(v_lead / dv - 1e-12) if v_lead > 0.0 else 0
    last = math.ceil(v_hi / dv)
    steps = {0, last, min(m_l, last), min(m_l + 1, last)}
    # for k >= m_l each ratio is (alpha * k^2 + beta * k + c0) / (dt * k + d0);
    # in u = dt * k + d0 it reads A * u + B + c / u, c the numerator at u = 0
    # (k = k0), so a positive c puts its minimum at k = k0 + sqrt(c / alpha)
    alpha = 0.5 * dt * dv
    c0 = gap + dt * _travel(v_lead, m_l, m_l, dv)
    for beta, d0 in ((-alpha, closing), (tau * dv - alpha, closing + tau)):
        k0 = -d0 / dt
        c = (alpha * k0 + beta) * k0 + c0
        if c > 0.0:
            s = math.floor(k0 + math.sqrt(c / alpha))
            steps.update(range(max(m_l, s - 1), min(last, s + 2) + 1))
    cap = v_hi
    for k in steps:
        kink = k * dv
        a = gap + dt * (_travel(v_lead, m_l, k, dv) + dv * k * (k - 1) * 0.5)
        b = closing + dt * k
        if a - b * kink >= 0.0:
            root = (a + tau * kink) / (b + tau)
        elif b > 0.0:
            root = a / b
        else:  # k = 0 without closing: the gap itself is negative
            return 0.0
        if root < cap:
            cap = root
    return 0.0 if 0.0 > cap else cap


def worst_case_speed(leader, config: ShieldConfig) -> float:
    """Next speed of a leader that brakes as hard as it can; 0 once crashed."""
    if leader.crashed:
        return 0.0
    v = leader.state.speed + leader.params.a_min * config.dt
    return v if v > 0.0 else 0.0


def _rear_speed(c_oar, config: ShieldConfig) -> float:
    """Next speed of an adjacent rear vehicle at full acceleration; 0 once crashed."""
    if c_oar.crashed:
        return 0.0
    v_cap = c_oar.params.v_cap
    v = c_oar.state.speed + c_oar.params.a_max * config.dt
    return v if v < v_cap else v_cap


def headway_cap(ego, leader, config: ShieldConfig, v_leader_next: float) -> float:
    """Headway cap toward one leader, the barrier propagated one step.

    ``h = gap - tau * v_e`` must decay no faster than ``(1 - eta)`` per
    step.  The ego advance is credited at the commanded speed times
    ``cos(psi)``; the leader advance at its credited next speed
    ``v_leader_next``.  The cap is tightened by ``lag_margin``.  Raises
    ``ValueError`` when it is not finite.
    """
    dt = config.dt
    tau = config.tau
    q = (
        config.eta * bumper_gap(ego, leader)
        + (1.0 - config.eta) * tau * ego.state.speed
        + math.cos(leader.state.psi) * v_leader_next * dt
        - config.lag_margin
    )
    cap = q / (math.cos(ego.state.psi) * dt + tau)
    if not math.isfinite(cap):
        raise ValueError(f"headway cap toward vehicle {leader.vid} is not finite")
    return cap


def brake_guard(ego, leader, config: ShieldConfig, v_leader_next: float,
                v_hi: float) -> float | None:
    """Braking-feasibility cap: the largest command whose joint worst-case
    braking run from the next state keeps the headway barrier satisfied.

    ``v_leader_next`` is the leader's credited next speed and ``v_hi`` the
    top of the ego's reachability box.  Returns None when even ``v_hi`` is
    fine.
    """
    dt = config.dt
    gap = bumper_gap(ego, leader)
    brake = -ego.params.a_min
    gap_next = gap + math.cos(leader.state.psi) * v_leader_next * dt - config.lag_margin
    cap = brake_cap(gap_next, v_hi, v_leader_next, brake, config.tau, dt,
                    closing=math.cos(ego.state.psi) * dt)
    if cap >= v_hi:
        return None
    return cap


def lateral_rear_row(ego, c_oar, config: ShieldConfig) -> Row:
    """Soft floor toward the adjacent rear vehicle during a lane change.

    ``h = gap - tau * v_ar`` with ``v_ar`` the rear vehicle's worst-case
    (full acceleration) next speed, propagated one step.  It is soft so a
    squeezed lane-changer yields through the slack rather than faulting.
    """
    dt = config.dt
    g_e = math.cos(ego.state.psi)
    gap = bumper_gap(c_oar, ego)
    v_ar_wc = _rear_speed(c_oar, config)
    h_now = gap - config.tau * v_ar_wc
    q = config.eta * h_now - v_ar_wc * dt
    return Row(-g_e * dt, q, f"lat_rear:{c_oar.vid}")


def allow_lane_change(ego, c_oal, c_oar, config: ShieldConfig) -> bool:
    """True iff both lateral barriers hold at the current state:
    ``gap - tau * v_e`` toward the adjacent leader ``c_oal`` and
    ``gap - tau * v_ar`` toward the adjacent rear vehicle ``c_oar`` at its
    worst-case next speed (a missing neighbour imposes nothing)."""
    tau = config.tau
    if c_oal is not None:
        if bumper_gap(ego, c_oal) - tau * ego.state.speed < 0.0:
            return False
    if c_oar is not None:
        if bumper_gap(c_oar, ego) - tau * _rear_speed(c_oar, config) < 0.0:
            return False
    return True


def lane_change_feasible(ego, c_oal, c_oar, config: ShieldConfig,
                         resolved: dict) -> bool:
    """Braking-feasibility extension of the lateral gate.

    Beyond the instantaneous gap test, committing to the maneuver must leave
    both new leader/follower pairs inside the braking-feasibility envelope
    after one worst-case step, otherwise the headway guarantee could not be
    honoured once the interaction topology hands the pair over.
    ``resolved`` maps vehicle ids to the outcomes resolved so far this step:
    a live adjacent leader in it is credited its safe command, any other
    its worst case.
    """
    dt = config.dt
    tau = config.tau
    sigma = config.lag_margin
    v_e = ego.state.speed

    if c_oal is not None:
        # a wreck never moves again, whatever speed it crashed at
        v_al = 0.0 if c_oal.crashed else c_oal.state.speed
        gap1 = bumper_gap(ego, c_oal) + (v_al - v_e) * dt
        v_e_hi = min(ego.params.v_cap, v_e + ego.params.a_max * dt)
        out = resolved.get(c_oal.vid)
        if out is not None and not c_oal.crashed:
            v_al_next = out.v_safe
        else:
            v_al_next = worst_case_speed(c_oal, config)
        if brake_margin(gap1 - sigma, v_e_hi, v_al_next, -ego.params.a_min, tau, dt) < 0.0:
            return False
    if c_oar is not None:
        v_ar = 0.0 if c_oar.crashed else c_oar.state.speed
        gap1 = bumper_gap(c_oar, ego) + (v_e - v_ar) * dt
        v_ar_hi = _rear_speed(c_oar, config)
        v_e_lo = max(0.0, v_e + ego.params.a_min * dt)
        if brake_margin(gap1 - sigma, v_ar_hi, v_e_lo, -c_oar.params.a_min, tau, dt) < 0.0:
            return False
    return True


#: cap infeasibility that :func:`solve_qp` absorbs: caps that push the box
#: top below its lower end by at most this much pin it there, not a fault
FEAS_TOL = 1e-9


def _clamp(v, lo, hi, lo_label, hi_label, active=()):
    """``v`` clamped into ``[lo, hi]``, with the label of a bound it hit."""
    if v > hi:
        return hi, (hi_label,) + active
    if v < lo:
        return lo, (lo_label,) + active
    return v, active


def solve_qp(v_nominal: float, rows, k_eps: float, lo: float, hi: float,
             hi_label: str = "reach_hi") -> QPSolution:
    """Minimise ``(v - v_nominal)^2 + k_eps * slack`` over one speed command
    in the box ``[lo, hi]``: the reachability box with its top lowered by
    the caps, its bounds labelled ``reach_lo`` and ``hi_label``.

    ``rows`` holds at most the one soft floor, a finite :class:`Row`
    ``a * v - slack <= q`` with ``a < 0`` whose floor ``q / a`` the slack
    relaxes at ``k_eps`` per unit; any other row raises ``ValueError``.
    Without it the optimum is the nominal clamped into the box.  With it,
    the objective is convex and piecewise quadratic in ``v`` with its kink
    at the floor, so the optimum is the cheaper of the nominal clamped
    into the box above the floor (no slack) and the floor's stationary
    point ``v_nominal - k_eps * a / 2`` clamped into the box.

    ``active`` names the bounds that bind at the chosen point.  Raises
    :class:`ShieldFault` when ``lo > hi + FEAS_TOL``; a box empty by less
    is pinned to ``lo``.
    """
    soft = None
    for row in rows:
        if soft is not None or row.kind != "soft" or not (
                math.isfinite(row.a) and row.a < 0.0 and math.isfinite(row.q)):
            raise ValueError(f"row {row.label!r} is not the one finite soft floor")
        soft = row
    if lo > hi + FEAS_TOL:
        raise ShieldFault("caps infeasible")
    hi = max(hi, lo)
    floor, floor_label = lo, "reach_lo"
    if soft is not None and soft.q / soft.a > lo:
        floor, floor_label = soft.q / soft.a, soft.label
    free = None
    if floor <= hi:
        v, active = _clamp(v_nominal, floor, hi, floor_label, hi_label)
        free = QPSolution(v, 0.0, active, (v - v_nominal) ** 2)
    if soft is None:
        return free
    v, active = _clamp(v_nominal - 0.5 * k_eps * soft.a, lo, hi, "reach_lo", hi_label,
                       (soft.label,))
    slack = max(0.0, soft.a * v - soft.q)
    objective = (v - v_nominal) ** 2 + k_eps * slack
    if free is not None and free.objective <= objective:
        return free
    return QPSolution(v, slack, active, objective)


def filter_vehicle(ego, leaders: list, c_oar, v_nominal: float,
                   config: ShieldConfig, lane_change_allowed: bool = True) -> ShieldOutcome:
    """Filter one vehicle's nominal speed command.

    ``leaders`` holds ``(leader, credited next speed)`` pairs, each adding a
    headway cap and a brake guard; while the ego changes lanes, an adjacent
    rear vehicle ``c_oar`` adds the soft rear floor.  The QP is solved in the
    reachability box with its top lowered to the smallest cap, the first
    one of a tie labelling it, and a fault falls back to full braking.
    ``lane_change_allowed``, the lane gate's verdict, is recorded on the
    outcome as given.
    """
    v = ego.state.speed
    params = ego.params
    # the box and min(max(v_nominal, lo), hi) without the calls, ties as theirs
    lo = v + params.a_min * config.dt
    lo = lo if lo > 0.0 else 0.0
    hi = v + params.a_max * config.dt
    hi = hi if hi < params.v_cap else params.v_cap
    v_nom_step = lo if lo > v_nominal else v_nominal
    v_nom_step = hi if hi < v_nom_step else v_nom_step
    cap, bound, binder = hi, None, None
    for leader, v_next in leaders:
        headway = headway_cap(ego, leader, config, v_next)
        if headway < cap:
            cap, bound, binder = headway, "headway", leader
        guard = brake_guard(ego, leader, config, v_next, hi)
        if guard is not None and guard < cap:
            cap, bound, binder = guard, "brake", leader
    label = "reach_hi" if binder is None else f"{bound}:{binder.vid}"
    floors = ()
    if ego.target_lane != ego.lane and c_oar is not None:
        floors = (lateral_rear_row(ego, c_oar, config),)
    try:
        sol = solve_qp(v_nom_step, floors, config.k_eps, lo, cap, label)
    except ShieldFault:
        return ShieldOutcome(v_nom_step, lo, lo - v_nom_step, lane_change_allowed, 0.0,
                             ("fault",), True)
    v_safe = sol.v_safe
    return ShieldOutcome(v_nom_step, v_safe, v_safe - v_nom_step, lane_change_allowed,
                         sol.slack, sol.active, False)


def joint_safe_control(world: "World", topology: "InteractionTopology",
                       nominal_plans: dict) -> dict:
    """Resolve every vehicle in dependency order and gate lane requests.

    Each vehicle's leaders are its topology parents; ``hss`` adds the
    own-lane leader when a cut-in displaced it.  Parents are always ahead,
    so the front-to-back evaluation order hands each vehicle the resolved
    outcomes of everything it depends on.
    """
    from mergeshield.topology import evaluation_order
    from mergeshield.world import neighbor_index, neighbors

    config = world.shield
    order = evaluation_order(topology, neighbor_index(world))
    outcomes: dict = {}
    by_id = {v.vid: v for v in world.vehicles}
    for vid in order:
        vehicle = by_id[vid]
        if vehicle.crashed or vid not in nominal_plans:
            continue
        plan = nominal_plans[vid]
        if config.mode == "none":
            out = ShieldOutcome(plan.v_target, plan.v_target, 0.0)
        else:
            near = neighbors(world, vehicle)
            parents = [by_id[pid] for pid in topology.parents(vid)]
            if config.mode == "mass":
                # crashed parents are never resolved, so they get the worst case
                leaders = [(p, outcomes[p.vid].v_safe if p.vid in outcomes
                            else worst_case_speed(p, config)) for p in parents]
            else:
                # on a cut-in the topology hands the ego to the merging
                # vehicle; the worst case also keeps the leader it displaced
                c_ol = near.c_ol
                own = [] if c_ol is None else [c_ol]
                rest = [p for p in parents if c_ol is None or p.vid != c_ol.vid]
                leaders = [(p, worst_case_speed(p, config)) for p in own + rest]
            # the gate reads only outcomes resolved before this vehicle's
            allowed = not plan.lane_request or (
                allow_lane_change(vehicle, near.c_oal, near.c_oar, config)
                and lane_change_feasible(vehicle, near.c_oal, near.c_oar, config, outcomes))
            out = filter_vehicle(vehicle, leaders, near.c_oar, plan.v_target, config, allowed)
        outcomes[vid] = out
    return outcomes
