"""Safety layer: speed caps, a soft floor, a scalar QP filter, lane gating.

Every barrier bounds the one speed command ``v``: each hard one is a cap
``v <= cap``, and the one soft one a floor ``v >= floor`` [m/s] that the
box top may fall short of.  Every worst case is a bound of a vehicle's
one-step speed box, :func:`reach`.  The shield modes differ in one credit
rule, :func:`credited_speed`: a topology parent is credited its
resolved safe command in ``mass`` mode and its box floor in ``hss`` mode,
which also keeps the own-lane leader that a cutting-in vehicle displaced.
The lane-change gate credits resolved outcomes in both modes: the adjacent
leader ranks ahead of the ego, so a live one is always resolved first.
Each vehicle's filter is one pass of :func:`joint_safe_control`'s
front-to-back loop.  Per leader it works out the credited speed, the bumper
gap and the next gap ``gap + (v_x,leader - v_x,ego) * dt`` once each: the
integrator's own Euler step, which moves each vehicle by the ``v_x`` of its
staged maneuver (a wreck's is 0) whatever this step's command.  From these
it takes

* a headway cap per leader: the time-headway barrier ``h = gap - tau * v``
  propagated one step, ``h_next >= (1 - eta) * h``,
* a braking-feasibility cap per leader, :func:`brake_guard`: the largest
  command from which a joint worst-case braking run from the next gap
  keeps the headway satisfied.  The bare one-step barrier alone admits
  states where bounded deceleration can no longer prevent a violation
  (fast follower, slow leader), so the guard keeps the system inside the
  set where the barrier stays feasible,
* a soft rear floor toward the adjacent rear vehicle during an ongoing lane
  change.

The caps lower the top of the ego's reach box to their minimum, the first
of a tie labelling it.  :func:`solve_qp` then takes the command nearest the
nominal in that box, above the soft floor whenever the box reaches it, and
at the box top with the shortfall recorded as slack when it does not; caps
below the box return a fault that falls back to full braking.

:func:`joint_safe_control` reads no world: ``step_world`` hands it the
config, the topology, the plans, each live vehicle's neighbourhood, the
state's neighbour index, the road and the scenario's ``tau`` and ``dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from mergeshield.dynamics import VehicleState, check_floats, maneuver
from mergeshield.topology import InteractionTopology, evaluation_order

if TYPE_CHECKING:
    from mergeshield.road import RoadNetwork
    from mergeshield.world import NeighborIndex

__all__ = [
    "Row",
    "bumper_gap",
    "brake_margin",
    "brake_cap",
    "ShieldConfig",
    "ShieldOutcome",
    "QPSolution",
    "reach",
    "credited_speed",
    "brake_guard",
    "lateral_rear_row",
    "allow_lane_change",
    "lane_change_feasible",
    "solve_qp",
    "joint_safe_control",
]

#: a named tuple from all its fields in one C call, at half the cost of its class's own __new__
_new = tuple.__new__


class Row(NamedTuple):
    """The soft floor [m/s] under the speed command, and its label;
    ``kind`` stays only for the benchmark's tracer to count by."""

    floor: float
    label: str
    kind = "soft"


@dataclass(frozen=True)
class ShieldConfig:
    """Shield mode and barrier decay rate ``eta``.

    ``mode`` is the credit rule of :func:`joint_safe_control`; ``none``
    passes every plan through.  The headway ``tau`` and the step ``dt`` are
    the scenario's, passed to each function as numbers.  Reach boxes use
    each vehicle's own acceleration limits, and the lateral rows the same
    ``tau`` as the longitudinal ones.  No margin pads the caps: they predict
    the next gap with the integrator's own step.
    """

    mode: str = "mass"
    eta: float = 0.5

    def __post_init__(self):
        check_floats(self)
        if self.mode not in ("none", "hss", "mass"):
            raise ValueError(f"shield mode must be none, hss or mass, got {self.mode!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")


class ShieldOutcome(NamedTuple):
    """Filtered longitudinal command and audit data for one vehicle-step.

    ``v_nominal`` is the nominal command clamped into the :func:`reach` box, so
    ``v_safe == v_nominal + v_cbf`` holds exactly and an untouched plan has
    ``v_cbf == 0``.  ``staged`` is the maneuvered state the integrator moves.

    ``src/`` builds it with ``tuple.__new__``, which applies no defaults:
    every build passes every field.
    """

    v_nominal: float
    v_safe: float
    v_cbf: float
    lane_change_allowed: bool = True
    slack_used: float = 0.0
    active_constraints: tuple = ()
    fault: bool = False
    staged: VehicleState | None = None


class QPSolution(NamedTuple):
    """The filtered command, the soft floor's shortfall there in m/s (0
    unless the box top lies below the floor), the labels of the bounds that
    bind there, and whether the caps left no command (a fault).

    ``src/`` builds it with ``tuple.__new__``, which applies no defaults:
    every build passes every field."""

    v_safe: float
    slack: float
    active: tuple
    fault: bool = False


def bumper_gap(follower, leader) -> float:
    """Front-of-follower to rear-of-leader distance along the arc."""
    return (leader.state.x - 0.5 * leader.params.length) - (
        follower.state.x + 0.5 * follower.params.length)


def brake_margin(gap: float, v_follow: float, v_lead: float, brake: float,
                 tau: float, dt: float) -> float:
    """Worst value of ``gap_k - tau * v_follow_k`` while both vehicles brake
    at ``brake`` [m/s^2] from the given speeds (explicit-Euler travel).

    The sign is exact; when a cheap lower bound already proves the margin
    non-negative the bound is returned without evaluating the trajectory.
    The trajectory minimum itself is closed form: the margin is piecewise
    quadratic in the step count, so it is least at one of the steps
    ``0, m_l, m_l + 1, k*, k* + 1, m_f`` in ``[0, m_f]``: the leader stops
    at ``m_l``, the follower at ``m_f``, and ``k*`` is the last step at
    which its speed is at least ``tau * brake``.
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
    for k in (0, m_l, m_l + 1, k_star, k_star + 1, m_f):
        if 0 <= k <= m_f:
            # the follower has not stopped before step k <= m_f
            kl = m_l if m_l < k else k
            s_l = kl * v_lead - dv * kl * (kl - 1) * 0.5
            s_f = k * v_follow - dv * k * (k - 1) * 0.5
            v_k = v_follow - k * dv
            h = gap + dt * (s_l - s_f) - tau * (v_k if v_k > 0.0 else 0.0)
            if h < margin:
                margin = h
    return margin


def brake_cap(gap: float, v_hi: float, v_lead: float, brake: float,
              tau: float, dt: float) -> float:
    """Largest follower speed ``v`` in ``[0, v_hi]`` whose
    :func:`brake_margin` from ``gap`` is non-negative; 0 when there is none.

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
    next to the real stationary point, if that lies in ``[m_l, K]``.  The
    candidates, each taken once, are ``0, K, min(m_l, K), min(m_l + 1, K)``
    and per ratio with a stationary point ``s`` the steps ``max(m_l, s - 1)``
    to ``min(K, s + 2)``; ``a_k`` holds the leader's travel
    ``kl * v_lead - dv * kl * (kl - 1) / 2``, ``kl = min(k, m_l)``.
    """
    if brake_margin(gap, v_hi, v_lead, brake, tau, dt) >= 0.0:
        return v_hi
    dv = brake * dt
    m_l = math.ceil(v_lead / dv - 1e-12) if v_lead > 0.0 else 0
    last = math.ceil(v_hi / dv)
    steps = [0, last, m_l if m_l < last else last, m_l + 1 if m_l + 1 < last else last]
    # for k >= m_l each ratio is (alpha * k^2 + beta * k + c0) / (dt * k + d0);
    # in u = dt * k + d0 it reads A * u + B + c / u, c the numerator at u = 0
    # (k = k0), so a positive c puts its minimum at k = k0 + sqrt(c / alpha)
    alpha = 0.5 * dt * dv
    c0 = gap + dt * (m_l * v_lead - dv * m_l * (m_l - 1) * 0.5)
    for beta, d0 in ((-alpha, 0.0), (tau * dv - alpha, tau)):
        k0 = -d0 / dt
        c = (alpha * k0 + beta) * k0 + c0
        if c > 0.0:
            s = math.floor(k0 + math.sqrt(c / alpha))
            steps.extend(range(m_l if m_l > s - 1 else s - 1,
                               (last if last < s + 2 else s + 2) + 1))
    cap = v_hi
    for k in set(steps):
        kink = k * dv
        kl = m_l if m_l < k else k
        a = gap + dt * (kl * v_lead - dv * kl * (kl - 1) * 0.5 + dv * k * (k - 1) * 0.5)
        b = dt * k
        if a - b * kink >= 0.0:
            root = (a + tau * kink) / (b + tau)
        elif b > 0.0:
            root = a / b
        else:  # k = 0: the gap itself is negative
            return 0.0
        if root < cap:
            cap = root
    return 0.0 if 0.0 > cap else cap


def reach(vehicle, dt: float) -> tuple:
    """One-step speed box ``(lo, hi)``, the next speeds of the hardest
    braking and acceleration with the builtins' tie rules; ``(0.0, 0.0)``
    for a wreck, which never moves again."""
    if vehicle.crashed:
        return 0.0, 0.0
    v = vehicle.state.speed
    params = vehicle.params
    lo = v + params.a_min * dt
    hi = v + params.a_max * dt
    v_cap = params.v_cap
    return (lo if lo > 0.0 else 0.0), (hi if hi < v_cap else v_cap)


def credited_speed(vehicle, resolved: dict, dt: float) -> float:
    """``vehicle``'s safe command if ``resolved`` holds it, else its box floor."""
    out = resolved.get(vehicle.vid)
    return reach(vehicle, dt)[0] if out is None else out.v_safe


def brake_guard(gap_next: float, v_next: float, v_hi: float, brake: float,
                tau: float, dt: float) -> float | None:
    """Braking-feasibility cap toward one leader: the largest command whose
    joint worst-case braking run from the next state keeps the headway
    barrier satisfied; None when even ``v_hi``, the top of the ego's
    :func:`reach` box, is fine.  ``gap_next`` is the bumper gap after this
    step, which no command of this step moves, ``v_next`` the leader's
    credited speed and ``brake`` the ego's braking [m/s^2].
    """
    cap = brake_cap(gap_next, v_hi, v_next, brake, tau, dt)
    return None if cap >= v_hi else cap


def lateral_rear_row(ego, c_oar, eta: float, tau: float, dt: float) -> Row:
    """Soft floor toward the adjacent rear vehicle during a lane change.

    ``h = gap - tau * v_ar`` with ``v_ar`` the top of the rear vehicle's
    :func:`reach` box, propagated one step: the floor is the least command
    whose travel ``cos(psi) * v * dt`` keeps ``h_next >= (1 - eta) * h``.
    It is soft so a squeezed lane-changer whose box top lies below the
    floor takes that top and records the shortfall as slack rather than
    faulting.
    """
    v_ar = reach(c_oar, dt)[1]
    q = eta * (bumper_gap(c_oar, ego) - tau * v_ar) - v_ar * dt
    return Row(q / (-math.cos(ego.state.psi) * dt), f"lat_rear:{c_oar.vid}")


def allow_lane_change(ego, c_oal, c_oar, tau: float, dt: float) -> bool:
    """True iff both lateral barriers hold at the current state:
    ``gap - tau * v_e`` toward the adjacent leader ``c_oal`` and
    ``gap - tau * v_ar`` toward the adjacent rear vehicle ``c_oar`` at the
    top of its :func:`reach` box (a missing neighbour imposes nothing)."""
    if c_oal is not None and bumper_gap(ego, c_oal) - tau * ego.state.speed < 0.0:
        return False
    if c_oar is not None and bumper_gap(c_oar, ego) - tau * reach(c_oar, dt)[1] < 0.0:
        return False
    return True


def lane_change_feasible(ego, c_oal, c_oar, tau: float, dt: float,
                         resolved: dict) -> bool:
    """Braking-feasibility extension of the lateral gate.

    Beyond the instantaneous gap test, committing to the maneuver must leave
    both new leader/follower pairs inside the braking-feasibility envelope
    after one worst-case step, otherwise the headway guarantee could not be
    honoured once the interaction topology hands the pair over.
    The adjacent leader is credited from ``resolved``, the outcomes resolved
    so far this step by vid, which in either shield mode holds a live one:
    it ranks ahead of the ego.  A credited speed that is not finite raises
    ``ValueError`` naming the leader, as in :func:`joint_safe_control`.
    """
    v_e = ego.state.speed
    v_e_lo, v_e_hi = reach(ego, dt)

    if c_oal is not None:
        # a wreck never moves again, whatever speed it crashed at
        v_al = 0.0 if c_oal.crashed else c_oal.state.speed
        gap1 = bumper_gap(ego, c_oal) + (v_al - v_e) * dt
        v_al_next = credited_speed(c_oal, resolved, dt)
        if not math.isfinite(v_al_next):
            raise ValueError(f"credited speed toward vehicle {c_oal.vid} is not finite")
        if brake_margin(gap1, v_e_hi, v_al_next, -ego.params.a_min, tau, dt) < 0.0:
            return False
    if c_oar is not None:
        v_ar = 0.0 if c_oar.crashed else c_oar.state.speed
        gap1 = bumper_gap(c_oar, ego) + (v_e - v_ar) * dt
        v_ar_hi = reach(c_oar, dt)[1]
        if brake_margin(gap1, v_ar_hi, v_e_lo, -c_oar.params.a_min, tau, dt) < 0.0:
            return False
    return True


#: cap infeasibility that :func:`solve_qp` absorbs: caps that push the box
#: top below its lower end by at most this much pin it there, not a fault
FEAS_TOL = 1e-9


def solve_qp(v_nominal: float, rows, lo: float, hi: float,
             hi_label: str = "reach_hi") -> QPSolution:
    """The speed command nearest ``v_nominal`` in the box ``[lo, hi]``:
    the :func:`reach` box with its top lowered by the caps, its bounds
    labelled ``reach_lo`` and ``hi_label``.

    ``rows`` holds at most one :class:`Row`, the soft floor; a second row
    or a floor that is not finite raises ``ValueError``.  The floor holds
    whenever the box allows it: at or below the top, the command is the
    nominal clamped into ``[max(lo, floor), hi]`` with no slack; above it,
    the command is the top and the slack ``floor - hi`` [m/s] records the
    shortfall.  ``active`` names the bounds that bind at the chosen point.

    Caps with ``lo > hi + FEAS_TOL`` leave no command: the solution is a
    fault at ``lo``, full braking, with no slack and ``active`` just
    ``("fault",)``.  A box empty by less is pinned to ``lo``.
    """
    soft = None
    for row in rows:
        if soft is not None or not math.isfinite(row.floor):
            raise ValueError(f"row {row.label!r} is not the one finite floor")
        soft = row
    if lo > hi + FEAS_TOL:
        return _new(QPSolution, (lo, 0.0, ("fault",), True))
    hi = lo if lo > hi else hi
    floor, floor_label = lo, "reach_lo"
    if soft is not None and soft.floor > lo:
        floor, floor_label = soft.floor, soft.label
    if floor > hi:
        return _new(QPSolution, (hi, floor - hi, (hi_label, floor_label), False))
    if v_nominal > hi:
        return _new(QPSolution, (hi, 0.0, (hi_label,), False))
    if v_nominal < floor:
        return _new(QPSolution, (floor, 0.0, (floor_label,), False))
    return _new(QPSolution, (v_nominal, 0.0, (), False))


def joint_safe_control(config: ShieldConfig, topology: InteractionTopology,
                       nominal_plans: dict, near: dict, index: "NeighborIndex",
                       road: "RoadNetwork", tau: float, dt: float) -> dict:
    """Resolve every vehicle in dependency order, gate lane requests, stage maneuvers.

    ``near`` holds each live vehicle's ``Neighborhood`` by vid, and
    ``index`` is the snapshot's neighbour index, which gives the fleet and
    its order.  Parents are always ahead, so the front-to-back evaluation
    order resolves each before its children.  One loop body resolves one
    live vehicle with a plan, in three parts:

    * its gate verdict (``none`` mode grants every plan), then its
      :func:`maneuver` toward the lane that verdict implies, staged once as
      ``staged`` on its outcome; wrecks get none.  ``none`` mode stops here
      and passes the plan through;
    * its leaders: its topology parents, and first in ``hss`` the own-lane
      leader a cut-in displaced.  Each leader's speed is credited from
      ``credit``: the outcomes resolved so far in ``mass``, none in ``hss``.
      Its staged ``v_x`` is read in both modes: its motion in this step is
      fixed by its pre-step velocity and its own gate verdict, resolved
      first, and no speed command can change it, so the credit stays the
      only place where the mode enters;
    * the caps and the QP of the module docstring, each input computed
      once.  A headway cap or a credited speed that is not finite raises
      ``ValueError`` naming the leader: the braking envelope would read a
      NaN credit as a stopped leader.
    """
    order = evaluation_order(topology, index)
    outcomes: dict = {}
    credit = outcomes if config.mode == "mass" else {}
    by_id = {v.vid: v for v in index.ordered}
    eta = config.eta
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
                allow_lane_change(vehicle, c_oal, c_oar, tau, dt)
                and lane_change_feasible(vehicle, c_oal, c_oar, tau, dt, outcomes))
        lane = plan.target_lane if allowed else vehicle.target_lane
        staged = maneuver(vehicle.state, road.centerline_y(lane), lane != vehicle.lane, dt)
        if config.mode == "none":
            v_target = plan.v_target
            outcomes[vid] = _new(ShieldOutcome,
                                 (v_target, v_target, 0.0, True, 0.0, (), False, staged))
            continue
        pids = topology.parents(vid)
        if config.mode == "hss" and c_ol is not None:
            # on a cut-in the topology hands the ego to the merging
            # vehicle; the worst case also keeps the leader it displaced
            pids = [c_ol.vid] + [pid for pid in pids if pid != c_ol.vid]
        lo, hi = reach(vehicle, dt)
        # min(max(v_target, lo), hi) without the calls, ties as theirs
        v_nominal = lo if lo > plan.v_target else plan.v_target
        v_nominal = hi if hi < v_nominal else v_nominal
        front = vehicle.state.x + 0.5 * vehicle.params.length
        v_e = vehicle.state.speed
        brake = -vehicle.params.a_min
        cap, bound, binder = hi, None, None
        for pid in pids:
            leader = by_id[pid]
            v_next = credited_speed(leader, credit, dt)
            gap = (leader.state.x - 0.5 * leader.params.length) - front
            v_lead = 0.0 if leader.crashed else outcomes[pid].staged.v_x
            gap_next = gap + (v_lead - staged.v_x) * dt
            headway = (gap_next - (1.0 - eta) * (gap - tau * v_e)) / tau
            # 0 * v_next is 0 unless the credit is not finite: one test for both
            if not math.isfinite(headway + 0.0 * v_next):
                what = "headway cap" if not math.isfinite(headway) else "credited speed"
                raise ValueError(f"{what} toward vehicle {pid} is not finite")
            if headway < cap:
                cap, bound, binder = headway, "headway", pid
            guard = brake_guard(gap_next, v_next, hi, brake, tau, dt)
            if guard is not None and guard < cap:
                cap, bound, binder = guard, "brake", pid
        label = "reach_hi" if binder is None else f"{bound}:{binder}"
        floors = ()
        if vehicle.target_lane != vehicle.lane and c_oar is not None:
            floors = (lateral_rear_row(vehicle, c_oar, eta, tau, dt),)
        v_safe, slack, active, fault = solve_qp(v_nominal, floors, lo, cap, label)
        outcomes[vid] = _new(ShieldOutcome, (v_nominal, v_safe, v_safe - v_nominal, allowed,
                                             slack, active, fault, staged))
    return outcomes
