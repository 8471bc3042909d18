"""Vehicle population, behavioural actions, perception queries and the
per-step simulation loop.

``step_world`` composes, per step: behavioural planning, interaction
topology, the joint safety-shield pass, low-level tracking, simultaneous
integration of all vehicles from the same pre-step snapshot, collision
detection and merge bookkeeping.  It finds each live vehicle's
:func:`neighbors` once and hands them, with the state's index, to the
topology and the shield as data.  Every caller looks :func:`neighbors` up
at call time (the policy and the reward as an attribute of this module),
so one patch of the attribute reaches them all.

Each world state has one fleet order, the :class:`NeighborIndex`: the fleet
in ``(x, -vid)`` order, sorted by descending vid, then stably by ``x``.
Perception queries (:func:`neighbors`, :func:`observe`, :func:`perceived`),
the heuristic's ramp window, the shield's evaluation order and the collision
sweep all read it.  It holds only ids and positions; lanes and flags are
read live, so the merge bookkeeping, which moves no vehicle, leaves it
valid.  ``step_world`` advances ``step_index`` and builds the post-step
index right after integration; it serves that step's collision sweep and
rewards and all of the next step.  One walk outward from the ego along the
order answers both perception questions, measuring each candidate it meets
once: the first call of :func:`neighbors` or :func:`perceived` for a vehicle
in a state memoises its :class:`Neighborhood` and its perceived group on the
index together, and every later call of either reads them.  The road has two
lanes, so a vehicle's perception-adjacent lane is always the other one,
whether or not it is changing lanes.

Lateral maneuvers: the shield stages each live vehicle's
:func:`mergeshield.dynamics.maneuver` once per step; ``step_world`` grants
the lane and integrates from the staged state, turning no vehicle itself.
"""

from __future__ import annotations

import enum
import math
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from mergeshield import topology as _topology
from mergeshield.dynamics import VehicleParams, VehicleState, check_floats, step
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig, brake_cap, joint_safe_control

__all__ = [
    "BehaviorAction",
    "ScenarioConfig",
    "Vehicle",
    "MotionPlan",
    "Neighborhood",
    "NeighborIndex",
    "World",
    "spawn",
    "neighbor_index",
    "neighbors",
    "observe",
    "perceived",
    "plan_motion",
    "step_world",
]

#: fraction of the lane width below which a lane change counts as complete
LANE_CHANGE_DONE_FRACTION = 0.1


class BehaviorAction(enum.IntEnum):
    """Behavioural decision issued once per vehicle per step, which
    :func:`plan_motion` turns into a nominal speed and lane target.

    Integer values are the encoding used by episode records.
    """

    LANE_RIGHT = 0
    LANE_LEFT = 1
    FOLLOW_LANE = 2
    SPEED_UP = 3
    SLOW_DOWN = 4


#: the members as constants: a read off the class goes through the metaclass
_LANE_RIGHT, _LANE_LEFT, _FOLLOW_LANE, _SPEED_UP, _SLOW_DOWN = BehaviorAction


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode geometry-independent scenario knobs.

    The reference scenario runs 7 to 11 connected vehicles through a 100 m
    merge section with a 0.5 s headway threshold and 180 m communication
    range.  Config validation warns about a vehicle count outside 7 to 11
    unless the run sets ``allow_offrange``.  ``n_ramp``, when given, lies
    in ``[0, n_vehicles]``; unset, it is a third of the fleet, at least 1.
    """

    n_vehicles: int = 9
    n_ramp: int | None = None
    comm_range: float = 180.0
    perception_n: int = 5
    tau: float = 0.5
    dt: float = 0.1
    episode_steps: int = 150
    spawn_spacing_min: float = 10.0
    initial_speed_range: tuple = (15.0, 25.0)
    dv_step: float = 2.0

    def __post_init__(self):
        check_floats(self, ("comm_range", "tau", "dt", "dv_step"))
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        if self.n_ramp is not None and not 0 <= self.n_ramp <= self.n_vehicles:
            raise ValueError(f"n_ramp must lie in [0, n_vehicles = {self.n_vehicles}], "
                             f"got {self.n_ramp}")
        if self.perception_n < 0:
            raise ValueError("perception_n must be >= 0")
        if self.episode_steps < 1:
            raise ValueError("episode_steps must be >= 1")
        lo, hi = self.initial_speed_range
        if not (0 <= lo <= hi):
            raise ValueError(f"bad initial_speed_range {self.initial_speed_range}")

    def resolved_n_ramp(self) -> int:
        if self.n_ramp is not None:
            return self.n_ramp
        return max(1, self.n_vehicles // 3)


@dataclass
class Vehicle:
    """One simulated vehicle and its maneuver bookkeeping."""

    vid: int
    state: VehicleState
    params: VehicleParams
    lane: int
    target_lane: int
    spawned_on_ramp: bool = False
    merged: bool = False
    merge_failed: bool = False
    crashed: bool = False

    @property
    def rear(self) -> float:
        return self.state.x - 0.5 * self.params.length

    def x_m(self, road: RoadNetwork) -> float:
        """Distance travelled inside the merge section, whatever the lane:
        the reward reads it for ramp vehicles only."""
        d = self.state.x - road.merge_start
        d = 0.0 if 0.0 > d else d
        return road.merge_length if road.merge_length < d else d


class MotionPlan(NamedTuple):
    """Nominal control target produced from one behavioural action."""

    v_target: float
    target_lane: int
    lane_request: bool = False


class Neighborhood(NamedTuple):
    """Own-lane leader, other-lane leader and other-lane rear vehicle."""

    c_ol: Vehicle | None = None
    c_oal: Vehicle | None = None
    c_oar: Vehicle | None = None


@dataclass(frozen=True)
class NeighborIndex:
    """The fleet order of one world state, built once per step index.

    ``ordered`` is the whole fleet, crashed vehicles included, in ascending
    ``(x, -vid)`` order (greater x ahead, ties to the smaller id), with its
    ``xs`` and ``ys`` and each vehicle's ``rank`` in it.  It holds no lane:
    queries read each vehicle's lane as they pass it.  Distances are
    computed on demand, one ``hypot(dx, dy)`` per candidate a query meets;
    ``hypot`` is sign-symmetric, so both vehicles of a pair see the same
    distance bit for bit.  ``near`` memoises :func:`neighbors` and ``seen``
    memoises :func:`perceived`, both by vid and filled together by one
    walk.
    """

    step_index: int
    ordered: list
    xs: list
    ys: list
    rank: dict
    near: dict = field(default_factory=dict, repr=False, compare=False)
    seen: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, world: "World") -> "NeighborIndex":
        ordered = sorted(world.vehicles, key=attrgetter("vid"), reverse=True)
        ordered.sort(key=attrgetter("state.x"))
        return cls(step_index=world.step_index, ordered=ordered,
                   xs=[v.state.x for v in ordered], ys=[v.state.y for v in ordered],
                   rank={v.vid: i for i, v in enumerate(ordered)})


@dataclass
class World:
    """The simulated state.  ``vehicles`` is sorted by vid once, here;
    records list the fleet in that order and sort nothing themselves."""

    road: RoadNetwork
    scenario: ScenarioConfig
    shield: ShieldConfig
    vehicles: list
    step_index: int = 0
    #: perception index of the state at ``step_index``; see :func:`neighbor_index`
    _neighbor_index: NeighborIndex | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        self.vehicles = sorted(self.vehicles, key=lambda v: v.vid)

    def live_vehicles(self) -> list:
        return [v for v in self.vehicles if not v.crashed]


def spawn(config: ScenarioConfig, road: RoadNetwork, rng,
          params: VehicleParams | None = None) -> list:
    """Place vehicles on the through lane and the ramp behind the merge
    section.

    Same-lane bumper gaps respect ``spawn_spacing_min`` and the follower
    headway threshold; follower speeds are additionally capped so every
    pair starts inside the shield's braking-feasibility envelope, otherwise
    no runtime filter could honour the headway guarantee.  Each queue
    extends backwards as far as its count needs; the road has no start, so
    rear vehicles may spawn at negative x.

    ``rng`` is anything with ``uniform(lo, hi)``: a
    :class:`mergeshield.seedstream.Generator`, or a numpy ``Generator``,
    whose draws it equals for the same seed.  Deterministic for a given
    generator state; the list is in vid order.
    """
    params = params or VehicleParams()
    n_ramp = config.resolved_n_ramp()
    n_highway = config.n_vehicles - n_ramp
    lo, hi = config.initial_speed_range

    vehicles: list = []
    vid = 0
    for front_x, count, lane in (
        (road.merge_start - 10.0, n_highway, 0),
        (road.merge_start - 30.0, n_ramp, road.ramp_lane),
    ):
        x = front_x
        lead_speed = None
        for i in range(count):
            speed = rng.uniform(lo, hi)
            if i > 0:
                gap = max(config.spawn_spacing_min, config.tau * speed) + rng.uniform(0.0, 8.0)
                x = x - gap - params.length
                # spawn a metre inside the braking-feasibility envelope so
                # the first shield step starts with margin, not on the edge
                speed = min(speed, brake_cap(gap - 1.0, speed, lead_speed,
                                             -params.a_min, config.tau, config.dt))
            y = road.centerline_y(lane)
            vehicles.append(
                Vehicle(
                    vid=vid,
                    state=VehicleState(x=x, y=y, v_x=speed, v_y=0.0, psi=0.0),
                    params=params,
                    lane=lane,
                    target_lane=lane,
                    spawned_on_ramp=(lane == road.ramp_lane),
                )
            )
            lead_speed = speed
            vid += 1
    return vehicles


def neighbor_index(world: World) -> NeighborIndex:
    """The :class:`NeighborIndex` of the world's current state.

    Reused by every call at the same ``step_index``; ``step_world`` is the
    only code that moves vehicles, and it advances ``step_index`` and
    builds the new state's index itself.  The first state of an episode is
    indexed on the first call.
    """
    index = world._neighbor_index
    if index is None or index.step_index != world.step_index:
        index = world._neighbor_index = NeighborIndex.build(world)
    return index


def _perceive(world: World, index: NeighborIndex, ego: Vehicle) -> tuple:
    """Both perception answers for ``ego`` from one outward walk, stored in
    ``index.near`` and ``index.seen`` and returned as ``(near, seen)``.

    The walk visits the others by ``|dx|`` from the ego's rank, nearer side
    first, and measures each candidate once with ``hypot(dx, dy)``; that
    one distance serves the perceived group and the neighbour tests.  The
    group takes the first ``perception_n`` in-range candidates by plain
    append, sorts them once by ``(distance, vid)`` and from then on inserts
    in order, keeping the n best.  Once n are found, the n-th best distance
    bounds the walk: ``hypot(dx, dy) >= |dx|``, so nothing further out can
    enter.  The test is strict, so a vehicle at exactly the n-th distance
    is still met and the tie goes to the smaller vid.

    Ahead of the ego, the first in-range candidate of its lane is ``c_ol``
    and of the other lane ``c_oal``; behind it, the first in-range one of
    the other lane is ``c_oar``.  Where one is still missing when the
    group's bound ends the walk, that side walks on alone until ``|dx|``
    exceeds the range.
    """
    cfg = world.scenario
    comm, n = cfg.comm_range, cfg.perception_n
    ordered, xs, ys = index.ordered, index.xs, index.ys
    r = index.rank[ego.vid]
    ex, ey, lane = xs[r], ys[r], ego.lane
    c_ol = c_oal = c_oar = None
    group: list = []  # (distance, vid, vehicle); sorted once n are in
    missing = n
    # the n-th best distance once n are found; with no group to find, the
    # walk below stops at once and the neighbour walks after it do the work
    bound = comm if n > 0 else -1.0
    lo, hi, end = r - 1, r + 1, len(xs)
    # |dx| of the next candidate on each side, inf once a side runs out
    dlo = ex - xs[lo] if lo >= 0 else math.inf
    dhi = xs[hi] - ex if hi < end else math.inf
    while True:
        if dlo <= dhi:
            if dlo > bound:
                break  # the other side is no nearer in x; inf past both ends
            j, dx = lo, dlo
            lo -= 1
            dlo = ex - xs[lo] if lo >= 0 else math.inf
        else:
            if dhi > bound:
                break
            j, dx = hi, dhi
            hi += 1
            dhi = xs[hi] - ex if hi < end else math.inf
        d = math.hypot(dx, ey - ys[j])
        if d <= comm:
            o = ordered[j]
            if j < r:
                if c_oar is None and o.lane != lane:
                    c_oar = o
            elif o.lane == lane:
                if c_ol is None:
                    c_ol = o
            elif c_oal is None:
                c_oal = o
            if d <= bound:
                if missing:
                    group.append((d, o.vid, o))
                    missing -= 1
                    if not missing:
                        group.sort()  # ids are unique: a vehicle is never compared
                        bound = group[-1][0]
                else:
                    insort(group, (d, o.vid, o))
                    group.pop()
                    bound = group[-1][0]
    if missing:
        group.sort()
    # past the group's bound, a side walks on only for a missing neighbour
    if c_ol is None or c_oal is None:
        for j in range(hi, end):
            dx = xs[j] - ex
            if dx > comm:
                break
            o = ordered[j]
            if o.lane == lane:
                if c_ol is None and math.hypot(dx, ey - ys[j]) <= comm:
                    c_ol = o
            elif c_oal is None and math.hypot(dx, ey - ys[j]) <= comm:
                c_oal = o
            if c_ol is not None and c_oal is not None:
                break
    if c_oar is None:
        for j in range(lo, -1, -1):
            dx = ex - xs[j]
            if dx > comm:
                break
            o = ordered[j]
            if o.lane != lane and math.hypot(dx, ey - ys[j]) <= comm:
                c_oar = o
                break
    near = index.near[ego.vid] = Neighborhood(c_ol, c_oal, c_oar)
    seen = index.seen[ego.vid] = [o for _, _, o in group]
    return near, seen


def neighbors(world: World, ego: Vehicle) -> Neighborhood:
    """Nearest same-lane leader plus leader and rear vehicle in the other
    lane, all within communication range.

    Ahead along the state's fleet order (:func:`neighbor_index`) from the
    ego's rank: the first in-range vehicle of the ego's lane (``c_ol``) and
    of the other lane (``c_oal``); behind: the first in-range vehicle of
    the other lane (``c_oar``), reading each vehicle's lane as it is
    passed.  Walking past the nearest vehicle by x stays exact when that
    one is out of Euclidean range through a lateral offset.  The other lane
    is scanned along the whole road, not only in the merge window: a
    merging vehicle ahead matters to a highway follower before the follower
    reaches the window.  Found by the same walk as :func:`perceived` and
    memoised on the index by the ego's id, so repeat calls within one state
    return the same object.
    """
    index = neighbor_index(world)
    near = index.near.get(ego.vid)
    if near is None:
        near = _perceive(world, index, ego)[0]
    return near


def perceived(world: World, ego: Vehicle) -> list:
    """The nearest ``perception_n`` other vehicles within communication
    range, nearest first with ties by id: the vehicles an observation
    shows and a neighbourhood reward averages over.

    Found by the same walk as :func:`neighbors` and memoised on the
    state's :func:`neighbor_index` by the ego's id, so every call within
    one state returns the same list; callers must not mutate it.
    """
    index = neighbor_index(world)
    seen = index.seen.get(ego.vid)
    if seen is None:
        seen = _perceive(world, index, ego)[1]
    return seen


def observe(world: World, ego: Vehicle) -> list:
    """Fixed-width observation: the ego row followed by the
    :func:`perceived` vehicles, zero padded to ``perception_n`` rows.

    The ego row carries absolute positions; neighbour rows report positions
    relative to the ego.  Velocities and heading stay absolute.
    """
    n = world.scenario.perception_n
    s = ego.state
    rows = [[s.x, s.y, s.v_x, s.v_y, s.psi]]
    for o in perceived(world, ego):
        os = o.state
        rows.append([os.x - s.x, os.y - s.y, os.v_x, os.v_y, os.psi])
    while len(rows) < n + 1:
        rows.append([0.0, 0.0, 0.0, 0.0, 0.0])
    return rows


def plan_motion(ego: Vehicle, action: BehaviorAction, road: RoadNetwork,
                dv_step: float) -> MotionPlan:
    """Translate a behavioural action into a nominal speed and lane target.

    Lane actions degrade to follow when no adjacent lane is reachable at the
    vehicle's position; an ongoing maneuver ignores new lane requests.
    """
    v = ego.state.speed
    v_target = v
    if action == _SPEED_UP:
        v_target = v + dv_step
    elif action == _SLOW_DOWN:
        v_target = v - dv_step
    # min(max(v_target, 0.0), v_cap) without the calls; a tie keeps v_target
    v_target = 0.0 if 0.0 > v_target else v_target
    v_cap = ego.params.v_cap
    v_target = v_cap if v_cap < v_target else v_target

    target_lane = ego.target_lane
    lane_request = False
    if target_lane == ego.lane and action in (_LANE_LEFT, _LANE_RIGHT):
        if not ego.merge_failed:
            direction = -1 if action == _LANE_LEFT else 1
            shifted = road.shift_lane(ego.lane, direction, ego.state.x)
            if shifted is not None:
                target_lane = shifted
                lane_request = True
    return MotionPlan(v_target, target_lane, lane_request)


def _rect_overlap(a: Vehicle, b: Vehicle) -> bool:
    return (
        abs(a.state.x - b.state.x) < 0.5 * (a.params.length + b.params.length)
        and abs(a.state.y - b.state.y) < 0.5 * (a.params.width + b.params.width)
    )


def _mark_collisions(ordered: list) -> None:
    """Flag both vehicles of every overlapping rectangle pair as crashed.

    ``ordered`` is the fleet in ascending x, as :class:`NeighborIndex`
    holds it.  Sweeps in x: overlapping centres are less than half the
    summed lengths apart, which in floating point never exceeds the longest
    length.
    """
    longest = max([v.params.length for v in ordered], default=0.0)
    for i, a in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            b = ordered[j]
            if b.state.x - a.state.x >= longest:
                break
            if a.crashed and b.crashed:
                continue
            if _rect_overlap(a, b):
                a.crashed = True
                b.crashed = True


def step_world(world: World, joint_actions: dict) -> tuple:
    """Advance the world one step under the given behavioural actions;
    returns the step's shield outcomes and topology entries, both by
    vehicle id.

    Pipeline: plan and perceive -> topology -> joint shield, which stages
    each maneuver -> lane grants, tracking and integration -> post-step
    index -> collision flags -> merge bookkeeping.  Each live vehicle's
    neighbourhood is found once, here, and the topology and the shield read
    it from the one map.  Every vehicle integrates from its staged state,
    built from the pre-step snapshot, so the vehicle iteration order cannot
    leak into the result.
    """
    road = world.road
    cfg = world.scenario
    dt = cfg.dt

    live = world.live_vehicles()
    plans = {}
    near = {}
    for vehicle in live:
        action = joint_actions.get(vehicle.vid, _FOLLOW_LANE)
        plans[vehicle.vid] = plan_motion(vehicle, action, road, cfg.dv_step)
        near[vehicle.vid] = neighbors(world, vehicle)

    topology = _topology.build_topology(world.vehicles, near)
    outcomes = joint_safe_control(world.shield, topology, plans, near, neighbor_index(world),
                                  road)

    # grant lane changes, track, and integrate each vehicle from the state
    # its outcome staged from the pre-step snapshot
    for vehicle in live:
        out = outcomes[vehicle.vid]
        if out.lane_change_allowed:
            vehicle.target_lane = plans[vehicle.vid].target_lane
        params = vehicle.params
        a = (out.v_safe - out.staged.speed) / dt
        a = params.a_min if params.a_min > a else a
        a = params.a_max if params.a_max < a else a
        vehicle.state = step(out.staged, params, a, dt)
    world.step_index += 1

    # collisions: axis-aligned rectangle overlap on the post-step snapshot;
    # no query fills the index's memos before the bookkeeping below ends
    _mark_collisions(neighbor_index(world).ordered)

    # merge bookkeeping
    for vehicle in live:
        if vehicle.crashed:
            continue
        if vehicle.target_lane != vehicle.lane:
            target_y = road.centerline_y(vehicle.target_lane)
            if abs(vehicle.state.y - target_y) < LANE_CHANGE_DONE_FRACTION * road.lane_width:
                was_ramp = vehicle.lane == road.ramp_lane
                vehicle.lane = vehicle.target_lane
                if was_ramp and vehicle.lane != road.ramp_lane and vehicle.spawned_on_ramp:
                    vehicle.merged = True
        elif (
            vehicle.lane == road.ramp_lane
            and not vehicle.merge_failed
            and vehicle.rear > road.merge_end
        ):
            vehicle.merge_failed = True
    return outcomes, topology.entries
