import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeshield import shield as shield_mod
from mergeshield import world as world_mod
from mergeshield.dynamics import VehicleParams, VehicleState, maneuver, step
from mergeshield.reward import headway_reward, speed_reward
from mergeshield.road import RoadNetwork
from mergeshield.seedstream import SeedPool
from mergeshield.shield import (
    QPSolution,
    ShieldConfig,
    ShieldOutcome,
    bumper_gap,
    joint_safe_control,
    reach,
)
from mergeshield.topology import InteractionTopology
from mergeshield.world import (
    BehaviorAction,
    MotionPlan,
    Neighborhood,
    ScenarioConfig,
    Vehicle,
    World,
    leader,
    neighbor_index,
    neighbors,
    observe,
    perceived,
    plan_motion,
    spawn,
    step_world,
)

from conftest import (
    assert_speed_exact,
    brute_force_neighbors,
    brute_force_perceived,
    make_vehicle,
    make_world,
    random_layout,
    spawned_world,
)


def assert_same_vehicles(got, want):
    """The same vehicle objects in the same order."""
    assert [o.vid for o in got] == [o.vid for o in want]
    assert all(a is b for a, b in zip(got, want))


@st.composite
def perception_cases(draw):
    """A world for the perception walk, and for each vehicle whether
    :func:`neighbors` is asked before :func:`perceived`.

    A communication range on a half-metre grid and a fleet spread out, all
    at one x, mirrored about one x, or packed: vehicle 0 with up to eight
    others within 2 m ahead in the other lane, its own-lane leader and an
    other-lane vehicle behind it further out, so that with a small group
    both lie beyond the perceived group's radius.  ``perception_n`` runs
    from 0 to two past the fleet size.  Positions and lateral offsets lie
    on exact binary grids, so mirror images and swapped (dx, dy) give exact
    distance ties; some vehicles, egos included, are crashed and some off
    their centreline."""
    road = RoadNetwork()
    comm = draw(st.integers(1, 120)) / 2.0
    shape = draw(st.sampled_from(["spread", "one_x", "mirror", "packed"]))
    centre = draw(st.integers(0, 200)) / 2.0
    offsets = st.integers(-80, 80).map(lambda k: k / 2.0)
    lanes = st.sampled_from(range(road.ramp_lane + 1))
    if shape == "spread":
        xs = [(dx, draw(lanes)) for dx in draw(st.lists(offsets, min_size=1, max_size=14))]
    elif shape == "one_x":
        xs = [(0.0, draw(lanes)) for _ in range(draw(st.integers(1, 10)))]
    elif shape == "mirror":
        half = draw(st.lists(offsets, min_size=1, max_size=7))
        xs = [(dx, draw(lanes)) for dx in [0.0] + [sign * dx for dx in half
                                                   for sign in (1.0, -1.0)]]
    else:
        lane = draw(lanes)
        pack = draw(st.lists(st.integers(0, 4).map(lambda k: k / 2.0), min_size=1, max_size=8))
        xs = ([(0.0, lane)] + [(dx, 1 - lane) for dx in pack]
              + [(draw(st.integers(5, 120)) / 2.0, lane),
                 (-draw(st.integers(1, 120)) / 2.0, 1 - lane)])
    scenario = ScenarioConfig(perception_n=draw(st.integers(0, len(xs) + 2)), comm_range=comm)
    vehicles = []
    for vid, (dx, lane) in enumerate(xs):
        dy = draw(st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.25, -1.75, 3.0]))
        v = make_vehicle(vid, centre + dx, 20.0, lane=lane, road=road,
                         y=road.centerline_y(lane) + dy)
        v.crashed = draw(st.booleans())
        vehicles.append(v)
    neighbors_first = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    return make_world(vehicles, road=road, scenario=scenario), neighbors_first


class TestSpawn:
    @pytest.mark.parametrize("seed", [0, 7, 4_000_000_000])
    def test_seedstream_spawns_what_numpy_spawns(self, seed):
        cfg = ScenarioConfig(n_vehicles=11)
        road = RoadNetwork()
        assert (spawn(cfg, road, SeedPool(seed).generator())
                == spawn(cfg, road, np.random.default_rng(seed)))

    def test_deterministic(self):
        cfg = ScenarioConfig(n_vehicles=9)
        road = RoadNetwork()
        a = spawn(cfg, road, np.random.default_rng(42))
        b = spawn(cfg, road, np.random.default_rng(42))
        assert a == b

    def test_spawn_gaps_respect_minimum(self):
        cfg = ScenarioConfig(n_vehicles=7)
        road = RoadNetwork()
        vehicles = spawn(cfg, road, np.random.default_rng(3))
        assert len(vehicles) == 7
        by_lane = {}
        for v in vehicles:
            by_lane.setdefault(v.lane, []).append(v)
        for lane_vehicles in by_lane.values():
            lane_vehicles.sort(key=lambda v: -v.state.x)
            for leader, follower in zip(lane_vehicles, lane_vehicles[1:]):
                assert bumper_gap(follower, leader) >= cfg.spawn_spacing_min - 1e-9

    def test_initial_fleet_headway_at_least_tau(self):
        cfg = ScenarioConfig(n_vehicles=11)
        road = RoadNetwork()
        vehicles = spawn(cfg, road, np.random.default_rng(5))
        # exhaustive pairwise scan over same-lane pairs
        for f in vehicles:
            v = f.state.speed
            if v < 1.0:
                continue
            for l in vehicles:
                if l.vid == f.vid or l.lane != f.lane:
                    continue
                if l.state.x > f.state.x:
                    assert bumper_gap(f, l) / v >= cfg.tau - 1e-9

    def test_ramp_and_highway_population(self):
        cfg = ScenarioConfig(n_vehicles=9)
        road = RoadNetwork()
        vehicles = spawn(cfg, road, np.random.default_rng(1))
        ramp = [v for v in vehicles if v.lane == road.ramp_lane]
        assert len(ramp) == cfg.resolved_n_ramp()
        assert all(v.spawned_on_ramp for v in ramp)

    @pytest.mark.parametrize("n", [14, 60])
    def test_long_queues_extend_behind_the_road_origin(self, n):
        # the road has no start: a long queue spawns at negative x and keeps
        # the spacing, headway and braking-feasibility invariants
        from mergeshield.shield import brake_margin

        cfg = ScenarioConfig(n_vehicles=n)
        road = RoadNetwork()
        vehicles = spawn(cfg, road, np.random.default_rng(0))
        assert len(vehicles) == n
        assert min(v.state.x for v in vehicles) < 20.0  # behind the old highway limit
        for lane in range(road.ramp_lane + 1):
            queue = sorted((v for v in vehicles if v.lane == lane), key=lambda v: -v.state.x)
            for leader, follower in zip(queue, queue[1:]):
                gap = bumper_gap(follower, leader)
                v_f, v_l = follower.state.speed, leader.state.speed
                assert gap >= cfg.spawn_spacing_min - 1e-9
                assert gap >= cfg.tau * v_f - 1e-9
                assert brake_margin(gap, v_f, v_l, -follower.params.a_min, cfg.tau, cfg.dt) >= 0.0


class TestNeighbors:
    def test_single_vehicle(self):
        w = make_world([make_vehicle(0, 100.0, 25.0)])
        near = neighbors(w, w.vehicles[0])
        assert near.c_ol is None and near.c_oal is None and near.c_oar is None

    def test_two_vehicles_same_lane(self):
        follower = make_vehicle(0, 100.0, 25.0)
        leader = make_vehicle(1, 130.0, 25.0)
        w = make_world([follower, leader])
        assert neighbors(w, follower).c_ol is leader
        assert neighbors(w, leader).c_ol is None

    def test_comm_range_gates_visibility(self):
        follower = make_vehicle(0, 0.0, 25.0)
        leader = make_vehicle(1, 200.0, 25.0)
        w = make_world([follower, leader])
        assert neighbors(w, follower).c_ol is None

    def test_matches_brute_force_on_random_layouts(self):
        # neighbours and observations against the full rescan, on layouts
        # with ties in x, lateral offsets, ongoing changes, crashed vehicles
        # and in-range vehicles behind out-of-range ones
        rng = np.random.default_rng(9)
        comm = ScenarioConfig().comm_range
        road = RoadNetwork()
        for _ in range(50):
            vehicles, walks = random_layout(rng, road, comm)
            w = make_world(vehicles, road=road)
            for ego in vehicles:
                assert_same_vehicles(perceived(w, ego), brute_force_perceived(w, ego))
                near = neighbors(w, ego)
                ol, oal, oar = brute_force_neighbors(w, ego)
                assert near.c_ol is ol
                assert near.c_oal is oal
                assert near.c_oar is oar

                rows = observe(w, ego)
                seen = brute_force_perceived(w, ego)
                s = ego.state
                assert rows[1:1 + len(seen)] == [
                    [o.state.x - s.x, o.state.y - s.y, o.state.v_x, o.state.v_y, o.state.psi]
                    for o in seen
                ]
                assert all(row == [0.0] * 5 for row in rows[1 + len(seen):])
            for ego, name, expected in walks:
                assert getattr(neighbors(w, ego), name) is expected

    def test_leader_is_the_own_lane_neighbour(self):
        # a live vehicle's leader is its c_ol; a wreck's is found on a fresh
        # index by the walk ahead alone, which leaves both memos empty, and
        # once the wreck's full walk is done it is read from the memo
        rng = np.random.default_rng(12)
        comm = ScenarioConfig().comm_range
        road = RoadNetwork()
        walked = 0
        for trial in range(50):
            vehicles, walks = random_layout(rng, road, comm)
            ego, _, expected = walks[0]  # the forced c_ol walk, for a wreck every other time
            ego.crashed = bool(trial % 2)
            for v in vehicles:
                w = make_world(vehicles, road=road)
                got = leader(w, v)
                if v.crashed:
                    index = neighbor_index(w)
                    assert v.vid not in index.near and v.vid not in index.seen
                    walked += 1
                assert got is neighbors(w, v).c_ol is brute_force_neighbors(w, v)[0]
                assert leader(w, v) is got
            assert leader(make_world(vehicles, road=road), ego) is expected
        assert walked > 100

    @settings(max_examples=400, deadline=None)
    @given(perception_cases())
    def test_nearest_walk_matches_distance_sort(self, case):
        # the one outward walk, with its |dx| cut-offs, against a sort of
        # every in-range pair, ties in distance broken by id, and against
        # the neighbour rescan; whichever query comes first in a state fills
        # both memos, and repeat calls of either return the memoised answer
        w, neighbors_first = case
        for ego, first in zip(w.vehicles, neighbors_first):
            if first:
                near = neighbors(w, ego)
                got = perceived(w, ego)
            else:
                got = perceived(w, ego)
                near = neighbors(w, ego)
            assert_same_vehicles(got, brute_force_perceived(w, ego))
            assert all(a is b for a, b in zip((near.c_ol, near.c_oal, near.c_oar),
                                              brute_force_neighbors(w, ego)))
            assert perceived(w, ego) is got and neighbors(w, ego) is near

    def test_repeat_calls_share_one_answer_per_vehicle(self):
        # within one state, calls before and after target_lane flips each
        # match the rescan and return the object the first call built: the
        # adjacent lane is the other lane whatever target_lane says
        rng = np.random.default_rng(10)
        comm = ScenarioConfig().comm_range
        road = RoadNetwork()
        flipped = 0
        for _ in range(20):
            vehicles, _ = random_layout(rng, road, comm)
            w = make_world(vehicles, road=road)
            for ego in vehicles:
                first = neighbors(w, ego)
                for _ in range(3):
                    for target in (ego.target_lane, 1 - ego.target_lane, ego.target_lane):
                        flipped += target != ego.target_lane
                        ego.target_lane = target
                        near = neighbors(w, ego)
                        want = brute_force_neighbors(w, ego)
                        assert all(a is b for a, b in zip((near.c_ol, near.c_oal, near.c_oar), want))
                        assert near is first
        assert flipped > 500

    def test_follows_the_state_across_steps(self):
        # the index of one state must not answer for the next
        w = spawned_world(seed=5, n_vehicles=11)
        rng = np.random.default_rng(5)
        changed = 0
        for _ in range(80):
            before = {v.vid: brute_force_neighbors(w, v) for v in w.vehicles}
            step_world(w, {v.vid: BehaviorAction(int(rng.integers(0, len(BehaviorAction))))
                           for v in w.vehicles})
            for ego in w.vehicles:
                near = neighbors(w, ego)
                want = brute_force_neighbors(w, ego)
                assert all(a is b for a, b in zip((near.c_ol, near.c_oal, near.c_oar), want))
                changed += any(a is not b for a, b in zip(want, before[ego.vid]))
        assert changed > 0


class TestObserve:
    def test_single_vehicle_padding(self):
        w = make_world([make_vehicle(0, 50.0, 20.0)])
        rows = observe(w, w.vehicles[0])
        assert len(rows) == w.scenario.perception_n + 1
        assert rows[0] == [50.0, 0.0, 20.0, 0.0, 0.0]
        for row in rows[1:]:
            assert row == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_no_perceived_rows_at_perception_n_zero(self):
        scenario = ScenarioConfig(perception_n=0)
        w = make_world([make_vehicle(0, 50.0, 20.0), make_vehicle(1, 60.0, 20.0)],
                       scenario=scenario)
        assert perceived(w, w.vehicles[0]) == []
        assert observe(w, w.vehicles[0]) == [[50.0, 0.0, 20.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="perception_n"):
            ScenarioConfig(perception_n=-1)

    def test_relative_positions(self):
        ego = make_vehicle(0, 100.0, 20.0)
        other = make_vehicle(1, 130.0, 22.0)
        w = make_world([ego, other])
        rows = observe(w, ego)
        assert rows[1][0] == pytest.approx(30.0)
        assert rows[1][2] == pytest.approx(22.0)

    def test_ordering_matches_distance_sort(self):
        rng = np.random.default_rng(13)
        road = RoadNetwork()
        vehicles = [
            make_vehicle(vid, float(rng.uniform(0, 300)), 20.0,
                         lane=int(rng.integers(0, 2)), road=road)
            for vid in range(11)
        ]
        w = make_world(vehicles, road=road)
        ego = vehicles[0]
        rows = observe(w, ego)
        dists = sorted(
            (math.hypot(o.state.x - ego.state.x, o.state.y - ego.state.y), o.vid, o)
            for o in vehicles[1:]
            if math.hypot(o.state.x - ego.state.x, o.state.y - ego.state.y) <= w.scenario.comm_range
        )
        for row, (_, _, o) in zip(rows[1:], dists[: w.scenario.perception_n]):
            assert row[0] == pytest.approx(o.state.x - ego.state.x)
            assert row[1] == pytest.approx(o.state.y - ego.state.y)


class TestPlanMotion:
    def test_follow_keeps_speed(self):
        v = make_vehicle(0, 100.0, 25.0)
        plan = plan_motion(v, BehaviorAction.FOLLOW_LANE, RoadNetwork(), dv_step=2.0)
        assert plan.v_target == 25.0
        assert plan.target_lane == v.lane
        assert not plan.lane_request

    def test_speed_up_step(self):
        v = make_vehicle(0, 100.0, 25.0)
        plan = plan_motion(v, BehaviorAction.SPEED_UP, RoadNetwork(), dv_step=2.0)
        assert plan.v_target == 27.0

    def test_slow_down_clamps_at_zero(self):
        v = make_vehicle(0, 100.0, 1.0)
        plan = plan_motion(v, BehaviorAction.SLOW_DOWN, RoadNetwork(), dv_step=2.0)
        assert plan.v_target == 0.0

    def test_ramp_vehicle_left_in_merge_window(self):
        road = RoadNetwork()
        v = make_vehicle(0, road.merge_start + 10.0, 20.0, lane=road.ramp_lane, road=road)
        plan = plan_motion(v, BehaviorAction.LANE_LEFT, road, dv_step=2.0)
        assert plan.lane_request
        assert plan.target_lane == 0

    def test_lane_change_degrades_outside_window(self):
        road = RoadNetwork()
        v = make_vehicle(0, 50.0, 20.0, lane=road.ramp_lane, road=road)
        plan = plan_motion(v, BehaviorAction.LANE_LEFT, road, dv_step=2.0)
        assert not plan.lane_request
        assert plan.target_lane == v.lane

    def test_no_left_from_leftmost_lane(self):
        road = RoadNetwork()
        v = make_vehicle(0, 250.0, 20.0, lane=0, road=road)
        plan = plan_motion(v, BehaviorAction.LANE_LEFT, road, dv_step=2.0)
        assert not plan.lane_request

    def test_no_right_from_the_ramp(self):
        road = RoadNetwork()
        v = make_vehicle(0, 250.0, 20.0, lane=road.ramp_lane, road=road)
        plan = plan_motion(v, BehaviorAction.LANE_RIGHT, road, dv_step=2.0)
        assert not plan.lane_request and plan.target_lane == road.ramp_lane


#: both zeros and a few magnitudes; every value also serves as a bound, so
#: exact ties with each bound are drawn
CLAMPED = st.sampled_from([-0.0, 0.0, -2.5, -1.0, 1.0, 2.5, 30.0])


def _hex(*values):
    return [v.hex() for v in values]


class TestScalarClamps:
    """The step path clamps scalars by comparisons that keep the builtins'
    tie rule, so each result equals ``min(max(...))`` bit for bit, the sign
    of a zero included."""

    @given(v=CLAMPED, dv_step=CLAMPED, v_cap=CLAMPED,
           action=st.sampled_from([BehaviorAction.FOLLOW_LANE, BehaviorAction.SPEED_UP,
                                   BehaviorAction.SLOW_DOWN]))
    def test_plan_motion_speed_target(self, v, dv_step, v_cap, action):
        ego = SimpleNamespace(state=SimpleNamespace(speed=v, x=0.0),
                              params=SimpleNamespace(v_cap=v_cap),
                              lane=0, target_lane=0, merge_failed=False)
        raw = {BehaviorAction.SPEED_UP: v + dv_step,
               BehaviorAction.SLOW_DOWN: v - dv_step}.get(action, v)
        plan = plan_motion(ego, action, RoadNetwork(), dv_step)
        assert _hex(plan.v_target) == _hex(min(max(raw, 0.0), v_cap))

    @given(v=CLAMPED, v_nominal=CLAMPED, a_min=CLAMPED, a_max=CLAMPED, v_cap=CLAMPED,
           dt=st.sampled_from([0.1, 1.0]))
    def test_shield_reach_box_and_nominal(self, v, v_nominal, a_min, a_max, v_cap, dt):
        # a lone ego on a hand-built snapshot: no leaders, no lane change
        ego = SimpleNamespace(vid=0, state=SimpleNamespace(speed=v, x=0.0, psi=0.0),
                              params=SimpleNamespace(length=5.0, a_min=a_min, a_max=a_max,
                                                     v_cap=v_cap),
                              lane=0, target_lane=0, crashed=False)
        index = SimpleNamespace(ordered=[ego], rank={0: 0})
        seen = []

        def solve_qp(v_nom, rows, lo, hi, hi_label):
            seen.append((v_nom, lo, hi))
            return QPSolution(v_nom, 0.0, ())

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shield_mod, "solve_qp", solve_qp)
            mp.setattr(shield_mod, "maneuver", lambda state, y, changing, dt: state)
            out = joint_safe_control(ShieldConfig(), InteractionTopology({}),
                                     {0: MotionPlan(v_target=v_nominal, target_lane=0)},
                                     {0: Neighborhood(None, None, None)}, index,
                                     RoadNetwork(), 0.5, dt)[0]
        lo = max(0.0, v + a_min * dt)
        hi = min(v_cap, v + a_max * dt)
        v_nom = min(max(v_nominal, lo), hi)
        assert _hex(*seen[0]) == _hex(v_nom, lo, hi)
        assert _hex(out.v_nominal) == _hex(v_nom)

    @given(v_safe=CLAMPED, a_min=CLAMPED, a_max=CLAMPED)
    def test_step_world_acceleration(self, v_safe, a_min, a_max):
        params = SimpleNamespace(length=5.0, width=2.0, a_min=a_min, a_max=a_max, v_cap=40.0)
        world = make_world([Vehicle(0, VehicleState(0.0, 0.0, 0.0, 0.0, 0.0), params, 0, 0)],
                           scenario=ScenarioConfig(dt=1.0))
        seen = []

        def step(state, params, a, dt):
            seen.append(a)
            return state

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(world_mod, "joint_safe_control",
                       lambda config, topology, plans, near, index, road, tau, dt:
                       {0: ShieldOutcome(v_safe, v_safe, 0.0, staged=world.vehicles[0].state)})
            mp.setattr(world_mod, "step", step)
            step_world(world, {})
        # at rest on its centreline, so the unclamped command is
        # (v_safe - 0.0) / 1.0, which is v_safe with its sign
        assert _hex(*seen) == _hex(min(max(v_safe, a_min), a_max))

    @given(x=CLAMPED, start=CLAMPED, length=CLAMPED)
    def test_merge_progress(self, x, start, length):
        vehicle = SimpleNamespace(state=SimpleNamespace(x=x))
        road = SimpleNamespace(merge_start=start, merge_length=length)
        assert _hex(Vehicle.x_m(vehicle, road)) == _hex(min(max(x - start, 0.0), length))

    @given(v=CLAMPED, a_min=CLAMPED, a_max=CLAMPED, v_cap=CLAMPED,
           dt=st.sampled_from([0.1, 1.0]), crashed=st.booleans())
    def test_reach_box(self, v, a_min, a_max, v_cap, dt, crashed):
        # a wreck never moves again, whatever speed it crashed at
        vehicle = SimpleNamespace(state=SimpleNamespace(speed=v), crashed=crashed,
                                  params=SimpleNamespace(a_min=a_min, a_max=a_max, v_cap=v_cap))
        box = (0.0, 0.0) if crashed else (max(0.0, v + a_min * dt), min(v_cap, v + a_max * dt))
        assert _hex(*reach(vehicle, dt)) == _hex(*box)

    @given(v=CLAMPED)
    def test_reward_speed_floor_and_cap(self, v):
        assert _hex(speed_reward(v, 0.0, 1.0)) == _hex(min((v - 0.0) / 1.0, 1.0))
        assert _hex(headway_reward(2.0, v, 0.5)) == _hex(-math.log(2.0 / (0.5 * max(v, 1.0))))


class TestValueTypes:
    """The per-vehicle-step values are immutable tuples, and a state's stored
    speed matches its components on every path that builds one."""

    def test_pickled_world_steps_like_the_original(self):
        actions = list(BehaviorAction)
        w = spawned_world(seed=8, n_vehicles=9)
        for t in range(10):
            step_world(w, {v.vid: actions[(v.vid + t) % len(actions)] for v in w.vehicles})
        clones = [pickle.loads(pickle.dumps(w)), copy.deepcopy(w)]
        for t in range(10, 40):
            joint = {v.vid: actions[(v.vid + t) % len(actions)] for v in w.vehicles}
            for world in (w, *clones):
                step_world(world, dict(joint))
        for clone in clones:
            assert [v.state for v in clone.vehicles] == [v.state for v in w.vehicles]
        for v in clones[0].vehicles:
            assert_speed_exact(v.state)

    @pytest.mark.parametrize("kind", ["VehicleState", "MotionPlan", "Neighborhood",
                                      "ShieldOutcome", "QPSolution"])
    def test_fields_cannot_be_assigned(self, kind):
        from mergeshield.shield import solve_qp

        w = spawned_world(seed=3, n_vehicles=5)
        ego = w.vehicles[1]
        value = {
            "VehicleState": lambda: ego.state,
            "MotionPlan": lambda: plan_motion(ego, BehaviorAction.SPEED_UP, w.road, 2.0),
            "Neighborhood": lambda: neighbors(w, ego),
            "ShieldOutcome": lambda: step_world(w, {})[0][ego.vid],
            "QPSolution": lambda: solve_qp(20.0, [], 19.5, 20.5),
        }[kind]()
        assert type(value).__name__ == kind
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = None


class TestWorldOrder:
    @pytest.mark.parametrize("kind", ["random", "heuristic"])
    def test_shuffled_fleet_records_the_same_bytes(self, monkeypatch, kind):
        # World sorts its fleet by vid once; records read that order and
        # sort nothing themselves
        from mergeshield import episode
        from mergeshield.config import RunConfig
        from mergeshield.policy import PolicySpec
        from mergeshield.records import episode_lines

        cfg = RunConfig(scenario=ScenarioConfig(episode_steps=40, n_vehicles=11),
                        policy=PolicySpec(kind=kind))
        want = episode_lines(episode.run_episode(cfg, 3)[0])

        def shuffled_spawn(*args, **kwargs):
            vehicles = spawn(*args, **kwargs)
            np.random.default_rng(0).shuffle(vehicles)
            assert [v.vid for v in vehicles] != sorted(v.vid for v in vehicles)
            return vehicles

        monkeypatch.setattr(episode, "spawn", shuffled_spawn)
        assert episode_lines(episode.run_episode(cfg, 3)[0]) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-3.5, -0.0, 0.0, 2.25, 7.0]), min_size=1, max_size=9),
           st.randoms(use_true_random=False))
    def test_the_fleet_order_is_x_then_descending_vid_whatever_the_list_order(self, xs, rnd):
        # x ties (0.0 == -0.0 among them) go to the smaller vid ahead, both
        # for a world built from a shuffled list and for one whose list is
        # reassigned out of vid order later
        vids = rnd.sample(range(3 * len(xs)), len(xs))
        fleet = [make_vehicle(vid, x, 20.0) for vid, x in zip(vids, xs)]
        want = [v.vid for v in sorted(fleet, key=lambda v: (v.state.x, -v.vid))]
        world = make_world(fleet)
        assert [v.vid for v in world.vehicles] == sorted(vids)
        assert [v.vid for v in world_mod.neighbor_index(world).ordered] == want
        rnd.shuffle(world.vehicles)
        world.step_index += 1
        assert [v.vid for v in world_mod.neighbor_index(world).ordered] == want


class TestStepWorld:
    def test_empty_world_unchanged(self):
        w = make_world([], shield_mode="none")
        step_world(w, {})
        assert w.vehicles == []
        assert w.step_index == 1

    def test_single_vehicle_none_shield_matches_dynamics(self):
        from mergeshield.dynamics import step as dyn_step

        v = make_vehicle(0, 100.0, 25.0)
        w = make_world([v], shield_mode="none")
        expected = dyn_step(v.state, v.params, 0.0, w.scenario.dt)
        step_world(w, {0: BehaviorAction.FOLLOW_LANE})
        assert w.vehicles[0].state == expected

    def test_iteration_order_does_not_matter(self):
        seed_world = spawned_world(seed=21, n_vehicles=9)
        w1 = copy.deepcopy(seed_world)
        w2 = copy.deepcopy(seed_world)
        w2.vehicles = list(reversed(w2.vehicles))
        actions = {v.vid: BehaviorAction.SPEED_UP for v in seed_world.vehicles}
        step_world(w1, dict(actions))
        step_world(w2, dict(actions))
        states1 = {v.vid: v.state for v in w1.vehicles}
        states2 = {v.vid: v.state for v in w2.vehicles}
        assert states1 == states2

    @pytest.mark.parametrize("mode", ["none", "hss", "mass"])
    def test_granted_lane_changes_cross_between_the_two_lanes_in_the_window(self, mode):
        # random actions ask for every change, legal or not; a granted one
        # sets target_lane to the other lane of a vehicle inside the window
        granted = 0
        for seed in range(4):
            w = spawned_world(seed=seed, shield_mode=mode, n_vehicles=11)
            road = w.road
            rng = np.random.default_rng(seed)
            for _ in range(150):
                before = {v.vid: (v.lane, v.target_lane, v.state.x) for v in w.live_vehicles()}
                step_world(w, {vid: BehaviorAction(int(rng.integers(0, len(BehaviorAction))))
                               for vid in before})
                for v in w.vehicles:
                    if v.vid not in before:
                        continue
                    lane, target, x = before[v.vid]
                    assert v.lane in (0, 1) and v.target_lane in (0, 1)
                    if v.target_lane != target:
                        granted += 1
                        assert target == lane and v.target_lane == 1 - lane
                        assert road.in_merge_window(x)
        assert granted > 0

    @pytest.mark.parametrize("mode", ["none", "hss", "mass"])
    def test_integrates_from_the_staged_maneuver(self, monkeypatch, mode):
        # each outcome stages the maneuver of the pre-step state toward the
        # post-step target lane, and the integrator moves exactly that state
        integrated = []

        def recording_step(state, params, a, dt):
            integrated.append(state)
            return step(state, params, a, dt)

        monkeypatch.setattr(world_mod, "step", recording_step)
        actions = list(BehaviorAction)
        w = spawned_world(seed=8, shield_mode=mode, n_vehicles=9)
        road, dt = w.road, w.scenario.dt
        changing = 0
        for t in range(60):
            live = w.live_vehicles()
            before = {v.vid: (v.state, v.lane) for v in live}
            integrated.clear()
            outcomes, _ = step_world(w, {v.vid: actions[(v.vid + t) % len(actions)]
                                         for v in live})
            assert [id(s) for s in integrated] == [id(outcomes[v.vid].staged) for v in live]
            for v in live:
                state, lane = before[v.vid]
                want = maneuver(state, road.centerline_y(v.target_lane), v.target_lane != lane,
                                dt)
                assert outcomes[v.vid].staged == want
                changing += v.target_lane != lane
        assert changing > 0

    def test_lane_label_changes_only_after_completion(self):
        road = RoadNetwork()
        ego = make_vehicle(0, road.merge_start + 20.0, 20.0, lane=road.ramp_lane, road=road)
        w = make_world([ego], road=road)
        labels = []
        step_world(w, {0: BehaviorAction.LANE_LEFT})
        assert ego.target_lane == 0 and ego.lane == road.ramp_lane
        for _ in range(40):
            labels.append(ego.lane)
            step_world(w, {0: BehaviorAction.FOLLOW_LANE})
        assert ego.lane == 0
        assert ego.merged
        # label flipped exactly once, when the maneuver completed
        flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert flips <= 1

    def test_collision_sweep_flags_what_all_pairs_flags(self):
        from mergeshield.world import _mark_collisions, _rect_overlap, neighbor_index

        def all_pairs(vehicles):
            ordered = sorted(vehicles, key=lambda v: v.vid)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    if a.crashed and b.crashed:
                        continue
                    if _rect_overlap(a, b):
                        a.crashed = True
                        b.crashed = True

        rng = np.random.default_rng(17)
        flagged = 0
        for _ in range(200):
            fleet = []
            for vid in range(int(rng.integers(0, 12))):
                params = VehicleParams(length=float(rng.choice([3.0, 5.0, 12.0])),
                                       width=float(rng.choice([1.5, 2.0, 2.5])))
                # half-metre grid: pairs sit exactly at the overlap and sweep limits
                x = 0.5 * float(rng.integers(0, 120))
                y = float(rng.choice([0.0, 4.0])) + 0.25 * float(rng.integers(-8, 9))
                vehicle = make_vehicle(vid, x, 20.0, y=y, params=params)
                vehicle.crashed = bool(rng.random() < 0.1)
                fleet.append(vehicle)
            reference = copy.deepcopy(fleet)
            _mark_collisions(neighbor_index(make_world(fleet)).ordered)
            all_pairs(reference)
            assert [v.crashed for v in fleet] == [v.crashed for v in reference]
            flagged += sum(v.crashed for v in fleet)
        assert flagged > 0

    def test_two_vehicle_closing_scenario_shielded(self):
        # follower approaches a slower, hard-braking leader under the
        # cooperative shield; the post-step headway never drops below tau
        road = RoadNetwork()
        leader = make_vehicle(1, 95.0, 15.0, road=road)
        follower = make_vehicle(0, 30.0, 25.0, road=road)
        w = make_world([follower, leader], road=road)
        for _ in range(120):
            step_world(w, {0: BehaviorAction.SPEED_UP, 1: BehaviorAction.SLOW_DOWN})
            v = follower.state.speed
            if v >= 1.0:
                assert bumper_gap(follower, leader) / v >= w.scenario.tau - 1e-9
        assert not follower.crashed and not leader.crashed

    def test_shield_keeps_the_headway_of_the_scenario_it_runs_in(self):
        # a world built directly, with no copy of tau or dt to hand the
        # shield: it predicts with the scenario's step and keeps the
        # scenario's headway toward a slower, hard-braking leader
        road = RoadNetwork()
        leader = make_vehicle(1, 95.0, 15.0, road=road)
        follower = make_vehicle(0, 30.0, 25.0, road=road)
        w = World(road=road, scenario=ScenarioConfig(tau=0.7, dt=0.05),
                  shield=ShieldConfig(mode="mass"), vehicles=[follower, leader])
        headways = []
        for _ in range(240):
            step_world(w, {0: BehaviorAction.SPEED_UP, 1: BehaviorAction.SLOW_DOWN})
            if follower.state.speed >= 1.0:
                headways.append(bumper_gap(follower, leader) / follower.state.speed)
        assert len(headways) > 100 and min(headways) >= 0.7 - 1e-9
        assert not follower.crashed and not leader.crashed

    def test_a_vehicle_id_held_twice_is_rejected(self):
        # two vehicles under one id would share one plan and one outcome
        twins = [make_vehicle(0, 100.0, 20.0), make_vehicle(0, 150.0, 10.0)]
        with pytest.raises(ValueError, match="^vehicle id 0 is held twice$"):
            make_world(twins)

    def test_shield_choice_is_max_safe_speed(self):
        # grid oracle across a whole approach: at every step the filtered
        # command equals the largest reachable speed whose one-step outcome
        # stays inside the barrier and braking-feasibility conditions
        from mergeshield.shield import brake_margin

        road = RoadNetwork()
        leader = make_vehicle(1, 130.0, 12.0, road=road)
        follower = make_vehicle(0, 30.0, 22.0, road=road)
        w = make_world([follower, leader], road=road)
        cfg, eta = w.scenario, w.shield.eta
        dt = cfg.dt
        saw_binding = False
        for _ in range(60):
            pre_follower = follower.state
            pre_leader = leader.state
            outcomes, _ = step_world(w, {0: BehaviorAction.SPEED_UP, 1: BehaviorAction.FOLLOW_LANE})
            out = outcomes[0]
            leader_cmd = outcomes[1].v_safe

            gap = (pre_leader.x - 2.5) - (pre_follower.x + 2.5)
            v_e = pre_follower.speed
            h_now = gap - cfg.tau * v_e
            lo = max(0.0, v_e + follower.params.a_min * dt)
            hi = min(follower.params.v_cap, v_e + follower.params.a_max * dt)
            # this step moves both vehicles by their pre-step velocities
            gap_next = gap + (pre_leader.v_x - pre_follower.v_x) * dt

            def safe_at(v_cmd):
                ok_barrier = gap_next - cfg.tau * v_cmd >= (1.0 - eta) * h_now - 1e-12
                ok_brake = brake_margin(gap_next, v_cmd, leader_cmd, -follower.params.a_min,
                                        cfg.tau, dt) >= -1e-12
                return ok_barrier and ok_brake

            # both conditions are monotone in v_cmd: bisect for the
            # maximum-speed safe choice
            assert safe_at(lo), "scene left the feasible envelope"
            if safe_at(hi):
                best = hi
            else:
                a, b = lo, hi
                for _ in range(40):
                    mid = 0.5 * (a + b)
                    if safe_at(mid):
                        a = mid
                    else:
                        b = mid
                best = a
            assert out.v_safe == pytest.approx(best, abs=2e-4)
            if best < hi - 1e-3:
                saw_binding = True
        assert saw_binding, "approach never activated the shield"
