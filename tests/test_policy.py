import math
from collections import Counter

import numpy as np
import pytest

from mergeshield.policy import Policy, RandomPolicy, heuristic_policy
from mergeshield.road import RoadNetwork
from mergeshield.world import BehaviorAction

from conftest import make_vehicle, make_world


def fleet(vids, road=None):
    road = road or RoadNetwork()
    return [make_vehicle(vid, 20.0 * i, 20.0, road=road) for i, vid in enumerate(vids)]


def decide(policy, step, vehicles):
    return policy.decide(step, make_world(vehicles), {})


def test_the_base_policy_decides_nothing():
    # a policy kind must override ``decide``; the base class has no default
    with pytest.raises(NotImplementedError):
        decide(Policy(), 0, fleet([0]))


class TestRandomPolicy:
    def test_action_is_the_vid_th_entry_of_one_draw_per_step(self):
        policy = RandomPolicy(11)
        actions = decide(policy, 4, fleet([0, 3, 7]))
        for vid, action in actions.items():
            rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(4,)))
            assert type(action) is BehaviorAction
            assert action == rng.integers(0, 5, size=vid + 1)[vid]

    def test_action_ignores_crashes_fleet_size_and_call_order(self):
        policy = RandomPolicy(5)
        vehicles = fleet(range(9))
        want = {step: decide(policy, step, vehicles) for step in range(20)}
        # later steps first, and each step on its own
        for step in reversed(range(20)):
            assert decide(policy, step, vehicles) == want[step]
        # other vehicles crash
        crashed = fleet(range(9))
        crashed[3].crashed = crashed[8].crashed = True
        for step in range(20):
            got = decide(policy, step, crashed)
            assert set(got) == set(range(9)) - {3, 8}
            assert all(got[vid] == want[step][vid] for vid in got)
        # a larger fleet with a higher top vid, listed in another order
        larger = fleet(list(range(9)) + [12, 40, 63])[::-1]
        for step in range(20):
            got = decide(policy, step, larger)
            assert all(got[vid] == want[step][vid] for vid in range(9))

    def test_one_object_reused_across_episodes(self):
        vehicles = fleet(range(9))
        fresh = [decide(RandomPolicy(seed), 7, vehicles) for seed in (2, 3)]
        assert fresh[0] != fresh[1]
        policy = RandomPolicy()
        world = make_world(vehicles)
        for seed, want in ((2, fresh[0]), (3, fresh[1]), (2, fresh[0])):
            policy.start_episode(seed)
            assert policy.decide(7, world, {}) == want

    def test_no_live_vehicle_no_action(self):
        vehicles = fleet(range(3))
        for v in vehicles:
            v.crashed = True
        assert decide(RandomPolicy(0), 0, vehicles) == {}

    def test_actions_are_uniform(self):
        policy = RandomPolicy(0)
        vehicles = fleet(range(40))
        counts = Counter()
        for step in range(250):
            counts.update(decide(policy, step, vehicles).values())
        assert sum(counts.values()) == 10_000
        for action in BehaviorAction:
            assert 0.18 <= counts[action] / 10_000 <= 0.22, counts


def gives_way_oracle(world, ego):
    """The give-way test over every ramp vehicle, with no window."""
    road = world.road
    if not (ego.state.x < road.merge_end and ego.state.speed > 8.0):
        return False
    for other in world.vehicles:
        if other.lane != road.ramp_lane or other.crashed or other.merge_failed:
            continue
        if not (road.merge_start - 50.0 <= other.state.x <= road.merge_end):
            continue
        dx = other.state.x - ego.state.x
        if abs(dx) < 60.0 and math.hypot(dx, other.state.y - ego.state.y) <= world.scenario.comm_range:
            return True
    return False


class TestHeuristicGiveWay:
    def test_window_edges(self):
        road = RoadNetwork()
        for dx, want in ((59.99, True), (60.0, False), (-59.99, True), (-60.0, False)):
            ego = make_vehicle(0, 230.0, 20.0, road=road)
            ramp = make_vehicle(1, 230.0 + dx, 20.0, lane=road.ramp_lane, road=road)
            action = heuristic_policy(ego, make_world([ego, ramp], road=road))
            assert (action == BehaviorAction.SLOW_DOWN) == want, dx

    def test_matches_a_scan_of_the_whole_ramp_lane(self):
        rng = np.random.default_rng(9)
        road = RoadNetwork()
        hits = 0
        for _ in range(300):
            ego = make_vehicle(0, float(rng.uniform(80.0, 320.0)), float(rng.uniform(5.0, 30.0)),
                               road=road)
            vehicles = [ego]
            for vid in range(1, int(rng.integers(0, 8)) + 1):
                x = ego.state.x + float(rng.choice([rng.uniform(-150.0, 150.0), 60.0, -60.0]))
                lane = road.ramp_lane if rng.random() < 0.8 else 0
                v = make_vehicle(vid, x, 20.0, lane=lane, road=road)
                v.crashed = bool(rng.random() < 0.1)
                v.merge_failed = bool(rng.random() < 0.1)
                vehicles.append(v)
            world = make_world(vehicles, road=road)
            want = gives_way_oracle(world, ego)
            hits += want
            assert (heuristic_policy(ego, world) == BehaviorAction.SLOW_DOWN) == want
        assert 30 <= hits <= 270
