import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeshield.reward import (
    RewardWeights,
    custom_reward,
    default_reward,
    fleet_rewards,
    headway_reward,
    merge_reward,
    speed_reward,
)
from mergeshield.road import RoadNetwork
from mergeshield.shield import bumper_gap
from mergeshield.world import ScenarioConfig

from conftest import (
    brute_force_neighbors,
    brute_force_perceived,
    make_vehicle,
    make_world,
    random_layout,
)

W = RewardWeights()


class TestHeadwayReward:
    def test_zero_at_desired_headway(self):
        assert headway_reward(12.5, 25.0, 0.5) == 0.0

    def test_double_gap(self):
        assert headway_reward(25.0, 25.0, 0.5) == pytest.approx(-math.log(2.0))

    def test_half_gap(self):
        assert headway_reward(6.25, 25.0, 0.5) == pytest.approx(math.log(2.0))

    @given(st.floats(min_value=0.1, max_value=200.0), st.floats(min_value=1.0, max_value=35.0))
    def test_strictly_decreasing_in_gap(self, dx, v):
        assert headway_reward(dx, v, 0.5) > headway_reward(dx * 1.1, v, 0.5)

    def test_speed_floor_clamp(self):
        assert headway_reward(5.0, 0.2, 0.5) == headway_reward(5.0, 1.0, 0.5)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            headway_reward(0.0, 20.0, 0.5)


class TestSpeedReward:
    def test_saturates_at_one(self):
        assert speed_reward(30.0, 10.0, 30.0) == 1.0
        assert speed_reward(35.0, 10.0, 30.0) == 1.0

    def test_lower_endpoint(self):
        assert speed_reward(10.0, 10.0, 30.0) == 0.0

    def test_midpoint(self):
        assert speed_reward(20.0, 10.0, 30.0) == 0.5

    @given(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=0.0, max_value=40.0))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert speed_reward(lo, 10.0, 30.0) <= speed_reward(hi, 10.0, 30.0)
        assert speed_reward(hi, 10.0, 30.0) <= 1.0


class TestMergeReward:
    def test_at_merge_end(self):
        assert merge_reward(100.0, 100.0) == -1.0

    def test_at_merge_start(self):
        assert merge_reward(0.0, 100.0) == pytest.approx(-math.exp(-10.0))
        assert merge_reward(0.0, 100.0) == pytest.approx(-4.5399929762484854e-05)

    def test_midway(self):
        assert merge_reward(50.0, 100.0) == pytest.approx(-math.exp(-2.5))

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_decreasing_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        assert -1.0 <= merge_reward(hi, 100.0) <= merge_reward(lo, 100.0) <= 0.0


class TestCustomReward:
    def test_highway_vehicle_composition(self):
        # leader exactly at the desired headway, speed at the top of the band
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 30.0, road=road)
        leader = make_vehicle(1, 100.0 + 5.0 + 15.0, 30.0, road=road)  # gap = tau*v
        w = make_world([ego, leader], road=road)
        assert custom_reward(ego, W, w) == pytest.approx(1.0 * 0.0 + 4.0 * 1.0 + 8.0 * 0.0)

    def test_ramp_vehicle_at_merge_end(self):
        road = RoadNetwork()
        ego = make_vehicle(0, road.merge_end, 10.0, lane=road.ramp_lane, road=road)
        w = make_world([ego], road=road)
        assert custom_reward(ego, W, w) == pytest.approx(0.0 + 0.0 + 8.0 * (-1.0))

    def test_takes_tau_and_merge_length_from_the_world(self):
        # the weights carry neither: the leader sits at the scenario's
        # desired headway, the ramp vehicle at the end of a 120 m merge
        road = RoadNetwork(merge_length=120.0)
        scenario = ScenarioConfig(tau=0.7)
        ego = make_vehicle(0, 100.0, 30.0, road=road)
        leader = make_vehicle(1, 100.0 + 5.0 + 0.7 * 30.0, 30.0, road=road)
        ramp = make_vehicle(2, road.merge_end, 10.0, lane=road.ramp_lane, road=road)
        w = make_world([ego, leader, ramp], road=road, scenario=scenario)
        assert custom_reward(ego, W, w) == pytest.approx(4.0)
        assert custom_reward(ramp, W, w) == pytest.approx(-8.0)

    def test_matches_hand_composition_on_random_states(self):
        rng = np.random.default_rng(6)
        road = RoadNetwork()
        for _ in range(100):
            lane = int(rng.integers(0, 2))
            x = float(rng.uniform(150.0, 290.0))
            v = float(rng.uniform(2.0, 35.0))
            gap = float(rng.uniform(1.0, 60.0))
            ego = make_vehicle(0, x, v, lane=lane, road=road)
            leader = make_vehicle(1, x + 5.0 + gap, 20.0, lane=lane, road=road)
            w = make_world([ego, leader], road=road)
            r_h = -math.log(gap / (0.5 * max(v, 1.0)))
            r_s = min((v - 10.0) / 20.0, 1.0)
            r_m = 0.0
            if lane == road.ramp_lane:
                x_m = min(max(x - road.merge_start, 0.0), road.merge_length)
                r_m = -math.exp(-((x_m - 100.0) ** 2) / 1000.0)
            want = 1.0 * r_h + 4.0 * r_s + 8.0 * r_m
            assert custom_reward(ego, W, w) == pytest.approx(want, abs=1e-12)

    def test_ignores_crash_flag(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, road=road)
        w = make_world([ego], road=road)
        before = custom_reward(ego, W, w)
        ego.crashed = True
        assert custom_reward(ego, W, w) == before


class TestDefaultReward:
    def test_crash_contribution(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, road=road)
        w = make_world([ego], road=road)
        base = default_reward(ego, W, w)
        ego.crashed = True
        assert default_reward(ego, W, w) == pytest.approx(base - 200.0)

    def test_uncrashed_equals_custom(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 24.0, road=road)
        leader = make_vehicle(1, 130.0, 20.0, road=road)
        w = make_world([ego, leader], road=road)
        assert default_reward(ego, W, w) == custom_reward(ego, W, w)


class TestOverallReward:
    def test_isolated_vehicle(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, road=road)
        w = make_world([ego], road=road)
        r = custom_reward(ego, W, w)
        assert fleet_rewards(w, W, vids=[0]) == {0: (r, r)}

    def test_two_vehicle_mean(self):
        road = RoadNetwork()
        a = make_vehicle(0, 100.0, 20.0, road=road)
        b = make_vehicle(1, 150.0, 25.0, road=road)
        w = make_world([a, b], road=road)
        ra = custom_reward(a, W, w)
        rb = custom_reward(b, W, w)
        fleet = fleet_rewards(w, W, vids=[0, 1])
        assert fleet[0] == (ra, pytest.approx((ra + rb) / 2))
        assert fleet[1] == (rb, pytest.approx((ra + rb) / 2))

    @pytest.mark.parametrize("function", ["default", "custom"])
    def test_matches_brute_force_on_random_fleets(self, function):
        # exact: each individual reward from the rescanned leader, each mean
        # added left to right from 0 + own over the rescanned group; the
        # fleets hold ties in x, lateral offsets, ongoing changes and wrecks,
        # named or only met in a named vehicle's group
        rng = np.random.default_rng(14)
        comm = ScenarioConfig().comm_range
        road = RoadNetwork()
        weights = RewardWeights(function=function)

        def individual(v, w):
            leader = brute_force_neighbors(w, v)[0]
            gap = None if leader is None else bumper_gap(v, leader)
            r_h = 0.0 if gap is None or not gap > 0 else headway_reward(
                gap, v.state.speed, w.scenario.tau)
            r_s = speed_reward(v.state.speed, weights.v_min, weights.v_max)
            r_m = merge_reward(v.x_m(road), road.merge_length) if v.lane == road.ramp_lane else 0.0
            r = weights.w_h * r_h + weights.w_s * r_s + weights.w_m * r_m
            if function == "default":
                r = weights.w_c * (-1.0 if v.crashed else 0.0) + r
            return r

        unnamed_wrecks = 0
        for _ in range(30):
            vehicles, _ = random_layout(rng, road, comm)
            named = [v for v in vehicles if rng.random() < 0.7]
            vids = [v.vid for v in named]
            w = make_world(vehicles, road=road)
            fleet = fleet_rewards(w, weights, vids=vids)
            assert sorted(fleet) == vids
            for ego in named:
                own = individual(ego, w)
                total = 0 + own
                group = brute_force_perceived(w, ego)
                for o in group:
                    total += individual(o, w)
                    unnamed_wrecks += o.crashed and o.vid not in vids
                assert fleet[ego.vid] == (own, total / (1 + len(group)))
        assert unnamed_wrecks > 20

    def test_scores_only_the_named_vehicles(self):
        # a named vehicle's pair does not depend on who else is named, a
        # wreck in its group still counts, and an unnamed wreck gets nothing
        road = RoadNetwork()
        vehicles = [make_vehicle(i, 100.0 + 25.0 * i, 18.0 + i, road=road) for i in range(4)]
        vehicles[1].crashed = vehicles[3].crashed = True
        w = make_world(vehicles, road=road)
        weights = RewardWeights(function="default")
        full = fleet_rewards(w, weights, vids=range(4))
        some = fleet_rewards(w, weights, vids=[2, 0, 1])
        assert sorted(some) == [0, 1, 2]
        assert all(some[vid] == full[vid] for vid in some)
        group = [vehicles[i] for i in (2, 1, 3, 0)]  # by distance, ties by id
        assert some[2][1] == sum(default_reward(v, weights, w) for v in group) / 4

    def test_group_mean_adds_left_to_right(self, monkeypatch):
        # Python 3.12 made sum() of floats compensated; the record must not
        # depend on the interpreter, so the mean adds in group order
        import mergeshield.reward as reward_mod
        from mergeshield.world import perceived

        values = {0: 1e16, 1: 1.0, 2: -1e16}
        monkeypatch.setattr(reward_mod, "custom_reward",
                            lambda vehicle, weights, world: values[vehicle.vid])
        road = RoadNetwork()
        w = make_world([make_vehicle(i, 100.0 + 20.0 * i, 20.0, road=road) for i in range(3)],
                       road=road)
        fleet = fleet_rewards(w, W, vids=[0, 1, 2])
        compensated = 0
        for ego in w.vehicles:
            group = [values[ego.vid]] + [values[o.vid] for o in perceived(w, ego)]
            total = 0
            for value in group:
                total += value
            assert fleet[ego.vid][0] == values[ego.vid]
            assert fleet[ego.vid][1].hex() == (total / len(group)).hex()
            compensated += math.fsum(group) != total
        assert compensated  # the values tell the two summations apart

    def test_episode_rewards_only_vehicles_that_acted(self):
        from mergeshield.config import RunConfig
        from mergeshield.episode import run_episode
        from mergeshield.policy import PolicySpec
        from mergeshield.shield import ShieldConfig
        from mergeshield.world import ScenarioConfig

        cfg = RunConfig(scenario=ScenarioConfig(episode_steps=60),
                        shield=ShieldConfig(mode="none"), policy=PolicySpec(kind="random"))
        record, _ = run_episode(cfg, 1)
        rows = [row for step in record.steps for row in step.vehicles]
        wrecks = [row for row in rows if row.action is None]
        assert wrecks and all(row.reward is None and row.reward_overall is None for row in wrecks)
        assert all(row.reward is not None and row.reward_overall is not None
                   for row in rows if row.action is not None)
        # a vehicle crashing during a step acted in it and is rewarded
        assert any(row.crashed and row.action is not None for row in rows)
