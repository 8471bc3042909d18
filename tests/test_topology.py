import math

import numpy as np
import pytest

from mergeshield.road import RoadNetwork
from mergeshield.topology import build_topology, cutting_in, evaluation_order
from mergeshield.world import ScenarioConfig, neighbor_index

from conftest import make_vehicle, make_world, neighborhoods


def naive_topology(vehicles, world):
    """Deliberately plain transcription of the construction rules, written
    against the raw definitions rather than the production helpers."""
    comm = world.scenario.comm_range

    def ahead(a, b):
        return (a.state.x, -a.vid) > (b.state.x, -b.vid)

    def in_range(a, b):
        return math.hypot(a.state.x - b.state.x, a.state.y - b.state.y) <= comm

    def adjacent_lane_of(ego):
        return 1 - ego.lane

    result = {}
    for ego in vehicles:
        if ego.crashed:
            result[ego.vid] = ()
            continue
        candidates_ol = [
            o for o in vehicles
            if o.vid != ego.vid and o.lane == ego.lane and ahead(o, ego) and in_range(o, ego)
        ]
        c_ol = None
        for o in candidates_ol:
            if c_ol is None or ahead(c_ol, o):
                c_ol = o
        adj = adjacent_lane_of(ego)
        candidates_oal = [
            o for o in vehicles
            if o.vid != ego.vid and o.lane == adj and ahead(o, ego) and in_range(o, ego)
        ]
        c_oal = None
        for o in candidates_oal:
            if c_oal is None or ahead(c_oal, o):
                c_oal = o

        parents = [c_ol.vid] if c_ol is not None else []
        if c_oal is not None and c_oal.target_lane != c_oal.lane and c_oal.target_lane == ego.lane:
            if c_ol is None or ahead(c_ol, c_oal):
                parents = [c_oal.vid]
        if ego.target_lane != ego.lane and c_oal is not None and c_oal.vid not in parents:
            parents.append(c_oal.vid)
        result[ego.vid] = tuple(parents)
    return result


def random_snapshot(rng, road):
    n = int(rng.integers(2, 12))
    vehicles = []
    for vid in range(n):
        lane = int(rng.integers(0, 2))
        changing = rng.random() < 0.3
        target = lane
        if changing:
            target = 1 - lane
        vehicles.append(
            make_vehicle(
                vid,
                x=float(rng.uniform(0, 500)),
                v=float(rng.uniform(0, 30)),
                lane=lane,
                road=road,
                target_lane=target,
            )
        )
    return vehicles


class TestBuildTopology:
    def test_single_vehicle(self):
        w = make_world([make_vehicle(0, 100.0, 20.0)])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert topo.entries == {0: ()}

    def test_follower_leader_chain(self):
        leader = make_vehicle(1, 130.0, 20.0)
        follower = make_vehicle(0, 100.0, 20.0)
        w = make_world([follower, leader])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert topo.entries[0] == (1,)
        assert topo.entries[1] == ()

    def test_cutting_in_vehicle_replaces_leader(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 210.0, 20.0, lane=0, road=road)
        leader = make_vehicle(1, 280.0, 20.0, lane=0, road=road)
        merger = make_vehicle(2, 240.0, 20.0, lane=road.ramp_lane, road=road, target_lane=0)
        w = make_world([ego, leader, merger])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert topo.entries[0] == (2,)

    @pytest.mark.parametrize("x, vid, cuts_in", [
        (240.0, 2, True),
        (210.0, 2, False),  # level with the ego, and the tie goes to the smaller id
        (210.0, 0, True),
        (190.0, 2, False),
    ])
    def test_only_an_adjacent_vehicle_ahead_cuts_in(self, x, vid, cuts_in):
        road = RoadNetwork()
        ego = make_vehicle(1, 210.0, 20.0, lane=0, road=road)
        leader = make_vehicle(3, 280.0, 20.0, lane=0, road=road)
        merger = make_vehicle(vid, x, 20.0, lane=road.ramp_lane, road=road, target_lane=0)
        assert cutting_in(ego, leader, merger) is cuts_in
        assert cutting_in(ego, None, merger) is cuts_in

    def test_changing_ego_has_two_parents(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 220.0, 20.0, lane=road.ramp_lane, road=road, target_lane=0)
        own_leader = make_vehicle(1, 260.0, 20.0, lane=road.ramp_lane, road=road)
        target_leader = make_vehicle(2, 250.0, 20.0, lane=0, road=road)
        w = make_world([ego, own_leader, target_leader])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert set(topo.entries[0]) == {1, 2}

    def test_rear_vehicles_never_parents(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 220.0, 20.0, lane=road.ramp_lane, road=road, target_lane=0)
        rear = make_vehicle(1, 190.0, 25.0, lane=0, road=road)
        w = make_world([ego, rear])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert topo.entries[0] == ()

    def test_matches_naive_transcription(self):
        rng = np.random.default_rng(17)
        road = RoadNetwork()
        for _ in range(300):
            vehicles = random_snapshot(rng, road)
            w = make_world(vehicles, road=road)
            topo = build_topology(vehicles, neighborhoods(w))
            expected = naive_topology(vehicles, w)
            got = {vid: tuple(sorted(p)) for vid, p in topo.entries.items()}
            want = {vid: tuple(sorted(p)) for vid, p in expected.items()}
            assert got == want

    def test_invariants_on_random_snapshots(self):
        rng = np.random.default_rng(23)
        road = RoadNetwork()
        for _ in range(200):
            vehicles = random_snapshot(rng, road)
            w = make_world(vehicles, road=road)
            topo = build_topology(vehicles, neighborhoods(w))
            by_id = {v.vid: v for v in vehicles}
            for vid, parents in topo.entries.items():
                assert len(parents) <= 2
                child = by_id[vid]
                if len(parents) == 2:
                    assert child.target_lane != child.lane
                for pid in parents:
                    parent = by_id[pid]
                    assert (parent.state.x, -parent.vid) > (child.state.x, -child.vid)

    def test_no_lane_changes_reduces_to_leader_only(self):
        rng = np.random.default_rng(31)
        road = RoadNetwork()
        for _ in range(50):
            vehicles = random_snapshot(rng, road)
            for v in vehicles:
                v.target_lane = v.lane
            w = make_world(vehicles, road=road)
            topo = build_topology(vehicles, neighborhoods(w))
            from mergeshield.world import neighbors

            for v in vehicles:
                near = neighbors(w, v)
                expected = (near.c_ol.vid,) if near.c_ol is not None else ()
                assert topo.entries[v.vid] == expected

    def test_pure_function_of_snapshot(self):
        rng = np.random.default_rng(41)
        road = RoadNetwork()
        vehicles = random_snapshot(rng, road)
        w = make_world(vehicles, road=road)
        near = neighborhoods(w)
        assert build_topology(vehicles, near).entries == build_topology(vehicles, near).entries


class TestEvaluationOrder:
    def test_two_node_chain(self):
        leader = make_vehicle(1, 130.0, 20.0)
        follower = make_vehicle(0, 100.0, 20.0)
        w = make_world([follower, leader])
        topo = build_topology(w.vehicles, neighborhoods(w))
        assert evaluation_order(topo, neighbor_index(w)) == [1, 0]

    def test_unconstrained_order_is_descending_position(self):
        vehicles = [
            make_vehicle(0, 300.0, 20.0),
            make_vehicle(1, 100.0, 20.0),
            make_vehicle(2, 200.0, 20.0),
        ]
        from mergeshield.topology import InteractionTopology

        topo = InteractionTopology(entries={0: (), 1: (), 2: ()})
        assert evaluation_order(topo, neighbor_index(make_world(vehicles))) == [0, 2, 1]

    def test_matches_descending_position_sort_with_ties(self):
        # x on a 5 m grid, so many vehicles share a position; the reversed
        # fleet order must equal a plain front-to-back sort, ties by id
        rng = np.random.default_rng(23)
        road = RoadNetwork()
        ties = 0
        for _ in range(200):
            vehicles = random_snapshot(rng, road)
            for v in vehicles:
                v.state = v.state._replace(x=5.0 * float(rng.integers(0, 8)))
            vehicles = [vehicles[i] for i in rng.permutation(len(vehicles))]
            w = make_world(vehicles, road=road)
            expected = [v.vid for v in sorted(vehicles, key=lambda v: (-v.state.x, v.vid))]
            topo = build_topology(vehicles, neighborhoods(w))
            assert evaluation_order(topo, neighbor_index(w)) == expected
            ties += len(vehicles) - len({v.state.x for v in vehicles})
        assert ties > 0

    def test_parents_always_evaluated_first(self):
        rng = np.random.default_rng(55)
        road = RoadNetwork()
        for _ in range(100):
            vehicles = random_snapshot(rng, road)
            w = make_world(vehicles, road=road)
            topo = build_topology(vehicles, neighborhoods(w))
            order = evaluation_order(topo, neighbor_index(w))
            index = {vid: i for i, vid in enumerate(order)}
            for vid, parents in topo.entries.items():
                for pid in parents:
                    assert index[pid] < index[vid]

    def test_cycle_detection_is_defensive(self):
        from mergeshield.topology import InteractionTopology

        a = make_vehicle(0, 100.0, 20.0)
        b = make_vehicle(1, 130.0, 20.0)
        bogus = InteractionTopology(entries={0: (1,), 1: (0,)})
        index = neighbor_index(make_world([a, b]))
        with pytest.raises(RuntimeError, match="parent-ahead"):
            evaluation_order(bogus, index)
        with pytest.raises(RuntimeError, match="parent-ahead"):
            evaluation_order(InteractionTopology(entries={0: (0,)}), index)
