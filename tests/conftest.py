import math

import numpy as np
import pytest

from mergeshield.dynamics import VehicleParams, VehicleState
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig, Vehicle, World, neighbors, spawn


def assert_speed_exact(state):
    """The stored speed is ``hypot(v_x, v_y)`` of the stored components, bit
    for bit."""
    assert state.speed.hex() == math.hypot(state.v_x, state.v_y).hex()


@pytest.fixture
def road():
    return RoadNetwork()


def make_vehicle(vid, x, v, lane=0, road=None, y=None, psi=0.0, target_lane=None,
                 params=None, spawned_on_ramp=None):
    road = road or RoadNetwork()
    params = params or VehicleParams()
    y = road.centerline_y(lane) if y is None else y
    v_x = v * math.cos(psi)
    v_y = v * math.sin(psi)
    return Vehicle(
        vid=vid,
        state=VehicleState(x=x, y=y, v_x=v_x, v_y=v_y, psi=psi),
        params=params,
        lane=lane,
        target_lane=lane if target_lane is None else target_lane,
        spawned_on_ramp=(lane == road.ramp_lane) if spawned_on_ramp is None else spawned_on_ramp,
    )


def make_world(vehicles, road=None, scenario=None, shield_mode="mass", **shield_kw):
    road = road or RoadNetwork()
    scenario = scenario or ScenarioConfig()
    shield = ShieldConfig(mode=shield_mode, **shield_kw)
    return World(road=road, scenario=scenario, shield=shield, vehicles=list(vehicles))


def neighborhoods(world):
    """Each live vehicle's ``Neighborhood`` by vid: the map ``step_world``
    hands the topology and the shield."""
    return {v.vid: neighbors(world, v) for v in world.live_vehicles()}


def spawned_world(seed=0, shield_mode="mass", **scenario_kw):
    scenario = ScenarioConfig(**scenario_kw)
    road = RoadNetwork()
    rng = np.random.default_rng(seed)
    vehicles = spawn(scenario, road, rng)
    return World(road=road, scenario=scenario, shield=ShieldConfig(mode=shield_mode),
                 vehicles=vehicles)


def is_ahead(a, b):
    """Total longitudinal order: greater arc x, ties broken by smaller id."""
    if a.state.x != b.state.x:
        return a.state.x > b.state.x
    return a.vid < b.vid


def brute_force_neighbors(world, ego):
    """O(n^2) rescan of the neighbour definitions; the adjacent lane is
    the other of the road's two lanes."""
    comm = world.scenario.comm_range
    adj = 1 - ego.lane
    ol = oal = oar = None
    for o in world.vehicles:
        if o.vid == ego.vid:
            continue
        if math.hypot(o.state.x - ego.state.x, o.state.y - ego.state.y) > comm:
            continue
        if o.lane == ego.lane and is_ahead(o, ego):
            if ol is None or is_ahead(ol, o):
                ol = o
        if o.lane == adj:
            if is_ahead(o, ego):
                if oal is None or is_ahead(oal, o):
                    oal = o
            elif oar is None or is_ahead(o, oar):
                oar = o
    return ol, oal, oar


def brute_force_reach(world, ego):
    """In-range others sorted by (distance, vid), from a scan of the fleet."""
    found = []
    for o in world.vehicles:
        d = math.hypot(o.state.x - ego.state.x, o.state.y - ego.state.y)
        if o.vid != ego.vid and d <= world.scenario.comm_range:
            found.append((d, o.vid, o))
    found.sort(key=lambda t: (t[0], t[1]))
    return [o for _, _, o in found]


def brute_force_perceived(world, ego):
    """:func:`brute_force_reach` truncated to perception_n."""
    return brute_force_reach(world, ego)[: world.scenario.perception_n]


def random_layout(rng, road, comm):
    """Random fleet with ties in x, off-centreline y, vehicles mid-change and
    crashed vehicles, plus two isolated clusters in which the nearest
    vehicle by x is out of range through its lateral offset alone.

    Returns the vehicles and the walks the clusters force, as
    ``(ego, field, expected vehicle)``.
    """
    xs = rng.uniform(0.0, 400.0, size=5)  # fewer positions than vehicles: ties in x
    vehicles = []
    for vid in range(10):
        lane = int(rng.choice(range(road.ramp_lane + 1)))
        y = None
        if rng.random() < 0.5:
            y = road.centerline_y(lane) + float(rng.uniform(-1.5, 1.5))
        target = int(rng.choice(range(road.ramp_lane + 1))) if rng.random() < 0.3 else lane
        v = make_vehicle(vid, float(rng.choice(xs)), float(rng.uniform(5, 30)),
                         lane=lane, road=road, y=y, target_lane=target)
        v.crashed = bool(rng.random() < 0.2)
        vehicles.append(v)

    def add(x, lane, dy=0.0):
        v = make_vehicle(len(vehicles), x, 20.0, lane=lane, road=road,
                         y=road.centerline_y(0) + dy)
        vehicles.append(v)
        return v

    adj = 1  # the perception-adjacent lane of lane 0
    # forward: hypot(comm - 0.3, 15) > comm >= hypot(comm - 0.2, 1)
    ego = add(-1000.0, 0)
    add(-1000.0 + comm - 0.3, 0, dy=15.0)
    leader = add(-1000.0 + comm - 0.2, 0)
    add(-1000.0 + comm - 0.3, adj, dy=15.0)
    adj_leader = add(-1000.0 + comm - 0.2, adj, dy=1.0)
    # backward, in the adjacent lane
    rear_ego = add(-2000.0, 0)
    add(-2000.0 - comm + 0.3, adj, dy=15.0)
    adj_rear = add(-2000.0 - comm + 0.2, adj, dy=1.0)
    walks = [(ego, "c_ol", leader), (ego, "c_oal", adj_leader), (rear_ego, "c_oar", adj_rear)]
    return vehicles, walks
