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
