import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeshield.dynamics import (
    LANE_CHANGE_LATERAL_SPEED,
    RECENTER_LATERAL_SPEED,
    VehicleParams,
    VehicleState,
    maneuver,
    step,
)

from conftest import assert_speed_exact


def euler_reference(state, a, dt):
    """Independent line-by-line evaluation of the model equations."""
    return VehicleState(
        x=state.x + state.v_x * dt,
        y=state.y + state.v_y * dt,
        v_x=state.v_x + a * math.cos(state.psi) * dt,
        v_y=state.v_y + a * math.sin(state.psi) * dt,
        psi=state.psi,
    )


def heading(x, y, v, psi=0.0):
    """A state at ``(x, y)`` moving at speed ``v`` along heading ``psi``."""
    return VehicleState(x, y, v * math.cos(psi), v * math.sin(psi), psi)


class TestManeuver:
    def test_keeps_the_speed_exact(self):
        settled = heading(100.0, 0.0, 20.0)
        assert maneuver(settled, 0.0, False, 0.1) is settled
        snapping = heading(130.0, 0.013, 21.3, psi=0.004)
        snapped = maneuver(snapping, 0.0, False, 0.1)
        assert (snapped.y, snapped.v_y, snapped.psi) == (0.0, 0.0, 0.0)
        assert snapped.v_x == snapping.speed
        recentring = heading(160.0, -0.4, 22.7, psi=-0.01)
        changing = heading(210.0, 4.0, 19.1)
        for state, is_changing in ((recentring, False), (changing, True)):
            turned = maneuver(state, 0.0, is_changing, 0.1)
            assert turned.v_y != 0.0 and turned.psi != state.psi
            assert_speed_exact(turned)
        assert_speed_exact(snapped)

    @pytest.mark.parametrize("speed, changing, target_y, bound", [
        (20.0, True, 0.0, "maneuver"),
        (20.0, False, 3.0, "maneuver"),
        (1.0, True, 0.0, "speed"),
        (0.5, False, 3.0, "speed"),
        (20.0, True, 3.9, "distance"),
        (20.0, False, 3.97, "distance"),
    ])
    def test_lateral_speed_is_the_least_of_its_three_bounds(self, speed, changing, target_y,
                                                            bound):
        # the maneuver's own lateral speed, 0.7 of the speed, and the speed
        # that reaches the centreline within one step
        state = heading(50.0, 4.0, speed)
        dt = 0.1
        bounds = {
            "maneuver": LANE_CHANGE_LATERAL_SPEED if changing else RECENTER_LATERAL_SPEED,
            "speed": 0.7 * speed,
            "distance": abs(target_y - state.y) / dt,
        }
        assert min(bounds.values()) == bounds[bound]
        turned = maneuver(state, target_y, changing, dt)
        assert turned.v_y == -bounds[bound]
        assert turned.v_x == math.sqrt(speed * speed - turned.v_y * turned.v_y)
        assert turned.psi == math.atan2(turned.v_y, turned.v_x)
        assert (turned.x, turned.y) == (state.x, state.y)


class TestStep:
    def test_straight_coasting(self):
        s = VehicleState(x=0.0, v_x=25.0)
        out = step(s, VehicleParams(), 0.0, dt=0.1)
        assert out == VehicleState(x=2.5, y=0.0, v_x=25.0, v_y=0.0, psi=0.0)

    def test_pure_longitudinal_acceleration(self):
        s = VehicleState(v_x=20.0)
        out = step(s, VehicleParams(), 2.0, dt=0.1)
        assert out.v_x == pytest.approx(20.2)
        assert out.v_y == 0.0
        assert out.psi == 0.0

    def test_matches_reference_on_random_states(self):
        rng = np.random.default_rng(7)
        params = VehicleParams()
        for _ in range(200):
            s = VehicleState(
                x=float(rng.uniform(-100, 100)),
                y=float(rng.uniform(-10, 10)),
                v_x=float(rng.uniform(0, 30)),
                v_y=float(rng.uniform(-3, 3)),
                psi=float(rng.uniform(-0.3, 0.3)),
            )
            a = float(rng.uniform(-5, 5))
            out = step(s, params, a, dt=0.1)
            ref = euler_reference(s, a, 0.1)
            if ref.speed <= params.v_cap:
                for field in ("x", "y", "v_x", "v_y", "psi"):
                    assert getattr(out, field) == pytest.approx(getattr(ref, field), abs=1e-12)

    def test_deterministic(self):
        s = VehicleState(x=1.0, y=2.0, v_x=17.3, v_y=0.2, psi=0.05)
        first = step(s, VehicleParams(), 1.7, dt=0.1)
        second = step(s, VehicleParams(), 1.7, dt=0.1)
        assert first == second

    @given(
        v_x=st.floats(min_value=0, max_value=45),
        v_y=st.floats(min_value=-5, max_value=5),
        a=st.floats(min_value=-5, max_value=5),
        psi=st.floats(min_value=-0.7, max_value=0.7),
    )
    def test_speed_never_exceeds_cap(self, v_x, v_y, a, psi):
        params = VehicleParams(v_cap=40.0)
        s = VehicleState(v_x=v_x, v_y=v_y, psi=psi)
        out = step(s, params, a, dt=0.1)
        assert out.speed <= params.v_cap + 1e-9

    @given(
        v_x=st.floats(min_value=0, max_value=35),
        psi=st.floats(min_value=-0.4, max_value=0.4),
    )
    def test_coasting_preserves_velocity(self, v_x, psi):
        s = VehicleState(v_x=v_x, v_y=0.5, psi=psi)
        out = step(s, VehicleParams(), 0.0, dt=0.1)
        assert out.v_x == s.v_x
        assert out.v_y == s.v_y
        assert out.psi == s.psi

    def test_euler_consistency_under_dt_halving(self):
        # halving dt and stepping twice differs from one full step by O(dt^2)
        rng = np.random.default_rng(11)
        params = VehicleParams()
        for _ in range(100):
            s = VehicleState(
                x=float(rng.uniform(-50, 50)),
                y=float(rng.uniform(-5, 5)),
                v_x=float(rng.uniform(1, 30)),
                v_y=float(rng.uniform(-2, 2)),
                psi=float(rng.uniform(-0.2, 0.2)),
            )
            a = float(rng.uniform(-4, 4))
            dt = 0.1
            full = step(s, params, a, dt)
            halves = step(step(s, params, a, dt / 2), params, a, dt / 2)
            for field in ("x", "y", "v_x", "v_y", "psi"):
                err = abs(getattr(full, field) - getattr(halves, field))
                assert err <= 5.0 * dt * dt

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            step(VehicleState(), VehicleParams(), 0.0, dt=0.0)


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            VehicleParams(length=0.0)
        with pytest.raises(ValueError):
            VehicleParams(a_min=1.0)
        with pytest.raises(ValueError):
            VehicleParams(v_cap=-1.0)


def random_inputs(rng):
    return (float(rng.uniform(-100, 100)), float(rng.uniform(-10, 10)),
            float(rng.uniform(-5, 45)), float(rng.uniform(-5, 5)), float(rng.uniform(-0.7, 0.7)))


class TestVehicleState:
    """A state stores its speed once, when built; every way of building one
    goes through the constructor, so the speed never goes stale."""

    def test_positional_and_keyword_construction(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x, y, v_x, v_y, psi = random_inputs(rng)
            by_position = VehicleState(x, y, v_x, v_y, psi)
            by_keyword = VehicleState(psi=psi, v_y=v_y, v_x=v_x, y=y, x=x)
            assert by_position == by_keyword
            assert by_position[:5] == (x, y, v_x, v_y, psi)
            assert_speed_exact(by_position)
        assert VehicleState() == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert VehicleState(v_x=3.0, v_y=-4.0).speed == 5.0

    def test_speed_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            VehicleState(x=1.0, v_x=3.0, speed=99.0)
        with pytest.raises(TypeError):
            VehicleState(1.0, 0.0, 3.0, 0.0, 0.0, 99.0)
        with pytest.raises(ValueError):
            VehicleState(v_x=3.0)._replace(speed=99.0)
        with pytest.raises(TypeError):
            VehicleState._make((1.0, 0.0, 3.0, 0.0, 0.0, 99.0))

    def test_replace_recomputes_the_speed(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            s = VehicleState(*random_inputs(rng))
            v_x = float(rng.uniform(-5, 45))
            moved = s._replace(v_x=v_x)
            assert moved[:5] == (s.x, s.y, v_x, s.v_y, s.psi)
            assert_speed_exact(moved)
            assert s._replace(x=s.x + 1.0).speed == s.speed
            assert s._replace() == s
        with pytest.raises(ValueError):
            s._replace(heading=0.0)

    def test_make_takes_the_five_inputs(self):
        s = VehicleState._make(iter((1.0, 2.0, 6.0, -8.0, 0.1)))
        assert s == VehicleState(1.0, 2.0, 6.0, -8.0, 0.1)
        assert s.speed == 10.0

    def test_step_stores_the_speed_of_its_result(self):
        # a high cap and a low one, so both the plain step and the v_cap
        # rescale are exercised
        rng = np.random.default_rng(33)
        rescaled = 0
        for v_cap in (40.0, 20.0):
            params = VehicleParams(v_cap=v_cap)
            for _ in range(200):
                x, y, v_x, v_y, psi = random_inputs(rng)
                s = VehicleState(x, y, abs(v_x), v_y, psi)
                a = float(rng.uniform(-5, 5))
                assert_speed_exact(step(s, params, a, dt=0.1))
                rescaled += euler_reference(s, a, 0.1).speed > v_cap
        assert rescaled > 0

    @pytest.mark.parametrize("v_cap, v_x", [
        (st.just(100.0), st.floats(-45, 45)),  # out of reach: never rescaled
        (st.floats(0.5, 5.0), st.floats(10, 45)),  # always rescaled
    ], ids=["under-the-cap", "over-the-cap"])
    @given(data=st.data())
    def test_step_builds_what_the_constructor_builds(self, data, v_cap, v_x):
        # under the cap, step builds its state with tuple.__new__ and the
        # speed of its own cap test: it must be the constructor's, bit for bit
        draw = data.draw
        s = VehicleState(draw(st.floats(-1e3, 1e3)), draw(st.floats(-10, 10)), draw(v_x),
                         draw(st.floats(-5, 5)), draw(st.floats(-0.7, 0.7)))
        cap = draw(v_cap)
        out = step(s, VehicleParams(v_cap=cap), draw(st.floats(-5, 5)), dt=0.1)
        assert type(out) is VehicleState
        assert [v.hex() for v in out] == [v.hex() for v in VehicleState(*out[:5])]
        assert out.speed < cap if cap == 100.0 else out.speed == pytest.approx(cap)

    @pytest.mark.parametrize("round_trip", [
        lambda s: pickle.loads(pickle.dumps(s)),
        lambda s: pickle.loads(pickle.dumps(s, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"])
    def test_pickle_and_copy_rebuild_through_the_constructor(self, round_trip):
        rng = np.random.default_rng(34)
        for _ in range(50):
            s = VehicleState(*random_inputs(rng))
            back = round_trip(s)
            assert type(back) is VehicleState
            assert back == s
            assert_speed_exact(back)
        assert s.__getnewargs__() == tuple(s)[:5]
