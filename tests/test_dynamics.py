import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeshield.dynamics import VehicleParams, VehicleState, step


def euler_reference(state, a, dt):
    """Independent line-by-line evaluation of the model equations."""
    return VehicleState(
        x=state.x + state.v_x * dt,
        y=state.y + state.v_y * dt,
        v_x=state.v_x + a * math.cos(state.psi) * dt,
        v_y=state.v_y + a * math.sin(state.psi) * dt,
        psi=state.psi,
    )


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
