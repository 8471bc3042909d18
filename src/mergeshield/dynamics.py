"""Point-mass vehicle dynamics and fixed-step state integration.

A vehicle is a point mass in the global frame that accelerates along its
heading ``psi``.  The integrator never turns the vehicle: :func:`maneuver`
turns the velocity and heading toward a lane centreline, keeping the speed,
and ``step`` accelerates along that heading.  Integration is explicit
forward Euler at a fixed ``dt``: positions use the pre-step velocities, so
a speed command issued this step moves the vehicle only from the next step
on.  The shield predicts the next gap with this same step: each vehicle
travels ``v_x * dt`` of its maneuvered state, known before any command.

A :class:`VehicleState` is a named tuple that stores its planar speed once,
when it is built: every layer reads the speed several times per step.
Each way of making a state, including ``_replace``, ``_make``, pickling and
copying, goes through the constructor, so the stored speed always matches
the velocity components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = ["VehicleParams", "VehicleState", "check_floats", "obeys_float_rule", "maneuver",
           "step"]

#: lateral speed of a lane-change maneuver [m/s]
LANE_CHANGE_LATERAL_SPEED = 2.0
#: lateral speed used to recentre on the lane after a maneuver [m/s]
RECENTER_LATERAL_SPEED = 0.5

#: magnitudes a nonzero physical float may have.  Every float is a
#: quantity in SI units; the shield counts braking steps of ``|a_min| * dt``
#: and squares them, which a NaN, an infinity or a magnitude far outside
#: this range carries out of the float range.
FLOAT_MAGNITUDES = (1e-9, 1e9)
#: the float rule, worded as every error that applies it says it
FLOAT_RULE = "a finite float, 0 or of magnitude {:g} to {:g}".format(*FLOAT_MAGNITUDES)


def obeys_float_rule(value) -> bool:
    """True iff the number ``value`` is 0 or of a magnitude in
    :data:`FLOAT_MAGNITUDES`, which no infinity or NaN is."""
    lo, hi = FLOAT_MAGNITUDES
    return value == 0 or lo <= abs(value) <= hi


def check_floats(config, positive: tuple = ()) -> None:
    """Raise ``ValueError`` naming the first float or float-pair field of
    the dataclass ``config`` that breaks the float rule, as YAML input may
    not either, then the first field named in ``positive`` that is not
    above 0."""
    for f in fields(config):
        value = getattr(config, f.name)
        values = value if f.type == "tuple" else (value,) if f.type == "float" else ()
        if not all(map(obeys_float_rule, values)):
            raise ValueError(f"{f.name} must be {FLOAT_RULE}, got {value!r}")
    for name in positive:
        if not getattr(config, name) > 0:
            raise ValueError(f"{name} must be positive, got {getattr(config, name)}")


@dataclass(frozen=True)
class VehicleParams:
    """Physical limits of one vehicle.

    ``length`` and ``width`` are the rectangle collision footprint.
    """

    length: float = 5.0
    width: float = 2.0
    a_max: float = 5.0
    a_min: float = -5.0
    v_cap: float = 40.0

    def __post_init__(self):
        check_floats(self, ("length", "width", "v_cap"))
        if not (self.a_min < 0 < self.a_max):
            raise ValueError(f"need a_min < 0 < a_max, got [{self.a_min}, {self.a_max}]")


class _StateFields(NamedTuple):
    x: float
    y: float
    v_x: float
    v_y: float
    psi: float
    speed: float


#: the constructor's arguments: every field but ``speed``
_INPUTS = _StateFields._fields[:5]


class VehicleState(_StateFields):
    """Planar kinematic state: positions, velocity components, heading, and
    the planar speed ``hypot(v_x, v_y)``.

    Built from ``x, y, v_x, v_y, psi`` alone, by position or keyword; the
    speed is computed once, here, and cannot be passed in.  ``_replace``,
    ``_make`` (which takes the five inputs) and ``__getnewargs__`` (used by
    ``pickle`` and ``copy``) all go through this constructor, so no path
    keeps a speed that no longer matches ``v_x`` and ``v_y``.
    """

    __slots__ = ()

    def __new__(cls, x: float = 0.0, y: float = 0.0, v_x: float = 0.0, v_y: float = 0.0,
                psi: float = 0.0):
        return tuple.__new__(cls, (x, y, v_x, v_y, psi, math.hypot(v_x, v_y)))

    @classmethod
    def _make(cls, iterable) -> "VehicleState":
        return cls(*iterable)

    def _replace(self, /, **changes) -> "VehicleState":
        state = self._make(map(changes.pop, _INPUTS, self))
        if changes:
            raise ValueError(f"cannot replace {sorted(changes)}; "
                             f"a VehicleState is built from {_INPUTS}")
        return state

    def __getnewargs__(self) -> tuple:
        return self[:5]


def maneuver(state: VehicleState, target_y: float, changing: bool, dt: float) -> VehicleState:
    """``state`` turned toward the centreline at ``target_y``, keeping its speed.

    A vehicle ``changing`` lanes heads there at the lane-change lateral
    speed; a settled one recentres gently and snaps exactly onto it once
    close, keeping states bit-stable.  The lateral speed is at most
    ``0.7 * speed`` and what reaches the centreline within ``dt``.
    """
    speed = state.speed
    dy = target_y - state.y

    if changing:
        v_lat_mag = LANE_CHANGE_LATERAL_SPEED
    else:
        if abs(dy) < 0.02:
            if state.y == target_y and state.v_y == 0.0 and state.psi == 0.0:
                return state
            return VehicleState(state.x, target_y, speed, 0.0, 0.0)
        v_lat_mag = RECENTER_LATERAL_SPEED
    # min(v_lat_mag, 0.7 * speed, abs(dy) / dt), left to right
    bound = 0.7 * speed
    if bound < v_lat_mag:
        v_lat_mag = bound
    bound = abs(dy) / dt
    if bound < v_lat_mag:
        v_lat_mag = bound

    v_y = math.copysign(v_lat_mag, dy) if dy != 0.0 else 0.0
    v_x2 = speed * speed - v_y * v_y
    v_x = math.sqrt(0.0 if 0.0 > v_x2 else v_x2)
    psi = math.atan2(v_y, v_x) if speed > 0.0 else 0.0
    return VehicleState(state.x, state.y, v_x, v_y, psi)


def step(state: VehicleState, params: VehicleParams, a: float, dt: float) -> VehicleState:
    """One explicit forward-Euler step under acceleration ``a`` along the
    heading.

    Positions advance with the pre-step velocity components and the heading
    passes through unchanged.  The resulting speed is saturated at
    ``params.v_cap`` by rescaling the velocity vector.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")

    x = state.x + state.v_x * dt
    y = state.y + state.v_y * dt
    v_x = state.v_x + a * math.cos(state.psi) * dt
    v_y = state.v_y + a * math.sin(state.psi) * dt

    speed = math.hypot(v_x, v_y)
    if speed > params.v_cap:
        scale = params.v_cap / speed
        v_x *= scale
        v_y *= scale

    return VehicleState(x, y, v_x, v_y, state.psi)
