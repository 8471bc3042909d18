"""Deterministic on-ramp merging simulator with a cooperative CBF safety shield.

The package simulates connected vehicles crossing a single-lane highway with an
on-ramp acceleration lane.  A per-step safety shield filters behavioural
decisions through control-barrier-function constraints solved as tiny QPs,
either assuming worst-case behaviour of surrounding vehicles (``hss``) or
consuming the already-resolved safe controls of parent vehicles from an
interaction topology (``mass``).
"""

__version__ = "0.1.0"

from mergeshield.dynamics import VehicleParams, VehicleState, step
from mergeshield.world import BehaviorAction

__all__ = [
    "BehaviorAction",
    "VehicleParams",
    "VehicleState",
    "step",
    "__version__",
]
