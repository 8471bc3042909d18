"""Reference oracles for the shield, independent of its closed forms.

* A clamp reference states what ``shield.solve_qp`` returns from the rule
  itself: of the candidate commands in the (pinned) box, the one with the
  least floor shortfall, and of those the one nearest the nominal, both
  measured in exact rational arithmetic.
* A bisection finds the braking-feasibility cap from ``brake_margin`` signs.
* A full scan takes the braking-feasibility cap as the smallest per-step
  root over every braking step, the closed form before its candidate set.
"""

import math
from fractions import Fraction


def clamp_reference(v_nom, floors, lo, hi, hi_label="reach_hi"):
    """``(v_safe, slack, active, fault)`` for the command ``v_nom``, at most
    one soft floor ``shield.Row`` and the box ``[lo, hi]``.

    A box empty by more than ``shield.FEAS_TOL`` is a fault at ``lo``; one
    empty by less is pinned to ``lo``.  Otherwise the command minimises
    ``(max(0, floor - v), |v - v_nom|)`` in that order over the box; the
    minimiser is one of ``lo``, ``hi``, ``v_nom`` and the floor, so those
    are the candidates.  The slack is the floor's shortfall there.  The
    top binds when the nominal or the floor lies above it; the floor, or
    ``reach_lo`` when no floor lies strictly above ``lo``, binds when it
    lies above the command, or on it with the nominal below.
    """
    from mergeshield.shield import FEAS_TOL

    if lo > hi + FEAS_TOL:
        return lo, 0.0, ("fault",), True
    hi = max(lo, hi)
    floor, label = lo, "reach_lo"
    for row in floors:
        if row.floor > lo:
            floor, label = row.floor, row.label
    exact = Fraction(floor)

    def key(v):
        return max(Fraction(0), exact - Fraction(v)), abs(Fraction(v) - Fraction(v_nom))

    v = min((c for c in (lo, hi, v_nom, floor) if lo <= c <= hi), key=key)
    active = ()
    if max(v_nom, floor) > hi:
        active += (hi_label,)
    if floor > v or (floor == v and v_nom < floor):
        active += (label,)
    return v, float(key(v)[0]), active, False


def bisect_cap(margin_at, v_hi):
    """Largest ``v`` in ``[0, v_hi]`` with ``margin_at(v) >= 0`` by 50
    bisection steps, assuming the margin falls with ``v``; None when
    ``v_hi`` itself is fine and 0.0 when 0 is not."""
    if margin_at(v_hi) >= 0.0:
        return None
    if margin_at(0.0) < 0.0:
        return 0.0
    lo, hi = 0.0, v_hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if margin_at(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _travel(v0, m, k, dv):
    """Summed speeds (travel over ``dt``) of ``k`` braking steps from ``v0``
    by a vehicle that stops after ``m`` steps."""
    kk = min(k, m)
    return kk * v0 - dv * kk * (kk - 1) * 0.5


def scan_cap(gap, v_hi, v_lead, brake, tau, dt):
    """``shield.brake_cap`` by scanning every braking step
    ``k = 0..ceil(v_hi / dv)`` for the smallest per-step root."""
    from mergeshield.shield import brake_margin

    if brake_margin(gap, v_hi, v_lead, brake, tau, dt) >= 0.0:
        return v_hi
    dv = brake * dt
    m_l = math.ceil(v_lead / dv - 1e-12) if v_lead > 0.0 else 0
    cap = v_hi
    for k in range(math.ceil(v_hi / dv) + 1):
        kink = k * dv
        a = gap + dt * (_travel(v_lead, m_l, k, dv) + dv * k * (k - 1) * 0.5)
        b = dt * k
        if a - b * kink >= 0.0:
            root = (a + tau * kink) / (b + tau)
        elif b > 0.0:
            root = a / b
        else:  # k = 0: the gap itself is negative
            return 0.0
        cap = min(cap, root)
    return max(cap, 0.0)
