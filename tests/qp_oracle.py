"""Reference oracles for the shield, independent of its closed forms.

The shield's QP has one speed command ``v`` and one slack: minimise
``(v - v_nom)^2 + k_eps * slack`` over a box, speed caps and at most one
soft floor.  ``shield.solve_qp`` solves it for a weight large enough that
the floor holds whenever the box allows; the oracles take the weight as
an argument.

* A grid oracle evaluates that objective pointwise: at a point v the
  optimal slack is the largest soft-row violation, or 0.  The search runs
  a dense grid over the decision box, augmented with the analytic row
  boundaries (where kinks can sit), then refines around the incumbent.
* An exact active-set enumerator solves the same QP through the KKT
  system of every candidate active set.
* A bisection finds the braking-feasibility cap from ``brake_margin`` signs.
* A full scan takes the braking-feasibility cap as the smallest per-step
  root over every braking step, the closed form before its candidate set.

The grid and the enumerator take halfspaces :class:`AffineRow`;
:func:`affine_rows` states a shield instance (its caps, soft floor and
reachability box) in that form, the caps as hard rows.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AffineRow:
    """Halfspace ``a * v + s * slack <= q``: ``s`` is 0 for a hard row and
    negative for a soft one."""

    a: float
    s: float
    q: float
    label: str


def affine_rows(caps, floors, lo, hi):
    """One instance as :class:`AffineRow` halfspaces: its box ``[lo, hi]``
    first, then each cap ``(a, q, label)`` meaning ``a * v <= q`` as a
    hard row, then each soft floor ``shield.Row``."""
    box = [AffineRow(1.0, 0.0, hi, "reach_hi"), AffineRow(-1.0, 0.0, -lo, "reach_lo")]
    return (box + [AffineRow(a, 0.0, q, label) for a, q, label in caps]
            + [AffineRow(r.a, -1.0, r.q, r.label) for r in floors])


def _split_rows(rows):
    """The hard and the soft rows as ``(a, q)`` pairs, a soft one scaled to
    slack coefficient -1."""
    hard, soft = [], []
    for r in rows:
        if r.s == 0.0:
            hard.append((r.a, r.q))
        else:
            soft.append((r.a / -r.s, r.q / -r.s))
    return hard, soft


def oracle_objective_at(points, v_nom, hard, soft, k_eps):
    """Objective per point, +inf where hard rows fail."""
    pts = np.asarray(points, dtype=float)
    eps = np.zeros(len(pts))
    for a, q in soft:
        eps = np.maximum(eps, a * pts - q)
    obj = (pts - v_nom) ** 2 + k_eps * eps
    for a, q in hard:
        obj = np.where(a * pts <= q + 1e-9, obj, np.inf)
    return obj


def grid_search_min(v_nom, rows, k_eps, box=(0.0, 40.0), resolution=1e-3):
    """Minimum objective over the decision box by a grid at ``resolution``
    plus every row boundary, refined around the incumbent.  Returns
    (objective, point) with objective == inf and point None when no
    feasible point exists."""
    hard, soft = _split_rows(rows)
    lo, hi = box
    extra = [lo, hi, min(max(v_nom, lo), hi)]
    extra += [q / a for a, q in hard + soft if a != 0.0 and lo <= q / a <= hi]
    pts = np.concatenate([np.arange(lo, hi + resolution / 2, resolution), extra])
    obj = oracle_objective_at(pts, v_nom, hard, soft, k_eps)
    best = int(np.argmin(obj))
    best_obj, best_pt = float(obj[best]), float(pts[best])
    if not np.isfinite(best_obj):
        return best_obj, None
    width = resolution
    for _ in range(8):
        local = np.clip(np.linspace(best_pt - width, best_pt + width, 81), lo, hi)
        lobj = oracle_objective_at(local, v_nom, hard, soft, k_eps)
        i = int(np.argmin(lobj))
        if lobj[i] < best_obj:
            best_obj, best_pt = float(lobj[i]), float(local[i])
        width /= 20.0
    return best_obj, best_pt


@dataclass(frozen=True)
class EnumeratedSolution:
    v_safe: float
    slack: float
    active: tuple
    objective: float


def enumerate_qp(v_nom, rows, k_eps):
    """Minimise ``(v - v_nom)^2 + k_eps * slack`` subject to the rows by
    exact active-set enumeration: every candidate active set is solved in
    closed form through its KKT system, and the feasible candidate (within
    1e-9) with the lowest objective wins.  Each candidate's slack is the
    largest soft-row violation at its point, or 0, and its objective is
    taken with that slack.  Raises ``ShieldFault`` when no candidate is
    feasible.
    """
    from mergeshield.shield import ShieldFault

    rows = list(rows) + [AffineRow(0.0, -1.0, 0.0, "slack_nonneg")]
    H = np.diag([2.0, 0.0])
    c_lin = np.array([-2.0 * v_nom, k_eps])
    G = np.array([(r.a, r.s) for r in rows])
    h = np.array([r.q for r in rows])
    soft = G[:, 1] != 0.0  # the soft rows and slack_nonneg

    best = None
    for size in (1, 2):
        for subset in itertools.combinations(range(len(rows)), size):
            G_a = G[list(subset)]
            kkt = np.zeros((2 + size, 2 + size))
            kkt[:2, :2] = H
            kkt[:2, 2:] = G_a.T
            kkt[2:, :2] = G_a
            rhs = np.concatenate([-c_lin, h[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
                # one step of iterative refinement: multipliers of order
                # k_eps otherwise leave the point about 1e-10 off its rows
                sol += np.linalg.solve(kkt, rhs - kkt @ sol)
            except np.linalg.LinAlgError:
                continue
            z = sol[:2]
            if np.any(sol[2:] < -1e-9):
                continue
            if np.any(G @ z > h + 1e-9):
                continue
            v = float(z[0])
            # the cheapest slack at v, so that k_eps does not lift the solve's
            # round-off in z[1] into the objective
            eps = max(0.0, float(np.max((G[soft, 0] * v - h[soft]) / -G[soft, 1])))
            obj = (v - v_nom) ** 2 + k_eps * eps
            if best is None or obj < best.objective - 1e-12:
                best = EnumeratedSolution(v_safe=v, slack=eps,
                                          active=tuple(rows[j].label for j in subset),
                                          objective=obj)
    if best is None:
        raise ShieldFault("no feasible candidate")
    return best


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


#: the slack weight the oracles price the soft floor at.  Every drawn floor
#: has ``|a| >= 0.01``, so the slack's stationary point
#: ``v_nom - K_EPS * a / 2`` lies thousands above every box: there the
#: weighted QP's optimum is the shield's rule, the floor whenever the box
#: reaches it and else the box top
K_EPS = 1e6


def check_scalar_instance(v_nom, caps, floors, lo, hi, tol_obj=1e-6):
    """Verify ``shield.solve_qp`` on one instance of caps ``(a, q, label)``
    and soft floors in the box ``[lo, hi]``; returns the solution, or None
    for a consistently infeasible instance.

    The solver gets the caps as the shield hands them over, folded into
    the box top ``min(q / a)``; the grid and the enumerator get them as
    hard rows and price the slack at :data:`K_EPS`.  The solver's point
    keeps the hard rows and follows the floor rule: with a floor above the
    (pinned) box top it is that top, with the floor's shortfall as slack,
    and otherwise the nominal clamped into the box above the floor, with
    no slack.  The dense grid plus boundary candidates pins the optimum,
    so the objective at the solver's point must agree with the grid's
    within ``tol_obj`` both ways, and with the enumerator's objective at
    the enumerator's point within 1e-9 relative.
    """
    from mergeshield.shield import ShieldFault, solve_qp

    affine = affine_rows(caps, floors, lo, hi)
    hard, soft = _split_rows(affine)
    oracle_obj, _ = grid_search_min(v_nom, affine, K_EPS)
    top, top_label = hi, "reach_hi"
    for a, q, label in caps:
        if q / a < top:
            top, top_label = q / a, label
    try:
        sol = solve_qp(v_nom, floors, lo, top, top_label)
    except ShieldFault:
        assert not np.isfinite(oracle_obj), "solver infeasible but oracle found a point"
        return None
    assert np.isfinite(oracle_obj), "oracle infeasible but solver returned a point"
    top = max(top, lo)
    floor = max([lo] + [r.q / r.a for r in floors])
    if floor > top:
        (row,) = floors
        assert (sol.v_safe, sol.slack) == (top, max(0.0, row.a * top - row.q))
    else:
        assert (sol.v_safe, sol.slack) == (min(max(v_nom, floor), top), 0.0)
    objective = oracle_objective_at([sol.v_safe], v_nom, hard, soft, K_EPS)[0]
    assert np.isfinite(objective), "solver point violates hard rows"
    scale = 1.0 + abs(objective)
    assert objective <= oracle_obj + tol_obj * scale
    assert oracle_obj <= objective + tol_obj * scale
    # compare true objectives at both points: the enumerator's point may sit
    # about 1e-12 off the scalar solver's
    enumerated = enumerate_qp(v_nom, affine, K_EPS)
    at_enumerated = oracle_objective_at([enumerated.v_safe], v_nom, hard, soft, K_EPS)[0]
    assert abs(at_enumerated - objective) <= 1e-9 * scale
    return sol
