"""Reference oracles for the shield, independent of its closed forms.

* A grid oracle evaluates the slack-augmented objective pointwise: for a
  decision point v the optimal shared slack is the largest soft-row
  violation, so the objective is ``||v - v_nom||^2 + k_eps * max(0,
  violations)`` over the hard-feasible set.  The search runs a dense grid
  over the decision box, augmented with the analytic row boundaries (where
  kinks can sit), then refines around the incumbent.
* An exact active-set enumerator solves the same QP over any number of
  speed commands through the KKT system of every candidate active set.
* A bisection finds the braking-feasibility cap from ``brake_margin`` signs.
* A full scan takes the braking-feasibility cap as the smallest per-step
  root over every braking step, the closed form before its candidate set.

The grid and the enumerator take general halfspaces :class:`AffineRow`;
:func:`affine_rows` states a shield instance (its caps, soft floors and
reachability box) in that form, the caps as hard rows.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AffineRow:
    """Halfspace ``p[:-1] . v + p[-1] * slack <= q`` over ``n`` speed
    commands and the shared slack: ``p[-1]`` is 0 for a hard row and
    negative for a soft one."""

    p: tuple
    q: float
    label: str


def affine_rows(caps, floors, lo, hi):
    """One scalar instance as :class:`AffineRow` halfspaces: its box
    ``[lo, hi]`` first, then each cap ``(a, q, label)`` meaning
    ``a * v <= q`` as a hard row, then each soft floor ``shield.Row``."""
    box = [AffineRow((1.0, 0.0), hi, "reach_hi"), AffineRow((-1.0, 0.0), -lo, "reach_lo")]
    return (box + [AffineRow((a, 0.0), q, label) for a, q, label in caps]
            + [AffineRow((r.a, -1.0), r.q, r.label) for r in floors])


def _split_rows(rows, n):
    hard, soft = [], []
    for r in rows:
        p = np.asarray(r.p[:n], dtype=float)
        if r.p[n] == 0.0:
            hard.append((p, r.q))
        else:
            soft.append((p / -r.p[n], r.q / -r.p[n]))
    return hard, soft


def oracle_objective_at(points, v_nom, hard, soft, k_eps):
    """Objective per point, +inf where hard rows fail."""
    pts = np.atleast_2d(points)
    obj = np.sum((pts - np.asarray(v_nom)) ** 2, axis=1)
    eps = np.zeros(len(pts))
    for p, q in soft:
        eps = np.maximum(eps, pts @ p - q)
    eps = np.maximum(eps, 0.0)
    obj = obj + k_eps * eps
    for p, q in hard:
        obj = np.where(pts @ p <= q + 1e-9, obj, np.inf)
    return obj


def grid_search_min(v_nom, rows, k_eps, box=(0.0, 40.0), resolution=1e-3):
    """Minimum objective over the decision box by dense grid search.

    1-D runs the full grid at ``resolution`` plus every row boundary; higher
    dimensions use a coarse grid refined around the incumbent.  Returns
    (objective, point) with objective == inf when no feasible point exists.
    """
    n = len(v_nom)
    hard, soft = _split_rows(rows, n)
    lo, hi = box

    if n == 1:
        pts = np.arange(lo, hi + resolution / 2, resolution)
        extra = [lo, hi, min(max(v_nom[0], lo), hi)]
        for p, q in hard + soft:
            if p[0] != 0.0:
                b = q / p[0]
                if lo <= b <= hi:
                    extra.append(b)
        pts = np.concatenate([pts, np.array(extra)])[:, None]
        obj = oracle_objective_at(pts, v_nom, hard, soft, k_eps)
        best = int(np.argmin(obj))
        best_obj, best_pt = float(obj[best]), pts[best]
        if not np.isfinite(best_obj):
            return best_obj, None
        # refine around the incumbent
        width = resolution
        for _ in range(8):
            local = np.linspace(best_pt[0] - width, best_pt[0] + width, 81)[:, None]
            local = np.clip(local, lo, hi)
            lobj = oracle_objective_at(local, v_nom, hard, soft, k_eps)
            i = int(np.argmin(lobj))
            if lobj[i] < best_obj:
                best_obj, best_pt = float(lobj[i]), local[i]
            width /= 20.0
        return best_obj, best_pt

    axis_pts = 41 if n == 3 else 201
    axes = [np.linspace(lo, hi, axis_pts) for _ in range(n)]
    grid = np.array(list(itertools.product(*axes)))
    obj = oracle_objective_at(grid, v_nom, hard, soft, k_eps)
    best = int(np.argmin(obj))
    best_obj, best_pt = float(obj[best]), grid[best]
    if not np.isfinite(best_obj):
        return best_obj, None
    width = (hi - lo) / (axis_pts - 1)
    for _ in range(10):
        # recentre repeatedly at this width: steep soft-row valleys need a
        # walk along the valley floor before the window shrinks
        for _ in range(60):
            axes = [
                np.clip(np.linspace(best_pt[d] - width, best_pt[d] + width, 13), lo, hi)
                for d in range(n)
            ]
            local = np.array(list(itertools.product(*axes)))
            lobj = oracle_objective_at(local, v_nom, hard, soft, k_eps)
            i = int(np.argmin(lobj))
            if lobj[i] < best_obj - 1e-12:
                best_obj, best_pt = float(lobj[i]), local[i]
            else:
                break
        width /= 4.0
    return best_obj, best_pt


@dataclass(frozen=True)
class EnumeratedSolution:
    v_safe: tuple
    slack: float
    active: tuple
    duals: tuple
    objective: float


def enumerate_qp(v_nom, rows, k_eps):
    """Minimise ``||v - v_nom||^2 + k_eps * slack`` subject to the rows by
    exact active-set enumeration: every candidate active set is solved in
    closed form through its KKT system, and the feasible candidate (within
    1e-9) with the lowest objective wins.  Each candidate's slack is the
    largest soft-row violation at its point, or 0, and its objective is
    taken with that slack.  Raises ``ShieldFault`` when no
    candidate is feasible.
    """
    from mergeshield.shield import ShieldFault

    n = len(v_nom)
    for row in rows:
        if len(row.p) != n + 1:
            raise ValueError(
                f"constraint {row.label!r} has {len(row.p)} coefficients, expected {n + 1}"
            )
    slack_row = AffineRow(p=(0.0,) * n + (-1.0,), q=0.0, label="slack_nonneg")
    rows = list(rows) + [slack_row]

    dim = n + 1
    H = np.zeros((dim, dim))
    for i in range(n):
        H[i, i] = 2.0
    c_lin = np.array([-2.0 * v for v in v_nom] + [k_eps])
    G = np.array([row.p for row in rows])
    h = np.array([row.q for row in rows])
    soft = G[:, n] != 0.0  # the soft rows and slack_nonneg

    best = None
    m = len(rows)
    for size in range(1, min(dim, m) + 1):
        for subset in itertools.combinations(range(m), size):
            G_a = G[list(subset)]
            kkt = np.zeros((dim + size, dim + size))
            kkt[:dim, :dim] = H
            kkt[:dim, dim:] = G_a.T
            kkt[dim:, :dim] = G_a
            rhs = np.concatenate([-c_lin, h[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
                # one step of iterative refinement: multipliers of order
                # k_eps otherwise leave the point about 1e-10 off its rows
                sol += np.linalg.solve(kkt, rhs - kkt @ sol)
            except np.linalg.LinAlgError:
                continue
            z = sol[:dim]
            lam = sol[dim:]
            if np.any(lam < -1e-9):
                continue
            if np.any(G @ z > h + 1e-9):
                continue
            v = z[:n]
            # the cheapest slack at v, so that k_eps does not lift the solve's
            # round-off in z[n] into the objective
            eps = max(0.0, float(np.max((G[soft, :n] @ v - h[soft]) / -G[soft, n])))
            obj = float(np.sum((v - np.array(v_nom)) ** 2) + k_eps * eps)
            if best is None or obj < best.objective - 1e-12:
                best = EnumeratedSolution(
                    v_safe=tuple(float(x) for x in v),
                    slack=float(eps),
                    active=tuple(rows[j].label for j in subset),
                    duals=tuple((rows[j].label, float(l)) for j, l in zip(subset, lam)),
                    objective=obj,
                )
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


def scan_cap(gap, v_hi, v_lead, brake, tau, dt, closing=0.0):
    """``shield.brake_cap`` by scanning every braking step
    ``k = 0..ceil(v_hi / dv)`` for the smallest per-step root."""
    from mergeshield.shield import _travel, brake_margin

    if brake_margin(gap - closing * v_hi, v_hi, v_lead, brake, tau, dt) >= 0.0:
        return v_hi
    dv = brake * dt
    m_l = math.ceil(v_lead / dv - 1e-12) if v_lead > 0.0 else 0
    cap = v_hi
    for k in range(math.ceil(v_hi / dv) + 1):
        kink = k * dv
        a = gap + dt * (_travel(v_lead, m_l, k, dv) + dv * k * (k - 1) * 0.5)
        b = closing + dt * k
        if a - b * kink >= 0.0:
            root = (a + tau * kink) / (b + tau)
        elif b > 0.0:
            root = a / b
        else:  # k = 0 without closing: the gap itself is negative
            return 0.0
        cap = min(cap, root)
    return max(cap, 0.0)


def _agrees_with_grid(v_nom, rows, k_eps, point, objective, oracle_obj, tol_obj):
    """Check a solver's point against the grid optimum ``oracle_obj``: the
    point keeps the hard rows, its objective recomputed independently
    matches the reported one, and it is no worse than the grid's.  Returns
    the objective scale of the tolerances."""
    assert np.isfinite(oracle_obj), "oracle infeasible but solver returned a point"
    hard, soft = _split_rows(rows, len(v_nom))
    recomputed = oracle_objective_at(np.array([point]), v_nom, hard, soft, k_eps)[0]
    assert np.isfinite(recomputed), "solver point violates hard rows"
    assert abs(recomputed - objective) <= 1e-7 * (1.0 + abs(objective))
    scale = 1.0 + abs(objective)
    assert objective <= oracle_obj + tol_obj * scale
    return scale


def check_scalar_instance(v_nom, caps, floors, k_eps, lo, hi, tol_obj=1e-6):
    """Verify ``shield.solve_qp`` on one instance of caps ``(a, q, label)``
    and soft floors in the box ``[lo, hi]``; returns the solution, or None
    for a consistently infeasible instance.

    The solver gets the caps as the shield hands them over, folded into
    the box top ``min(q / a)``; the grid and the enumerator get them as
    hard rows.  The dense grid plus boundary candidates pins the optimum,
    so the objectives must agree within ``tol_obj`` both ways, and with the
    enumerator's objective at the enumerator's point within 1e-9 relative.
    """
    from mergeshield.shield import ShieldFault, solve_qp

    affine = affine_rows(caps, floors, lo, hi)
    oracle_obj, _ = grid_search_min((v_nom,), affine, k_eps)
    top, top_label = hi, "reach_hi"
    for a, q, label in caps:
        if q / a < top:
            top, top_label = q / a, label
    try:
        sol = solve_qp(v_nom, floors, k_eps, lo, top, top_label)
    except ShieldFault:
        assert not np.isfinite(oracle_obj), "solver infeasible but oracle found a point"
        return None
    scale = _agrees_with_grid((v_nom,), affine, k_eps, (sol.v_safe,), sol.objective,
                              oracle_obj, tol_obj)
    assert oracle_obj <= sol.objective + tol_obj * scale
    # compare true objectives at both points: the enumerator's point may sit
    # about 1e-12 off the scalar solver's
    enumerated = enumerate_qp((v_nom,), affine, k_eps)
    hard, soft = _split_rows(affine, 1)
    at_enumerated = oracle_objective_at(np.array([enumerated.v_safe]), (v_nom,), hard, soft,
                                        k_eps)[0]
    assert abs(at_enumerated - sol.objective) <= 1e-9 * scale
    return sol


def check_instance(v_nom, rows, k_eps, tol_obj=1e-6, tol_kkt=1e-8):
    """Verify the enumerator on one instance of two or more commands;
    returns 1 when a solve happened (0 for consistently infeasible
    instances).

    Direct grid descent cannot certify the optimum to the enumerator's
    precision (thin feasible valleys), so the enumerator must match or beat
    the grid within ``tol_obj`` and carry KKT residuals below ``tol_kkt``.
    """
    from mergeshield.shield import ShieldFault

    oracle_obj, _ = grid_search_min(v_nom, rows, k_eps)
    try:
        sol = enumerate_qp(v_nom, rows, k_eps)
    except ShieldFault:
        assert not np.isfinite(oracle_obj), "solver infeasible but oracle found a point"
        return 0
    _agrees_with_grid(v_nom, rows, k_eps, sol.v_safe, sol.objective, oracle_obj, tol_obj)
    assert kkt_residuals(v_nom, rows, k_eps, sol) < tol_kkt
    return 1


def kkt_residuals(v_nom, rows, k_eps, sol):
    """Max stationarity / complementary-slackness / dual-sign residual of an
    :class:`EnumeratedSolution`, scaled by the multiplier magnitude
    (relative KKT measure)."""
    n = len(v_nom)
    z = np.array(list(sol.v_safe) + [sol.slack])
    rows_by_label = {r.label: r for r in rows}
    grad = np.zeros(n + 1)
    grad[:n] = 2.0 * (np.array(sol.v_safe) - np.array(v_nom))
    grad[n] = k_eps

    scale = 1.0 + max((abs(l) for _, l in sol.duals), default=0.0)
    residual = 0.0
    for label, lam in sol.duals:
        residual = max(residual, -lam / scale)
        if label == "slack_nonneg":
            p = np.zeros(n + 1)
            p[n] = -1.0
            q = 0.0
        else:
            row = rows_by_label[label]
            p = np.asarray(row.p, dtype=float)
            q = row.q
        grad += lam * p
        residual = max(residual, abs(lam * (p @ z - q)) / scale)
    residual = max(residual, float(np.max(np.abs(grad))) / scale)
    for r in rows:
        p = np.asarray(r.p, dtype=float)
        residual = max(residual, float(p @ z - r.q))
    residual = max(residual, -sol.slack)
    return residual
