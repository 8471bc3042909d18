import math
from dataclasses import replace

import numpy as np
import pytest

from mergeshield.dynamics import VehicleParams
from mergeshield.policy import BehaviorAction
from mergeshield.road import RoadNetwork
from mergeshield.shield import (
    FEAS_TOL,
    Row,
    ShieldConfig,
    ShieldFault,
    allow_lane_change,
    brake_cap,
    brake_guard,
    brake_margin,
    bumper_gap,
    filter_vehicle,
    headway_cap,
    joint_safe_control,
    lane_change_feasible,
    lateral_rear_row,
    solve_qp,
    worst_case_speed,
)
from mergeshield.topology import build_topology
from mergeshield.world import plan_motion, MotionPlan

from conftest import make_vehicle, make_world
from qp_oracle import AffineRow, bisect_cap, check_instance, check_scalar_instance, scan_cap

CFG = ShieldConfig(mode="mass")


def place_pair(gap, v_e, v_l, tau=0.5):
    """Ego and leader with the requested bumper gap."""
    ego = make_vehicle(0, 100.0, v_e)
    leader = make_vehicle(1, 100.0 + gap + ego.params.length, v_l)
    return ego, leader


def encoded_h(cap, ego, leader, v_next, cfg=CFG):
    """Barrier value a headway cap decays from, solved out of
    ``cap = q / (cos(psi_e) * dt + tau)`` with
    ``q = eta * gap + (1 - eta) * tau * v_e + cos(psi_l) * v_next * dt - lag``."""
    gap = bumper_gap(ego, leader)
    q = cap * (math.cos(ego.state.psi) * cfg.dt + cfg.tau)
    advance = math.cos(leader.state.psi) * v_next * cfg.dt - cfg.lag_margin
    return (gap + advance - q) / (1.0 - cfg.eta)


class TestLongitudinalCbf:
    def test_direct_substitution(self):
        ego, leader = place_pair(20.0, 25.0, 25.0)
        cap = headway_cap(ego, leader, CFG, 25.0)
        assert encoded_h(cap, ego, leader, 25.0) == pytest.approx(20.0 - 12.5)

    def test_boundary_of_safe_set(self):
        ego, leader = place_pair(12.5, 25.0, 25.0)
        cap = headway_cap(ego, leader, CFG, 25.0)
        assert encoded_h(cap, ego, leader, 25.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("v_next", [math.inf, math.nan])
    def test_cap_that_is_not_finite_raises(self, v_next):
        ego, leader = place_pair(20.0, 25.0, 25.0)
        with pytest.raises(ValueError, match="not finite"):
            headway_cap(ego, leader, CFG, v_next)

    def test_h_matches_scalar_evaluation_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            gap = float(rng.uniform(0.5, 80.0))
            v_e = float(rng.uniform(0.0, 35.0))
            tau = float(rng.uniform(0.2, 1.5))
            cfg = replace(CFG, tau=tau)
            ego, leader = place_pair(gap, v_e, 20.0)
            h = encoded_h(headway_cap(ego, leader, cfg, 20.0), ego, leader, 20.0, cfg)
            assert h == pytest.approx(gap - tau * v_e, abs=1e-12)

    def test_row_encodes_one_step_propagation(self):
        # a command under the cap keeps h from decaying faster than
        # (1 - eta) per step in the credited one-step model
        ego, leader = place_pair(18.0, 24.0, 22.0)
        v_next = 21.5
        v_cmd = headway_cap(ego, leader, CFG, v_next) - 1e-9
        gap_next = 18.0 + (v_next - math.cos(ego.state.psi) * v_cmd) * CFG.dt - CFG.lag_margin
        h_next = gap_next - CFG.tau * v_cmd
        assert h_next >= (1.0 - CFG.eta) * (18.0 - CFG.tau * 24.0) - 1e-6


class TestLateralCbfs:
    def test_no_neighbors_empty(self):
        # a lane-changer with no adjacent rear vehicle gets no lateral row
        road = RoadNetwork()
        ego = make_vehicle(0, 220.0, 20.0, lane=road.ramp_lane, road=road, target_lane=0)
        out = filter_vehicle(ego, [], None, 20.0, CFG)
        assert out.active_constraints == ()
        assert out.slack_used == 0.0
        assert out.v_safe == 20.0

    def test_adjacent_rear_form(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, lane=road.ramp_lane, road=road)
        ar = make_vehicle(1, 100.0 - 5.0 - 12.0, 18.0, lane=0, road=road)
        row = lateral_rear_row(ego, ar, CFG)
        v_wc = 18.0 + ar.params.a_max * CFG.dt
        h = 12.0 - 0.5 * v_wc
        assert row.kind == "soft"
        assert row.label == "lat_rear:1"
        assert row.a == -CFG.dt
        assert row.q == pytest.approx(CFG.eta * h - v_wc * CFG.dt)
        assert allow_lane_change(ego, None, ar, CFG)

    def test_satisfaction_matches_gap_oracle(self):
        rng = np.random.default_rng(3)
        road = RoadNetwork()
        for _ in range(100):
            v_e = float(rng.uniform(1.0, 30.0))
            v_al = float(rng.uniform(1.0, 30.0))
            v_ar = float(rng.uniform(1.0, 30.0))
            gap_al = float(rng.uniform(0.0, 30.0))
            gap_ar = float(rng.uniform(0.0, 30.0))
            ego = make_vehicle(0, 200.0, v_e, lane=road.ramp_lane, road=road)
            al = make_vehicle(1, ego.state.x + gap_al + 5.0, v_al, lane=0, road=road)
            ar = make_vehicle(2, ego.state.x - gap_ar - 5.0, v_ar, lane=0, road=road)
            ok = allow_lane_change(ego, al, ar, CFG)
            # independent go/no-go gap check with the same thresholds
            want = (gap_al >= 0.5 * v_e) and (gap_ar >= 0.5 * (v_ar + 0.5))
            assert ok == want


class TestAllowLaneChange:
    def test_empty_adjacent_lane(self):
        ego = make_vehicle(0, 100.0, 20.0)
        assert allow_lane_change(ego, None, None, CFG)

    def test_adjacent_leader_form(self):
        # the leader barrier is gap - tau * v_e: 15 - 10 passes, and the
        # gate closes just below its zero
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, lane=road.ramp_lane, road=road)
        for gap, want in ((15.0, True), (10.0, True), (9.99, False)):
            al = make_vehicle(1, 100.0 + gap + 5.0, 20.0, lane=0, road=road)
            assert allow_lane_change(ego, al, None, CFG) == want

    def test_close_leader_blocks(self):
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 20.0, lane=road.ramp_lane, road=road)
        al = make_vehicle(1, 100.0 + 5.0 + 8.0, 20.0, lane=0, road=road)  # gap 8 < 10
        assert not allow_lane_change(ego, al, None, CFG)

    def test_randomized_boundary_cases_match_oracle(self):
        rng = np.random.default_rng(5)
        road = RoadNetwork()
        for _ in range(50):
            v_e = float(rng.uniform(5.0, 30.0))
            # gaps around the thresholds
            gap_al = 0.5 * v_e + float(rng.uniform(-2.0, 2.0))
            v_ar = float(rng.uniform(5.0, 30.0))
            gap_ar = 0.5 * (v_ar + 0.5) + float(rng.uniform(-2.0, 2.0))
            ego = make_vehicle(0, 200.0, v_e, lane=road.ramp_lane, road=road)
            al = make_vehicle(1, ego.state.x + gap_al + 5.0, 22.0, lane=0, road=road)
            ar = make_vehicle(2, ego.state.x - gap_ar - 5.0, v_ar, lane=0, road=road)
            want = (gap_al >= 0.5 * v_e) and (gap_ar >= 0.5 * (v_ar + 0.5))
            assert allow_lane_change(ego, al, ar, CFG) == want


class TestLaneChangeFeasible:
    def test_wreck_verdict_ignores_its_frozen_speed(self):
        # a wreck never moves again, so the speed it crashed at must not
        # buy the merging ego any room
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 15.0, lane=road.ramp_lane, road=road)
        verdicts = []
        for gap in np.arange(5.0, 45.0, 0.5):
            frozen = make_vehicle(1, 100.0 + gap + 5.0, 20.0, lane=0, road=road)
            stopped = make_vehicle(1, 100.0 + gap + 5.0, 0.0, lane=0, road=road)
            frozen.crashed = stopped.crashed = True
            verdict = lane_change_feasible(ego, frozen, None, CFG, {})
            assert verdict == lane_change_feasible(ego, stopped, None, CFG, {}), gap
            verdicts.append(verdict)
        assert not verdicts[0] and verdicts[-1]

    def test_wreck_behind_ignores_its_frozen_speed(self):
        # a wreck behind never closes in either: the gates and the rear
        # floor must treat it as standing still, not as accelerating
        road = RoadNetwork()
        ego = make_vehicle(0, 100.0, 15.0, lane=road.ramp_lane, road=road, target_lane=0)
        for gap in np.arange(0.0, 40.0, 0.5):
            frozen = make_vehicle(1, 100.0 - gap - 5.0, 20.0, lane=0, road=road)
            stopped = make_vehicle(1, 100.0 - gap - 5.0, 0.0, lane=0, road=road)
            frozen.crashed = stopped.crashed = True
            assert allow_lane_change(ego, None, frozen, CFG) == \
                allow_lane_change(ego, None, stopped, CFG), gap
            assert lane_change_feasible(ego, None, frozen, CFG, {}) == \
                lane_change_feasible(ego, None, stopped, CFG, {}), gap
            assert lateral_rear_row(ego, frozen, CFG) == lateral_rear_row(ego, stopped, CFG), gap


class TestBrakeCap:
    def test_guard_matches_bisection_oracle(self):
        # closed-form guard cap vs 50-step bisection on brake_margin signs
        rng = np.random.default_rng(21)
        kinds = {"none": 0, "zero": 0, "cap": 0}
        for i in range(600):
            v_e = float(rng.uniform(0.0, 35.0))
            v_l = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 35.0))
            gap = float(rng.uniform(-3.0, 0.0)) if i % 7 == 0 else float(rng.uniform(0.0, 60.0))
            psi_e, psi_l = (float(x) for x in rng.uniform(-0.2, 0.2, size=2))
            ego = make_vehicle(0, 100.0, v_e, psi=psi_e)
            leader = make_vehicle(1, 100.0 + gap + ego.params.length, v_l, psi=psi_l)
            v_next = None if i % 2 else max(0.0, v_l + float(rng.uniform(-0.5, 0.2)))
            v_hi = None if i % 3 else float(rng.uniform(0.0, 40.0))
            # a missing draw credits the worst case or tops out at the reach box
            credit = max(0.0, v_l + leader.params.a_min * CFG.dt) if v_next is None else v_next
            top = min(ego.params.v_cap, v_e + ego.params.a_max * CFG.dt) if v_hi is None else v_hi
            cap = brake_guard(ego, leader, CFG, credit, top)

            def margin_at(v):
                gap_next = gap + (math.cos(psi_l) * credit - math.cos(psi_e) * v) * CFG.dt \
                    - CFG.lag_margin
                return brake_margin(gap_next, v, credit, -ego.params.a_min, CFG.tau, CFG.dt)

            want = bisect_cap(margin_at, top)
            if want is None:
                kinds["none"] += 1
                assert cap is None
                continue
            assert cap is not None
            assert (cap == 0.0) == (want == 0.0)
            kinds["zero" if want == 0.0 else "cap"] += 1
            assert cap == pytest.approx(want, abs=1e-9)
        assert min(kinds.values()) > 50

    def test_spawn_cap_matches_bisection_oracle(self):
        rng = np.random.default_rng(22)
        for i in range(400):
            gap = float(rng.uniform(-2.0, 40.0))
            v_f = float(rng.uniform(0.0, 30.0))
            v_l = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 30.0))
            want = bisect_cap(lambda v: brake_margin(gap, v, v_l, 5.0, 0.5, 0.1), v_f)
            got = brake_cap(gap, v_f, v_l, 5.0, 0.5, 0.1)
            assert got == pytest.approx(v_f if want is None else want, abs=1e-9)

    def test_matches_full_scan_exactly(self):
        # the candidate steps give the same float as the scan over every
        # braking step: speeds on and off the dv grid, stopped leaders and
        # leaders as fast as the follower, negative gaps, and closing 0 or dt
        rng = np.random.default_rng(23)
        kinds = {"top": 0, "zero": 0, "cap": 0, "leader_outlasts": 0, "negative_gap": 0}
        for i in range(20000):
            dt = float(rng.choice([0.05, 0.1, 0.2]))
            brake = float(rng.choice([5.0, 9.0, rng.uniform(1.0, 10.0)]))
            tau = float(rng.choice([0.5, rng.uniform(0.05, 2.0)]))
            dv = brake * dt
            v_hi = dv * int(rng.integers(0, 60)) if i % 3 == 0 else float(rng.uniform(0.0, 40.0))
            v_lead = [0.0, v_hi, dv * int(rng.integers(0, 60)), float(rng.uniform(0.0, 40.0))][i % 4]
            if i % 6 < 2:
                gap = float(rng.uniform(-5.0, 0.0))
            else:
                gap = float(rng.uniform(0.0, 120.0)) * float(rng.random())
            closing = 0.0 if i % 2 else dt
            args = (gap, v_hi, v_lead, brake, tau, dt, closing)
            want = scan_cap(*args)
            assert brake_cap(*args) == want, args
            kinds["top" if want == v_hi else "zero" if want == 0.0 else "cap"] += 1
            if want < v_hi:
                # the leader still moves at the follower's last braking step
                kinds["leader_outlasts"] += math.ceil(v_hi / dv) <= math.ceil(v_lead / dv - 1e-12)
                kinds["negative_gap"] += gap < 0.0 and closing == 0.0
        assert min(kinds.values()) > 500


def random_scalar_instance(rng, v_cap=40.0):
    """Random instance of the shape the shield builds: a reachability box
    near the nominal (sometimes empty by float noise or by far), up to four
    speed caps ``(a, q, label)`` meaning ``a * v <= q`` and at most one soft
    floor, each bound near the box."""
    v_nom = float(rng.uniform(0.0, v_cap))
    k_eps = float(rng.choice([5.0, 50.0, 1000.0, 1e6]))
    lo = max(0.0, v_nom - float(rng.uniform(-1.0, 6.0)))
    if rng.random() < 0.8:
        hi = min(v_cap, lo + float(rng.uniform(0.0, 8.0)))
    else:
        hi = lo - float(rng.choice([0.0, 1e-10, 1.0]))
    caps = []
    for j in range(int(rng.integers(0, 5))):
        a = float(rng.uniform(0.01, 2.0))
        caps.append((a, a * float(rng.uniform(lo - 0.5, hi + 8.0)), f"cap{j}"))
    floors = []
    if rng.random() < 0.6:
        a = -float(rng.uniform(0.01, 1.0))
        floors.append(Row(a, a * float(rng.uniform(lo - 4.0, hi + 4.0)), "floor"))
    return v_nom, caps, floors, k_eps, lo, hi


def random_qp_instance(rng, v_cap=40.0):
    """Random general instance of two or three commands over the decision
    box [0, v_cap] (the box rows are part of the instance), for the
    enumerator oracle."""
    n = int(rng.choice([2, 2, 3]))
    v_nom = tuple(float(x) for x in rng.uniform(0.0, v_cap, size=n))
    k_eps = float(rng.choice([5.0, 50.0, 1000.0, 1e6]))
    rows = []
    for i in range(n):
        p_hi = tuple(1.0 if j == i else 0.0 for j in range(n)) + (0.0,)
        p_lo = tuple(-1.0 if j == i else 0.0 for j in range(n)) + (0.0,)
        rows.append(AffineRow(p=p_hi, q=v_cap, label=f"box_hi{i}"))
        rows.append(AffineRow(p=p_lo, q=0.0, label=f"box_lo{i}"))
    n_rows = int(rng.integers(0, 5))
    for j in range(n_rows):
        p_dec = rng.uniform(-1.0, 1.0, size=n)
        if np.all(np.abs(p_dec) < 1e-3):
            p_dec[0] = 1.0
        soft = rng.random() < 0.35
        point = rng.uniform(0.0, v_cap, size=n)
        slackish = float(rng.uniform(-5.0, 15.0))
        q = float(p_dec @ point + slackish)
        p = tuple(p_dec) + ((-1.0,) if soft else (0.0,))
        rows.append(AffineRow(p=p, q=q, label=f"r{j}"))
    return v_nom, rows, k_eps


class TestSolveQP:
    def test_unconstrained_returns_nominal(self):
        sol = solve_qp(25.0, [], 1e6, 0.0, 40.0)
        assert sol.v_safe == 25.0
        assert sol.slack == 0.0
        assert sol.objective == 0.0
        assert sol.active == ()

    def test_single_halfspace_projection(self):
        sol = solve_qp(25.0, [], 1e6, 0.0, 20.0, "cap")
        assert sol.v_safe == 20.0
        assert sol.active == ("cap",)

    def test_soft_row_yields_under_pressure(self):
        # a cap under the soft floor: the slack absorbs the difference
        soft = Row(-1.0, -15.0, "lo_soft")
        sol = solve_qp(12.0, [soft], 1e6, 0.0, 10.0, "hi")
        assert sol.v_safe == pytest.approx(10.0)
        assert sol.slack == pytest.approx(5.0)
        assert sol.active == ("hi", "lo_soft")

    def test_cheap_slack_stops_at_the_stationary_point(self):
        # k_eps = 4 makes the floor at 15 worth only part of the climb from 12:
        # the optimum 12 + k_eps / 2 = 14 keeps one unit of slack
        sol = solve_qp(12.0, [Row(-1.0, -15.0, "floor")], 4.0, 0.0, 40.0)
        assert sol.v_safe == 14.0
        assert sol.slack == 1.0
        assert sol.active == ("floor",)
        free = solve_qp(12.0, [Row(-1.0, -15.0, "floor")], 1e6, 0.0, 40.0)
        assert (free.v_safe, free.slack, free.active) == (15.0, 0.0, ("floor",))

    @pytest.mark.parametrize("rows", [
        [Row(0.0, 1.0, "flat", "hard")],
        [Row(-1.0, -5.0, "hard_floor", "hard")],
        [Row(1.0, math.inf, "inf_cap", "hard")],
        [Row(math.nan, 1.0, "nan_cap", "hard")],
        [Row(1.0, 1.0, "soft_cap")],
        [Row(0.0, -1.0, "flat_soft")],
        [Row(-1.0, math.nan, "nan_floor")],
        [Row(-1.0, -5.0, "floor1"), Row(-1.0, -6.0, "floor2")],
        [Row(-1.0, -5.0, "floor"), Row(1.0, 30.0, "cap", "hard")],
        [Row(1.0, 30.0, "cap", "lateral")],
    ], ids=["flat_cap", "hard_floor", "inf_cap", "nan_cap", "soft_cap", "flat_soft",
            "nan_floor", "second_soft", "hard_cap", "unknown_kind"])
    def test_rows_outside_the_shape_raise(self, rows):
        # caps arrive folded into the box top; a row is only ever the one
        # soft floor, and anything else fails loudly
        with pytest.raises(ValueError, match="not the one finite soft floor"):
            solve_qp(20.0, rows, 1e6, 0.0, 40.0)

    def test_hard_infeasible_raises(self):
        with pytest.raises(ShieldFault):
            solve_qp(15.0, [], 1e6, 20.0, 10.0, "hi")
        # an interval empty by at most FEAS_TOL is pinned to its lower end
        sol = solve_qp(15.0, [], 1e6, 20.0, 20.0 - FEAS_TOL, "hi")
        assert sol.v_safe == 20.0

    def test_matches_grid_oracle_on_random_instances(self):
        # one command: the scalar solver matches the dense grid (plus the
        # analytic row boundaries) both ways and the enumerator's objective.
        # Two or three commands: the reference enumerator must match or beat
        # every independently evaluated grid point, with optimality
        # certified by the KKT residuals.
        rng = np.random.default_rng(12)
        solved = faulted = sloped = 0
        for _ in range(150):
            sol = check_scalar_instance(*random_scalar_instance(rng))
            if sol is not None:
                solved += 1
                sloped += sol.slack > 0.0
            else:
                faulted += 1
        assert solved > 100 and faulted > 10 and sloped > 20
        rng = np.random.default_rng(13)
        checked = sum(check_instance(*random_qp_instance(rng)) for _ in range(40))
        assert checked > 20

    def test_oracle_slack_on_an_active_slack_row(self):
        # a 2-D instance on which the enumerator's KKT solve used to leave its
        # point 7e-11 outside soft row r0 with slack_nonneg active, which
        # k_eps = 1e6 lifted 7e-5 above the grid's objective (drawn from the
        # seed-12 instance stream when the box draws shared its generator)
        rows = [
            AffineRow((1.0, 0.0, 0.0), 40.0, "box_hi0"),
            AffineRow((-1.0, 0.0, 0.0), 0.0, "box_lo0"),
            AffineRow((0.0, 1.0, 0.0), 40.0, "box_hi1"),
            AffineRow((0.0, -1.0, 0.0), 0.0, "box_lo1"),
            AffineRow((-0.45893781484543994, -0.9747275141021376, -1.0), -17.860521494240324, "r0"),
            AffineRow((-0.7262122389306618, 0.6497158510047865, 0.0), 19.195684829381438, "r1"),
            AffineRow((-0.8589136566974238, 0.7601010078394426, 0.0), 2.009855445562467, "r2"),
            AffineRow((0.6497990722921243, -0.42856780373697845, -1.0), 20.503320970125618, "r3"),
        ]
        assert check_instance((3.073530818031238, 16.97787102118959), rows, 1e6) == 1


def hss_outcome(gap, v_e, v_l, v_nominal):
    """The ego's ``hss`` outcome behind one leader that holds its speed."""
    ego, leader = place_pair(gap, v_e, v_l)
    w = make_world([ego, leader], shield_mode="hss")
    plans = {0: MotionPlan(v_target=v_nominal, target_lane=0),
             1: MotionPlan(v_target=v_l, target_lane=0)}
    return joint_safe_control(w, build_topology(w.vehicles, w), plans)[0]


def resolved(vehicle, v_nominal, cfg=None):
    """The outcome of a vehicle with no leaders, as a parent hands it down."""
    return filter_vehicle(vehicle, [], None, v_nominal, cfg or CFG)


class TestFilterHss:
    def test_open_road_identity(self):
        ego = make_vehicle(0, 100.0, 25.0)
        out = filter_vehicle(ego, [], None, 25.0, CFG)
        assert out.v_safe == 25.0
        assert out.v_cbf == 0.0
        assert not out.fault

    def test_boundary_with_braking_leader_forces_reduction(self):
        out = hss_outcome(gap=12.5, v_e=25.0, v_l=25.0, v_nominal=25.0)
        assert out.v_safe < out.v_nominal
        assert out.v_cbf < 0.0

    def test_scripted_approach_matches_grid_oracle(self):
        # closed-loop approach toward a slower leader; every step the filter
        # output equals the max speed passing the worst-case one-step
        # propagation, found by an independent monotone search
        cfg = CFG
        dt = cfg.dt
        v_l = 16.0
        x_e, v_e = 0.0, 22.0
        x_l = 65.0
        saw_binding = False
        for _ in range(80):
            ego, leader = place_pair(x_l - x_e - 5.0, v_e, v_l)
            out = hss_outcome(x_l - x_e - 5.0, v_e, v_l, v_e + 2.0)
            assert not out.fault
            gap = x_l - x_e - 5.0
            v_l_wc = max(0.0, v_l + leader.params.a_min * dt)
            lo = max(0.0, v_e + ego.params.a_min * dt)
            hi = min(ego.params.v_cap, v_e + ego.params.a_max * dt)
            h_now = gap - cfg.tau * v_e

            def ok(v_cmd):
                gap_next = gap + (v_l_wc - v_cmd) * dt - cfg.lag_margin
                if gap_next - cfg.tau * v_cmd < (1.0 - cfg.eta) * h_now - 1e-12:
                    return False
                return brake_margin(gap_next, v_cmd, v_l_wc, -ego.params.a_min,
                                    cfg.tau, dt) >= -1e-12

            assert ok(lo), "approach left the feasible envelope"
            if ok(hi):
                best = hi
            else:
                saw_binding = True
                a, b = lo, hi
                for _ in range(40):
                    mid = 0.5 * (a + b)
                    if ok(mid):
                        a = mid
                    else:
                        b = mid
                best = a
            assert out.v_safe == pytest.approx(min(best, out.v_nominal), abs=1e-6)
            x_e += v_e * dt
            x_l += v_l * dt
            v_e = out.v_safe
        assert saw_binding

    def test_fault_falls_back_to_full_braking(self):
        # physically doomed state: leader much slower at a tiny gap
        out = hss_outcome(gap=3.0, v_e=30.0, v_l=2.0, v_nominal=30.0)
        assert out.fault
        assert out.v_safe == pytest.approx(30.0 + (-5.0) * CFG.dt)

    def test_cap_just_below_reach_lo_is_not_a_fault(self, monkeypatch):
        # a brake cap under reach_lo by float noise (at most FEAS_TOL) pins
        # the command to reach_lo, the speed the fallback would command
        from mergeshield import shield

        def guard_at(cap):
            return lambda *a, **k: cap

        reach_lo = 25.0 + (-5.0) * CFG.dt
        for below in (0.0, 1e-15, 1e-12, 1e-9):
            monkeypatch.setattr(shield, "brake_guard", guard_at(reach_lo - below))
            out = hss_outcome(gap=80.0, v_e=25.0, v_l=25.0, v_nominal=25.0)
            assert not out.fault
            assert out.v_safe == reach_lo
            assert out.active_constraints == ("brake:1",)
        monkeypatch.setattr(shield, "brake_guard", guard_at(reach_lo - 1e-8))
        out = hss_outcome(gap=80.0, v_e=25.0, v_l=25.0, v_nominal=25.0)
        assert out.fault
        assert out.v_safe == reach_lo


class TestFilterMass:
    def test_no_parents_equals_hss_with_no_neighbors(self):
        outs = {}
        for mode in ("mass", "hss"):
            w = make_world([make_vehicle(0, 100.0, 25.0)], shield_mode=mode)
            plans = {0: MotionPlan(v_target=27.0, target_lane=0)}
            outs[mode] = joint_safe_control(w, build_topology(w.vehicles, w), plans)[0]
        assert outs["mass"] == outs["hss"]

    def test_known_parent_never_more_restrictive_than_worst_case(self):
        rng = np.random.default_rng(8)
        strictly_better = 0
        for _ in range(200):
            v_e = float(rng.uniform(5.0, 30.0))
            v_l = float(rng.uniform(5.0, 30.0))
            gap = float(rng.uniform(0.5 * v_e, 0.5 * v_e + 60.0))
            v_nom = float(rng.uniform(0.0, 35.0))
            ego, leader = place_pair(gap, v_e, v_l)
            hss = filter_vehicle(ego, [(leader, worst_case_speed(leader, CFG))], None, v_nom, CFG)
            # truthful parent intention: the leader holds its speed
            parent_out = resolved(leader, v_l)
            mass = filter_vehicle(ego, [(leader, parent_out.v_safe)], None, v_nom, CFG)
            assert mass.v_safe >= hss.v_safe - 1e-12
            if mass.v_safe > hss.v_safe + 1e-9:
                strictly_better += 1
        assert strictly_better > 0

    def test_each_parent_constraint_can_bind(self):
        road = RoadNetwork()
        cfg = CFG
        # changing ego with both a slow own-lane leader and a slow target-lane
        # leader; whichever is tighter appears in the active set
        for tight in (1, 2):
            ego = make_vehicle(0, 220.0, 24.0, lane=road.ramp_lane, road=road, target_lane=0)
            own = make_vehicle(1, 220.0 + 5 + (19.0 if tight == 1 else 60.0), 20.0,
                               lane=road.ramp_lane, road=road)
            target = make_vehicle(2, 220.0 + 5 + (19.0 if tight == 2 else 60.0), 20.0,
                                  lane=0, road=road)
            own_out = resolved(own, 20.0, cfg)
            tgt_out = resolved(target, 20.0, cfg)
            out = filter_vehicle(ego, [(own, own_out.v_safe), (target, tgt_out.v_safe)], None,
                                 28.0, cfg)
            assert not out.fault
            assert out.v_safe < out.v_nominal
            tight_vid = {1: own, 2: target}[tight].vid
            assert any(str(tight_vid) in label for label in out.active_constraints)

    def test_minimal_invasiveness(self):
        ego, leader = place_pair(60.0, 20.0, 22.0)
        parent_out = resolved(leader, 22.0)
        out = filter_vehicle(ego, [(leader, parent_out.v_safe)], None, 20.3, CFG)
        assert out.v_cbf == 0.0
        assert out.v_safe == 20.3

    def test_correction_direction_is_braking(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            v_e = float(rng.uniform(5.0, 30.0))
            gap = float(rng.uniform(0.5 * v_e, 0.5 * v_e + 20.0))
            v_l = float(rng.uniform(2.0, v_e))
            ego, leader = place_pair(gap, v_e, v_l)
            parent_out = resolved(leader, v_l)
            out = filter_vehicle(ego, [(leader, parent_out.v_safe)], None, v_e + 2.0, CFG)
            binding_leader = any(
                label.startswith(("headway:", "brake:")) for label in out.active_constraints
            )
            if binding_leader:
                assert out.v_cbf <= 1e-12

    def test_crashed_parent_is_credited_a_standstill(self):
        # a crashed parent has no outcome and never moves again
        ego, leader = place_pair(30.0, 20.0, 20.0)
        leader.crashed = True
        w = make_world([ego, leader])
        plans = {0: MotionPlan(v_target=22.0, target_lane=0)}
        out = joint_safe_control(w, build_topology(w.vehicles, w), plans)[0]
        assert worst_case_speed(leader, CFG) == 0.0
        assert out == filter_vehicle(ego, [(leader, 0.0)], None, 22.0, CFG)
        assert out.v_safe < filter_vehicle(ego, [(leader, 18.0)], None, 22.0, CFG).v_safe

    def test_tied_caps_keep_the_first_label(self, monkeypatch):
        # a cap replaces the running minimum only when strictly smaller: on
        # a tie the box top keeps its label, a leader's headway cap beats
        # its guard, and an earlier leader beats a later one
        from mergeshield import shield

        ego = make_vehicle(0, 100.0, 25.0)
        first, second = make_vehicle(1, 150.0, 25.0), make_vehicle(2, 200.0, 25.0)
        top = 25.0 + ego.params.a_max * CFG.dt
        caps, tops = {}, []
        solve = shield.solve_qp

        def recording_solve(v_nominal, rows, k_eps, lo, hi, hi_label):
            tops.append((hi, hi_label))
            return solve(v_nominal, rows, k_eps, lo, hi, hi_label)

        monkeypatch.setattr(shield, "headway_cap",
                            lambda ego, leader, config, v_next: caps["headway", leader.vid])
        monkeypatch.setattr(shield, "brake_guard",
                            lambda ego, leader, config, v_next, v_hi: caps["brake", leader.vid])
        monkeypatch.setattr(shield, "solve_qp", recording_solve)

        def fold(leaders, given):
            caps.clear()
            caps.update(given)
            out = filter_vehicle(ego, [(p, 25.0) for p in leaders], None, 30.0, CFG)
            hi, hi_label = tops[-1]
            assert hi == min(v for v in given.values() if v is not None)
            assert out.v_safe == hi
            return hi_label

        assert fold([first], {("headway", 1): top, ("brake", 1): None}) == "reach_hi"
        assert fold([first], {("headway", 1): 24.8, ("brake", 1): 24.8}) == "headway:1"
        assert fold([first], {("headway", 1): 24.9, ("brake", 1): 24.8}) == "brake:1"
        two = {("headway", 1): 24.8, ("brake", 1): None,
               ("headway", 2): 24.8, ("brake", 2): None}
        assert fold([first, second], two) == "headway:1"
        assert fold([second, first], two) == "headway:2"
        two = {("headway", 1): 24.9, ("brake", 1): 24.8,
               ("headway", 2): 24.8, ("brake", 2): None}
        assert fold([first, second], two) == "brake:1"
        assert fold([second, first], two) == "headway:2"

    def test_deterministic(self):
        ego, leader = place_pair(20.0, 25.0, 20.0)
        parent_out = resolved(leader, 20.0)
        a = filter_vehicle(ego, [(leader, parent_out.v_safe)], None, 26.0, CFG)
        b = filter_vehicle(ego, [(leader, parent_out.v_safe)], None, 26.0, CFG)
        assert a == b


class TestJointSafeControl:
    @pytest.mark.parametrize("kind", ["random", "heuristic"])
    def test_mass_is_never_more_restrictive_than_hss(self, monkeypatch, kind):
        # on every snapshot of mass episodes, resolving the same plans and
        # topology once more in hss mode: crediting parents their resolved
        # commands may only raise the safe command and widen the lane grants
        from mergeshield import world as world_mod
        from mergeshield.config import RunConfig
        from mergeshield.episode import run_episode
        from mergeshield.policy import PolicySpec
        from mergeshield.world import ScenarioConfig, World

        seen = {"steps": 0, "faster": 0, "requests": 0, "hss_grants": 0}

        def both_modes(world, topology, plans):
            mass = joint_safe_control(world, topology, plans)
            twin = World(world.road, world.scenario, replace(world.shield, mode="hss"),
                         world.vehicles, world.step_index)
            hss = joint_safe_control(twin, topology, plans)
            assert mass.keys() == hss.keys()
            for vid, out in mass.items():
                assert out.v_safe >= hss[vid].v_safe, (world.step_index, vid)
                assert out.lane_change_allowed or not hss[vid].lane_change_allowed, \
                    (world.step_index, vid)
                seen["faster"] += out.v_safe > hss[vid].v_safe
                if plans[vid].lane_request:
                    seen["requests"] += 1
                    seen["hss_grants"] += hss[vid].lane_change_allowed
            seen["steps"] += 1
            return mass

        monkeypatch.setattr(world_mod, "joint_safe_control", both_modes)
        cfg = RunConfig(scenario=ScenarioConfig(), shield=ShieldConfig(mode="mass"),
                        policy=PolicySpec(kind=kind))
        for seed in range(4):
            run_episode(cfg, seed)
        # both sides of each comparison occur: commands that mass raises, and
        # lane requests that hss grants as well as ones it denies
        assert seen["steps"] > 400 and seen["faster"] > 100
        assert seen["requests"] > seen["hss_grants"] > 0

    def test_mode_none_is_pass_through(self):
        vehicles = [make_vehicle(0, 100.0, 20.0), make_vehicle(1, 120.0, 20.0)]
        w = make_world(vehicles, shield_mode="none")
        topo = build_topology(w.vehicles, w)
        plans = {v.vid: plan_motion(v, BehaviorAction.FOLLOW_LANE, w.road, w.scenario.dv_step) for v in vehicles}
        outcomes = joint_safe_control(w, topo, plans)
        for vid, plan in plans.items():
            assert outcomes[vid].v_safe == plan.v_target
            assert outcomes[vid].v_cbf == 0.0

    def test_chain_brake_propagates_within_one_step(self):
        # three-vehicle chain at the equilibrium headway; the front one brakes
        road = RoadNetwork()
        v = 20.0
        gap_eq = 0.5 * v + 0.3  # tau*v + lag_margin/eta
        front = make_vehicle(2, 200.0, v, road=road)
        mid = make_vehicle(1, 200.0 - 5.0 - gap_eq, v, road=road)
        back = make_vehicle(0, mid.state.x - 5.0 - gap_eq, v, road=road)
        w = make_world([back, mid, front], road=road)
        topo = build_topology(w.vehicles, w)
        plans = {
            2: MotionPlan(v_target=v - 2.0, target_lane=0),
            1: MotionPlan(v_target=v, target_lane=0),
            0: MotionPlan(v_target=v, target_lane=0),
        }
        outcomes = joint_safe_control(w, topo, plans)
        # sequential hand computation in topology order
        front_hand = resolved(front, v - 2.0, w.shield)
        mid_hand = filter_vehicle(mid, [(front, front_hand.v_safe)], None, v, w.shield)
        back_hand = filter_vehicle(back, [(mid, mid_hand.v_safe)], None, v, w.shield)
        assert outcomes[2] == front_hand
        assert outcomes[1].v_safe == mid_hand.v_safe
        assert outcomes[0].v_safe == back_hand.v_safe
        assert outcomes[2].v_safe < v
        assert outcomes[1].v_safe < v
        assert outcomes[0].v_safe < v

    def test_hss_keeps_the_leader_a_cut_in_displaced(self):
        # a merger cuts in between the ego and a slow own-lane leader; the
        # topology hands the ego to the merger, and only hss also keeps the
        # displaced leader, which is the tighter of the two
        road = RoadNetwork()
        ego = make_vehicle(0, 220.0, 24.0, road=road)
        merger = make_vehicle(1, 250.0, 26.0, lane=road.ramp_lane, road=road, target_lane=0)
        own = make_vehicle(2, 276.0, 10.0, road=road)
        outs = {}
        for mode in ("hss", "mass"):
            w = make_world([ego, merger, own], road=road, shield_mode=mode)
            topo = build_topology(w.vehicles, w)
            assert topo.parents(0) == (1,)
            plans = {v.vid: MotionPlan(v_target=v.state.speed + 3.0, target_lane=0)
                     for v in w.vehicles}
            outs[mode] = joint_safe_control(w, topo, plans)[0]
            assert not outs[mode].fault
        assert outs["hss"].active_constraints == ("brake:2",)
        assert not any(label.endswith(":2") for label in outs["mass"].active_constraints)
        assert outs["hss"].v_safe < outs["mass"].v_safe
