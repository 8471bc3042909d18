"""The promises of the ``metrics`` docstrings, on hand-built records."""

import json
import math

import pytest

from mergeshield.metrics import (
    EpisodeSummary,
    aggregate_summaries,
    average_speed,
    min_time_headway,
    read_summaries,
    summarize_episode,
    write_aggregate_csv,
    write_summaries,
)
from mergeshield.records import EpisodeRecord, StepRecord, VehicleRow
from mergeshield.reward import V_FLOOR

LANE_WIDTH = 4.0
LENGTH = 5.0


def row(vid, x, speed=20.0, y=0.0, lane=0, crashed=False, merged=False):
    return VehicleRow(
        vid=vid, lane=lane, target_lane=lane, x=x, y=y, v_x=speed, v_y=0.0, psi=0.0,
        merged=merged, merge_failed=False, crashed=crashed,
    )


def record(*steps, initial=()):
    """A record of the given per-step row tuples, with the header config
    numbers the metrics read: the lane width and the fleet's length."""
    return EpisodeRecord(
        seed=0,
        config={"road": {"lane_width": LANE_WIDTH}, "vehicle": {"length": LENGTH}},
        initial=tuple(initial),
        steps=[StepRecord(step=k, vehicles=tuple(rows), topology={})
               for k, rows in enumerate(steps)],
    )


def gap(leader, follower):
    return (leader.x - 0.5 * LENGTH) - (follower.x + 0.5 * LENGTH)


class TestMinTimeHeadway:
    def test_min_over_steps_and_pairs(self):
        a, b, c = row(0, 100.0), row(1, 130.0), row(2, 150.0)
        later = (row(0, 102.0, speed=25.0), row(1, 132.0), row(2, 152.0))
        want = min(gap(b, a) / 20.0, gap(c, b) / 20.0, gap(later[1], later[0]) / 25.0)
        assert min_time_headway(record((a, b, c), later)) == want

    def test_raises_on_an_empty_record(self):
        with pytest.raises(ValueError, match="empty record"):
            min_time_headway(record())

    def test_zero_after_any_collision(self):
        # roomy pairs, then one crash in the last step
        calm = (row(0, 100.0), row(1, 200.0))
        crash = (row(0, 102.0), row(1, 202.0), row(2, 400.0, lane=1, y=4.0, crashed=True))
        assert min_time_headway(record(calm, crash)) == 0.0
        assert min_time_headway(record(calm, initial=crash)) == 0.0

    def test_skips_followers_below_the_speed_floor(self):
        leader = row(1, 107.0)
        crawler = row(0, 100.0, speed=0.5 * V_FLOOR)  # 2 m behind, would read 4 s
        assert min_time_headway(record((crawler, leader))) == math.inf
        at_floor = row(0, 100.0, speed=V_FLOOR)
        assert min_time_headway(record((at_floor, leader))) == 2.0 / V_FLOOR

    def test_inf_without_a_same_lane_pair(self):
        alone = (row(0, 100.0), row(1, 110.0, lane=1, y=LANE_WIDTH))
        assert min_time_headway(record(alone)) == math.inf
        assert min_time_headway(record((row(0, 100.0),))) == math.inf

    def test_lane_changer_counts_in_its_nearest_lane(self):
        # both changers carry lane 0; each pairs with the leader in the lane
        # whose centreline is nearest its y
        ramp_leader = row(1, 130.0, lane=1, y=LANE_WIDTH)
        near_ramp = row(0, 100.0, y=0.55 * LANE_WIDTH)
        assert min_time_headway(record((near_ramp, ramp_leader))) == gap(ramp_leader, near_ramp) / 20.0
        near_highway = row(0, 100.0, y=0.45 * LANE_WIDTH)
        assert min_time_headway(record((near_highway, ramp_leader))) == math.inf
        highway_leader = row(2, 140.0)
        assert min_time_headway(record((near_highway, ramp_leader, highway_leader))) == \
            gap(highway_leader, near_highway) / 20.0

    def test_off_road_rows_count_in_the_nearer_of_the_two_lanes(self):
        # the road has a through lane and a ramp: a row past the ramp's
        # outer edge pairs with the ramp, one left of the highway with it
        ramp_leader = row(1, 130.0, lane=1, y=LANE_WIDTH)
        past_ramp = row(0, 100.0, lane=1, y=2.5 * LANE_WIDTH)
        assert min_time_headway(record((past_ramp, ramp_leader))) == gap(ramp_leader, past_ramp) / 20.0
        highway_leader = row(2, 140.0)
        left_of_highway = row(0, 100.0, y=-0.75 * LANE_WIDTH)
        assert min_time_headway(record((left_of_highway, highway_leader))) == \
            gap(highway_leader, left_of_highway) / 20.0


class TestMergingPercentage:
    def test_share_of_ramp_spawned_vehicles_that_merged(self):
        # ramp membership is the initial lane: vehicle 0 has merged into
        # lane 0, vehicle 1 is still on the ramp
        initial = (row(0, 250.0, lane=1, y=LANE_WIDTH), row(1, 230.0, lane=1, y=LANE_WIDTH),
                   row(2, 270.0))
        final = (row(0, 300.0, merged=True), row(1, 280.0, lane=1, y=LANE_WIDTH), row(2, 320.0))
        summary = summarize_episode(record(final, initial=initial), "mass", "random")
        assert (summary.merging_pct, summary.merged_count, summary.ramp_count) == (50.0, 1, 2)

    def test_undefined_without_a_ramp_vehicle(self):
        rec = record((row(0, 100.0), row(1, 130.0)), initial=(row(0, 90.0), row(1, 120.0)))
        summary = summarize_episode(rec, "mass", "random")
        assert summary.merging_pct is None
        assert summary.to_dict()["merging_pct"] is None


class TestAverageSpeed:
    def test_mean_over_alive_vehicle_steps(self):
        rec = record((row(0, 100.0, speed=10.0), row(1, 200.0, speed=30.0, crashed=True)),
                     (row(0, 101.0, speed=14.0),))
        assert average_speed(rec) == 12.0

    def test_raises_without_an_alive_vehicle_step(self):
        wrecks = (row(0, 100.0, crashed=True), row(1, 103.0, crashed=True))
        with pytest.raises(ValueError):
            average_speed(record(wrecks))
        with pytest.raises(ValueError):
            average_speed(record(initial=(row(0, 100.0),)))


def summary(seed, min_headway, avg_speed, merging_pct, collisions=0, merged=0, ramp=0):
    return EpisodeSummary(
        seed=seed, steps=150, shield_mode="mass", policy="random",
        min_headway=min_headway, avg_speed=avg_speed, merging_pct=merging_pct,
        collisions=collisions, merged_count=merged, ramp_count=ramp,
    )


class TestAggregateSummaries:
    def test_mean_and_standard_error_over_n_minus_one(self):
        agg = aggregate_summaries([summary(0, 1.0, 10.0, 50.0), summary(1, 2.0, 14.0, 100.0),
                                   summary(2, 3.0, 18.0, 0.0)])
        assert agg["episodes"] == 3
        # sample variance of (1, 2, 3) is 1, of (10, 14, 18) is 16, of (50, 100, 0) is 2500
        assert (agg["min_headway_mean"], agg["min_headway_se"]) == (2.0, math.sqrt(1.0 / 3))
        assert (agg["avg_speed_mean"], agg["avg_speed_se"]) == (14.0, math.sqrt(16.0 / 3))
        assert agg["merging_pct_mean"] == 50.0
        assert agg["merging_pct_se"] == pytest.approx(math.sqrt(2500.0 / 3))
        assert agg["min_headway_min"] == 1.0

    def test_one_episode_has_zero_error_and_none_has_no_value(self):
        one = aggregate_summaries([summary(0, 1.5, 20.0, 25.0)])
        assert (one["min_headway_mean"], one["min_headway_se"]) == (1.5, 0.0)
        assert (one["avg_speed_mean"], one["avg_speed_se"]) == (20.0, 0.0)
        assert (one["merging_pct_mean"], one["merging_pct_se"]) == (25.0, 0.0)
        empty = aggregate_summaries([])
        assert empty["episodes"] == 0
        for key in ("min_headway_mean", "min_headway_se", "min_headway_min", "avg_speed_mean",
                    "avg_speed_se", "merging_pct_mean", "merging_pct_se", "merging_pct_pooled"):
            assert empty[key] is None, key
        assert empty["collisions_total"] == 0

    def test_infinite_headway_and_undefined_merging_are_left_out(self):
        agg = aggregate_summaries([summary(0, math.inf, 10.0, None),
                                   summary(1, 2.0, 20.0, 40.0)])
        assert (agg["min_headway_mean"], agg["min_headway_se"]) == (2.0, 0.0)
        assert agg["min_headway_min"] == 2.0
        assert (agg["merging_pct_mean"], agg["merging_pct_se"]) == (40.0, 0.0)
        assert agg["avg_speed_mean"] == 15.0
        only_inf = aggregate_summaries([summary(0, math.inf, 10.0, None)])
        assert only_inf["min_headway_mean"] is None and only_inf["min_headway_min"] is None
        assert only_inf["merging_pct_mean"] is None

    def test_sums_add_left_to_right_on_every_python(self):
        # a compensated sum (Python 3.12's float sum) keeps the 1.0 and
        # gives a mean of 1/3; left to right it is lost in 1e16
        agg = aggregate_summaries([summary(k, 1.0, speed, None)
                                   for k, speed in enumerate([1e16, 1.0, -1e16])])
        assert agg["avg_speed_mean"] == 0.0
        squares = 0
        for speed in (1e16, 1.0, -1e16):
            squares += speed ** 2
        assert agg["avg_speed_se"] == math.sqrt(squares / 2 / 3)

    def test_pooled_merging_and_collision_total(self):
        # pooled over vehicles, not the mean of per-episode shares
        agg = aggregate_summaries([summary(0, 1.0, 10.0, 100.0, collisions=2, merged=1, ramp=1),
                                   summary(1, 1.0, 10.0, 0.0, collisions=1, merged=0, ramp=3)])
        assert agg["merging_pct_pooled"] == 25.0
        assert agg["merging_pct_mean"] == 50.0
        assert agg["collisions_total"] == 3
        none_on_ramp = aggregate_summaries([summary(0, 1.0, 10.0, None)])
        assert none_on_ramp["merging_pct_pooled"] is None

    def test_write_read_keeps_infinite_headways(self, tmp_path):
        summaries = [summary(0, math.inf, 10.0, None), summary(1, 0.75, 12.5, 50.0, 1, 1, 2)]
        path = tmp_path / "summaries.jsonl"
        write_summaries(summaries, path)
        assert '"min_headway":null' in path.read_text().splitlines()[0]
        back = read_summaries(path)
        assert back == summaries
        assert math.isinf(back[0].min_headway)
        assert aggregate_summaries(back) == aggregate_summaries(summaries)


@pytest.mark.parametrize("bad, message", [
    ("{oops", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"a": 1}', "not a summary"),
    (json.dumps({**summary(0, 1.0, 10.0, 50.0).to_dict(), "min_headway": "abc"}),
     "not a summary (min_headway must be float, got 'abc')"),
    (json.dumps({**summary(0, 1.0, 10.0, 50.0).to_dict(), "collisions": True}),
     "not a summary (collisions must be int, got True)"),
    # json reads these extensions by default; a summary never holds them
    (json.dumps(summary(0, math.nan, 10.0, 50.0).to_dict()), "not JSON (NaN is not a JSON number)"),
    (json.dumps(summary(0, 1.0, math.inf, 50.0).to_dict()),
     "not JSON (Infinity is not a JSON number)"),
    (json.dumps(summary(0, 1.0, 10.0, -math.inf).to_dict()),
     "not JSON (-Infinity is not a JSON number)"),
])
def test_read_summaries_names_the_file_line_of_a_bad_line(tmp_path, bad, message):
    # the bad line is file line 3, behind a summary and a blank line
    path = tmp_path / "summaries.jsonl"
    write_summaries([summary(0, 1.0, 10.0, 50.0)], path)
    path.write_text(path.read_text() + "\n" + bad + "\n")
    with pytest.raises(ValueError) as info:
        read_summaries(path)
    assert str(info.value).startswith(f"{path}, line 3: {message}")


@pytest.mark.parametrize("bad", [summary(1, math.nan, 10.0, 50.0), summary(1, 1.0, math.inf, None),
                                 summary(1, 1.0, 10.0, math.nan)])
def test_write_summaries_rejects_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "summaries.jsonl"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_summaries([summary(0, 1.0, 10.0, 50.0), bad], path)
    assert list(tmp_path.iterdir()) == []


def test_aggregate_csv_rows(tmp_path):
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(aggregate_summaries([summary(0, 1.0, 10.0, 50.0, 1, 1, 2)]), path)
    assert path.read_text().splitlines() == [
        "schema,mergeshield.aggregate/1",
        "episodes,min_headway_mean,min_headway_se,min_headway_min,avg_speed_mean,avg_speed_se,"
        "merging_pct_mean,merging_pct_se,merging_pct_pooled,collisions_total",
        "1,1.0,0.0,1.0,10.0,0.0,50.0,0.0,50.0,1",
    ]
