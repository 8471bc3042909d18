"""Tests of the benchmark command and its correctness gate."""

import json
import shutil
import subprocess
import sys

from checks import check_episode
from workloads import WORKLOADS

from conftest import BENCH, ROOT


def _episode_lines(name, seed, steps=30):
    from mergeshield import episode, records

    record, _ = episode.run_episode(WORKLOADS[name].config(episode_steps=steps), seed)
    return records.episode_lines(record)


def _edit_first_shielded_row(lines, edit):
    """Apply ``edit`` to the shield audit of the first acted vehicle row."""
    for i, line in enumerate(lines[1:], start=1):
        d = json.loads(line)
        if d["kind"] != "step":
            continue
        for row in d["vehicles"]:
            if "shield" in row:
                edit(row["shield"])
                lines = list(lines)
                lines[i] = json.dumps(d, separators=(",", ":"))
                return lines
    raise AssertionError("no shielded row")


def test_gate_passes_an_untouched_episode():
    facts = check_episode(_episode_lines("merge-mass-random", 0), "mass", "random")
    assert facts.problems == ()
    assert facts.steps == 30
    assert facts.vehicle_steps > 0


def test_gate_catches_a_broken_audit_identity():
    lines = _edit_first_shielded_row(_episode_lines("merge-mass-random", 0),
                                     lambda s: s.update(v_cbf=s["v_cbf"] + 1e-6))
    problems = check_episode(lines, "mass", "random").problems
    assert any("v_nominal" in p for p in problems)


def test_gate_catches_a_command_outside_the_reach_box():
    def jump(shield):
        shield["v_safe"] += 5.0
        shield["v_cbf"] = shield["v_safe"] - shield["v_nominal"]

    lines = _edit_first_shielded_row(_episode_lines("merge-hss-heuristic", 0), jump)
    problems = check_episode(lines, "hss", "heuristic").problems
    assert any("reach box" in p for p in problems)


def test_gate_catches_a_summary_that_does_not_round_trip():
    lines = _episode_lines("merge-none-random", 0)
    summary = json.loads(lines[-1])
    summary["avg_speed"] += 1.0
    lines[-1] = json.dumps(summary, separators=(",", ":"))
    problems = check_episode(lines, "none", "random").problems
    assert any("round trip" in p for p in problems)


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_end_to_end_metric(benchmark_json):
    proc = _bench(["--workload", "merge-none-random", "--seed", "5", "--seconds", "0.5",
                   "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("collisions", "shield_faults", "min_headway_s", "merge_pct",
                 "avg_speed_mps", "failed_episode_share", "fingerprint"):
        assert name in proc.stdout


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(["--workload", "merge-mass-random", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

