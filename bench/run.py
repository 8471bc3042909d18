#!/usr/bin/env python3
"""Episode-throughput benchmark for mergeshield.

One process, one thread, episodes back to back through the public API
(``RunConfig`` -> ``episode.run_episode`` -> ``records.episode_lines``):
a closed loop with a single client.  Run from the repository root::

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload merge-mass-random --seed 0 --seconds 18 --trace 0
    python3 bench/run.py --workload dense-mass-heuristic --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any episode
raised or failed a correctness check, or when the program source is
missing.  See ``bench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

sys.path.insert(0, str(BENCH_DIR))
import hostspeed  # noqa: E402
from workloads import FINGERPRINT_SEED, WORKLOADS  # noqa: E402

#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 5
#: the timed loop stops early past this wall time so a run ends within 180 s
WALL_LIMIT_S = 140.0
#: the traced run spends this share of ``--seconds`` on its untraced pass
UNTRACED_SHARE = 1.0 / 3.0


def import_program():
    """Import ``mergeshield`` from this checkout's ``src``, never from
    elsewhere; exits non-zero when the source is missing."""
    package = SRC / "mergeshield"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import mergeshield

    if Path(mergeshield.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported mergeshield from {mergeshield.__file__}, not {package}")
    return mergeshield


def setup_probe(name: str) -> None:
    """Child-process body: time import, config, policy and first world;
    prints the wall time and the host-speed kernel times around it."""
    kernel_before = hostspeed.kernel_seconds()
    t0 = time.perf_counter()
    import_program()
    from mergeshield.episode import build_world
    from mergeshield.policy import build_policy

    cfg = WORKLOADS[name].config()
    build_policy(cfg.policy)
    build_world(cfg, FINGERPRINT_SEED)
    wall = time.perf_counter() - t0
    print(json.dumps([wall, kernel_before, hostspeed.kernel_seconds()]))


def time_setups(name: str, count: int) -> list:
    """Host-corrected set-up times of ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        times.append(hostspeed.corrected(*json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def src_lines() -> int:
    """Net non-blank line count of ``src/mergeshield``."""
    return sum(
        1
        for path in sorted((SRC / "mergeshield").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def fingerprint(lines: list) -> str:
    """sha256 of the episode as ``write_episode`` would write it."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@dataclass
class Episode:
    """One timed, checked episode."""

    seed: int
    facts: object
    wall: float
    #: host-corrected time (see ``hostspeed``)
    seconds: float


class Runner:
    """Runs, times and checks the episodes of one workload."""

    def __init__(self, workload):
        from mergeshield import episode, records

        import checks

        self.workload = workload
        self.cfg = workload.config()
        self.episode = episode
        self.records = records
        self.checks = checks
        self.attempted = 0
        self.failed = 0

    def timed(self, seed: int):
        """One episode through the public API; returns (lines, wall seconds,
        host-corrected seconds).  The host-speed kernel runs right before
        and right after the timed region."""
        gc.collect()
        kernel_before = hostspeed.kernel_seconds()
        t0 = time.perf_counter()
        record, _ = self.episode.run_episode(self.cfg, seed)
        lines = self.records.episode_lines(record)
        wall = time.perf_counter() - t0
        return lines, wall, hostspeed.corrected(wall, kernel_before, hostspeed.kernel_seconds())

    def checked(self, seed: int):
        """Run, time and check one episode; None when it failed."""
        self.attempted += 1
        try:
            lines, wall, seconds = self.timed(seed)
            facts = self.checks.check_episode(lines, self.workload.shield, self.workload.policy)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if facts.problems:
            self.failed += 1
            for problem in facts.problems[:5]:
                print(f"FAIL seed {seed}: {problem}", file=sys.stderr)
            return None
        return Episode(seed, facts, wall, seconds)

    def loop(self, base_seed: int, seconds: float, deadline: float) -> list:
        """Consecutive seeds from ``base_seed`` until ``seconds`` of episode
        wall time and the workload's minimum episode count are both
        reached; returns the episodes that passed every check."""
        done = []
        timed = 0.0
        seed = base_seed
        while len(done) < self.workload.min_episodes or timed < seconds:
            if time.monotonic() > deadline:
                print(f"bench: wall limit reached after {len(done)} episodes", file=sys.stderr)
                break
            ep = self.checked(seed)
            if ep is not None:
                done.append(ep)
                timed += ep.wall
            seed += 1
        return done

    def fingerprint_digest(self) -> str:
        lines, _, _ = self.timed(FINGERPRINT_SEED)
        return fingerprint(lines)

    def same_again(self, digest: str) -> bool:
        """Determinism gate: the fingerprint seed again gives the same bytes."""
        self.attempted += 1
        try:
            lines, _, _ = self.timed(FINGERPRINT_SEED)
        except Exception:
            traceback.print_exc()
            lines = None
        if lines is None or fingerprint(lines) != digest:
            self.failed += 1
            print(f"FAIL determinism: seed {FINGERPRINT_SEED} did not serialise the same "
                  f"on a rerun", file=sys.stderr)
            return False
        return True


def report_fingerprint(name: str, digest: str) -> None:
    stored = json.loads(FINGERPRINTS.read_text()).get(name) if FINGERPRINTS.is_file() else None
    if stored == digest:
        status = "matches bench/fingerprints.json"
    else:
        status = f"behaviour changed (stored {stored})"
    print(f"fingerprint {name} seed {FINGERPRINT_SEED}: {digest} {status}")


def behaviour(episodes: list) -> dict:
    """Behaviour metrics, as (value, unit, better)."""
    summaries = [ep.facts.summary for ep in episodes]
    headways = [s["min_headway"] for s in summaries if s["min_headway"] is not None]
    ramp = sum(s["ramp_count"] for s in summaries)
    return {
        "collisions": (sum(s["collisions"] for s in summaries), "count", "lower"),
        "shield_faults": (sum(ep.facts.faults for ep in episodes), "count", "lower"),
        "min_headway_s": (min(headways) if headways else float("inf"), "s", "higher"),
        "merge_pct": (100.0 * sum(s["merged_count"] for s in summaries) / ramp if ramp else 0.0,
                      "%", "higher"),
        "avg_speed_mps": (statistics.fmean(s["avg_speed"] for s in summaries), "m/s", "higher"),
    }


def report_reach(episodes: list) -> None:
    from checks import REACH_TOL

    facts = [ep.facts for ep in episodes]
    print(f"  reach box: {sum(f.reach_excursions for f in facts)} vehicle-steps outside the "
          f"exact box, by at most {max(f.reach_excursion_max for f in facts):.3g} "
          f"(tolerance {REACH_TOL:g})")


def print_metric(name, value, unit, better, note="") -> None:
    print(f"  {name:24s} {value:14.4f} {unit:6s} ({better} is better){note}")


def run_untraced(runner: Runner, args, deadline: float) -> dict:
    w = runner.workload
    # set-up is timed before and after the episodes, to sample more of the
    # host's slow and fast phases than one burst would
    setups = time_setups(w.name, SETUP_REPEATS // 2 + 1)
    digest = runner.fingerprint_digest()  # warm-up, outside the timed set
    done = runner.loop(args.seed, args.seconds, deadline)
    runner.same_again(digest)
    setups += time_setups(w.name, SETUP_REPEATS // 2)
    report_fingerprint(w.name, digest)
    if not done:
        return {}

    vehicle_steps = sum(ep.facts.vehicle_steps for ep in done)
    seconds = [ep.seconds for ep in done]
    wall = [ep.wall for ep in done]
    metrics = {
        "vehicle_steps_per_s": (vehicle_steps / sum(seconds), "1/s", "higher",
                                vehicle_steps / sum(wall)),
        "episode_ms_p50": (1000.0 * statistics.median(seconds), "ms", "lower",
                           1000.0 * statistics.median(wall)),
        "setup_s": (statistics.median(setups), "s", "lower", None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "lower", None),
    }
    print(f"workload {w.name}: seeds {args.seed}..{args.seed + len(done) - 1}, "
          f"{vehicle_steps} vehicle-steps; episode times are host-corrected (raw wall in "
          f"brackets)")
    for name, (value, unit, better, wall_value) in metrics.items():
        note = "" if wall_value is None else f"  [wall {wall_value:.4f}]"
        print_metric(name, value, unit, better, note)
    print(f"  episode_ms_p50 sample count {len(seconds)} episodes")
    print(f"  behaviour over seeds {args.seed}..{args.seed + w.min_episodes - 1}:")
    for name, (value, unit, better) in behaviour(done[:w.min_episodes]).items():
        print_metric(name, value, unit, better)
    report_reach(done)
    return {name: (value, unit) for name, (value, unit, _, _) in metrics.items()}


def run_traced(runner: Runner, args, deadline: float) -> dict:
    from tracer import Tracer, install_layer_tracing, layer_metrics

    w = runner.workload
    digest = runner.fingerprint_digest()
    untraced = runner.loop(args.seed, args.seconds * UNTRACED_SHARE, deadline)
    traced = []
    with Tracer() as tracer:
        install_layer_tracing(tracer)
        same = runner.same_again(digest)
        tracer.fold()
        tracer.counts.clear()
        for plain in untraced:
            ep = runner.checked(plain.seed)
            folded = tracer.fold()
            if ep is not None:
                traced.append((ep, folded))
        counts = Counter(tracer.counts)
        absent = list(tracer.absent)
    print(f"traced fingerprint {w.name}: "
          f"{'equals the untraced one' if same else 'DIFFERS from the untraced one'}")
    report_fingerprint(w.name, digest)
    if not traced or len(traced) != len(untraced):
        return {}
    spans: dict = {}
    for ep, folded in traced:
        scale = ep.seconds / ep.wall  # the episode's host-speed correction
        for name, (calls, total, own) in folded.items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * scale
            acc[2] += own * scale
    steps = sum(ep.facts.steps for ep, _ in traced)
    metrics = layer_metrics(
        spans, counts, steps, len(traced),
        traced_s=sum(ep.seconds for ep, _ in traced),
        untraced_s=sum(ep.seconds for ep in untraced),
    )
    print(f"workload {w.name}: {len(traced)} traced episodes from seed {args.seed}, {steps} "
          f"steps; times are host-corrected")
    for name, (value, unit) in metrics.items():
        flag = "  absent" if name.rsplit(".", 1)[0] in absent else ""
        print(f"  {name:44s} {value:14.4f} {unit}{flag}")
    for name in absent:
        print(f"  span {name}: absent")
    report_reach([ep for ep, _ in traced])
    return metrics


def run_one(args) -> int:
    start = time.monotonic()
    import_program()
    runner = Runner(WORKLOADS[args.workload])
    body = run_traced if args.trace else run_untraced
    values = body(runner, args, start + WALL_LIMIT_S)
    failed = runner.failed
    attempted = max(runner.attempted, 1)
    print(f"  failed_episode_share     {failed / attempted:14.4f} ratio  "
          f"({failed} of {attempted} episodes)")
    print(f"  src/mergeshield non-blank lines: {src_lines()}")
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so set-up and peak memory stay
    per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; episodes use consecutive seeds from it")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="episode time to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < FINGERPRINT_SEED - 1_000_000:
        parser.error(f"--seed must lie in [0, {FINGERPRINT_SEED - 1_000_000})")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
