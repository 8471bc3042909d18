"""Byte-identity sweep: three sha256 per episode record, with the
episode's shield faults, collisions and min headway beside them.

Prints one line ``mode policy n seed header steps summary faults
collisions min_headway`` per episode of the grid {none, hss, mass} x {random,
heuristic} x n in {9, 11} x seeds 0-9 (150-step episodes, default road),
then the dense case (40 vehicles, merge section at 2000 m, ``mass``
shield, heuristic policy) on seeds 0-1.  It ends with one ``total`` line
per (mode, policy) and one for the dense case: summed faults and
collisions, and the smallest min headway.  The three digests cover the
lines ``records.episode_lines`` writes, split as ``test_golden.digests``
splits them: the header line, the step lines and the summary line.  A
change to the config echo alone moves only the header column.  Uses only
the public config and episode API, so it runs unchanged against any
checkout's ``src``.

A change meant to keep records byte-identical is checked by diffing the
output on the parent and on the change; for a change that moves records
on purpose, the same diff shows how faults, collisions and headways
moved::

    python3 tests/record_sweep.py --src /path/to/parent/src > before.txt
    python3 tests/record_sweep.py > after.txt
    diff before.txt after.txt

The number of records whose header, steps or summary moved, block by
block (columns 5-7 of a line; a ``before.txt`` line has 10 columns)::

    paste -d ' ' before.txt after.txt | awk '$1 != "total" {
        n++; for (i = 5; i <= 7; i++) moved[i] += ($i != $(i + 10)) }
      END { printf "records changed of %d, by block: header %d, steps %d, summary %d\\n",
                   n, moved[5], moved[6], moved[7] }'

Records are the same bytes on every supported Python (3.10 on), so the
output does not depend on the interpreter either.  To check that, run the
sweep under a second installed interpreter and diff it the same way::

    python3.12 tests/record_sweep.py > other.txt
    diff after.txt other.txt

pytest does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

MODES = ("none", "hss", "mass")
POLICIES = ("random", "heuristic")
FLEET_SIZES = (9, 11)
SEEDS = range(10)
DENSE_SEEDS = range(2)


def cases():
    """(mode, policy, n, seed, merge_start) of every episode, in print order."""
    for mode in MODES:
        for policy in POLICIES:
            for n in FLEET_SIZES:
                for seed in SEEDS:
                    yield mode, policy, n, seed, None
    for seed in DENSE_SEEDS:
        yield "mass", "heuristic", 40, seed, 2000.0


def episode_line(mode: str, policy: str, n: int, seed: int, merge_start) -> tuple:
    """The sha256 of the record's header, step and summary lines, and the
    episode's fault count, collision count and min headway."""
    from mergeshield.config import RunConfig
    from mergeshield.episode import run_episode
    from mergeshield.policy import PolicySpec
    from mergeshield.records import episode_lines
    from mergeshield.road import RoadNetwork
    from mergeshield.shield import ShieldConfig
    from mergeshield.world import ScenarioConfig

    cfg = RunConfig(
        scenario=ScenarioConfig(n_vehicles=n),
        road=RoadNetwork() if merge_start is None else RoadNetwork(merge_start=merge_start),
        shield=ShieldConfig(mode=mode),
        policy=PolicySpec(kind=policy),
        allow_offrange=n > 11,
    )
    record, summary = run_episode(cfg, seed)
    lines = episode_lines(record)
    digests = tuple(hashlib.sha256(("\n".join(block) + "\n").encode()).hexdigest()
                    for block in (lines[:1], lines[1:-1], lines[-1:]))
    faults = sum(bool(row.fault) for step in record.steps for row in step.vehicles)
    return digests, faults, summary.collisions, summary.min_headway


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the mergeshield package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import mergeshield
    print(f"mergeshield from {Path(mergeshield.__file__).parent}", file=sys.stderr)
    totals: dict = {}
    for mode, policy, n, seed, merge_start in cases():
        digests, faults, collisions, headway = episode_line(mode, policy, n, seed, merge_start)
        print(mode, policy, n, seed, *digests, faults, collisions, f"{headway:.4f}", flush=True)
        key = (mode, policy, "dense" if merge_start is not None else "")
        f, c, h = totals.get(key, (0, 0, headway))
        totals[key] = (f + faults, c + collisions, min(h, headway))
    for (mode, policy, dense), (faults, collisions, headway) in totals.items():
        print("total", mode, policy, dense or "-", faults, collisions, f"{headway:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
