"""The four benchmark workloads, built through the public config API.

Every workload runs 150-step episodes with the config defaults unless its
definition says otherwise.  Importing this module does not import
``mergeshield``; :meth:`Workload.config` does, so the set-up probe can time
that import.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "FINGERPRINT_SEED"]

#: Seed of the warm-up episode, which is also the determinism and
#: fingerprint episode.  Timed episodes use consecutive seeds from the base
#: seed given on the command line, so base seeds must stay well below this.
FINGERPRINT_SEED = 4_000_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    n_vehicles: int
    shield: str
    policy: str
    #: ``None`` keeps the default road; the dense case needs a longer one
    #: because ``world.spawn`` places vehicles in fixed regions before it
    merge_start: float | None
    #: the timed loop runs at least this many episodes, and the behaviour
    #: metrics cover exactly the first this-many seeds from the base seed
    min_episodes: int
    why: str

    def config(self, episode_steps: int = 150):
        from mergeshield.config import RunConfig
        from mergeshield.policy import PolicySpec
        from mergeshield.road import RoadNetwork
        from mergeshield.shield import ShieldConfig
        from mergeshield.world import ScenarioConfig

        road = RoadNetwork() if self.merge_start is None else RoadNetwork(merge_start=self.merge_start)
        return RunConfig(
            scenario=ScenarioConfig(n_vehicles=self.n_vehicles, episode_steps=episode_steps),
            road=road,
            shield=ShieldConfig(mode=self.shield),
            policy=PolicySpec(kind=self.policy),
            # 40 vehicles lies outside the 7-11 reference range
            allow_offrange=self.n_vehicles > 11,
        ).resolved()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "merge-mass-random", 9, "mass", "random", None, 10,
            "paper reference scenario under exploration traffic; shield about half "
            "the step, brake-guard bisection dominant, most mass faults",
        ),
        Workload(
            "merge-hss-heuristic", 9, "hss", "heuristic", None, 10,
            "worst-case shield with lane-change gate and no topology credits; the "
            "only small workload that builds observations",
        ),
        Workload(
            "merge-none-random", 9, "none", "random", None, 10,
            "shield bypassed, so a shield change must predict no change; reward, "
            "records and policy dominate; most vehicles crash",
        ),
        Workload(
            "dense-mass-heuristic", 40, "mass", "heuristic", 2000.0, 2,
            "scaling case with 40 vehicles on a long road; the O(N^2) neighbour, "
            "observation, reward and collision work shows",
        ),
    )
}
