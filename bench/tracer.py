"""Outside-in span tracer for the mergeshield layers.

The tracer replaces public functions of each layer module with wrappers
that record a span (name, start, end, parent span) around every call, and
restores the original attributes on exit.  Nothing inside ``src/`` is
changed.  A layer's self time is its span's duration minus the time covered
by its child spans.

Patch points.  ``episode`` binds ``step_world``, ``observe``,
``fleet_rewards``, ``snapshot_step`` and ``summarize_episode`` at import,
and ``world`` binds ``joint_safe_control`` and ``step``: those names are
wrapped in the defining and in the importing module.  ``neighbors`` and
``build_topology`` are imported inside the calling functions, so they are
looked up at call time and one patch covers every caller.  A function that
no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

__all__ = ["Tracer", "SPAN_POINTS", "COUNT_POINTS", "ACTIVE_KINDS",
           "install_layer_tracing", "layer_metrics"]

#: (span name, defining module, attribute, modules that bind it at import)
SPAN_POINTS = (
    ("episode.run_episode", "mergeshield.episode", "run_episode", ()),
    ("policy.decide", "mergeshield.policy", "decide", ()),
    ("world.step_world", "mergeshield.world", "step_world", ("mergeshield.episode",)),
    ("world.observe", "mergeshield.world", "observe", ("mergeshield.episode",)),
    ("world.neighbors", "mergeshield.world", "neighbors", ()),
    ("world.plan_motion", "mergeshield.world", "plan_motion", ()),
    ("topology.build_topology", "mergeshield.topology", "build_topology", ()),
    ("shield.joint_safe_control", "mergeshield.shield", "joint_safe_control",
     ("mergeshield.world",)),
    ("shield.brake_guard", "mergeshield.shield", "brake_guard", ()),
    ("shield.solve_qp", "mergeshield.shield", "solve_qp", ()),
    ("dynamics.step", "mergeshield.dynamics", "step", ("mergeshield.world",)),
    ("reward.fleet_rewards", "mergeshield.reward", "fleet_rewards", ("mergeshield.episode",)),
    ("records.snapshot_step", "mergeshield.records", "snapshot_step", ("mergeshield.episode",)),
    ("records.episode_lines", "mergeshield.records", "episode_lines", ()),
    ("metrics.summarize_episode", "mergeshield.metrics", "summarize_episode",
     ("mergeshield.episode",)),
)

#: counted calls without a span (too small and too frequent to time)
COUNT_POINTS = (
    ("shield.brake_margin", "mergeshield.shield", "brake_margin"),
)

#: kinds of active shield constraint, the label up to the first ':'
ACTIVE_KINDS = ("headway", "brake", "reach_hi", "reach_lo", "lat_rear", "lat_leader", "fault")


class Tracer:
    """Records spans around wrapped callables; a context manager that
    restores every patched attribute on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: one [name, start, end, parent index] per call, oldest first
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        runs after each call, with ``result`` None when the call raised."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if hook is not None:
                    hook(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def fold(self) -> dict:
        """Per-name ``[calls, total_s, self_s]`` over the recorded spans;
        clears the span list."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - covered
        self.spans.clear()
        return out


def _policy_classes(module):
    from mergeshield.policy import Policy

    return [cls for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Policy) and "decide" in cls.__dict__]


def _hooks(counts: Counter) -> dict:
    def brake_guard(args, kwargs, row):
        counts["shield.brake_guard.rows"] += row is not None

    def solve_qp(args, kwargs, sol):
        rows = args[1] if len(args) > 1 else kwargs["constraints"]
        counts["shield.solve_qp.soft"] += any(r.kind == "soft" for r in rows)

    def joint_safe_control(args, kwargs, outcomes):
        if outcomes is None:
            return
        plans = args[2] if len(args) > 2 else kwargs["nominal_plans"]
        for vid, out in outcomes.items():
            counts["shield.outcomes"] += 1
            counts["shield.faults"] += out.fault
            counts["shield.interventions"] += abs(out.v_cbf) > 0.0
            counts["shield.slack"] += out.slack_used
            for label in out.active_constraints:
                counts["shield.active." + label.split(":", 1)[0]] += 1
            if plans[vid].lane_request:
                counts["shield.lane_requests"] += 1
                counts["shield.lane_denials"] += not out.lane_change_allowed

    def build_topology(args, kwargs, topo):
        if topo is not None:
            counts["topology.parent_edges"] += sum(len(p) for p in topo.entries.values())

    def episode_lines(args, kwargs, lines):
        if lines is not None:
            counts["records.bytes"] += sum(len(line) + 1 for line in lines)

    return {
        "shield.brake_guard": brake_guard,
        "shield.solve_qp": solve_qp,
        "shield.joint_safe_control": joint_safe_control,
        "topology.build_topology": build_topology,
        "records.episode_lines": episode_lines,
    }


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap every patch point; missing functions land in ``tracer.absent``."""
    hooks = _hooks(tracer.counts)
    for name, module_name, attr, importers in SPAN_POINTS:
        module = importlib.import_module(module_name)
        if name == "policy.decide":
            owners = _policy_classes(module)
            for cls in owners:
                tracer.patch(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
            if not owners:
                tracer.absent.append(name)
            continue
        original = module.__dict__.get(attr)
        if original is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, hooks.get(name))
        tracer.patch(module, attr, wrapped)
        for importer_name in importers:
            importer = importlib.import_module(importer_name)
            if importer.__dict__.get(attr) is original:
                tracer.patch(importer, attr, wrapped)
    for name, module_name, attr in COUNT_POINTS:
        module = importlib.import_module(module_name)
        original = module.__dict__.get(attr)
        if original is None:
            tracer.absent.append(name)
            continue
        tracer.patch(module, attr, tracer.counted(name, original))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counts: Counter, steps: int, episodes: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, keyed by name, as ``(value, unit)``.

    ``spans`` is the summed :meth:`Tracer.fold` output over ``episodes``
    traced episodes of ``steps`` world steps in total; ``traced_s`` and
    ``untraced_s`` are the times of the same episodes with and without
    tracing, in the same (host-corrected) seconds as the spans.
    """
    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_ms_per_step(name):
        return 1000.0 * spans.get(name, (0, 0.0, 0.0))[2] / steps

    def ms_per_episode(name):
        return 1000.0 * spans.get(name, (0, 0.0, 0.0))[1] / episodes

    m = {}
    for name in ("shield.brake_guard", "shield.solve_qp", "shield.joint_safe_control",
                 "world.neighbors", "world.observe", "world.plan_motion", "world.step_world",
                 "topology.build_topology", "policy.decide", "reward.fleet_rewards",
                 "records.snapshot_step", "dynamics.step", "episode.run_episode"):
        m[name + ".self_ms_per_step"] = (self_ms_per_step(name), "ms/step")
    for name in ("shield.brake_guard", "shield.solve_qp", "world.neighbors", "world.observe"):
        m[name + ".calls_per_step"] = (calls(name) / steps, "1/step")
    m["shield.brake_guard.row_ratio"] = (
        _ratio(counts["shield.brake_guard.rows"], calls("shield.brake_guard")), "ratio")
    m["shield.brake_margin.evals_per_step"] = (counts["shield.brake_margin"] / steps, "1/step")
    m["shield.solve_qp.soft_share"] = (
        _ratio(counts["shield.solve_qp.soft"], calls("shield.solve_qp")), "ratio")
    outcomes = counts["shield.outcomes"]
    m["shield.fault_share"] = (_ratio(counts["shield.faults"], outcomes), "ratio")
    m["shield.intervention_share"] = (_ratio(counts["shield.interventions"], outcomes), "ratio")
    m["shield.slack_total"] = (counts["shield.slack"] / episodes, "1/episode")
    m["shield.lane_requests"] = (counts["shield.lane_requests"] / episodes, "1/episode")
    m["shield.lane_denial_share"] = (
        _ratio(counts["shield.lane_denials"], counts["shield.lane_requests"]), "ratio")
    for kind in ACTIVE_KINDS:
        m["shield.active." + kind] = (counts["shield.active." + kind] / steps, "1/step")
    m["topology.parent_edges_per_step"] = (counts["topology.parent_edges"] / steps, "1/step")
    m["records.episode_lines.ms_per_episode"] = (ms_per_episode("records.episode_lines"),
                                                 "ms/episode")
    m["records.bytes_per_episode"] = (counts["records.bytes"] / episodes, "B/episode")
    m["metrics.summarize_episode.ms_per_episode"] = (ms_per_episode("metrics.summarize_episode"),
                                                    "ms/episode")
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    self_total = sum(acc[2] for acc in spans.values())
    m["trace.coverage"] = (self_total / traced_s, "ratio")
    return m
