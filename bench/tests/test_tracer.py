"""Tests of the outside-in tracer: self-time arithmetic, patch coverage on
every workload, restoration of wrapped attributes, and non-perturbation."""

import importlib
import time
from collections import Counter

import pytest

from tracer import COUNT_POINTS, SPAN_POINTS, Tracer, install_layer_tracing, layer_metrics
from workloads import WORKLOADS

#: steps per episode in these tests; enough for every expected span to fire
SHORT_STEPS = 20
#: self times must sum to the root span duration within this share
SELF_SUM_TOL = 1e-9


class TickClock:
    """Deterministic clock: every reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _nested(tracer):
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        mid()
        leaf()

    return tracer.wrap("root", root_body)


def test_self_times_on_tick_clock():
    tracer = Tracer(clock=TickClock())
    _nested(tracer)()
    folded = tracer.fold()
    # readings: root 1, mid 2, leaf 3-4, leaf 5-6, mid 7, leaf 8-9, root 10
    assert folded["leaf"] == [3, 3.0, 3.0]
    assert folded["mid"] == [1, 5.0, 3.0]
    assert folded["root"] == [1, 9.0, 3.0]
    assert tracer.spans == []


def test_self_times_sum_to_root_on_real_clock():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = tracer.wrap("leaf", lambda: busy(0.002))
    mid = tracer.wrap("mid", lambda: (busy(0.001), leaf(), leaf()))
    root = tracer.wrap("root", lambda: (mid(), leaf(), busy(0.001)))
    root()
    root_span = [s for s in tracer.spans if s[0] == "root"][0]
    root_s = root_span[2] - root_span[1]
    folded = tracer.fold()
    self_total = sum(acc[2] for acc in folded.values())
    assert abs(self_total - root_s) <= SELF_SUM_TOL * root_s
    assert folded["leaf"][0] == 3
    assert all(acc[2] > 0.0 for acc in folded.values())


def test_span_closes_and_hook_runs_when_call_raises():
    seen = []
    tracer = Tracer(clock=TickClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom, hook=lambda a, k, r: seen.append(r))
    with pytest.raises(ValueError):
        wrapped()
    assert seen == [None]
    assert tracer.fold() == {"boom": [1, 1.0, 1.0]}
    assert tracer._stack == []


def _patched_attributes():
    """Every (owner, attribute) the tracer may patch, with its current value."""
    from mergeshield.policy import Policy

    out = {}
    for name, module_name, attr, importers in SPAN_POINTS:
        for owner_name in (module_name, *importers):
            owner = importlib.import_module(owner_name)
            if name == "policy.decide":
                for cls in vars(owner).values():
                    if isinstance(cls, type) and issubclass(cls, Policy):
                        out[(cls, attr)] = cls.__dict__.get(attr)
            else:
                out[(owner, attr)] = owner.__dict__.get(attr)
    for _, module_name, attr in COUNT_POINTS:
        owner = importlib.import_module(module_name)
        out[(owner, attr)] = owner.__dict__.get(attr)
    return out


def expected_spans(workload) -> set:
    """Spans that must record calls on ``workload``."""
    names = {name for name, *_ in SPAN_POINTS}
    if workload.policy == "random":
        names.discard("world.observe")  # the random policy reads no observations
    if workload.shield == "none":
        names -= {"shield.brake_guard", "shield.solve_qp"}
    return names


def _run(cfg, seed):
    from mergeshield import episode, records

    record, _ = episode.run_episode(cfg, seed)
    return records.episode_lines(record)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_expected_spans_record_calls_and_tracing_does_not_perturb(name):
    workload = WORKLOADS[name]
    cfg = workload.config(episode_steps=SHORT_STEPS)
    plain = _run(cfg, 3)
    with Tracer() as tracer:
        install_layer_tracing(tracer)
        traced = _run(cfg, 3)
        folded = tracer.fold()
    assert tracer.absent == []
    assert traced == plain
    missing = {span for span in expected_spans(workload) if folded.get(span, [0])[0] == 0}
    assert missing == set()
    assert tracer.counts["shield.brake_margin"] > 0
    assert folded["world.step_world"][0] == SHORT_STEPS


def test_every_wrapped_attribute_is_restored():
    before = _patched_attributes()
    cfg = WORKLOADS["merge-hss-heuristic"].config(episode_steps=SHORT_STEPS)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            install_layer_tracing(tracer)
            assert _patched_attributes() != before
            _run(cfg, 0)
            raise RuntimeError("leave the traced block early")
    assert _patched_attributes() == before


def test_missing_function_is_reported_absent(monkeypatch):
    import mergeshield.episode
    import mergeshield.world

    monkeypatch.delattr(mergeshield.world, "observe")
    monkeypatch.delattr(mergeshield.episode, "observe")
    with Tracer() as tracer:
        install_layer_tracing(tracer)
    assert tracer.absent == ["world.observe"]


def test_layer_metrics_match_benchmark_json(benchmark_json):
    metrics = layer_metrics({}, Counter(), steps=1, episodes=1, traced_s=1.0, untraced_s=1.0)
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
