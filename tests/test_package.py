"""Every module, exported name, entry point, policy kind and benchmark
trace point the package names exists."""

import importlib
import importlib.util
import pkgutil
import tomllib
from pathlib import Path

import pytest

import mergeshield
from mergeshield.policy import POLICY_KINDS, Policy, PolicySpec, build_policy

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "bench" / "tracer.py"


MODULES = sorted(m.name for m in pkgutil.iter_modules(mergeshield.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(f"mergeshield.{name}")


@pytest.mark.parametrize("name", ["mergeshield"] + [f"mergeshield.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_script_entry_points_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    for target in scripts.values():
        module_name, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_every_policy_kind_builds(kind):
    assert isinstance(build_policy(PolicySpec(kind=kind)), Policy)


def test_bench_trace_points_resolve():
    # the benchmark's tracer reports a function it cannot find as an absent
    # layer instead of failing, so check every target it patches here
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module_name, attr, importers in tracer.SPAN_POINTS:
        module = importlib.import_module(module_name)
        if name == "policy.decide":
            assert any(isinstance(cls, type) and issubclass(cls, Policy) and attr in vars(cls)
                       for cls in vars(module).values()), name
            continue
        target = vars(module).get(attr)
        assert callable(target), name
        for importer in importers:
            assert vars(importlib.import_module(importer)).get(attr) is target, (name, importer)
    for name, module_name, attr in tracer.COUNT_POINTS:
        assert callable(vars(importlib.import_module(module_name)).get(attr)), name
