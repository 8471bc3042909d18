"""Every module, entry point and policy kind the package names exists."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import mergeshield
from mergeshield.policy import POLICY_KINDS, Policy, PolicySpec, build_policy

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mergeshield.__path__)))
def test_module_imports(name):
    importlib.import_module(f"mergeshield.{name}")


def test_script_entry_points_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    for target in scripts.values():
        module_name, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_every_policy_kind_builds(kind):
    assert isinstance(build_policy(PolicySpec(kind=kind)), Policy)
