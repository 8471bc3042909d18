"""Every module, exported name, entry point, policy kind and benchmark
trace point the package names exists, every exported name has a caller,
and the values built per vehicle and step stay cheap tuples."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import mergeshield
from mergeshield.config import RunConfig
from mergeshield.episode import run_episode
from mergeshield.policy import POLICY_KINDS, Policy, PolicySpec, build_policy
from mergeshield.records import episode_lines
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "mergeshield"
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"


MODULES = sorted(m.name for m in pkgutil.iter_modules(mergeshield.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(f"mergeshield.{name}")


def _run_fresh(code: str, *args) -> list:
    """Run ``code`` in a fresh interpreter that imports this package; its
    output lines.  pytest itself has numpy and yaml loaded, so only a fresh
    interpreter shows what the package imports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_running_episodes_loads_neither_numpy_nor_yaml():
    lines = _run_fresh(f"""
import importlib, sys
for name in {MODULES!r}:
    importlib.import_module("mergeshield." + name)
from mergeshield.config import RunConfig
from mergeshield.episode import run_episode
from mergeshield.policy import PolicySpec
from mergeshield.records import episode_lines
from mergeshield.world import ScenarioConfig
for kind in ("random", "heuristic"):
    cfg = RunConfig(scenario=ScenarioConfig(episode_steps=3), policy=PolicySpec(kind=kind))
    print(len(episode_lines(run_episode(cfg, 0)[0])))
print(sorted(m for m in ("numpy", "yaml") if m in sys.modules))
""")
    assert lines == ["5", "5", "[]"]


def test_load_config_imports_yaml_when_called(tmp_path):
    good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text("scenario: {n_vehicles: 7, dt: 0.05}\n")
    bad.write_text("scenario: {n_vehicles: 7\n")
    lines = _run_fresh("""
import sys
from mergeshield.config import ConfigError, load_config
print("yaml" in sys.modules)
cfg = load_config(sys.argv[1])
print(cfg.scenario.n_vehicles, cfg.shield.dt)
try:
    load_config(sys.argv[2])
except ConfigError as exc:
    print(exc)
""", str(good), str(bad))
    assert lines[:2] == ["False", "7 0.05"]
    assert lines[2].startswith("parse error (line 2, column 1): expected ',' or '}'")


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
    # the tracer's hooks read the shield's rows and outcomes: run them on a
    # short episode that builds caps and soft floors, and require that
    # tracing leaves its record unchanged
    cfg = RunConfig(scenario=ScenarioConfig(episode_steps=30), shield=ShieldConfig(mode="mass"),
                    policy=PolicySpec(kind="random"))
    plain = episode_lines(run_episode(cfg, 0)[0])
    with tracer.Tracer() as traced:
        tracer.install_layer_tracing(traced)
        lines = episode_lines(run_episode(cfg, 0)[0])
    assert traced.absent == []
    assert lines == plain
    assert traced.counts["shield.solve_qp.soft"] > 0
    assert traced.counts["shield.brake_guard.rows"] > 0


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # the caller check below sees only exported names, so a public function
    # or class left out of __all__ would escape it
    tree = ast.parse((SRC / f"{name}.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert sorted(defined - set(importlib.import_module(f"mergeshield.{name}").__all__)) == []


#: exported names still waiting for their caller: the batch surface that a
#: run entry point will drive (load a config; write and read episode
#: files, summaries and the aggregate; flag safety violations).  A mention
#: in a docstring is no call.
AWAITING_CALLER = {
    "mergeshield.config.load_config",
    "mergeshield.episode.is_violation",
    "mergeshield.records.write_episode",
    "mergeshield.records.read_episode",
    "mergeshield.metrics.aggregate_summaries",
    "mergeshield.metrics.write_summaries",
    "mergeshield.metrics.read_summaries",
    "mergeshield.metrics.write_aggregate_csv",
}


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _uses(path, own=None):
    """Dotted names of package members that the file at ``path`` reads.

    A use is a loaded name bound by an import from the package, an
    attribute of an imported package module, or, in the package module
    ``own``, a loaded module-level name; the definition itself and
    ``__all__`` are not uses.  In ``bench/`` a tuple of strings naming a
    package module and attributes also counts, as the tracer patches
    functions by name.
    """
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mergeshield"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mergeshield"):
                    local = alias.asname or alias.name.partition(".")[0]
                    bound[local] = alias.name if alias.asname else local
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound:
                uses.add(bound[node.id])
            elif own is not None:
                uses.add(f"{own}.{node.id}")
        elif isinstance(node, ast.Attribute):
            head, _, rest = (_dotted(node) or "").partition(".")
            if head in bound:
                uses.add(f"{bound[head]}.{rest}")
        elif isinstance(node, ast.Tuple) and own is None:
            strings = [e.value for e in node.elts
                       if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            for module in (s for s in strings if s.startswith("mergeshield.")):
                uses.update(f"{module}.{s}" for s in strings)
    return uses


def test_every_exported_name_has_a_caller():
    # code with no caller is wired up or deleted; tests do not count as
    # callers.  The package's own __all__ re-exports module members and
    # names its version.
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        own = "mergeshield" if path.stem == "__init__" else f"mergeshield.{path.stem}"
        uses |= _uses(path, own)
    for path in sorted(BENCH.rglob("*.py")):
        uses |= _uses(path)
    exported = {f"mergeshield.{m}.{n}" for m in MODULES
                for n in importlib.import_module(f"mergeshield.{m}").__all__}
    assert sorted(exported - uses - AWAITING_CALLER) == []
    assert sorted(AWAITING_CALLER - exported) == []


#: the values built for every vehicle at every step
STEP_PATH_TYPES = ("dynamics.VehicleState", "world.MotionPlan", "world.Neighborhood",
                   "shield.ShieldOutcome", "shield.QPSolution")


@pytest.mark.parametrize("path", STEP_PATH_TYPES)
def test_step_path_values_are_tuples(path):
    # a frozen dataclass costs several times a named tuple to build, and
    # the step builds these once per vehicle
    module, _, name = path.partition(".")
    assert issubclass(getattr(importlib.import_module(f"mergeshield.{module}"), name), tuple)


@pytest.mark.parametrize("name", ["world", "shield"])
def test_step_path_calls_no_dataclasses_replace(name):
    # dataclasses.replace costs more than building the value afresh
    found = []
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found += [alias.name for alias in node.names if alias.name == "replace"]
        elif isinstance(node, ast.Attribute) and _dotted(node) == "dataclasses.replace":
            found.append("dataclasses.replace")
    assert found == []


#: the functions run for every vehicle at every step, by module
STEP_PATH_FUNCTIONS = (
    ("policy", "heuristic_policy"),
    ("reward", "custom_reward"),
    ("reward", "default_reward"),
    ("reward", "_leader_gap"),
    ("reward", "fleet_rewards"),
    ("world", "neighbors"),
    ("world", "perceived"),
    ("world", "plan_motion"),
    ("world", "_maneuver_overlay"),
    ("shield", "filter_vehicle"),
    ("shield", "headway_cap"),
    ("shield", "brake_guard"),
    ("shield", "brake_cap"),
    ("shield", "brake_margin"),
    ("shield", "solve_qp"),
    ("records", "snapshot_vehicle"),
    ("records", "snapshot_step"),
)


@pytest.mark.parametrize("module,name", STEP_PATH_FUNCTIONS)
def test_step_path_functions_make_no_needless_calls(module, name):
    # a function-level import statement costs about a microsecond per run
    # and never shows in a profile; a nested def, lambda or generator is an
    # object built and called on every run
    defs = [node for node in ast.parse((SRC / f"{module}.py").read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(defs) == 1
    found = [type(node).__name__ for stmt in defs[0].body for node in ast.walk(stmt)
             if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.Lambda, ast.GeneratorExp))]
    assert found == []


def test_policy_and_reward_look_up_perception_at_call_time(monkeypatch):
    # the benchmark's tracer patches world.neighbors once for every caller
    from mergeshield import world as world_mod
    from mergeshield.episode import build_world
    from mergeshield.policy import heuristic_policy
    from mergeshield.reward import RewardWeights, fleet_rewards

    seen = {"neighbors": [], "perceived": []}

    def counting(name):
        fn = getattr(world_mod, name)

        def wrapper(world, ego):
            seen[name].append(ego.vid)
            return fn(world, ego)
        return wrapper

    for name in seen:
        monkeypatch.setattr(world_mod, name, counting(name))
    world = build_world(RunConfig(policy=PolicySpec(kind="heuristic")), 0)
    vids = [v.vid for v in world.vehicles]
    ramp = {v.vid for v in world.vehicles if v.lane == world.road.ramp_lane}
    for vehicle in world.vehicles:
        heuristic_policy(vehicle, world)
    # every ramp vehicle asks for its gap in the first branch, some highway
    # vehicle in the last
    assert ramp < set(seen["neighbors"]) and seen["perceived"] == []
    seen["neighbors"].clear()
    fleet_rewards(world, RewardWeights(), "custom", vids=vids)
    # one perceived group and one leader gap per vehicle
    assert seen["perceived"] == vids and sorted(seen["neighbors"]) == vids
