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
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

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


def _module_level(body):
    """The statements that run when a module is imported: everything outside
    function bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _dotted(node.test) in ("TYPE_CHECKING",
                                                                "typing.TYPE_CHECKING"):
            yield from _module_level(node.orelse)
            continue
        yield node
        for name in ("body", "orelse", "handlers", "finalbody"):
            yield from _module_level(getattr(node, name, []))


def _package_imports(path) -> set:
    """The package modules that the module at ``path`` imports when it is
    imported."""
    found = set()
    for node in _module_level(ast.parse(path.read_text()).body):
        if isinstance(node, ast.ImportFrom) and node.module == "mergeshield":
            found.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mergeshield."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mergeshield."))
    return found


def test_module_graph_is_acyclic():
    # each module's run-time imports of the package sit at its top, so the
    # import graph they span has a topological order
    graph = {name: _package_imports(SRC / f"{name}.py") for name in MODULES}
    assert graph["policy"] >= {"world"} and graph["world"] >= {"shield", "topology"}
    order = []
    waiting = dict(graph)
    while waiting:
        ready = sorted(name for name, deps in waiting.items() if deps <= set(order))
        assert ready, f"import cycle among {sorted(waiting)}"
        order += ready
        for name in ready:
            del waiting[name]


def test_no_function_imports():
    # an import inside a function hides a dependency from the module graph
    # and runs on every call; only the YAML parser waits for its one caller
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Import):
                        found.update(f"{path.stem}.{node.name}: {alias.name}"
                                     for alias in inner.names)
                    elif isinstance(inner, ast.ImportFrom):
                        found.add(f"{path.stem}.{node.name}: {inner.module}")
    assert sorted(found) == ["config.validate_config: yaml"]


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


#: the functions run for every vehicle or at every step, by module; a
#: method is named by its class
STEP_PATH_FUNCTIONS = (
    ("dynamics", "maneuver"),
    ("episode", "run_episode"),
    ("policy", "heuristic_policy"),
    ("reward", "custom_reward"),
    ("reward", "default_reward"),
    ("reward", "_leader_gap"),
    ("reward", "fleet_rewards"),
    ("world", "_perceive"),
    ("world", "neighbors"),
    ("world", "perceived"),
    ("world", "plan_motion"),
    ("world", "NeighborIndex.build"),
    ("world", "_mark_collisions"),
    ("world", "step_world"),
    ("topology", "build_topology"),
    ("topology", "evaluation_order"),
    ("shield", "reach"),
    ("shield", "credited_speed"),
    ("shield", "brake_guard"),
    ("shield", "brake_cap"),
    ("shield", "brake_margin"),
    ("shield", "solve_qp"),
    ("shield", "joint_safe_control"),
    ("records", "snapshot_vehicle"),
    ("records", "snapshot_step"),
)


@pytest.mark.parametrize("module,name", STEP_PATH_FUNCTIONS)
def test_step_path_functions_make_no_needless_calls(module, name):
    # a function-level import statement costs about a microsecond per run
    # and never shows in a profile; a nested def, lambda or generator is an
    # object built and called on every run; a member read off the enum
    # class is a lookup through its metaclass, several times a module
    # constant's
    body = ast.parse((SRC / f"{module}.py").read_text()).body
    *owners, name = name.split(".")
    for owner in owners:
        body = [node for node in body if isinstance(node, ast.ClassDef) and node.name == owner]
        assert len(body) == 1, owner
        body = body[0].body
    defs = [node for node in body if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(defs) == 1
    found = [type(node).__name__ for stmt in defs[0].body for node in ast.walk(stmt)
             if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.Lambda, ast.GeneratorExp))]
    found += [_dotted(node) for stmt in defs[0].body for node in ast.walk(stmt)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "BehaviorAction"]
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
    fleet_rewards(world, RewardWeights(), vids=vids)
    # one perceived group and one leader gap per vehicle
    assert seen["perceived"] == vids and sorted(seen["neighbors"]) == vids


@pytest.mark.parametrize("mode", ["none", "hss", "mass"])
def test_step_world_looks_up_perception_and_topology_at_call_time(monkeypatch, mode):
    # the benchmark's tracer patches world.neighbors and
    # topology.build_topology as module attributes: step_world must call the
    # patched ones, and find each live vehicle's neighbourhood once
    from mergeshield import topology as topology_mod
    from mergeshield import world as world_mod
    from mergeshield.episode import build_world

    neighbors, build_topology = world_mod.neighbors, topology_mod.build_topology
    seen = {"neighbors": [], "build_topology": 0}

    def counting_neighbors(world, ego):
        seen["neighbors"].append(ego.vid)
        return neighbors(world, ego)

    def counting_build_topology(vehicles, near):
        seen["build_topology"] += 1
        return build_topology(vehicles, near)

    monkeypatch.setattr(world_mod, "neighbors", counting_neighbors)
    monkeypatch.setattr(topology_mod, "build_topology", counting_build_topology)
    cfg = RunConfig(shield=ShieldConfig(mode=mode), policy=PolicySpec(kind="random"))
    world = build_world(cfg, 0)
    policy = build_policy(cfg.policy)
    for k in range(40):
        actions = policy.decide(k, world, {})
        live = [v.vid for v in world.live_vehicles()]
        seen["neighbors"].clear()
        seen["build_topology"] = 0
        world_mod.step_world(world, actions)
        assert sorted(seen["neighbors"]) == live
        assert seen["build_topology"] == 1


@pytest.mark.parametrize("mode", ["none", "hss", "mass"])
def test_shield_stages_each_live_vehicle_once_per_step(monkeypatch, mode):
    # the shield pass stages every live vehicle's maneuver exactly once,
    # from its pre-step state, and step_world turns no vehicle itself
    from mergeshield import shield as shield_mod
    from mergeshield import world as world_mod
    from mergeshield.episode import build_world

    maneuver = shield_mod.maneuver
    seen = []

    def counting_maneuver(state, target_y, changing, dt):
        seen.append(state)
        return maneuver(state, target_y, changing, dt)

    monkeypatch.setattr(shield_mod, "maneuver", counting_maneuver)
    cfg = RunConfig(shield=ShieldConfig(mode=mode), policy=PolicySpec(kind="random"))
    world = build_world(cfg, 0)
    policy = build_policy(cfg.policy)
    for k in range(40):
        actions = policy.decide(k, world, {})
        before = [v.state for v in world.live_vehicles()]
        seen.clear()
        world_mod.step_world(world, actions)
        assert sorted(map(id, seen)) == sorted(map(id, before))
    names = set()
    for node in ast.walk(ast.parse((SRC / "world.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert [name for name in names if "maneuver" in name] == []
