"""Run configuration: defaults, YAML loading, validation and the header echo.

A run config bundles the scenario, road geometry, vehicle limits, shield,
reward and policy selections plus batch options, each value held by one
section: the shield and the reward read ``tau`` and ``dt`` in the scenario.
The YAML schema mirrors the dataclasses section by section; unknown
sections or keys, keys another section holds, values not of their field's
declared type and bad values are errors reported with their path.  The
reference scenario runs 7 to 11 vehicles; other counts run too, and
validation warns about them unless ``run.allow_offrange`` is set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from mergeshield.dynamics import FLOAT_RULE, VehicleParams, check_floats, obeys_float_rule
from mergeshield.policy import PolicySpec
from mergeshield.reward import RewardWeights
from mergeshield.road import RoadNetwork
from mergeshield.shield import ShieldConfig
from mergeshield.world import ScenarioConfig

__all__ = ["RunConfig", "ConfigError", "ValidationReport", "load_config",
           "validate_config", "resolved_dict"]

REFERENCE_VEHICLE_RANGE = (7, 11)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    road: RoadNetwork = field(default_factory=RoadNetwork)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    shield: ShieldConfig = field(default_factory=ShieldConfig)
    reward: RewardWeights = field(default_factory=RewardWeights)
    policy: PolicySpec = field(default_factory=PolicySpec)
    episodes: int = 1
    out_dir: str | None = None
    emit_trajectories: bool = False
    headway_violation_threshold: float = 0.45
    allow_offrange: bool = False

    def __post_init__(self):
        check_floats(self)
        # errors name the field's path under the run config, as YAML reports it
        if self.episodes < 1:
            raise ValueError("episodes: must be >= 1")
        if not self.headway_violation_threshold > 0:
            raise ValueError("headway_violation_threshold: must be positive")
        top, v_cap = self.scenario.initial_speed_range[1], self.vehicle.v_cap
        if top > v_cap:
            raise ValueError(f"scenario.initial_speed_range: top speed {top} "
                             f"exceeds vehicle.v_cap = {v_cap}")

    def resolved(self) -> "RunConfig":
        """The config itself: each value has one section that holds it.
        Kept only for its one caller, ``bench/workloads.py``."""
        return self


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    config: RunConfig | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list:
        out = [f"error: {e}" for e in self.errors]
        out += [f"warning: {w}" for w in self.warnings]
        if not out:
            out = ["config ok"]
        return out


_SECTIONS = {
    "scenario": ScenarioConfig,
    "road": RoadNetwork,
    "vehicle": VehicleParams,
    "shield": ShieldConfig,
    "reward": RewardWeights,
    "policy": PolicySpec,
}


#: section keys whose value another section holds: the shield and the reward
#: read tau and dt in the scenario, the reward the merge length in the road
_DERIVED = {
    ("shield", "tau"): "scenario.tau",
    ("shield", "dt"): "scenario.dt",
    ("reward", "tau"): "scenario.tau",
    ("reward", "merge_length"): "road.merge_length",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_a(value, kind) -> bool:
    """YAML typing of a config value against its field annotation: a bool
    is no number, a float is a number (an int too) that obeys the float
    rule of :func:`check_floats`, ``X | None`` takes an X or
    null and a ``tuple`` is a pair of floats."""
    if get_origin(kind) is UnionType:
        return any(_is_a(value, k) for k in get_args(kind))
    if kind is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_is_a(v, float) for v in value))
    if kind is float:
        return _is_number(value) and obeys_float_rule(value)
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, kind)


def _type_name(kind, value) -> str:
    """What a value of ``kind`` must be, worded for the rejected ``value``:
    a number rejected as a float is told the float rule."""
    if get_origin(kind) is UnionType:
        return " or ".join(_type_name(k, value) for k in get_args(kind) if k is not type(None))
    if kind is tuple:
        numbers = isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
        return f"a pair of numbers, each {FLOAT_RULE}" if numbers else "a pair of numbers"
    return FLOAT_RULE if kind is float and _is_number(value) else kind.__name__


def _section_values(name, cls, data, report) -> dict:
    """The values of section ``name`` of ``data`` that pass their key's
    checks, by key; every key that fails is reported with its path.  The
    keys are the fields of ``cls`` that are not sections, so ``run`` holds
    the batch options of :class:`RunConfig`."""
    section = data.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        report.errors.append(f"{name}: must be a mapping")
        return {}
    hints = get_type_hints(cls)
    allowed = {f.name for f in fields(cls)} - _SECTIONS.keys()
    values = {}
    for key, value in section.items():
        if (name, key) in _DERIVED:
            report.errors.append(f"{name}.{key}: taken from {_DERIVED[name, key]}; set it there")
            continue
        if key not in allowed:
            report.errors.append(f"{name}.{key}: unknown key")
            continue
        # explicit nulls are dropped so dataclass defaults apply
        if value is None:
            continue
        kind = hints[key]
        if not _is_a(value, kind):
            report.errors.append(f"{name}.{key}: must be {_type_name(kind, value)}")
            continue
        values[key] = tuple(value) if kind is tuple else value
    return values


def _parse(data, report) -> RunConfig | None:
    """Check every section and ``run``; the config, or None once any
    error is reported."""
    if not isinstance(data, dict):
        report.errors.append("top level must be a mapping of sections")
        return None
    unknown = set(data) - set(_SECTIONS) - {"run"}
    for key in sorted(unknown, key=str):
        report.errors.append(f"{key}: unknown section")

    parts = {}
    for name, cls in _SECTIONS.items():
        try:
            parts[name] = cls(**_section_values(name, cls, data, report))
        except (TypeError, ValueError) as exc:
            report.errors.append(f"{name}: {exc}")

    # each run option is checked alone, on default sections, so that every
    # bad one is reported; the rule across sections is checked last
    run = {}
    for key, value in _section_values("run", RunConfig, data, report).items():
        try:
            RunConfig(**{key: value})
        except ValueError as exc:
            report.errors.append(f"run.{exc}")
            continue
        run[key] = value
    try:
        cfg = RunConfig(**run, **parts)
    except ValueError as exc:  # the spawn speeds against the speed cap
        report.errors.append(str(exc))
    return None if report.errors else cfg


def _range_warnings(cfg: RunConfig, report: ValidationReport) -> None:
    lo, hi = REFERENCE_VEHICLE_RANGE
    n = cfg.scenario.n_vehicles
    if not (lo <= n <= hi or cfg.allow_offrange):
        report.warnings.append(
            f"scenario.n_vehicles: {n} is outside the reference range {lo}-{hi}; "
            f"set run.allow_offrange to run it without this warning"
        )


def load_config(path) -> RunConfig:
    report = validate_config(path)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    return report.config


def validate_config(path) -> ValidationReport:
    """Parse and check the YAML run config at ``path``.  Errors carry their
    path; a vehicle count outside the reference range is a warning unless
    ``run.allow_offrange`` is set."""
    # imported here so that running episodes never loads the YAML parser
    import yaml

    report = ValidationReport()
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        report.errors.append(str(exc))
        return report
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        report.errors.append(f"parse error{where}: {getattr(exc, 'problem', exc)}")
        return report
    # an empty file, or a null document, is the default config
    cfg = _parse({} if data is None else data, report)
    if cfg is not None and report.ok:
        report.config = cfg
        _range_warnings(cfg, report)
    return report


def resolved_dict(cfg: RunConfig) -> dict:
    """Simulation-semantics config echo recorded in episode headers: every
    field of the scenario, road, vehicle, shield and reward sections in
    declaration order.  ``n_ramp`` is echoed resolved and
    ``initial_speed_range`` as a list, so the echo equals what a header
    reads back.  Policy and batch options are left out: a record
    must not depend on who produced the actions."""
    echo = {name: asdict(getattr(cfg, name)) for name in _SECTIONS if name != "policy"}
    echo["scenario"]["n_ramp"] = cfg.scenario.resolved_n_ramp()
    echo["scenario"]["initial_speed_range"] = list(cfg.scenario.initial_speed_range)
    return echo
