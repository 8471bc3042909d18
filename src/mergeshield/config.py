"""Run configuration: defaults, YAML loading, validation, CLI overrides.

A run config bundles the scenario, road geometry, vehicle limits, shield,
reward and policy selections plus batch options.  The YAML schema mirrors
the dataclasses section by section; unknown sections or keys, keys another
section sets and bad values are errors reported with their path.  The reference
scenario runs 7 to 11 vehicles; other counts run too, and validation warns
about them unless ``run.allow_offrange`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import yaml

from mergeshield.dynamics import VehicleParams
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
    reward_kind: str = "custom"
    policy: PolicySpec = field(default_factory=PolicySpec)
    episodes: int = 1
    out_dir: str | None = None
    emit_trajectories: bool = False
    headway_violation_threshold: float = 0.45
    allow_offrange: bool = False

    def resolved(self) -> "RunConfig":
        """Wire cross-section values: the shield takes the scenario's tau
        and dt, the reward takes tau and the road's merge length."""
        shield = replace(self.shield, tau=self.scenario.tau, dt=self.scenario.dt)
        reward = replace(self.reward, tau=self.scenario.tau,
                         merge_length=self.road.merge_length)
        return replace(self, shield=shield, reward=reward)


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

_RUN_KEYS = {
    "episodes": int,
    "out_dir": str,
    "emit_trajectories": bool,
    "headway_violation_threshold": float,
    "allow_offrange": bool,
}

_REWARD_EXTRA = {"function"}

#: section keys that :meth:`RunConfig.resolved` overwrites from another section
_DERIVED = {
    ("shield", "tau"): "scenario.tau",
    ("shield", "dt"): "scenario.dt",
    ("reward", "tau"): "scenario.tau",
    ("reward", "merge_length"): "road.merge_length",
}


def _build_section(name, cls, data, report):
    allowed = {f.name for f in fields(cls) if not f.name.startswith("_")}
    extra = _REWARD_EXTRA if name == "reward" else set()
    kwargs = {}
    for key, value in data.items():
        if key in extra:
            continue
        if (name, key) in _DERIVED:
            report.errors.append(f"{name}.{key}: taken from {_DERIVED[name, key]}; set it there")
            continue
        if key not in allowed:
            report.errors.append(f"{name}.{key}: unknown key")
            continue
        if key == "initial_speed_range" and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    # drop explicit nulls so dataclass defaults apply
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        report.errors.append(f"{name}: {exc}")
        return None


def _parse(data, report) -> RunConfig | None:
    if not isinstance(data, dict):
        report.errors.append("top level must be a mapping of sections")
        return None
    unknown = set(data) - set(_SECTIONS) - {"run"}
    for key in sorted(unknown):
        report.errors.append(f"{key}: unknown section")

    parts = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {}) or {}
        if not isinstance(section, dict):
            report.errors.append(f"{name}: must be a mapping")
            section = {}
        built = _build_section(name, cls, section, report)
        if built is None:
            return None
        parts[name] = built

    reward_kind = (data.get("reward") or {}).get("function", "custom")
    if reward_kind not in ("default", "custom"):
        report.errors.append(f"reward.function: must be default or custom, got {reward_kind!r}")
        return None

    run = data.get("run", {}) or {}
    run_kwargs = {}
    for key, value in run.items():
        if key not in _RUN_KEYS:
            report.errors.append(f"run.{key}: unknown key")
            continue
        if value is not None:
            run_kwargs[key] = value

    cfg = RunConfig(
        scenario=parts["scenario"],
        road=parts["road"],
        vehicle=parts["vehicle"],
        shield=parts["shield"],
        reward=parts["reward"],
        reward_kind=reward_kind,
        policy=parts["policy"],
        **run_kwargs,
    )
    if cfg.episodes < 1:
        report.errors.append("run.episodes: must be >= 1")
        return None
    if not cfg.headway_violation_threshold > 0:
        report.errors.append("run.headway_violation_threshold: must be positive")
        return None
    return cfg.resolved()


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
    report = ValidationReport()
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        report.errors.append(str(exc))
        return report
    try:
        data = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        report.errors.append(f"parse error{where}: {getattr(exc, 'problem', exc)}")
        return report
    cfg = _parse(data, report)
    if cfg is not None and report.ok:
        report.config = cfg
        _range_warnings(cfg, report)
    return report


def resolved_dict(cfg: RunConfig) -> dict:
    """Simulation-semantics config echo recorded in episode headers (policy
    and batch options excluded: a record must not depend on who produced
    the actions)."""
    cfg = cfg.resolved()
    lo, hi = cfg.scenario.initial_speed_range
    return {
        "scenario": {
            "n_vehicles": cfg.scenario.n_vehicles,
            "n_ramp": cfg.scenario.resolved_n_ramp(),
            "comm_range": cfg.scenario.comm_range,
            "perception_n": cfg.scenario.perception_n,
            "tau": cfg.scenario.tau,
            "dt": cfg.scenario.dt,
            "episode_steps": cfg.scenario.episode_steps,
            "spawn_spacing_min": cfg.scenario.spawn_spacing_min,
            "initial_speed_range": [lo, hi],
            "dv_step": cfg.scenario.dv_step,
        },
        "road": {
            "highway_lanes": cfg.road.highway_lanes,
            "lane_width": cfg.road.lane_width,
            "merge_start": cfg.road.merge_start,
            "merge_length": cfg.road.merge_length,
        },
        "vehicle": {
            "length": cfg.vehicle.length,
            "width": cfg.vehicle.width,
            "a_max": cfg.vehicle.a_max,
            "a_min": cfg.vehicle.a_min,
            "v_cap": cfg.vehicle.v_cap,
        },
        "shield": {
            "mode": cfg.shield.mode,
            "tau": cfg.shield.tau,
            "eta": cfg.shield.eta,
            "k_eps": cfg.shield.k_eps,
            "lag_margin": cfg.shield.lag_margin,
        },
        "reward": {
            "function": cfg.reward_kind,
            "w_c": cfg.reward.w_c,
            "w_s": cfg.reward.w_s,
            "w_h": cfg.reward.w_h,
            "w_m": cfg.reward.w_m,
            "v_min": cfg.reward.v_min,
            "v_max": cfg.reward.v_max,
        },
    }

