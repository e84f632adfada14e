"""Declarative run configuration: a flat `key = value` text format with an
explicit schema version, plus builders for the simulation and filter
objects. Values are scalars or comma-separated lists; `#` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .gating import GatingConfig
from .matching import MatchConfig
from .presets import ScenarioPreset, get_preset
from .propagation import ImuNoise
from .runner import FilterSetup
from .sim import SensorSpec, TrajectorySpec

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    preset: str = "preset01"
    duration: float = 20.0
    seed: int = 0
    filter: str = "direct"
    gating: str = "none"
    sigma_mode: str = "exact"
    sigma_p: tuple = (0.02, 0.02, 0.02)
    sigma_theta: tuple = (0.0875, 0.0875, 0.0875)
    fixed_sigma_p: tuple = (0.04, 0.04, 0.04)
    fixed_sigma_theta: tuple = (0.628, 0.628, 0.628)
    sigma_floor: float = 1e-6
    imu_rate: float = 200.0
    cam_rate: float = 20.0
    imu_sigma_acc: float = 0.02
    imu_sigma_gyro: float = 0.002
    imu_sigma_accel_bias: float = 5e-4
    imu_sigma_gyro_bias: float = 5e-5
    gravity: tuple = (0.0, 0.0, 9.81)
    fov_deg: float = 90.0
    max_range: float = 10.0
    chi2_alpha: float = 0.05
    aor_tau_p: float = 0.15
    aor_tau_theta: float = 0.35
    aorp_tau_p: float = 0.10
    aorp_tau_theta: float = 0.175
    match_w_p: float = 1.0
    match_w_theta: float = 1.0
    match_gate: float = 6.0
    divergence_bound: float = 10.0
    runs_per_cell: int = 100
    sweep_sigma_p: tuple = (0.01, 0.05, 0.1, 0.2, 0.3)
    sweep_sigma_theta: tuple = (0.0175, 0.0875, 0.175, 0.35)
    episodes: tuple | None = None        # None: take the preset's schedule
    episode_excess: float = 2.5

    def scenario(self) -> ScenarioPreset:
        return get_preset(self.preset)

    def trajectory(self) -> TrajectorySpec:
        return replace(self.scenario().trajectory, duration=self.duration)

    def world(self) -> list:
        return self.scenario().world

    def episode_schedule(self) -> list:
        if self.episodes is not None:
            flat = list(self.episodes)
            if len(flat) % 3 != 0:
                raise ConfigError("episodes must be (start, end, factor) triples")
            return [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]
        return list(self.scenario().episodes)

    def sensor_spec(self) -> SensorSpec:
        return SensorSpec(
            cam_rate=self.cam_rate,
            sigma_p=np.asarray(self.sigma_p, dtype=float),
            sigma_theta=np.asarray(self.sigma_theta, dtype=float),
            mode=self.sigma_mode,
            fixed_sigma_p=np.asarray(self.fixed_sigma_p, dtype=float),
            fixed_sigma_theta=np.asarray(self.fixed_sigma_theta, dtype=float),
            episodes=self.episode_schedule(),
            episode_excess=self.episode_excess,
            sigma_floor=self.sigma_floor,
            fov_deg=self.fov_deg,
            max_range=self.max_range,
        )

    def imu_noise(self) -> ImuNoise:
        return ImuNoise(self.imu_sigma_acc, self.imu_sigma_gyro,
                        self.imu_sigma_accel_bias, self.imu_sigma_gyro_bias,
                        np.asarray(self.gravity, dtype=float))

    def filter_setup(self) -> FilterSetup:
        return FilterSetup(
            imu_noise=self.imu_noise(),
            filter_type=self.filter,
            gating=GatingConfig(
                method=self.gating, chi2_alpha=self.chi2_alpha,
                aor_tau_p=self.aor_tau_p, aor_tau_theta=self.aor_tau_theta,
                aorp_tau_p=self.aorp_tau_p,
                aorp_tau_theta=self.aorp_tau_theta),
            matching=MatchConfig(self.match_w_p, self.match_w_theta,
                                 self.match_gate),
            divergence_bound=self.divergence_bound,
        )

    def validate(self):
        """Check the config by building what a run builds from it; the
        filter, gating method and sigma mode are checked by their owners
        (runner.MODELS, gating.METHODS, sim.SIGMA_MODES)."""
        try:
            self.scenario()
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.runs_per_cell < 1:
            raise ConfigError("runs_per_cell must be >= 1")
        if not (self.sweep_sigma_p and self.sweep_sigma_theta):
            raise ConfigError("the sweep grid needs at least one sigma_p and "
                              "one sigma_theta")
        if self.imu_rate <= 0 or self.cam_rate <= 0:
            raise ConfigError("rates must be positive")
        ratio = self.imu_rate / self.cam_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("camera rate must divide the IMU rate")
        try:
            self.filter_setup()
            self.sensor_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


_TUPLE_FIELDS = {"sigma_p", "sigma_theta", "fixed_sigma_p",
                 "fixed_sigma_theta", "gravity", "sweep_sigma_p",
                 "sweep_sigma_theta", "episodes"}
_TRIPLE_FIELDS = {"sigma_p", "sigma_theta", "fixed_sigma_p",
                  "fixed_sigma_theta", "gravity"}
_STR_FIELDS = {"preset", "filter", "gating", "sigma_mode"}
_INT_FIELDS = {"seed", "runs_per_cell"}


def _parse_value(key: str, raw: str, line_no: int):
    raw = raw.strip()
    try:
        if key in _STR_FIELDS:
            return raw
        if key in _INT_FIELDS:
            return int(raw)
        if key in _TUPLE_FIELDS:
            parts = [p for p in raw.split(",") if p.strip()]
            vals = tuple(float(p) for p in parts)
            if key in _TRIPLE_FIELDS:
                if len(vals) == 1:
                    vals = vals * 3
                if len(vals) != 3:
                    raise ValueError("expected 1 or 3 values")
            return vals
        return float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"line {line_no}: bad value for {key!r}: {raw!r} ({exc})") from None


def parse_config(path) -> RunConfig:
    """Parse a config file; unknown or repeated keys, bad values, or a
    missing/mismatched config_version are reported with the offending line
    and field name. A config that fails validate() is reported with the
    line that completed the failure, such as the second of two conflicting
    fields."""
    known = {f.name for f in fields(RunConfig)}
    values = {}
    seen = {}
    version = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', "
                                  f"got {text!r}")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key in seen:
                raise ConfigError(f"line {line_no}: field {key!r} repeated "
                                  f"(first given on line {seen[key]})")
            seen[key] = line_no
            if key == "config_version":
                try:
                    version = int(raw)
                except ValueError:
                    raise ConfigError(f"line {line_no}: config_version must "
                                      f"be an integer") from None
                continue
            if key not in known:
                raise ConfigError(f"line {line_no}: unknown field {key!r}")
            values[key] = _parse_value(key, raw, line_no)
    if version is None:
        raise ConfigError("missing required field 'config_version'")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config_version {version} not supported "
                          f"(expected {SCHEMA_VERSION})")
    if "preset" not in values:
        raise ConfigError("missing required field 'preset'")
    keys = list(values)
    message = _validation_error(values)
    if message is None:
        return RunConfig(**values)
    # the line that completed the failure: the fields given before it, the
    # rest at their defaults, do not fail this way
    while _validation_error({k: values[k] for k in keys[:-1]}) == message:
        keys.pop()
    raise ConfigError(f"line {seen[keys[-1]]}: {message}")


def _validation_error(values: dict):
    """The message validate() raises for a config of these fields, if any."""
    try:
        RunConfig(**values).validate()
    except ConfigError as exc:
        return str(exc)
    return None


def write_config(path, cfg: RunConfig):
    """Write a config back out (the tests use it to make config files)."""
    lines = [f"config_version = {SCHEMA_VERSION}"]
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            lines.append(f"{f.name} = " + ", ".join(repr(v) for v in val))
        else:
            lines.append(f"{f.name} = {val}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
