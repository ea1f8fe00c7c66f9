"""Pipeline configuration: defaults, JSON parsing, validation."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError

_POSITIVE_FLOATS = (
    "voxel_size_fine",
    "voxel_size_coarse",
    "cluster_distance",
)
_POSITIVE_INTS = (
    "cluster_min_points",
    "occupancy_min_points",
)


@dataclass
class PipelineConfig:
    """What a run chooses: two resolutions, from which every registration
    distance derives, and four parking settings."""

    voxel_size_fine: float = 0.10
    voxel_size_coarse: float = 1.0
    cluster_distance: float = 0.5
    cluster_min_points: int = 30
    occupancy_min_points: int = 10
    car_label: int = 1

    def __post_init__(self) -> None:
        """Check every field; a ConfigError names the first bad one."""
        for name in _POSITIVE_FLOATS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if not value > 0:
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")
            setattr(self, name, float(value))
        for name in _POSITIVE_INTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer")
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        if isinstance(self.car_label, bool) or not isinstance(self.car_label, int):
            raise ConfigError("car_label must be an integer")
        if self.voxel_size_coarse < self.voxel_size_fine:
            raise ConfigError(
                "voxel_size_coarse must be at least voxel_size_fine "
                f"({self.voxel_size_coarse!r} < {self.voxel_size_fine!r})"
            )


def parse_config(data: dict) -> PipelineConfig:
    """Build a config from a flat mapping; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key: {key!r}")
    return PipelineConfig(**data)


def load_config(path: str | Path) -> PipelineConfig:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def config_hash(config: PipelineConfig) -> str:
    """Stable hash of the configuration."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
