"""Voxel-based point-cloud localization.

The package root holds the pipeline entry points: ``run_pipeline`` runs a
``PipelineRun`` (configured by ``PipelineConfig`` or ``load_config``) and
returns a ``PipelineResult``; ``write_synthetic_dataset`` writes a synthetic
street described by a ``SceneSpec`` as pipeline inputs. Stages, file formats
and the command line are imported from their own modules, such as
``voxloc.voxel``, ``voxloc.registration``, ``voxloc.io`` and ``voxloc.cli``.
"""

from .config import PipelineConfig, load_config
from .errors import (
    ConfigError,
    DataError,
    DegenerateGeometryError,
    InsufficientOverlapError,
    ParseError,
)
from .pipeline import PipelineResult, PipelineRun, run_pipeline, write_synthetic_dataset
from .synthetic import SceneSpec

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DegenerateGeometryError",
    "InsufficientOverlapError",
    "ParseError",
    "PipelineConfig",
    "load_config",
    "PipelineRun",
    "PipelineResult",
    "run_pipeline",
    "write_synthetic_dataset",
    "SceneSpec",
]
