"""Trajectory accuracy metrics: per-scan errors and error histograms."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .transform import RigidTransform

XY_BIN_WIDTH = 0.006  # default histogram bin width for planar error, meters
Z_BIN_WIDTH = 0.005   # default histogram bin width for height error, meters


@dataclass
class PoseErrors:
    xy: np.ndarray  # planar translation error per scan
    z: np.ndarray   # absolute height error per scan


@dataclass
class ErrorHistogram:
    edges: np.ndarray   # (B + 1,) ascending, starting at 0
    counts: np.ndarray  # (B,) int


def evaluate_trajectory(
    estimated: list[RigidTransform], reference: list[RigidTransform]
) -> PoseErrors:
    """Per-scan translation errors between two equally long pose sequences."""
    if len(estimated) != len(reference):
        raise ValueError(
            f"trajectory lengths differ: {len(estimated)} vs {len(reference)}"
        )
    if len(estimated) == 0:
        raise ValueError("trajectories are empty")
    delta = np.array([e.translation - r.translation for e, r in zip(estimated, reference)])
    return PoseErrors(xy=np.hypot(delta[:, 0], delta[:, 1]), z=np.abs(delta[:, 2]))


def error_histogram(errors: np.ndarray, bin_width: float) -> ErrorHistogram:
    """Uniform histogram [0, w), [w, 2w), ... covering the largest error.

    Boundary values land in the upper bin except the final edge, which is
    inclusive. Empty input yields a single empty bin.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be strictly positive")
    e = np.asarray(errors, dtype=float).reshape(-1)
    if e.size and (not np.isfinite(e).all() or (e < 0).any()):
        raise ValueError("errors must be finite and non-negative")
    if e.size == 0:
        return ErrorHistogram(np.array([0.0, bin_width]), np.zeros(1, dtype=np.int64))
    emax = float(e.max())
    nbins = max(1, int(np.ceil(emax / bin_width)))
    edges = bin_width * np.arange(nbins + 1, dtype=float)
    if edges[-1] < emax:  # guard against ceil rounding down across ulps
        edges = np.append(edges, edges[-1] + bin_width)
    counts, _ = np.histogram(e, bins=edges)
    return ErrorHistogram(edges, counts.astype(np.int64))


def write_errors_csv(path: str | Path, errors: PoseErrors) -> None:
    lines = ["scan_index,xy_error,z_error"]
    for i, (xy, z) in enumerate(zip(errors.xy, errors.z)):
        lines.append(f"{i},{xy:.17g},{z:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram_csv(path: str | Path, histogram: ErrorHistogram) -> None:
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(histogram.counts):
        lo, hi = histogram.edges[i], histogram.edges[i + 1]
        lines.append(f"{lo:.17g},{hi:.17g},{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n")
