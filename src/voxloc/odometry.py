"""Sequential scan-to-map odometry used to combine scans into one cloud.

Scans register against a 0.1 m local map of accumulated points with
point-to-point ICP and a Huber kernel. A constant-velocity model predicts
each pose; an adaptive correspondence threshold follows the running deviation
between prediction and estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, concat_clouds
from .config import PipelineConfig
from .errors import DegenerateGeometryError, InsufficientOverlapError
from .registration import MIN_CORRESPONDENCES, estimate_rigid
from .spatial import SpatialIndex
from .transform import RigidTransform, Trajectory, orthonormalize_rotation, rotation_log
from .voxel import VoxelGrid, downsample, voxelize

DEFAULT_THRESHOLD = 1.0     # correspondence bound until the deviation model warms up
REGISTRATION_SCALE = 5.0    # registration downsample = scale * target grid voxel size
MAP_RANGE = 100.0           # cells farther than this from the pose are evicted


@dataclass
class OdometryState:
    poses: list[RigidTransform] = field(default_factory=list)
    local_map: VoxelGrid = field(default_factory=lambda: VoxelGrid(0.1))
    deviation_count: int = 0
    deviation_sum_sq: float = 0.0
    rejected: list[int] = field(default_factory=list)


def predict_motion(state: OdometryState) -> RigidTransform:
    """Constant-velocity prediction from the last two poses."""
    if not state.poses:
        return RigidTransform.identity()
    if len(state.poses) == 1:
        return state.poses[-1]
    prev, last = state.poses[-2], state.poses[-1]
    predicted = last @ (prev.inverse() @ last)
    # re-project the rotation so composition roundoff cannot compound
    # across the recursive pose chain
    return RigidTransform(orthonormalize_rotation(predicted.rotation), predicted.translation)

def adaptive_threshold(state: OdometryState, default: float = DEFAULT_THRESHOLD) -> float:
    """3-sigma bound from accumulated prediction deviations, clamped to
    [0.1 * default, default]; the default until two scans have been seen."""
    if state.deviation_count < 2:
        return default
    sigma = np.sqrt(state.deviation_sum_sq / state.deviation_count)
    return float(np.clip(3.0 * sigma, 0.1 * default, default))


def _huber_weights(dist: np.ndarray, scale: float) -> np.ndarray:
    w = np.ones_like(dist)
    far = dist > scale
    w[far] = scale / dist[far]
    return w


def _register_to_map(
    points: np.ndarray,
    target: SpatialIndex,
    init: RigidTransform,
    threshold: float,
    config: PipelineConfig,
) -> RigidTransform:
    """Point-to-point ICP with Huber weights, scale = threshold / 3."""
    transform = init
    huber_scale = threshold / 3.0
    for _ in range(config.icp_max_iterations):
        moved = transform.apply(points)
        idx, dist = target.nearest(moved, max_distance=threshold)
        found = idx >= 0
        if int(found.sum()) < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(
                f"only {int(found.sum())} map correspondences within {threshold:.3g} m"
            )
        weights = _huber_weights(dist[found], huber_scale)
        step = estimate_rigid(moved[found], target.points[idx[found]], weights)
        transform = step @ transform
        update = np.concatenate([rotation_log(step.rotation), step.translation])
        if float(np.linalg.norm(update)) < config.icp_convergence_eps:
            break
    return RigidTransform(orthonormalize_rotation(transform.rotation), transform.translation)


def register_scan(
    state: OdometryState,
    scan: PointCloud,
    config: PipelineConfig,
    *,
    registration_voxel_size: float | None = None,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> RigidTransform:
    """Register one scan against the local map and fold it in.

    The first scan fixes the odometry frame (identity pose). A scan with too
    little map overlap is rejected: its pose falls back to the prediction, its
    index is recorded in state.rejected, and the map is left untouched.
    """
    if len(scan) == 0:
        raise ValueError("scan is empty")
    if registration_voxel_size is None:
        registration_voxel_size = REGISTRATION_SCALE * state.local_map.voxel_size

    prediction = predict_motion(state)
    scan_index = len(state.poses)
    accepted = True
    if len(state.local_map) == 0:
        pose = RigidTransform.identity()
    else:
        threshold = adaptive_threshold(state, default_threshold)
        sparse = downsample(voxelize(scan, registration_voxel_size))
        target = SpatialIndex(state.local_map.means)
        try:
            pose = _register_to_map(sparse.points, target, prediction, threshold, config)
        except (InsufficientOverlapError, DegenerateGeometryError):
            pose = prediction
            accepted = False
            state.rejected.append(scan_index)

    deviation = float(np.linalg.norm((prediction.inverse() @ pose).translation))
    state.deviation_count += 1
    state.deviation_sum_sq += deviation**2
    state.poses.append(pose)
    if accepted:
        state.local_map.insert(pose.apply(scan.points))
        state.local_map.evict_outside(pose.translation, MAP_RANGE)
    return pose


def combine_scans(
    scans: list[PointCloud],
    config: PipelineConfig,
    *,
    registration_voxel_size: float | None = None,
    state: OdometryState | None = None,
) -> tuple[PointCloud, Trajectory]:
    """Chain scans through odometry; returns the union of the transformed
    scans (in the first scan's frame) and the per-scan poses.

    Pass a fresh state to inspect the local map and rejected-scan indices
    afterwards.
    """
    if not scans:
        raise ValueError("no scans to combine")
    if state is None:
        state = OdometryState(local_map=VoxelGrid(config.voxel_size_fine))
    for scan in scans:
        register_scan(state, scan, config, registration_voxel_size=registration_voxel_size)
    parts = [scan.transformed(pose) for scan, pose in zip(scans, state.poses)]
    return concat_clouds(parts), Trajectory(list(state.poses))
