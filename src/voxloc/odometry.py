"""Sequential scan-to-map odometry used to combine scans into one cloud.

Each scan registers with point-to-plane ICP against the local map: one voxel
grid at REGISTRATION_SCALE * voxel_size_fine (0.5 m by default) that keeps
every cell's second moments through insertion and eviction, so the map's
normals are estimated afresh from all its points before each registration.
The first scan creates the map at the run's configured voxel size. The scan is
downsampled on the map's own grid, so a repeated scan's registration points
are exactly the map's cell means. As in KISS-ICP (Vizzo et al., RA-L 2023),
residuals carry Geman-McClure weights with kernel scale k = threshold / 3,
and a registration stops at registration.CONVERGENCE_EPS, the stopping rule
of every ICP. A constant-velocity model predicts each pose; the adaptive
correspondence threshold follows the running deviation between prediction
and estimate. Its bound and the map's range are multiples of the map's voxel size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, concat_clouds
from .config import PipelineConfig
from .errors import DegenerateGeometryError, InsufficientOverlapError
from .registration import ICP_MAX_ITERATIONS, icp_point_to_plane
from .spatial import SpatialIndex
from .transform import RigidTransform, Trajectory, orthonormalize_rotation
from .voxel import VoxelGrid, downsample, voxelize

# over voxel_size_fine: the local map's voxel size, and the fine stage's
# whole-cloud cell size and correspondence distance
REGISTRATION_SCALE = 5.0
THRESHOLD_SCALE = 2.0   # over the map's voxel size: bound until the deviation model warms up
RANGE_SCALE = 200.0     # over the map's voxel size: cells this far from the pose are evicted


@dataclass
class OdometryState:
    poses: list[RigidTransform] = field(default_factory=list)
    local_map: VoxelGrid | None = None  # built by the first register_scan
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

def adaptive_threshold(state: OdometryState, voxel_size: float) -> float:
    """3-sigma bound from accumulated prediction deviations, clamped to
    [0.1 * bound, bound] with bound = THRESHOLD_SCALE * voxel_size, the map's
    voxel size; the bound itself until two scans have been seen."""
    bound = THRESHOLD_SCALE * voxel_size
    if len(state.poses) < 2:
        return bound
    sigma = np.sqrt(state.deviation_sum_sq / len(state.poses))
    return float(np.clip(3.0 * sigma, 0.1 * bound, bound))


def register_scan(
    state: OdometryState, scan: PointCloud, config: PipelineConfig
) -> RigidTransform:
    """Register one scan against the local map and fold it in.

    A state without a map gets one at REGISTRATION_SCALE * voxel_size_fine.
    The first scan fixes the odometry frame (identity pose). A scan with too
    little map overlap is rejected: its pose falls back to the prediction, its
    index is recorded in state.rejected, and the map is left untouched.
    """
    if len(scan) == 0:
        raise ValueError("scan is empty")

    prediction = predict_motion(state)
    scan_index = len(state.poses)
    if state.local_map is None:
        state.local_map = VoxelGrid(REGISTRATION_SCALE * config.voxel_size_fine)
    grid = state.local_map
    accepted = True
    if len(grid) == 0:
        pose = RigidTransform.identity()
    else:
        threshold = adaptive_threshold(state, grid.voxel_size)
        sparse = downsample(voxelize(scan, grid.voxel_size))
        normals, _ = grid.compute_normals()
        try:
            result = icp_point_to_plane(
                sparse,
                SpatialIndex(grid.means),
                normals,
                prediction,
                threshold,
                ICP_MAX_ITERATIONS,
                kernel=threshold / 3.0,
            )
            pose = RigidTransform(
                orthonormalize_rotation(result.transform.rotation), result.transform.translation
            )
        except (InsufficientOverlapError, DegenerateGeometryError):
            pose = prediction
            accepted = False
            state.rejected.append(scan_index)

    deviation = float(np.linalg.norm((prediction.inverse() @ pose).translation))
    state.deviation_sum_sq += deviation**2
    state.poses.append(pose)
    if accepted:
        grid.insert(pose.apply(scan.points))
        grid.evict_outside(pose.translation, RANGE_SCALE * grid.voxel_size)
    return pose


def combine_scans(
    scans: list[PointCloud],
    config: PipelineConfig,
    *,
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
        state = OdometryState()
    for scan in scans:
        register_scan(state, scan, config)
    parts = [scan.transformed(pose) for scan, pose in zip(scans, state.poses)]
    return concat_clouds(parts), Trajectory(list(state.poses))
