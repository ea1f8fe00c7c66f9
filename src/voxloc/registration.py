"""Rigid registration: closed-form estimation, RANSAC over feature matches,
and point-to-plane ICP against a voxel grid.

The functions take their distances and iteration caps as arguments; the
settings every run shares (RANSAC's iteration cap and confidence, the ICP
stopping rule and per-scan iteration cap) are the constants below, not
configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DataError, DegenerateGeometryError, InsufficientOverlapError
from .spatial import SpatialIndex
from .transform import RigidTransform, rotation_exp
from .voxel import VoxelGrid

EDGE_PRUNE_RATIO = 0.10   # pairwise source edge must match target edge to 10%
MIN_CORRESPONDENCES = 6   # fewer matched points and ICP gives up
SPECTRAL_CUTOFF = 1e-12   # relative eigenvalue cutoff for the 6x6 solve
# step norm that ends every ICP, KISS-ICP's; at 1e-6, points near the boundary
# between two cell means switched back and forth and kept the step cycling to
# the iteration cap
CONVERGENCE_EPS = 1e-4
ICP_MAX_ITERATIONS = 50        # per-scan and odometry ICP iteration cap
RANSAC_MAX_ITERATIONS = 100_000
RANSAC_CONFIDENCE = 0.999      # stop once 1 - (1 - w^3)^k reaches this
# rounding guard of the correspondence-reuse margin, per metre of coordinate
# magnitude: far above the float error of a distance, far below any cell gap
REUSE_SLACK = 1e-12


def planar_cells(grid: VoxelGrid) -> tuple[SpatialIndex, np.ndarray]:
    """An index over the means of the grid's cells with a non-zero normal, and
    those normals: the target of icp_point_to_plane. The grid is only read.
    Build it once per reference grid."""
    normals, _ = grid.compute_normals()
    mask = normals.any(axis=1)
    if not mask.any():
        raise ValueError("target grid has no cells with normals")
    return SpatialIndex(grid.means[mask]), normals[mask]


@dataclass
class RegistrationResult:
    transform: RigidTransform
    fitness: float
    inlier_rmse: float
    iterations: int
    converged: bool


def estimate_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion mapping source points onto target points.

    Closed form via SVD of the cross-covariance about the centroids, with
    determinant-sign correction, so the result is always a proper rotation.
    """
    a = np.asarray(source, dtype=float)
    b = np.asarray(target, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("source and target must be matching (N, 3) arrays")
    if len(a) < 3:
        raise ValueError("need at least 3 point pairs")
    centroid_a = a.mean(axis=0)
    centroid_b = b.mean(axis=0)
    a0 = a - centroid_a
    b0 = b - centroid_b

    h = a0.T @ b0
    u, s, vt = np.linalg.svd(h)
    if not s[0] > 0.0 or s[1] < 1e-12 * s[0]:
        raise DegenerateGeometryError("point pairs are coincident or collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_b - rotation @ centroid_a
    return RigidTransform(rotation, translation)


def match_fpfh(source_desc: np.ndarray, target_desc: np.ndarray):
    """Index of the nearest target descriptor per source descriptor. Ties fall
    to the k-d tree's order: the same target on every call, not necessarily
    the lowest index."""
    if len(source_desc) == 0 or len(target_desc) == 0:
        raise ValueError("descriptor sets must be non-empty")
    return SpatialIndex(target_desc).nearest(source_desc)[0]


def evaluate_alignment(
    source: PointCloud,
    target: SpatialIndex,
    transform: RigidTransform,
    threshold: float,
) -> tuple[float, float]:
    """Fraction of transformed source points with a neighbor in the target
    index within threshold, and the RMSE of those inlier distances."""
    if not threshold > 0:
        raise ValueError("threshold must be strictly positive")
    if len(source) == 0:
        return 0.0, 0.0
    moved = transform.apply(source.points)
    _, dist = target.nearest(moved)
    inlier = dist <= threshold
    fitness = float(inlier.mean())
    if not inlier.any():
        return fitness, 0.0
    rmse = float(np.sqrt(np.mean(dist[inlier] ** 2)))
    return fitness, rmse


def ransac_coarse(
    source: PointCloud,
    target: PointCloud,
    source_desc: np.ndarray,
    target_desc: np.ndarray,
    threshold: float,
    seed: int,
) -> RegistrationResult:
    """Feature-based coarse alignment over mutual descriptor matches.

    A source point is kept only if the nearest source descriptor of its
    matched target is its own. Each iteration samples 3 kept matches, prunes
    samples whose pairwise edges disagree with the matched target edges by
    more than 10%, and estimates the rigid motion. Hypotheses rank by their
    inlier share w: the share of kept matches mapped within threshold of their
    targets. The search stops once 1 - (1 - w^3)^k reaches RANSAC_CONFIDENCE
    after k iterations, and unconverged after RANSAC_MAX_ITERATIONS. Only then
    is the best hypothesis scored against the full source cloud, for the
    fitness and RMSE the result reports.

    Raises DataError when fewer than 3 mutual matches remain or no hypothesis
    maps a kept match within the threshold.
    """
    if len(source) < 3 or len(target) < 3:
        raise ValueError("coarse registration needs at least 3 points per side")
    if len(source_desc) != len(source) or len(target_desc) != len(target):
        raise ValueError("descriptors must align with their point clouds")

    matches = match_fpfh(source_desc, target_desc)
    back = match_fpfh(target_desc, source_desc)
    kept = np.flatnonzero(back[matches] == np.arange(len(matches)))
    if len(kept) < 3:
        raise DataError(f"only {len(kept)} mutual descriptor matches")
    src = source.points[kept]
    tgt = target.points[matches[kept]]
    rng = np.random.default_rng(seed)

    best: RigidTransform | None = None
    best_inliers = 0
    iteration = 0
    converged = False
    while iteration < RANSAC_MAX_ITERATIONS:
        iteration += 1
        sample = rng.choice(len(src), size=3, replace=False)
        s3 = src[sample]
        t3 = tgt[sample]

        ok = True
        for i in range(3):
            j = (i + 1) % 3
            ds = np.linalg.norm(s3[i] - s3[j])
            dt = np.linalg.norm(t3[i] - t3[j])
            if abs(ds - dt) > EDGE_PRUNE_RATIO * dt:
                ok = False
                break
        if ok:
            try:
                candidate = estimate_rigid(s3, t3)
            except DegenerateGeometryError:
                ok = False
        if ok:
            residual = np.linalg.norm(candidate.apply(src) - tgt, axis=1)
            inliers = int((residual <= threshold).sum())
            if inliers > best_inliers:
                best_inliers = inliers
                best = candidate

        if best is not None:
            confidence = 1.0 - (1.0 - (best_inliers / len(src)) ** 3) ** iteration
            if confidence >= RANSAC_CONFIDENCE:
                converged = True
                break

    if best is None:
        raise DataError(
            f"no RANSAC hypothesis maps a mutual match within {threshold:.3g} m "
            f"in {iteration} iterations"
        )
    fitness, rmse = evaluate_alignment(source, SpatialIndex(target.points), best, threshold)
    return RegistrationResult(best, fitness, rmse, iteration, converged)


def _solve_normal_equations(n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve N x = g over the observable subspace.

    Eigen-directions below the relative spectral cutoff receive no update, so
    under-constrained geometry (a single plane) still yields the exact update
    in the constrained directions.
    """
    w, v = np.linalg.eigh(n)
    wmax = float(w[-1])
    if not np.isfinite(wmax) or wmax <= 1e-12:
        raise DegenerateGeometryError("normal equations have no observable direction")
    keep = w > wmax * SPECTRAL_CUTOFF
    vk = v[:, keep]
    return vk @ ((vk.T @ g) / w[keep])


class _CellMatches:
    """The correspondence state icp_point_to_plane carries between passes:
    per source point, its anchor (where it was last queried), the index of
    its nearest cell mean within max_distance (-1 for none) and the margin
    gap = min(d2, max_distance) - d1 - slack, with slack REUSE_SLACK times
    the coordinate magnitude."""

    __slots__ = ("index", "max_distance", "idx", "anchor", "gap")

    def __init__(self, index: SpatialIndex, max_distance: float, count: int):
        self.index = index
        self.max_distance = max_distance
        self.idx = np.full(count, -1, np.int64)
        self.anchor = np.zeros((count, 3))
        self.gap = np.full(count, -np.inf)

    def update(self, moved: np.ndarray) -> np.ndarray:
        stale = ~(2.0 * np.linalg.norm(moved - self.anchor, axis=1) < self.gap)
        if stale.any():
            points = moved[stale]
            idx, d1, d2 = self.index.nearest(points, self.max_distance, runner_up=True)
            slack = REUSE_SLACK * (1.0 + float(np.abs(points).max()))
            self.idx[stale] = idx
            self.anchor[stale] = points
            self.gap[stale] = np.minimum(d2, self.max_distance) - d1 - slack
        return self.idx


def icp_point_to_plane(
    source: PointCloud,
    index: SpatialIndex,
    normals: np.ndarray,
    init: RigidTransform,
    max_distance: float,
    max_iterations: int,
    kernel: float | None = None,
) -> RegistrationResult:
    """Refine an alignment of a cloud against cells with normals: an index
    over the cell means and one normal per mean, as planar_cells returns them.
    A cell with a zero normal may stay in the index; it adds nothing to the
    normal equations.

    Correspondences run from transformed source points to the nearest cell
    mean within max_distance. After the first pass an ICP step moves points
    by millimetres and means are centimetres apart, so most correspondences
    are kept rather than queried again. Say a point was last queried at its
    anchor, where its nearest mean was d1 away and every other mean at least
    g = min(d2, max_distance), d2 being the runner-up distance. Once it has
    moved s from the anchor, the kept mean is at most d1 + s away and every
    other at least g - s (triangle inequality), so while 2 s < g - d1 the
    kept mean is still the strictly nearest and within max_distance, and the
    point keeps its index. Every other point, unmatched ones included, is
    queried again (_CellMatches). The correspondences, and so every result,
    are those of querying every point on every pass.

    Each iteration minimizes the sum of squared point-to-plane residuals r
    through the small-angle linearization about the centroid of its
    correspondences, so georeferenced coordinates far from the origin neither
    lengthen the rotation's lever arm nor tie rotation to translation, and
    composes the increment on the left. With a kernel k, each residual is
    weighted by the Geman-McClure weight k^2 / (k + r^2)^2, as in KISS-ICP
    (Vizzo et al., RA-L 2023). The loop stops, converged, once the norm of an
    increment falls below CONVERGENCE_EPS, and unconverged after
    max_iterations.
    """
    if len(source) == 0:
        raise ValueError("source cloud is empty")
    means = index.points
    matches = _CellMatches(index, max_distance, len(source))

    transform = init
    converged = False
    # correspondences of the current transform; the last pass only scores it
    for iterations in range(max_iterations + 1):
        moved = transform.apply(source.points)
        idx = matches.update(moved)
        found = idx >= 0
        p = moved[found]
        nrm = normals[idx[found]]
        residual = ((p - means[idx[found]]) * nrm).sum(axis=1)
        if converged or iterations == max_iterations:
            break
        if len(p) < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(
                f"only {len(p)} correspondences within {max_distance} m"
            )
        c = p.mean(axis=0)
        jac = np.hstack([np.cross(p - c, nrm), nrm])
        weighted = jac
        if kernel is not None:
            weighted = jac * (kernel**2 / (kernel + residual**2) ** 2)[:, None]
        system = weighted.T @ jac
        gradient = weighted.T @ (-residual)
        x = _solve_normal_equations(system, gradient)
        rotation = rotation_exp(x[:3])
        step = RigidTransform(rotation, c - rotation @ c + x[3:])
        transform = step @ transform
        converged = float(np.linalg.norm(x)) < CONVERGENCE_EPS

    fitness = float(found.mean())
    rmse = float(np.sqrt(np.mean(residual**2))) if found.any() else 0.0
    return RegistrationResult(transform, fitness, rmse, iterations, converged)
