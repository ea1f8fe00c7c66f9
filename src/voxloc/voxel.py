"""Sparse voxel grids with per-cell statistics.

Cell keys are ``floor(coordinate / voxel_size)`` per axis with the grid origin
at zero. Each occupied cell carries its point count, mean, sample covariance
(count >= 3), an optional surface normal, and an optional mean color.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud

EIGENGAP_TOL = 1e-12  # below this the normal direction is ill-defined

_COV_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _orient_normals(normals: np.ndarray, means: np.ndarray, viewpoint: np.ndarray | None) -> np.ndarray:
    """Fix normal signs: toward the viewpoint, else into the z >= 0 hemisphere
    (ties broken toward y >= 0, then x >= 0).

    viewpoint may be a single point (3,) or one point per cell (N, 3)."""
    if viewpoint is not None:
        view = np.asarray(viewpoint, dtype=float)
        dots = ((view - means) * normals).sum(axis=1)
        sign = np.where(dots < 0.0, -1.0, 1.0)
    else:
        x, y, z = normals[:, 0], normals[:, 1], normals[:, 2]
        sign = np.where(
            z != 0.0, np.sign(z),
            np.where(y != 0.0, np.sign(y), np.where(x >= 0.0, 1.0, -1.0)),
        )
    return normals * sign[:, None]


def _normals_from_covariances(
    covariances: np.ndarray, means: np.ndarray, viewpoint: np.ndarray | None
):
    """Smallest-eigenvector normals for a stack of covariances.

    Returns (normals, defined) where defined is False when the two smallest
    eigenvalues are separated by less than EIGENGAP_TOL.
    """
    w, v = np.linalg.eigh(covariances)
    defined = (w[:, 1] - w[:, 0]) >= EIGENGAP_TOL
    normals = v[:, :, 0]
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 0
    normals = np.where(ok[:, None], normals / np.where(ok, norms, 1.0)[:, None], 0.0)
    defined &= ok
    normals = _orient_normals(normals, means, viewpoint)
    return normals, defined


class VoxelGrid:
    """Sparse mapping from integer voxel keys to cell statistics.

    Cell data is stored columnar, one row per cell, in sorted key order.
    """

    def __init__(self, voxel_size: float):
        if not voxel_size > 0:
            raise ValueError("voxel_size must be strictly positive")
        self.voxel_size = float(voxel_size)
        self._keys = np.empty((0, 3), np.int64)
        self._counts = np.empty(0, np.int64)
        self._sums = np.empty((0, 3))
        self._cov = np.empty((0, 3, 3))
        self._has_cov = np.empty(0, bool)
        self._normals = np.empty((0, 3))
        self._has_normal = np.empty(0, bool)
        self._color_sums: np.ndarray | None = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def keys_array(self) -> np.ndarray:
        return self._keys

    @property
    def means(self) -> np.ndarray:
        if len(self) == 0:
            return np.empty((0, 3))
        return self._sums / self._counts[:, None]

    @property
    def covariances(self) -> np.ndarray:
        return self._cov

    @property
    def has_covariance(self) -> np.ndarray:
        return self._has_cov

    @property
    def normals(self) -> np.ndarray:
        return self._normals

    @property
    def has_normal(self) -> np.ndarray:
        return self._has_normal

    @property
    def colors(self) -> np.ndarray | None:
        """Per-cell mean colors rounded to integers, or None."""
        if self._color_sums is None:
            return None
        return np.rint(self._color_sums / self._counts[:, None]).astype(np.uint8)

    # -- construction -------------------------------------------------------

    def insert(self, points: np.ndarray) -> None:
        """Merge points into the grid, updating counts and means.

        Covariances, normals and colors are cleared for the whole grid; this
        path exists for map accumulation, where only means are consumed.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("expected an (N, 3) array")
        if len(pts) == 0:
            return
        keys, counts, sums, _ = _group_points(pts, self.voxel_size)
        # a key occurs at most once per side and the old row comes first, so
        # bincount adds old + new per cell, from 0.0
        self._keys, _, inverse = _group_keys(np.concatenate([self._keys, keys]))
        m = len(self._keys)
        both_counts = np.concatenate([self._counts, counts])
        both_sums = np.concatenate([self._sums, sums])
        self._counts = np.bincount(inverse, weights=both_counts, minlength=m).astype(np.int64)
        self._sums = np.column_stack(
            [np.bincount(inverse, weights=both_sums[:, a], minlength=m) for a in range(3)]
        )
        self._cov = np.zeros((m, 3, 3))
        self._has_cov = np.zeros(m, bool)
        self._normals = np.zeros((m, 3))
        self._has_normal = np.zeros(m, bool)
        self._color_sums = None

    def evict_outside(self, center: np.ndarray, radius: float) -> None:
        """Drop cells whose mean lies farther than radius from center."""
        if len(self) == 0:
            return
        dist = np.linalg.norm(self.means - np.asarray(center, dtype=float), axis=1)
        keep = dist <= radius
        if keep.all():
            return
        self._keys = self._keys[keep]
        self._counts = self._counts[keep]
        self._sums = self._sums[keep]
        self._cov = self._cov[keep]
        self._has_cov = self._has_cov[keep]
        self._normals = self._normals[keep]
        self._has_normal = self._has_normal[keep]
        if self._color_sums is not None:
            self._color_sums = self._color_sums[keep]

    def compute_normals(self, viewpoint: np.ndarray | None = None) -> None:
        """Estimate normals for every cell that has a covariance.

        viewpoint orients the signs: a single point (3,) or one anchor per
        cell (len(grid), 3)."""
        self._normals = np.zeros((len(self), 3))
        self._has_normal = np.zeros(len(self), bool)
        rows = np.flatnonzero(self._has_cov)
        if rows.size == 0:
            return
        vp = viewpoint
        if vp is not None:
            vp = np.asarray(vp, dtype=float)
            if vp.ndim == 2:
                vp = vp[rows]
        normals, defined = _normals_from_covariances(
            self._cov[rows], self.means[rows], vp
        )
        self._normals[rows] = np.where(defined[:, None], normals, 0.0)
        self._has_normal[rows] = defined


def _group_keys(keys: np.ndarray):
    """Unique rows of an (N, 3) integer key array in lexicographic order:
    (unique keys, counts, inverse).

    Keys are packed into single integers so the dedup runs on a 1-D array;
    packing is monotone in lexicographic key order, so the output ordering
    matches a row-wise unique."""
    lo = keys.min(axis=0)
    shifted = keys - lo
    spans = shifted.max(axis=0) + 1
    if float(spans[0]) * float(spans[1]) * float(spans[2]) < 2**62:
        packed = (shifted[:, 0] * spans[1] + shifted[:, 1]) * spans[2] + shifted[:, 2]
        upacked, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
        kz = upacked % spans[2]
        rest = upacked // spans[2]
        ukeys = np.column_stack([rest // spans[1], rest % spans[1], kz]) + lo
    else:
        ukeys, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return ukeys, counts, inverse.reshape(-1)


def _group_points(pts: np.ndarray, voxel_size: float):
    """Group points by voxel key: (keys, counts, sums, inverse), keys sorted."""
    ukeys, counts, inverse = _group_keys(np.floor(pts / voxel_size).astype(np.int64))
    sums = np.column_stack(
        [np.bincount(inverse, weights=pts[:, a], minlength=len(ukeys)) for a in range(3)]
    )
    return ukeys, counts, sums, inverse


def voxelize(cloud: PointCloud, voxel_size: float) -> VoxelGrid:
    """Bucket a cloud into a voxel grid and compute per-cell statistics."""
    grid = VoxelGrid(voxel_size)
    pts = cloud.points
    if len(pts) == 0:
        return grid

    ukeys, counts, sums, inverse = _group_points(pts, voxel_size)
    m = len(ukeys)
    means = sums / counts[:, None]
    centered = pts - means[inverse]

    flat = np.empty((m, 6))
    for col, (a, b) in enumerate(_COV_PAIRS):
        flat[:, col] = np.bincount(inverse, weights=centered[:, a] * centered[:, b], minlength=m)
    denom = np.maximum(counts - 1, 1).astype(float)
    cov = np.empty((m, 3, 3))
    cov[:, 0, 0] = flat[:, 0]
    cov[:, 0, 1] = cov[:, 1, 0] = flat[:, 1]
    cov[:, 0, 2] = cov[:, 2, 0] = flat[:, 2]
    cov[:, 1, 1] = flat[:, 3]
    cov[:, 1, 2] = cov[:, 2, 1] = flat[:, 4]
    cov[:, 2, 2] = flat[:, 5]
    cov /= denom[:, None, None]

    color_sums = None
    if cloud.colors is not None:
        c = cloud.colors.astype(float)
        color_sums = np.column_stack(
            [np.bincount(inverse, weights=c[:, a], minlength=m) for a in range(3)]
        )

    grid._keys, grid._counts, grid._sums, grid._color_sums = ukeys, counts, sums, color_sums
    grid._cov, grid._has_cov = cov, counts >= 3
    grid._normals, grid._has_normal = np.zeros((m, 3)), np.zeros(m, bool)
    return grid


def downsample(grid: VoxelGrid) -> PointCloud:
    """One point per occupied cell at the cell mean; colors carried along."""
    if len(grid) == 0:
        return PointCloud(np.empty((0, 3)))
    return PointCloud(grid.means.copy(), grid.colors)
