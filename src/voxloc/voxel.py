"""Sparse voxel grids with per-cell statistics.

Cell keys are ``floor(coordinate / voxel_size)`` per axis with the grid origin
at zero. Each occupied cell carries its point count, mean, sample covariance
(count >= 3) and an optional mean color, and nothing else: compute_normals
returns the normals and eigenvalues it derives from them. A normal's sign is
arbitrary: every consumer (point-to-plane ICP, the folded FPFH angles) gives
the same result for either sign.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud

EIGENGAP_TOL = 1e-12  # below this the normal direction is ill-defined

_COV_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class VoxelGrid:
    """Sparse mapping from integer voxel keys to cell statistics.

    Cell data is stored columnar, one row per cell, in sorted key order: the
    point count, and the sum and second moments (xx, xy, xz, yy, yz, zz) of
    the points relative to the voxel's corner ``key * voxel_size``. Means and
    covariances derive from these, so merging two grids is adding their rows,
    and the small relative coordinates keep the one-pass covariance exact to
    rounding even at georeferenced (UTM-scale) positions.
    """

    def __init__(self, voxel_size: float):
        if not voxel_size > 0:
            raise ValueError("voxel_size must be strictly positive")
        self.voxel_size = float(voxel_size)
        self._keys = np.empty((0, 3), np.int64)
        self._counts = np.empty(0, np.int64)
        self._sums = np.empty((0, 3))
        self._moments = np.empty((0, 6))
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
        return self._keys * self.voxel_size + self._sums / self._counts[:, None]

    @property
    def covariances(self) -> np.ndarray:
        return _covariances(self._counts, self._sums, self._moments)

    @property
    def has_covariance(self) -> np.ndarray:
        return self._counts >= 3

    @property
    def colors(self) -> np.ndarray | None:
        """Per-cell mean colors rounded to integers, or None."""
        if self._color_sums is None:
            return None
        return np.rint(self._color_sums / self._counts[:, None]).astype(np.uint8)

    # -- construction -------------------------------------------------------

    def insert(self, points: np.ndarray) -> None:
        """Merge points into the grid: counts, sums and second moments of a
        cell become those of the union of its old and new points, so means and
        covariances match a voxelize of everything inserted.

        Colors are cleared for the whole grid.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("expected an (N, 3) array")
        if len(pts) == 0:
            return
        keys, counts, sums, moments, _ = _group_points(pts, self.voxel_size)
        # a key occurs at most once per side and the old row comes first, so
        # bincount adds old + new per cell, from 0.0
        self._keys, _, inverse = _group_keys(np.concatenate([self._keys, keys]))
        m = len(self._keys)
        both = np.vstack([
            np.column_stack([self._counts, self._sums, self._moments]),
            np.column_stack([counts, sums, moments]),
        ])
        merged = np.column_stack([np.bincount(inverse, weights=col, minlength=m) for col in both.T])
        self._counts = merged[:, 0].astype(np.int64)
        self._sums, self._moments = merged[:, 1:4], merged[:, 4:]
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
        self._moments = self._moments[keep]
        if self._color_sums is not None:
            self._color_sums = self._color_sums[keep]

    def compute_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell, the smallest-eigenvector normal and the ascending
        covariance eigenvalues, from one batched eigh: (normals, eigenvalues).

        A normal is zero unless the cell has a covariance whose two smallest
        eigenvalues are at least EIGENGAP_TOL apart, and keeps the sign eigh
        gives it; a cell without a covariance has zero eigenvalues."""
        normals = np.zeros((len(self), 3))
        eigenvalues = np.zeros((len(self), 3))
        rows = np.flatnonzero(self.has_covariance)
        if rows.size == 0:
            return normals, eigenvalues
        cov = _covariances(self._counts[rows], self._sums[rows], self._moments[rows])
        w, v = np.linalg.eigh(cov)
        smallest = v[:, :, 0] / np.linalg.norm(v[:, :, 0], axis=1)[:, None]
        defined = (w[:, 1] - w[:, 0]) >= EIGENGAP_TOL
        normals[rows] = np.where(defined[:, None], smallest, 0.0)
        eigenvalues[rows] = w
        return normals, eigenvalues


def _covariances(counts: np.ndarray, sums: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Sample covariances (M - S Sᵀ / n) / (n - 1) from point counts, sums S
    and second moments M; a cell of one point gets zeros."""
    products = np.column_stack([sums[:, a] * sums[:, b] for a, b in _COV_PAIRS])
    flat = moments - products / counts[:, None]
    flat /= np.maximum(counts - 1, 1)[:, None]
    cov = np.empty((len(counts), 3, 3))
    for col, (a, b) in enumerate(_COV_PAIRS):
        cov[:, a, b] = cov[:, b, a] = flat[:, col]
    return cov


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
    """Group points by voxel key: (keys, counts, sums, moments, inverse), keys
    sorted; sums and second moments (_COV_PAIRS order) are of the points
    relative to their voxel's corner."""
    point_keys = np.floor(pts / voxel_size).astype(np.int64)
    ukeys, counts, inverse = _group_keys(point_keys)
    local = pts - point_keys * voxel_size
    m = len(ukeys)
    sums = np.column_stack(
        [np.bincount(inverse, weights=local[:, a], minlength=m) for a in range(3)]
    )
    moments = np.column_stack(
        [np.bincount(inverse, weights=local[:, a] * local[:, b], minlength=m)
         for a, b in _COV_PAIRS]
    )
    return ukeys, counts, sums, moments, inverse


def voxelize(cloud: PointCloud, voxel_size: float) -> VoxelGrid:
    """Bucket a cloud into a voxel grid and compute per-cell statistics."""
    grid = VoxelGrid(voxel_size)
    pts = cloud.points
    if len(pts) == 0:
        return grid

    ukeys, counts, sums, moments, inverse = _group_points(pts, voxel_size)
    m = len(ukeys)
    color_sums = None
    if cloud.colors is not None:
        c = cloud.colors.astype(float)
        color_sums = np.column_stack(
            [np.bincount(inverse, weights=c[:, a], minlength=m) for a in range(3)]
        )

    grid._keys, grid._counts, grid._sums, grid._moments = ukeys, counts, sums, moments
    grid._color_sums = color_sums
    return grid


def downsample(grid: VoxelGrid) -> PointCloud:
    """One point per occupied cell at the cell mean; colors carried along."""
    if len(grid) == 0:
        return PointCloud(np.empty((0, 3)))
    return PointCloud(grid.means.copy(), grid.colors)
