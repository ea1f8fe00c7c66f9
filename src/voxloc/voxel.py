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
_EIGEN_CHUNK = 8192  # cells per compute_normals batch: its temporaries stay in cache


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
        covariance eigenvalues (_symmetric_eigen3): (normals, eigenvalues).

        A normal is zero unless the cell has a covariance whose two smallest
        eigenvalues are at least EIGENGAP_TOL apart, and its sign is
        arbitrary; a cell without a covariance has zero eigenvalues."""
        normals = np.zeros((len(self), 3))
        eigenvalues = np.zeros((len(self), 3))
        rows = np.flatnonzero(self.has_covariance)
        for start in range(0, rows.size, _EIGEN_CHUNK):
            chunk = rows[start:start + _EIGEN_CHUNK]
            flat = _covariance_columns(self._counts[chunk], self._sums[chunk], self._moments[chunk])
            w, smallest = _symmetric_eigen3(flat)
            defined = (w[1] - w[0]) >= EIGENGAP_TOL
            normals[chunk] = np.where(defined, smallest, 0.0).T
            eigenvalues[chunk] = w.T
        return normals, eigenvalues


def _covariance_columns(counts: np.ndarray, sums: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Sample covariances (M - S Sᵀ / n) / (n - 1) from point counts, sums S
    and second moments M, as six rows in _COV_PAIRS order, one column per
    cell; a cell of one point gets zeros."""
    dof = np.maximum(counts - 1, 1)
    return np.array([(moments[:, col] - sums[:, a] * sums[:, b] / counts) / dof
                     for col, (a, b) in enumerate(_COV_PAIRS)])


def _symmetric_eigen3(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (3, N) and the smallest one's unit eigenvector
    (3, N) of symmetric 3x3 matrices given as six rows in _COV_PAIRS order.
    Eberly's robust solver: the trigonometric formula, inaccurate near a
    double root, gives only the eigenvalue farthest from the other two; its
    eigenvector is the longest cross product of two rows of A - lambda I, and
    the other two eigenpairs are those of A on that vector's complement, 2x2."""
    a00, a01, a02, a11, a12, a22 = flat
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    # the eigenvalues of B = (A - qI) / p are 2 cos(angle + 2 pi k / 3)
    inv_p = 1.0 / np.where(p > 0.0, p, 1.0)
    c00, c01, c02, c11, c12, c22 = (x * inv_p for x in (b00, a01, a02, b11, a12, b22))
    half_det = 0.5 * (c00 * (c11 * c22 - c12 * c12) - c01 * (c01 * c22 - c12 * c02)
                      + c02 * (c01 * c12 - c11 * c02))
    angle = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    top = half_det >= 0.0  # then the largest eigenvalue is the isolated one, else the smallest
    angle[~top] += 2.0 * np.pi / 3.0
    isolated = q + 2.0 * p * np.cos(angle)

    d0, d1, d2 = a00 - isolated, a11 - isolated, a22 - isolated
    crosses = np.array([  # rows 0 x 1, 0 x 2 and 1 x 2 of A - isolated I
        [a01 * a12 - a02 * d1, a02 * a01 - d0 * a12, d0 * d1 - a01 * a01],
        [a01 * d2 - a02 * a12, a02 * a02 - d0 * d2, d0 * a12 - a01 * a02],
        [d1 * d2 - a12 * a12, a12 * a02 - a01 * d2, a01 * a12 - d1 * a02],
    ])
    lengths = (crosses * crosses).sum(axis=1)
    pick, longest = lengths.argmax(axis=0), lengths.max(axis=0)
    zero = longest == 0.0  # only at a triple root: any axis will do
    w0, w1, w2 = (np.take_along_axis(crosses, pick[None, None], axis=0)[0]
                  / np.sqrt(np.where(zero, 1.0, longest)))
    w0[zero] = 1.0

    # an orthonormal basis (u, v) of the plane orthogonal to w
    x_first = np.abs(w0) > np.abs(w1)
    inv_u = 1.0 / np.sqrt(np.where(x_first, w0 * w0, w1 * w1) + w2 * w2)
    u = np.array([np.where(x_first, -w2, 0.0), np.where(x_first, 0.0, w2),
                  np.where(x_first, w0, -w1)]) * inv_u
    v = np.array([w1 * u[2] - w2 * u[1], w2 * u[0] - w0 * u[2], w0 * u[1] - w1 * u[0]])
    a = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])
    au, av = (a * u).sum(axis=1), (a * v).sum(axis=1)
    m00, m01, m11 = (u * au).sum(axis=0), (v * au).sum(axis=0), (v * av).sum(axis=0)
    half, mid = 0.5 * (m00 - m11), 0.5 * (m00 + m11)
    radius = np.hypot(half, m01)
    low, high = mid - radius, mid + radius
    # low's eigenvector in (u, v): orthogonal to the longer row of
    # [[half + radius, m01], [m01, radius - half]]
    upper = half >= 0.0
    cu, cv = np.where(upper, -m01, radius - half), np.where(upper, half + radius, -m01)
    size = np.hypot(cu, cv)
    zero = size == 0.0  # only at a double root: any direction will do
    cu, cv = np.array([cu, cv]) / np.where(zero, 1.0, size)
    cu[zero] = 1.0

    eigenvalues = np.where(top, [low, high, np.maximum(isolated, high)],
                           [np.minimum(isolated, low), low, high])
    smallest = np.where(top, cu * u + cv * v, [w0, w1, w2])
    return eigenvalues, smallest


def _group_keys(keys: np.ndarray):
    """Unique rows of an (N, 3) integer key array in lexicographic order:
    (unique keys, counts, inverse).

    Keys are packed into single integers so the dedup runs on a 1-D array;
    packing is monotone in lexicographic key order, so the output ordering
    matches a row-wise unique."""
    cols = keys.T
    lo = np.array([col.min() for col in cols])
    spans = np.array([col.max() for col in cols]) - lo + 1
    if float(spans[0]) * float(spans[1]) * float(spans[2]) < 2**62:
        packed = ((cols[0] - lo[0]) * spans[1] + (cols[1] - lo[1])) * spans[2] + (cols[2] - lo[2])
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
    corners = pts / voxel_size
    np.floor(corners, out=corners)
    ukeys, counts, inverse = _group_keys(corners.astype(np.int64))
    # the floored floats are the keys exactly, so this is pts - keys * voxel_size
    corners *= voxel_size
    local = [pts[:, a] - corners[:, a] for a in range(3)]
    m = len(ukeys)
    sums = np.column_stack([np.bincount(inverse, weights=x, minlength=m) for x in local])
    moments = np.column_stack(
        [np.bincount(inverse, weights=local[a] * local[b], minlength=m) for a, b in _COV_PAIRS]
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
        # bincount casts each colour column to float on its own
        color_sums = np.column_stack(
            [np.bincount(inverse, weights=cloud.colors[:, a], minlength=m) for a in range(3)]
        )

    grid._keys, grid._counts, grid._sums, grid._moments = ukeys, counts, sums, moments
    grid._color_sums = color_sums
    return grid


def downsample(grid: VoxelGrid) -> PointCloud:
    """One point per occupied cell at the cell mean; colors carried along."""
    if len(grid) == 0:
        return PointCloud(np.empty((0, 3)))
    return PointCloud(grid.means.copy(), grid.colors)
