"""Exact nearest-neighbor queries over points or descriptors.

The package's one neighbor search, dimension-generic (3-D positions, 33-D
descriptors). A k-d tree answers batch nearest-neighbor lookups and lists
every pair within a radius; pair distances are recomputed explicitly and the
boundary is inclusive. Its callers: ICP and alignment scoring (registration,
odometry), descriptor matching (registration.match_fpfh), FPFH neighborhoods
(fpfh.compute_fpfh) and parking's cell adjacency (euclidean_cluster).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError

_SLACK = 1e-9  # relative inflation of candidate radii to cover rounding


class SpatialIndex:
    __slots__ = ("_points", "_tree")

    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("expected an (N, d) array of coordinates")
        if pts.size:
            finite = np.isfinite(pts).all(axis=1)
            if not finite.all():
                raise DataError(f"non-finite coordinate at index {int(np.argmax(~finite))}")
        self._points = pts
        self._tree = cKDTree(pts) if len(pts) else None

    @property
    def count(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    def pairs_within(self, radius: float):
        """All unordered index pairs (i < j) with distance <= radius.

        Returns an (M, 2) int array and the matching (M,) distances, in no
        particular order. Coincident distinct points appear with distance 0.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if self.count == 0:
            return np.empty((0, 2), np.int64), np.empty(0)
        pairs = self._tree.query_pairs(radius * (1.0 + _SLACK), output_type="ndarray")
        if len(pairs) == 0:
            return np.empty((0, 2), np.int64), np.empty(0)
        diff = self._points[pairs[:, 0]] - self._points[pairs[:, 1]]
        dist = np.sqrt((diff * diff).sum(axis=1))
        keep = dist <= radius
        return pairs[keep].astype(np.int64), dist[keep]

    def nearest(self, points: np.ndarray, max_distance: float | None = None):
        """Batch nearest-neighbor lookup: (indices, distances) per row.

        Rows with no neighbor within max_distance get index -1 and distance
        inf. Ties fall to the tree's internal order.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"expected an (M, {self.dimension}) array")
        if self.count == 0:
            return np.full(len(pts), -1, np.int64), np.full(len(pts), np.inf)
        bound = np.inf if max_distance is None else float(max_distance)
        dist, idx = self._tree.query(pts, k=1, distance_upper_bound=bound, workers=-1)
        idx = idx.astype(np.int64)
        idx[~np.isfinite(dist)] = -1
        return idx, dist
