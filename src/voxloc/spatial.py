"""Exact nearest-neighbor queries over points or descriptors.

The index is dimension-generic (3-D positions, 33-D descriptors). Results are
sorted by ascending distance with ties broken by ascending index, and radius
queries include the boundary, matching a brute-force scan exactly. A k-d tree
provides candidates; final distances and ordering are recomputed explicitly.
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

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape != (self.dimension,):
            raise ValueError(f"query must have dimension {self.dimension}")
        if not np.isfinite(q).all():
            raise ValueError("query contains non-finite coordinates")
        return q

    def _ordered(self, q: np.ndarray, candidates: list[int]):
        idx = np.asarray(candidates, dtype=np.int64)
        diff = self._points[idx] - q
        dist = np.sqrt((diff * diff).sum(axis=1))
        order = np.lexsort((idx, dist))
        return idx[order], dist[order]

    def k_nearest(self, query: np.ndarray, k: int):
        """The min(k, count) nearest points: (indices, distances)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        q = self._check_query(query)
        kq = min(int(k), self.count)
        if kq == 0:
            return np.empty(0, np.int64), np.empty(0)
        d, _ = self._tree.query(q, k=kq)
        dmax = float(np.max(d))
        candidates = self._tree.query_ball_point(q, dmax * (1.0 + _SLACK))
        idx, dist = self._ordered(q, candidates)
        return idx[:kq], dist[:kq]

    def radius_query(self, query: np.ndarray, radius: float):
        """All points with distance <= radius: (indices, distances)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        q = self._check_query(query)
        if self.count == 0:
            return np.empty(0, np.int64), np.empty(0)
        candidates = self._tree.query_ball_point(q, radius * (1.0 + _SLACK))
        if not candidates:
            return np.empty(0, np.int64), np.empty(0)
        idx, dist = self._ordered(q, candidates)
        keep = dist <= radius
        return idx[keep], dist[keep]

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
        inf. Ties fall to the tree's internal order; use k_nearest where the
        exact tie rule matters.
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
