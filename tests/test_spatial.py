"""Spatial index queries checked against brute-force linear scans."""

import numpy as np
import pytest

from voxloc.errors import DataError
from voxloc.spatial import SpatialIndex


def test_empty_index():
    index = SpatialIndex(np.empty((0, 3)))
    assert index.count == 0
    idx, dist = index.nearest(np.zeros((2, 3)))
    np.testing.assert_array_equal(idx, [-1, -1])
    np.testing.assert_array_equal(dist, [np.inf, np.inf])
    pairs, dist = index.pairs_within(1.0)
    assert pairs.shape == (0, 2)
    assert len(dist) == 0


def test_single_point_is_its_own_neighbor():
    index = SpatialIndex(np.array([[1.0, 2.0, 3.0]]))
    idx, dist = index.nearest(np.array([[1.0, 2.0, 3.0]]))
    assert idx[0] == 0
    assert dist[0] == 0.0


def test_radius_boundary_is_inclusive():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0001, 0.0, 0.0], [4.5, 0.0, 0.0]])
    pairs, dist = SpatialIndex(pts).pairs_within(2.0)
    got = sorted((min(a, b), max(a, b)) for a, b in pairs.tolist())
    assert got == [(0, 1), (1, 2)]
    assert sorted(dist.tolist())[-1] == 2.0


def test_radius_saturation(rng):
    pts = rng.normal(size=(40, 3))
    pairs, _ = SpatialIndex(pts).pairs_within(1e6)
    assert len(pairs) == 40 * 39 // 2


def test_pairs_within_matches_brute_force(rng):
    pts = rng.normal(scale=2.0, size=(300, 3))
    index = SpatialIndex(pts)
    pairs, dist = index.pairs_within(1.5)
    expected = set()
    for i in range(len(pts)):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        for j in np.flatnonzero(d <= 1.5):
            expected.add((i, int(i + 1 + j)))
    got = {(min(a, b), max(a, b)) for a, b in pairs}
    assert got == expected
    np.testing.assert_allclose(
        dist, np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1), rtol=1e-12
    )


def test_descriptor_space_nearest(rng):
    """The same index type serves 33-dimensional descriptor matching."""
    desc = rng.random(size=(50, 33))
    queries = rng.random(size=(8, 33))
    index = SpatialIndex(desc)
    nn, dist = index.nearest(queries)
    brute = np.linalg.norm(desc[None] - queries[:, None], axis=2)
    np.testing.assert_array_equal(nn, brute.argmin(axis=1))
    np.testing.assert_allclose(dist, brute.min(axis=1), rtol=1e-12)


def test_nearest_with_max_distance(rng):
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    index = SpatialIndex(pts)
    nn, dist = index.nearest(np.array([[0.1, 0.0, 0.0], [50.0, 0.0, 0.0]]), max_distance=1.0)
    assert nn[0] == 0
    assert nn[1] == -1  # nothing within reach


def test_nonfinite_input_rejected():
    with pytest.raises(DataError):
        SpatialIndex(np.array([[0.0, np.nan, 0.0]]))
