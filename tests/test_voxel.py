"""Voxel grid tests: cell statistics, normals, grouping, insert/evict."""

import numpy as np
import pytest

from voxloc.cloud import PointCloud
from voxloc.voxel import (
    VoxelGrid,
    cell_statistics,
    downsample,
    estimate_normal,
    voxelize,
)


def _cov_two_pass(pts):
    """Independent sample covariance: explicit mean pass, then outer products."""
    pts = np.asarray(pts, dtype=float)
    mean = pts.mean(axis=0)
    acc = np.zeros((3, 3))
    for p in pts:
        d = p - mean
        acc += np.outer(d, d)
    return acc / (len(pts) - 1)


def _keys_by_floor(pts, size):
    """Brute-force grouping of points by their floor-division cell key."""
    groups = {}
    for i, p in enumerate(np.asarray(pts, dtype=float)):
        key = tuple(int(np.floor(c / size)) for c in p)
        groups.setdefault(key, []).append(i)
    return groups


class TestCellStatistics:
    def test_single_point(self):
        cell = cell_statistics(np.array([[1.5, -2.0, 0.25]]))
        assert cell.count == 1
        np.testing.assert_allclose(cell.mean, [1.5, -2.0, 0.25])
        assert cell.covariance is None
        assert cell.color is None

    def test_two_points_have_no_covariance(self):
        cell = cell_statistics(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert cell.count == 2
        assert cell.covariance is None

    def test_collinear_triplet(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        cell = cell_statistics(pts)
        np.testing.assert_allclose(cell.mean, [1.0, 0.0, 0.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # ((-1)^2 + 0 + 1^2) / (3 - 1)
        np.testing.assert_allclose(cell.covariance, expected, atol=1e-15)

    def test_covariance_matches_two_pass_oracle(self, rng):
        pts = rng.normal(size=(50, 3)) * [2.0, 0.5, 0.1]
        cell = cell_statistics(pts)
        np.testing.assert_allclose(cell.covariance, _cov_two_pass(pts), atol=1e-12)
        np.testing.assert_allclose(
            cell.covariance, np.cov(pts, rowvar=False, ddof=1), atol=1e-12
        )

    def test_covariance_is_symmetric(self, rng):
        cell = cell_statistics(rng.normal(size=(20, 3)))
        np.testing.assert_array_equal(cell.covariance, cell.covariance.T)

    def test_color_mean_rounds_to_nearest(self):
        pts = np.zeros((3, 3))
        colors = np.array([[100, 0, 255], [101, 0, 255], [101, 3, 255]])
        cell = cell_statistics(pts, colors)
        assert cell.color.dtype == np.uint8
        np.testing.assert_array_equal(cell.color, [101, 1, 255])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cell_statistics(np.empty((0, 3)))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            cell_statistics(np.zeros((4, 2)))

    def test_mismatched_colors_raise(self):
        with pytest.raises(ValueError):
            cell_statistics(np.zeros((3, 3)), colors=np.zeros((2, 3)))


class TestEstimateNormal:
    def test_flat_patch_points_up(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        normal = estimate_normal(cell_statistics(pts))
        np.testing.assert_allclose(normal, [0.0, 0.0, 1.0], atol=1e-12)

    def test_viewpoint_below_flips_sign(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        normal = estimate_normal(cell_statistics(pts), viewpoint=np.array([0.0, 0.0, -5.0]))
        np.testing.assert_allclose(normal, [0.0, 0.0, -1.0], atol=1e-12)

    def test_collinear_cell_has_no_normal(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert estimate_normal(cell_statistics(pts)) is None

    def test_missing_covariance_has_no_normal(self):
        assert estimate_normal(cell_statistics(np.zeros((2, 3)))) is None

    def test_orthogonal_to_tilted_plane(self, rng):
        # random planes: the normal must be unit and orthogonal to the span
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            ab = rng.uniform(-1.0, 1.0, size=(30, 2))
            pts = ab[:, :1] * q[:, 0] + ab[:, 1:] * q[:, 1]
            normal = estimate_normal(cell_statistics(pts))
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
            assert abs(normal @ q[:, 0]) < 1e-9
            assert abs(normal @ q[:, 1]) < 1e-9


class TestVoxelize:
    def test_cell_key_is_floor_of_scaled_coordinate(self):
        grid = voxelize(PointCloud(np.array([[0.05, 0.05, 0.05]])), 0.1)
        assert list(grid.keys()) == [(0, 0, 0)]

    def test_negative_coordinates_floor_down(self):
        grid = voxelize(PointCloud(np.array([[-0.05, 0.25, 0.1]])), 0.1)
        assert list(grid.keys()) == [(-1, 2, 1)]

    def test_boundary_point_lands_in_upper_cell(self):
        grid = voxelize(PointCloud(np.array([[0.5, 0.0, 0.0]])), 0.5)
        assert (1, 0, 0) in grid

    def test_unit_cube_fills_eight_cells(self, rng):
        pts = rng.random((1000, 3))
        grid = voxelize(PointCloud(pts), 0.5)
        assert len(grid) == 8
        assert grid.total_count() == 1000

    def test_counts_conserve_points(self, rng):
        pts = rng.normal(size=(5000, 3)) * 4.0
        grid = voxelize(PointCloud(pts), 0.3)
        assert grid.total_count() == 5000
        assert int(grid.counts.sum()) == 5000

    def test_keys_sorted_lexicographically(self, rng):
        pts = rng.uniform(-5.0, 5.0, size=(400, 3))
        keys = voxelize(PointCloud(pts), 0.7).keys_array
        assert np.array_equal(keys, np.unique(keys, axis=0))

    def test_cells_match_brute_force_grouping(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(600, 3))
        colors = rng.integers(0, 256, size=(600, 3), dtype=np.uint8)
        grid = voxelize(PointCloud(pts, colors), 0.5)
        groups = _keys_by_floor(pts, 0.5)
        assert set(grid.keys()) == set(groups)
        for key, idx in groups.items():
            cell = grid.cell(key)
            oracle = cell_statistics(pts[idx], colors[idx])
            assert cell.count == oracle.count
            np.testing.assert_allclose(cell.mean, oracle.mean, atol=1e-12)
            if oracle.covariance is None:
                assert cell.covariance is None
            else:
                np.testing.assert_allclose(cell.covariance, oracle.covariance, atol=1e-10)
            np.testing.assert_array_equal(cell.color, oracle.color)

    def test_translation_equivariance_on_cell_multiples(self, rng):
        size = 0.25
        shift_cells = np.array([2, -3, 5])
        pts = rng.uniform(0.0, 3.0, size=(500, 3))
        base = voxelize(PointCloud(pts), size)
        moved = voxelize(PointCloud(pts + shift_cells * size), size)
        assert set(moved.keys()) == {
            (k[0] + 2, k[1] - 3, k[2] + 5) for k in base.keys()
        }
        for key in base.keys():
            shifted = tuple(np.array(key) + shift_cells)
            np.testing.assert_allclose(
                moved.cell(shifted).mean,
                base.cell(key).mean + shift_cells * size,
                atol=1e-9,
            )

    def test_empty_cloud(self):
        grid = voxelize(PointCloud(np.empty((0, 3))), 0.5)
        assert len(grid) == 0
        assert grid.total_count() == 0

    def test_invalid_voxel_size(self):
        with pytest.raises(ValueError):
            VoxelGrid(0.0)
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((1, 3))), -0.1)

    def test_missing_key_raises(self):
        grid = voxelize(PointCloud(np.array([[0.05, 0.05, 0.05]])), 0.1)
        with pytest.raises(KeyError):
            grid.cell((9, 9, 9))


class TestComputeNormals:
    def test_ground_plane_cells_point_up(self, rng):
        xy = rng.uniform(0.0, 4.0, size=(4000, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        grid = voxelize(PointCloud(pts), 0.5)
        grid.compute_normals()
        assert grid.has_normal.sum() >= 50
        for normal in grid.normals[grid.has_normal]:
            np.testing.assert_allclose(normal, [0.0, 0.0, 1.0], atol=1e-12)

    def test_viewpoint_below_flips_all(self, rng):
        xy = rng.uniform(0.0, 4.0, size=(4000, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        grid = voxelize(PointCloud(pts), 0.5)
        grid.compute_normals(viewpoint=np.array([2.0, 2.0, -10.0]))
        for normal in grid.normals[grid.has_normal]:
            np.testing.assert_allclose(normal, [0.0, 0.0, -1.0], atol=1e-12)

    def test_per_cell_viewpoints(self, rng):
        xy = rng.uniform(0.0, 4.0, size=(4000, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        grid = voxelize(PointCloud(pts), 0.5)
        anchors = grid.means.copy()
        anchors[:, 2] = np.where(np.arange(len(grid)) % 2 == 0, 1.0, -1.0)
        grid.compute_normals(viewpoint=anchors)
        rows = np.flatnonzero(grid.has_normal)
        signs = np.where(rows % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(grid.normals[rows, 2], signs, atol=1e-12)

    def test_matches_per_cell_estimate(self, rng):
        pts = rng.normal(size=(3000, 3)) * [3.0, 3.0, 0.2]
        grid = voxelize(PointCloud(pts), 0.8)
        grid.compute_normals()
        for key in list(grid.keys())[:40]:
            cell = grid.cell(key)
            single = estimate_normal(cell)
            if single is None:
                assert cell.normal is None
            else:
                np.testing.assert_allclose(cell.normal, single, atol=1e-9)


class TestDownsample:
    def test_one_point_per_cell_at_the_mean(self, rng):
        pts = rng.uniform(0.0, 2.0, size=(300, 3))
        grid = voxelize(PointCloud(pts), 0.4)
        sparse = downsample(grid)
        assert len(sparse) == len(grid)
        np.testing.assert_array_equal(sparse.points, grid.means)

    def test_colors_carried(self, rng):
        pts = rng.uniform(0.0, 2.0, size=(300, 3))
        colors = rng.integers(0, 256, size=(300, 3), dtype=np.uint8)
        sparse = downsample(voxelize(PointCloud(pts, colors), 0.4))
        assert sparse.colors is not None
        assert sparse.colors.dtype == np.uint8

    def test_empty_grid(self):
        assert len(downsample(VoxelGrid(0.5))) == 0


class TestInsertEvict:
    def test_insert_merges_with_voxelize_of_union(self, rng):
        a = rng.uniform(0.0, 3.0, size=(400, 3))
        b = rng.uniform(1.0, 4.0, size=(300, 3))
        grid = voxelize(PointCloud(a), 0.5)
        grid.insert(b)
        union = voxelize(PointCloud(np.vstack([a, b])), 0.5)
        assert grid.total_count() == 700
        assert set(grid.keys()) == set(union.keys())
        for key in union.keys():
            assert grid.cell(key).count == union.cell(key).count
            np.testing.assert_allclose(grid.cell(key).mean, union.cell(key).mean, atol=1e-9)

    def test_insert_clears_derived_fields(self, rng):
        pts = rng.uniform(0.0, 2.0, size=(500, 3))
        grid = voxelize(PointCloud(pts), 0.5)
        grid.compute_normals()
        assert grid.has_normal.any()
        grid.insert(pts[:10])
        touched = voxelize(PointCloud(pts[:10]), 0.5)
        for key in touched.keys():
            cell = grid.cell(key)
            assert cell.covariance is None
            assert cell.normal is None

    def test_insert_into_empty_grid(self, rng):
        grid = VoxelGrid(0.5)
        pts = rng.uniform(0.0, 2.0, size=(100, 3))
        grid.insert(pts)
        assert grid.total_count() == 100

    def test_insert_nothing_is_a_no_op(self, rng):
        grid = voxelize(PointCloud(rng.uniform(0.0, 2.0, size=(50, 3))), 0.5)
        keys, counts = grid.keys_array.copy(), grid.counts.copy()
        grid.insert(np.empty((0, 3)))
        np.testing.assert_array_equal(grid.keys_array, keys)
        np.testing.assert_array_equal(grid.counts, counts)

    def test_evict_outside_keeps_near_cells(self, rng):
        pts = rng.uniform(-10.0, 10.0, size=(2000, 3))
        grid = voxelize(PointCloud(pts), 1.0)
        center = np.zeros(3)
        expected = int((np.linalg.norm(grid.means - center, axis=1) <= 5.0).sum())
        grid.evict_outside(center, 5.0)
        assert len(grid) == expected
        assert (np.linalg.norm(grid.means - center, axis=1) <= 5.0).all()

    def test_evict_then_lookup_still_consistent(self, rng):
        pts = rng.uniform(-4.0, 4.0, size=(800, 3))
        grid = voxelize(PointCloud(pts), 0.5)
        grid.evict_outside(np.zeros(3), 2.0)
        for i, key in enumerate(grid.keys()):
            np.testing.assert_array_equal(grid.keys_array[i], key)
            assert grid.cell(key).count == grid.counts[i]
