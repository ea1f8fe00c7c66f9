"""Voxel grid tests: cell statistics, normals, grouping, insert/evict.

Cells are read through the grid's columns; the per-cell oracle is a few lines
of numpy over each cell's points.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxloc.cloud import PointCloud
from voxloc.voxel import EIGENGAP_TOL, VoxelGrid, _covariance_columns, downsample, voxelize


def _cov_two_pass(pts):
    """Independent sample covariance: explicit mean pass, then outer products."""
    pts = np.asarray(pts, dtype=float)
    mean = pts.mean(axis=0)
    acc = np.zeros((3, 3))
    for p in pts:
        d = p - mean
        acc += np.outer(d, d)
    return acc / (len(pts) - 1)


def _covariances(grid):
    """Per-cell 3x3 sample covariances from the grid's counts, sums and moments."""
    flat = _covariance_columns(grid.counts, grid._sums, grid._moments)
    return flat[[0, 1, 2, 1, 3, 4, 2, 4, 5]].T.reshape(-1, 3, 3)  # the 3x3 entries, row-major


def _normal_oracle(pts):
    """Smallest-eigenvector normal of one cell's points, of either sign; None
    below 3 points or without an eigengap of 1e-12."""
    if len(pts) < 3:
        return None
    w, v = np.linalg.eigh(np.cov(pts, rowvar=False, ddof=1))
    if w[1] - w[0] < 1e-12:
        return None
    return v[:, 0]


def _assert_normal(normal, expected, atol):
    """A normal's sign is arbitrary: compare it with expected up to sign."""
    sign = 1.0 if normal @ expected >= 0.0 else -1.0
    np.testing.assert_allclose(sign * normal, expected, atol=atol)


def _keys_by_floor(pts, size):
    """Brute-force grouping of points by their floor-division cell key."""
    groups = {}
    for i, p in enumerate(np.asarray(pts, dtype=float)):
        key = tuple(int(np.floor(c / size)) for c in p)
        groups.setdefault(key, []).append(i)
    return groups


def _row(grid, key):
    """The grid row holding a cell key."""
    rows = np.flatnonzero((grid.keys_array == np.asarray(key)).all(axis=1))
    assert len(rows) == 1, key
    return int(rows[0])


def _key_set(grid):
    return set(map(tuple, grid.keys_array.tolist()))


def _in_cells(pts, size, keys):
    """Per point: whether its cell key is in the set keys."""
    cells = np.floor(pts / size).astype(np.int64).tolist()
    return np.array([tuple(k) in keys for k in cells], dtype=bool)


def _one_cell(pts, colors=None):
    """Voxelize points that all fall into one 100 m cell."""
    grid = voxelize(PointCloud(np.asarray(pts, dtype=float), colors), 100.0)
    assert len(grid) == 1
    return grid


def _cell_normal(pts):
    normals, _ = _one_cell(pts).compute_normals()
    return normals[0] if normals[0].any() else None


_OFFSETS = [np.zeros(3), np.array([5e5, 5e6, 300.0])]


@st.composite
def _shifted_cells(draw):
    """(voxel size, points, shift in whole cells): points at the origin or
    at a georeferenced offset, each at least 1e-6 of a cell away from every
    cell boundary, so that rounding cannot move one into another cell."""
    size = draw(st.sampled_from([0.25, 0.5, 1.0]))
    n = draw(st.integers(1, 60))
    cells = draw(hnp.arrays(np.int64, (n, 3), elements=st.integers(-6, 6)))
    within = draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(1e-6, 1.0 - 1e-6)))
    offset = _OFFSETS[draw(st.integers(0, 1))]
    shift = draw(hnp.arrays(np.int64, 3, elements=st.integers(-1000, 1000)))
    return size, (cells + within) * size + offset, shift


def _frame(draw):
    """A rotation drawn as the Q factor of a well-conditioned matrix."""
    perturbation = draw(hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)))
    q, _ = np.linalg.qr(3.0 * np.eye(3) + perturbation)
    return q


@st.composite
def _cell_clouds(draw):
    """Points around the centre of the 4 m cell at the origin, turned by a
    random rotation: a noisy plane, a noisy line, an isotropic cross,
    coincident points or an anisotropic random blob."""
    kind = draw(st.sampled_from(["plane", "line", "isotropic", "coincident", "blob"]))
    n = draw(st.integers(3, 40))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.05]))

    def coords(shape, bound=1.5):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound)))

    if kind == "plane":
        local = np.column_stack([coords((n, 2)), noise * coords((n, 1), 1.0)])
    elif kind == "line":
        local = np.column_stack([coords((n, 1)), noise * coords((n, 2), 1.0)])
    elif kind == "isotropic":
        scale = draw(st.floats(1e-3, 1.5))
        local = scale * np.vstack([np.eye(3), -np.eye(3)]) + noise * coords((6, 3), 1.0)
    elif kind == "coincident":
        local = np.repeat(coords((1, 3)), n, axis=0) + noise * coords((n, 3), 1.0)
    else:
        local = coords((n, 3)) * draw(hnp.arrays(np.float64, 3, elements=st.floats(0.0, 1.0)))
    return local @ _frame(draw).T + 2.0


_SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


class TestCellStatistics:
    def test_single_point(self):
        grid = _one_cell([[1.5, -2.0, 0.25]])
        assert grid.counts.tolist() == [1]
        np.testing.assert_allclose(grid.means[0], [1.5, -2.0, 0.25])
        assert not grid.has_covariance[0]
        assert grid.colors is None

    def test_two_points_have_no_covariance(self):
        grid = _one_cell([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert grid.counts.tolist() == [2]
        assert not grid.has_covariance[0]

    def test_collinear_triplet(self):
        grid = _one_cell([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        np.testing.assert_allclose(grid.means[0], [1.0, 0.0, 0.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # ((-1)^2 + 0 + 1^2) / (3 - 1)
        assert grid.has_covariance[0]
        np.testing.assert_allclose(_covariances(grid)[0], expected, atol=1e-15)

    def test_covariance_matches_two_pass_oracle(self, rng):
        pts = rng.normal(size=(50, 3)) * [2.0, 0.5, 0.1] + 10.0
        cov = _covariances(_one_cell(pts))[0]
        np.testing.assert_allclose(cov, _cov_two_pass(pts), atol=1e-12)
        np.testing.assert_allclose(cov, np.cov(pts, rowvar=False, ddof=1), atol=1e-12)

    def test_covariance_is_symmetric(self, rng):
        cov = _covariances(_one_cell(rng.normal(size=(20, 3)) + 10.0))[0]
        np.testing.assert_array_equal(cov, cov.T)

    def test_color_mean_rounds_to_nearest(self):
        colors = np.array([[100, 0, 255], [101, 0, 255], [101, 3, 255]])
        grid = _one_cell(np.zeros((3, 3)), colors)
        assert grid.colors.dtype == np.uint8
        np.testing.assert_array_equal(grid.colors[0], [101, 1, 255])

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            VoxelGrid(1.0).insert(np.zeros((4, 2)))

    def test_mismatched_colors_raise(self):
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3))), 1.0)


class TestEstimateNormal:
    """Normals of single-cell grids from compute_normals."""

    def test_flat_patch_points_up(self):
        _assert_normal(_cell_normal(_SQUARE), [0.0, 0.0, 1.0], atol=1e-12)

    def test_collinear_cell_has_no_normal(self):
        assert _cell_normal([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]) is None

    def test_missing_covariance_has_no_normal(self):
        assert _cell_normal(np.zeros((2, 3))) is None

    @pytest.mark.parametrize(
        "pts, expected",
        [
            (np.full((4, 3), 50.25), None),  # coincident: a zero covariance
            (50.0 + np.vstack([np.eye(3), -np.eye(3)]), None),  # isotropic: 0.4 I exactly
            ([[50.0, 50.0, 50.0], [51.0, 51.0, 51.0], [52.0, 52.0, 52.0]], None),  # a line
            ([[10.0, 20.0, 30.0], [11.0, 20.0, 30.0], [13.0, 20.0, 30.0]], None),  # an axis line
            (  # the plane x + y = 100
                [[50.0, 50.0, 1.0], [51.0, 49.0, 5.0], [53.0, 47.0, 2.0], [52.0, 48.0, 7.0]],
                np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
            ),
            ([[50.0, 50.0, 50.0], [51.0, 52.0, 53.0]], None),  # two points: no covariance
        ],
        ids=["coincident", "isotropic", "diagonal-line", "axis-line", "tilted-plane", "two-points"],
    )
    def test_exact_cells_decide_as_eigh(self, pts, expected):
        # the closed form divides by the spread of the eigenvalues and by
        # cross-product lengths: degenerate cells must still decide as eigh does
        grid = _one_cell(pts)
        normals, w = grid.compute_normals()
        if grid.has_covariance[0]:
            expected_w, _ = np.linalg.eigh(_covariances(grid)[0])
            np.testing.assert_allclose(w[0], expected_w, rtol=0.0, atol=1e-12 * expected_w[2])
            assert normals[0].any() == (expected_w[1] - expected_w[0] >= EIGENGAP_TOL)
        else:
            assert not w.any()
        if expected is None:
            assert not normals.any()
        else:
            _assert_normal(normals[0], expected, atol=1e-12)

    def test_orthogonal_to_tilted_plane(self, rng):
        # random planes: the normal must be unit and orthogonal to the span
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            ab = rng.uniform(-1.0, 1.0, size=(30, 2))
            pts = ab[:, :1] * q[:, 0] + ab[:, 1:] * q[:, 1] + 5.0
            normal = _cell_normal(pts)
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
            assert abs(normal @ q[:, 0]) < 1e-9
            assert abs(normal @ q[:, 1]) < 1e-9


class TestVoxelize:
    def test_cell_key_is_floor_of_scaled_coordinate(self):
        grid = voxelize(PointCloud(np.array([[0.05, 0.05, 0.05]])), 0.1)
        assert grid.keys_array.tolist() == [[0, 0, 0]]

    def test_negative_coordinates_floor_down(self):
        grid = voxelize(PointCloud(np.array([[-0.05, 0.25, 0.1]])), 0.1)
        assert grid.keys_array.tolist() == [[-1, 2, 1]]

    def test_boundary_point_lands_in_upper_cell(self):
        grid = voxelize(PointCloud(np.array([[0.5, 0.0, 0.0]])), 0.5)
        assert grid.keys_array.tolist() == [[1, 0, 0]]

    def test_unit_cube_fills_eight_cells(self, rng):
        pts = rng.random((1000, 3))
        grid = voxelize(PointCloud(pts), 0.5)
        assert len(grid) == 8
        assert int(grid.counts.sum()) == 1000

    def test_counts_conserve_points(self, rng):
        pts = rng.normal(size=(5000, 3)) * 4.0
        grid = voxelize(PointCloud(pts), 0.3)
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
        assert _key_set(grid) == set(groups)
        for key, idx in groups.items():
            row = _row(grid, key)
            cell = pts[idx]
            assert grid.counts[row] == len(idx)
            np.testing.assert_allclose(grid.means[row], cell.mean(axis=0), atol=1e-12)
            assert grid.has_covariance[row] == (len(idx) >= 3)
            if len(idx) >= 3:
                np.testing.assert_allclose(
                    _covariances(grid)[row], np.cov(cell, rowvar=False, ddof=1), atol=1e-10
                )
            np.testing.assert_array_equal(
                grid.colors[row], np.rint(colors[idx].mean(axis=0)).astype(np.uint8)
            )

    @settings(max_examples=50, deadline=None, database=None)
    @given(case=_shifted_cells())
    def test_translation_equivariance_on_cell_multiples(self, case):
        # a shift by whole cells moves every key by exactly that many cells
        # and keeps the counts; the means move with it, up to the rounding of
        # a coordinate (two ulps, 1.9e-9 m at 5e6 m) on top of 1e-12
        size, pts, shift = case
        base = voxelize(PointCloud(pts), size)
        moved = voxelize(PointCloud(pts + shift * size), size)
        np.testing.assert_array_equal(moved.keys_array, base.keys_array + shift)
        np.testing.assert_array_equal(moved.counts, base.counts)
        tol = 1e-12 + 2.0 * float(np.spacing(np.abs(pts).max() + np.abs(shift * size).max()))
        np.testing.assert_allclose(moved.means, base.means + shift * size, rtol=0.0, atol=tol)

    def test_empty_cloud(self):
        grid = voxelize(PointCloud(np.empty((0, 3))), 0.5)
        assert len(grid) == 0
        assert int(grid.counts.sum()) == 0

    def test_invalid_voxel_size(self):
        with pytest.raises(ValueError):
            VoxelGrid(0.0)
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((1, 3))), -0.1)


class TestComputeNormals:
    def test_ground_plane_cells_point_up(self, rng):
        xy = rng.uniform(0.0, 4.0, size=(4000, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        normals, _ = voxelize(PointCloud(pts), 0.5).compute_normals()
        has_normal = normals.any(axis=1)
        assert has_normal.sum() >= 50
        for normal in normals[has_normal]:
            _assert_normal(normal, [0.0, 0.0, 1.0], atol=1e-12)

    def test_matches_per_cell_estimate(self, rng):
        pts = rng.normal(size=(3000, 3)) * [3.0, 3.0, 0.2]
        grid = voxelize(PointCloud(pts), 0.8)
        normals, _ = grid.compute_normals()
        groups = _keys_by_floor(pts, 0.8)
        for row, key in enumerate(grid.keys_array[:40].tolist()):
            single = _normal_oracle(pts[groups[tuple(key)]])
            if single is None:
                assert not normals[row].any()
            else:
                assert normals[row].any()
                _assert_normal(normals[row], single, atol=1e-9)


class TestSolverProperty:
    @pytest.mark.parametrize("offset", _OFFSETS)
    @settings(max_examples=100, deadline=None, database=None)
    @given(local=_cell_clouds())
    def test_compute_normals_agrees_with_eigh(self, offset, local):
        # with l2 the largest eigenvalue: eigenvalues within 1e-12 * l2; a
        # normal within 1e-12 over the relative gap (l1 - l0) / l2 where that
        # is at least 1e-6; the same "defined" decision unless eigh's gap lies
        # within 1e-15 * l2 of EIGENGAP_TOL
        grid = voxelize(PointCloud(local + offset), 4.0)
        normals, w = grid.compute_normals()
        rows = np.flatnonzero(grid.has_covariance)
        assert not normals[~grid.has_covariance].any()
        assert not w[~grid.has_covariance].any()
        expected_w, v = np.linalg.eigh(_covariances(grid)[rows])
        largest = np.abs(expected_w).max(axis=1)
        assert (np.diff(w[rows], axis=1) >= 0.0).all()
        assert (np.abs(w[rows] - expected_w) <= 1e-12 * largest[:, None]).all()
        gap = expected_w[:, 1] - expected_w[:, 0]
        defined = normals[rows].any(axis=1)
        undecided = np.abs(gap - EIGENGAP_TOL) <= 1e-15 * largest
        assert ((defined == (gap >= EIGENGAP_TOL)) | undecided).all()
        for k in np.flatnonzero(defined):
            assert abs(np.linalg.norm(normals[rows[k]]) - 1.0) < 1e-14
            relative_gap = gap[k] / largest[k]
            if relative_gap >= 1e-6:
                _assert_normal(normals[rows[k]], v[k, :, 0], atol=1e-12 / relative_gap)


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


@st.composite
def _insert_evict_cases(draw):
    """(voxel size, a grid's points, points inserted into it, eviction
    center, radius) in a 4 m box. Half the clouds lie on a 0.25 m lattice, so
    points repeat and fall on cell boundaries, and half the radii lie within
    0.1 % of a point's distance from the center, so cells sit near the sphere."""

    def cloud():
        shape = (draw(st.integers(0, 60)), 3)
        if draw(st.booleans()):
            return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 16))) * 0.25
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 4.0)))

    size = draw(st.sampled_from([0.25, 0.5, 1.0]))
    base, extra = cloud(), cloud()
    center = draw(hnp.arrays(np.float64, 3, elements=st.floats(0.0, 4.0)))
    union = np.vstack([base, extra])
    if len(union) and draw(st.booleans()):
        point = union[draw(st.integers(0, len(union) - 1))]
        radius = float(np.linalg.norm(point - center)) * draw(st.floats(0.999, 1.001))
    else:
        radius = draw(st.floats(0.0, 4.0))
    return size, base, extra, center, radius


class TestInsertEvict:
    @pytest.mark.parametrize("offset", [np.zeros(3), np.array([5e5, 5e6, 300.0])])
    @settings(max_examples=50, deadline=None, database=None)
    @given(case=_insert_evict_cases())
    def test_insert_then_evict_equals_voxelize_of_survivors(self, offset, case):
        size, base, extra, center, radius = case
        base, extra, center = base + offset, extra + offset, center + offset
        grid = voxelize(PointCloud(base), size)
        grid.insert(extra)
        grid.evict_outside(center, radius)
        union = np.vstack([base, extra])
        kept = _key_set(grid)
        # one pass and merged sums round differently, so a mean may differ by
        # an ulp of its coordinate (9.3e-10 m at 5e6 m) on top of 1e-12, and a
        # cell within a few such errors of the sphere may go either way
        tol = 1e-12 + 2.0 * float(np.spacing(np.abs(offset).max() + 4.0))
        # evicted are the cells whose mean lies beyond the radius
        whole = voxelize(PointCloud(union), size)
        dist = np.linalg.norm(whole.means - center, axis=1)
        keys = [tuple(key) for key in whole.keys_array.tolist()]
        assert kept <= set(keys)
        assert {k for k, d in zip(keys, dist) if d < radius - 4.0 * tol} <= kept
        assert not {k for k, d in zip(keys, dist) if d > radius + 4.0 * tol} & kept

        expected = voxelize(PointCloud(union[_in_cells(union, size, kept)]), size)
        np.testing.assert_array_equal(grid.keys_array, expected.keys_array)
        np.testing.assert_array_equal(grid.counts, expected.counts)
        np.testing.assert_allclose(grid.means, expected.means, rtol=0.0, atol=tol)
        np.testing.assert_allclose(_covariances(grid), _covariances(expected), rtol=0.0, atol=1e-12)
        normals, _ = grid.compute_normals()
        expected_normals, w = expected.compute_normals()
        # an eigenvector moves by about the covariance error over the eigengap
        for row in np.flatnonzero(w[:, 1] - w[:, 0] > 1e6 * EIGENGAP_TOL):
            _assert_normal(normals[row], expected_normals[row], atol=1e-8)

    def test_insert_merges_with_voxelize_of_union(self, rng):
        # keys, counts, means and covariances of an incremental grid match a
        # voxelize of the points it holds, also after an eviction and at a
        # georeferenced offset; an evicted cell that is refilled starts anew
        for offset in (np.zeros(3), np.array([5e5, 5e6, 300.0])):
            a = rng.uniform(0.0, 3.0, size=(400, 3)) + offset
            b = rng.uniform(1.0, 4.0, size=(300, 3)) + offset
            c = rng.uniform(0.0, 4.0, size=(200, 3)) + offset
            grid = voxelize(PointCloud(a), 0.5)
            grid.insert(b)
            grid.evict_outside(offset + 2.0, 1.5)
            kept = _key_set(grid)
            held = np.vstack([a, b])
            held = held[_in_cells(held, 0.5, kept)]
            assert not _in_cells(c, 0.5, kept).all()
            grid.insert(c)
            expected = voxelize(PointCloud(np.vstack([held, c])), 0.5)
            np.testing.assert_array_equal(grid.keys_array, expected.keys_array)
            np.testing.assert_array_equal(grid.counts, expected.counts)
            np.testing.assert_allclose(grid.means, expected.means, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(
                _covariances(grid), _covariances(expected), rtol=0.0, atol=1e-12
            )

    def test_insert_clears_derived_fields(self, rng):
        # covariances are kept (they merge like the counts), colors are
        # cleared for the whole grid
        pts = rng.uniform(0.0, 2.0, size=(500, 3))
        colors = rng.integers(0, 256, size=(500, 3), dtype=np.uint8)
        grid = voxelize(PointCloud(pts, colors), 0.5)
        assert grid.compute_normals()[0].any()
        extra = rng.uniform(0.0, 2.0, size=(10, 3))
        grid.insert(extra)
        union = voxelize(PointCloud(np.vstack([pts, extra])), 0.5)
        np.testing.assert_array_equal(grid.has_covariance, union.has_covariance)
        np.testing.assert_allclose(_covariances(grid), _covariances(union), rtol=0.0, atol=1e-12)
        assert grid.colors is None

    def test_insert_into_empty_grid(self, rng):
        grid = VoxelGrid(0.5)
        pts = rng.uniform(0.0, 2.0, size=(100, 3))
        grid.insert(pts)
        assert int(grid.counts.sum()) == 100

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
        # after an eviction, insert must still merge into a kept cell at its
        # new row, and an evicted one must come back as a new cell
        pts = rng.uniform(-4.0, 4.0, size=(800, 3))
        grid = voxelize(PointCloud(pts), 0.5)
        grid.insert(pts[:1])
        grid.evict_outside(np.zeros(3), 2.0)
        assert [7, 7, 7] not in grid.keys_array.tolist()
        expected = grid.counts.copy()
        expected[-1] += 1
        grid.insert(np.vstack([grid.means[-1], [3.9, 3.9, 3.9]]))
        np.testing.assert_array_equal(grid.counts[:-1], expected)
        assert grid.keys_array[-1].tolist() == [7, 7, 7]
        assert grid.counts[-1] == 1
