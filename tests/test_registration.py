"""Registration tests: closed-form pose, matching, RANSAC, point-to-plane ICP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from voxloc.cloud import PointCloud
from voxloc.errors import DataError, DegenerateGeometryError, InsufficientOverlapError
from voxloc.pipeline import coarse_features, two_level_grids
from voxloc.registration import (
    estimate_rigid,
    evaluate_alignment,
    icp_point_to_plane,
    match_fpfh,
    planar_cells,
    ransac_coarse,
)
from voxloc.spatial import SpatialIndex
from voxloc.transform import RigidTransform, rotation_exp
from voxloc.voxel import voxelize

# the pipeline's default ICP correspondence distance, per-scan ICP iteration
# cap and RANSAC inlier distance
_ICP_DISTANCE = 0.5
_ICP_ITERATIONS = 50
_RANSAC_THRESHOLD = 2.0


def _random_rigid(rng, max_angle=np.pi, max_shift=10.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    return RigidTransform(rotation_exp(axis * angle), rng.uniform(-max_shift, max_shift, 3))


def _rect(rng, origin, edge_u, edge_v, n):
    ab = rng.random((n, 2))
    origin = np.asarray(origin, dtype=float)
    return origin + ab[:, :1] * np.asarray(edge_u, float) + ab[:, 1:] * np.asarray(edge_v, float)


def _yaw_box(rng, cx, cy, yaw, size=(2.4, 1.5, 1.7), density=70.0):
    sx, sy, sz = size
    c, s = np.cos(yaw), np.sin(yaw)
    ex = np.array([c, s, 0.0])
    ey = np.array([-s, c, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    corner = np.array([cx, cy, 0.0]) - (sx / 2) * ex - (sy / 2) * ey
    return np.vstack([
        _rect(rng, corner, sx * ex, sz * ez, int(sx * sz * density)),
        _rect(rng, corner + sy * ey, sx * ex, sz * ez, int(sx * sz * density)),
        _rect(rng, corner, sy * ey, sz * ez, int(sy * sz * density)),
        _rect(rng, corner + sx * ex, sy * ey, sz * ez, int(sy * sz * density)),
        _rect(rng, corner + sz * ez, sx * ex, sy * ey, int(sx * sy * density)),
    ])


def _court_scene(rng):
    """Ground plane, three unequal facades, five scattered boxes."""
    parts = [
        _rect(rng, (0, 0, 0), (30, 0, 0), (0, 20, 0), 15000),
        _rect(rng, (0, 0, 0), (12, 0, 0), (0, 0, 6), 2200),
        _rect(rng, (30, 5, 0), (0, 10, 0), (0, 0, 7), 2100),
        _rect(rng, (10, 20, 0), (15, 0, 0), (0, 0, 5), 2200),
    ]
    for (bx, by), yaw in (
        ((5.0, 6.0), 0.3), ((22.0, 4.0), 0.9), ((14.0, 11.0), 1.7),
        ((7.0, 15.0), 2.4), ((25.0, 14.0), 0.0),
    ):
        parts.append(_yaw_box(rng, bx, by, yaw))
    return PointCloud(np.vstack(parts))


def _wall_room(rng, density=400.0):
    """Ground plus two orthogonal walls; fully constrains a rigid motion.

    The patches keep 0.3 m clearances so no voxel cell mixes two surfaces;
    every cell mean then lies exactly on its plane with an exact normal.
    """
    return PointCloud(np.vstack([
        _rect(rng, (0.3, 0.3, 0), (7.4, 0, 0), (0, 7.4, 0), int(55 * density)),
        _rect(rng, (0.4, 0, 0.3), (7.2, 0, 0), (0, 0, 2.7), int(20 * density)),
        _rect(rng, (0, 0.4, 0.3), (0, 7.2, 0), (0, 0, 2.7), int(20 * density)),
    ]))


def _features(cloud, config):
    _, coarse = two_level_grids(cloud, config)
    return coarse_features(coarse, config)


class TestEstimateRigid:
    def test_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        t = estimate_rigid(pts, pts)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-12)

    def test_pure_translation(self, rng):
        pts = rng.normal(size=(15, 3))
        t = estimate_rigid(pts, pts + [1.0, 2.0, 3.0])
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, [1.0, 2.0, 3.0], atol=1e-12)

    def test_random_rigid_recovery(self, rng):
        for _ in range(50):
            truth = _random_rigid(rng)
            pts = rng.normal(size=(50, 3)) * 3.0
            t = estimate_rigid(pts, truth.apply(pts))
            assert np.linalg.norm(t.rotation - truth.rotation) < 1e-9
            assert np.linalg.norm(t.translation - truth.translation) < 1e-9

    def test_coplanar_points_still_exact(self, rng):
        truth = _random_rigid(rng)
        flat = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
        t = estimate_rigid(flat, truth.apply(flat))
        assert np.linalg.norm(t.rotation - truth.rotation) < 1e-9

    def test_reflected_target_yields_proper_rotation(self, rng):
        pts = rng.normal(size=(40, 3))
        mirrored = pts * [-1.0, 1.0, 1.0]
        t = estimate_rigid(pts, mirrored)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_collinear_source_raises(self):
        line = np.outer(np.arange(5, dtype=float), [1.0, 1.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            estimate_rigid(line, line + 1.0)

    def test_coincident_source_raises(self):
        same = np.tile([1.0, -2.0, 3.0], (6, 1))
        with pytest.raises(DegenerateGeometryError):
            estimate_rigid(same, same)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            estimate_rigid(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            estimate_rigid(np.zeros((4, 3)), np.zeros((5, 3)))


class TestMatchFpfh:
    def test_identity_matching(self, rng):
        desc = rng.random((25, 33))
        np.testing.assert_array_equal(match_fpfh(desc, desc), np.arange(25))

    def test_single_target_saturates(self, rng):
        matches = match_fpfh(rng.random((10, 33)), rng.random((1, 33)))
        np.testing.assert_array_equal(matches, np.zeros(10, dtype=int))

    def test_matches_brute_force(self, rng):
        s = rng.random((40, 33))
        t = rng.random((60, 33))
        matches = match_fpfh(s, t)
        for i in range(40):
            assert matches[i] == int(np.argmin(np.linalg.norm(t - s[i], axis=1)))

    def test_tie_falls_to_a_tied_target(self):
        # ties fall to the k-d tree's order: a tied target, the same every call
        target = np.zeros((4, 33))
        target[1] = 1.0
        target[3] = 0.0  # duplicate of target[0]
        source = np.zeros((1, 33))
        first = match_fpfh(source, target)[0]
        assert first in (0, 3)
        for _ in range(5):
            assert match_fpfh(source, target)[0] == first

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            match_fpfh(np.empty((0, 33)), np.ones((3, 33)))
        with pytest.raises(ValueError):
            match_fpfh(np.ones((3, 33)), np.empty((0, 33)))


class TestEvaluateAlignment:
    def test_identity_on_identical_clouds(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        fitness, rmse = evaluate_alignment(
            cloud, SpatialIndex(cloud.points), RigidTransform.identity(), 2.0
        )
        assert fitness == 1.0
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_clouds(self, rng):
        a = PointCloud(rng.normal(size=(50, 3)))
        b = SpatialIndex(rng.normal(size=(50, 3)) + [100.0, 0.0, 0.0])
        fitness, rmse = evaluate_alignment(a, b, RigidTransform.identity(), 2.0)
        assert fitness == 0.0
        assert rmse == 0.0

    def test_matches_brute_force(self, rng):
        src = rng.normal(size=(60, 3))
        tgt = rng.normal(size=(80, 3))
        transform = _random_rigid(rng, max_angle=0.5, max_shift=1.0)
        threshold = 1.5
        fitness, rmse = evaluate_alignment(
            PointCloud(src), SpatialIndex(tgt), transform, threshold
        )
        moved = transform.apply(src)
        nn = np.array([np.linalg.norm(tgt - m, axis=1).min() for m in moved])
        inlier = nn <= threshold
        assert fitness == pytest.approx(inlier.mean(), abs=1e-12)
        if inlier.any():
            assert rmse == pytest.approx(np.sqrt(np.mean(nn[inlier] ** 2)), abs=1e-9)

    def test_rmse_never_exceeds_threshold(self, rng):
        src = PointCloud(rng.normal(size=(80, 3)) * 2.0)
        tgt = SpatialIndex(rng.normal(size=(80, 3)) * 2.0)
        for threshold in (0.2, 0.7, 1.3):
            _, rmse = evaluate_alignment(src, tgt, RigidTransform.identity(), threshold)
            assert rmse <= threshold

    def test_accepts_prebuilt_index(self, rng):
        # RANSAC builds the target index once and scores every hypothesis on it
        src = PointCloud(rng.normal(size=(30, 3)))
        tgt = rng.normal(size=(40, 3))
        index = SpatialIndex(tgt)
        for _ in range(3):
            transform = _random_rigid(rng, max_angle=0.3, max_shift=0.5)
            reused = evaluate_alignment(src, index, transform, 1.0)
            fresh = evaluate_alignment(src, SpatialIndex(tgt), transform, 1.0)
            assert reused == fresh

    def test_empty_source(self):
        out = evaluate_alignment(
            PointCloud(np.empty((0, 3))), SpatialIndex(np.ones((3, 3))),
            RigidTransform.identity(), 1.0,
        )
        assert out == (0.0, 0.0)

    def test_bad_threshold_raises(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        with pytest.raises(ValueError):
            evaluate_alignment(cloud, SpatialIndex(cloud.points), RigidTransform.identity(), 0.0)


class TestRansacCoarse:
    def test_self_registration_is_identity(self, rng):
        points = rng.uniform(-10.0, 10.0, size=(120, 3))
        desc = rng.random((120, 33)) * 10.0
        cloud = PointCloud(points)
        res = ransac_coarse(cloud, cloud, desc, desc, _RANSAC_THRESHOLD, seed=0)
        assert res.fitness == pytest.approx(1.0)
        assert res.converged
        np.testing.assert_allclose(res.transform.rotation, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(res.transform.translation, np.zeros(3), atol=1e-6)

    def test_recovers_large_offset_on_court_scene(self, config):
        rng = np.random.default_rng(11)
        reference = _court_scene(rng)
        truth = RigidTransform(
            rotation_exp([0.0, 0.0, np.pi / 2.0]), np.array([15.0, 0.0, 0.0])
        )
        moved = reference.transformed(truth)
        target_cloud, target_desc = _features(moved, config)
        source_cloud, source_desc = _features(reference, config)
        res = ransac_coarse(
            source_cloud, target_cloud, source_desc, target_desc,
            _RANSAC_THRESHOLD, seed=2,
        )
        angle_err = Rotation.from_matrix(res.transform.rotation @ truth.rotation.T).magnitude()
        assert np.degrees(angle_err) < 5.0
        assert np.linalg.norm(res.transform.translation - truth.translation) < 0.5
        assert res.fitness > 0.5

    def test_deterministic_for_fixed_seed(self, rng):
        points = rng.uniform(-5.0, 5.0, size=(60, 3))
        desc = rng.random((60, 33))
        cloud = PointCloud(points)
        a = ransac_coarse(cloud, cloud, desc, desc, _RANSAC_THRESHOLD, seed=7)
        b = ransac_coarse(cloud, cloud, desc, desc, _RANSAC_THRESHOLD, seed=7)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
        assert (a.fitness, a.inlier_rmse, a.iterations) == (b.fitness, b.inlier_rmse, b.iterations)

    def test_reported_score_matches_reevaluation(self, rng):
        points = rng.uniform(-5.0, 5.0, size=(80, 3))
        desc = rng.random((80, 33))
        cloud = PointCloud(points)
        res = ransac_coarse(cloud, cloud, desc, desc, _RANSAC_THRESHOLD, seed=3)
        fitness, rmse = evaluate_alignment(
            cloud, SpatialIndex(points), res.transform, _RANSAC_THRESHOLD
        )
        assert fitness == res.fitness
        assert rmse == res.inlier_rmse

    def test_unprunable_matches_give_failure_result(self, rng, monkeypatch):
        # every match is mutual, but the target is the source shrunk 100
        # times, so no sample passes the 10% edge check: no hypothesis is
        # scored, which is a DataError, not an identity with fitness 0
        monkeypatch.setattr("voxloc.registration.RANSAC_MAX_ITERATIONS", 500)
        points = rng.uniform(-5.0, 5.0, size=(40, 3))
        desc = rng.random((40, 33))
        with pytest.raises(DataError, match="500 iterations"):
            ransac_coarse(
                PointCloud(points), PointCloud(points * 0.01), desc, desc,
                _RANSAC_THRESHOLD, seed=0,
            )

    def test_fewer_than_three_mutual_matches_raise(self, rng):
        # identical target rows: every source matches the same target (ties
        # fall to the tree's order), whose nearest source is a single point
        points = rng.uniform(-5.0, 5.0, size=(40, 3))
        source_desc = rng.random((40, 33))
        target_desc = np.zeros((40, 33))
        matches = match_fpfh(source_desc, target_desc)
        np.testing.assert_array_equal(matches, np.full(40, matches[0]))
        cloud = PointCloud(points)
        with pytest.raises(DataError, match="only 1 mutual"):
            ransac_coarse(
                cloud, cloud, source_desc, target_desc, _RANSAC_THRESHOLD, seed=0
            )

    def test_samples_only_mutual_matches(self, rng, monkeypatch):
        # 20 true matches among 220: the 200 distractors all match target 0,
        # whose nearest source is source 0, so the mutual filter drops them
        # and the first sample is already right
        monkeypatch.setattr("voxloc.registration.RANSAC_MAX_ITERATIONS", 50)
        truth = RigidTransform(rotation_exp([0.0, 0.0, 0.4]), np.array([3.0, -1.0, 0.5]))
        points = rng.uniform(-10.0, 10.0, size=(220, 3))
        target_desc = rng.random((20, 33)) * 10.0
        source_desc = np.vstack([target_desc, target_desc[0] + rng.random((200, 33))])
        target = PointCloud(truth.apply(points[:20]))
        res = ransac_coarse(
            PointCloud(points), target, source_desc, target_desc,
            _RANSAC_THRESHOLD, seed=1,
        )
        assert res.converged
        np.testing.assert_allclose(res.transform.rotation, truth.rotation, atol=1e-9)
        np.testing.assert_allclose(res.transform.translation, truth.translation, atol=1e-9)

    def test_too_few_points_raises(self, rng):
        cloud = PointCloud(rng.normal(size=(2, 3)))
        desc = rng.random((2, 33))
        with pytest.raises(ValueError):
            ransac_coarse(cloud, cloud, desc, desc, _RANSAC_THRESHOLD, seed=0)


class TestIcpPointToPlane:
    def _aligned_setup(self, rng):
        room = _wall_room(rng)
        grid = voxelize(room, 0.1)
        source = PointCloud(room.points[rng.choice(len(room), 4000, replace=False)])
        return source, planar_cells(grid)

    def test_aligned_source_stays_put(self, rng):
        source, target = self._aligned_setup(rng)
        res = icp_point_to_plane(
            source, *target, RigidTransform.identity(), _ICP_DISTANCE, _ICP_ITERATIONS
        )
        assert res.converged
        assert res.iterations <= 2
        assert res.inlier_rmse < 1e-9
        np.testing.assert_allclose(res.transform.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(res.transform.translation, np.zeros(3), atol=1e-9)

    def test_plane_shift_recovered_in_one_step(self, rng):
        xy = rng.uniform(-2.0, 2.0, size=(5000, 2))
        plane = PointCloud(np.column_stack([xy, np.zeros(len(xy))]))
        grid = voxelize(plane, 0.1)
        shifted = PointCloud(plane.points + [0.0, 0.0, 0.05])
        res = icp_point_to_plane(
            shifted, *planar_cells(grid), RigidTransform.identity(), _ICP_DISTANCE, 1
        )
        assert res.iterations == 1
        np.testing.assert_allclose(res.transform.translation, [0.0, 0.0, -0.05], atol=1e-9)
        np.testing.assert_allclose(res.transform.rotation, np.eye(3), atol=1e-9)

    def test_perturbed_init_converges_home(self, rng):
        source, target = self._aligned_setup(rng)
        init = RigidTransform(
            rotation_exp([0.0, 0.0, np.radians(2.0)]), np.array([0.15, -0.1, 0.05])
        )
        res = icp_point_to_plane(source, *target, init, _ICP_DISTANCE, _ICP_ITERATIONS)
        assert res.converged
        assert np.linalg.norm(res.transform.translation) < 5e-3
        assert np.degrees(Rotation.from_matrix(res.transform.rotation).magnitude()) < 0.5

    def test_rmse_non_increasing_over_iterations(self, rng, monkeypatch):
        monkeypatch.setattr("voxloc.registration.CONVERGENCE_EPS", 1e-14)
        source, target = self._aligned_setup(rng)
        init = RigidTransform(
            rotation_exp([0.0, 0.0, np.radians(1.5)]), np.array([0.1, -0.08, 0.04])
        )
        series = []
        for cap in range(1, 7):
            result = icp_point_to_plane(source, *target, init, _ICP_DISTANCE, cap)
            series.append(result.inlier_rmse)
        for earlier, later in zip(series, series[1:]):
            assert later <= earlier + 1e-12

    def test_no_overlap_raises(self, rng):
        source, target = self._aligned_setup(rng)
        far = RigidTransform(np.eye(3), np.array([200.0, 0.0, 0.0]))
        with pytest.raises(InsufficientOverlapError):
            icp_point_to_plane(source, *target, far, _ICP_DISTANCE, _ICP_ITERATIONS)

    def test_empty_source_raises(self, rng):
        _, target = self._aligned_setup(rng)
        empty = PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError):
            icp_point_to_plane(
                empty, *target, RigidTransform.identity(), _ICP_DISTANCE, _ICP_ITERATIONS
            )

    def test_grid_without_normals_raises(self):
        # one point per cell: no cell has the three points a normal needs
        cloud = PointCloud(np.arange(300.0).reshape(100, 3))
        grid = voxelize(cloud, 0.1)
        with pytest.raises(ValueError):
            planar_cells(grid)

    def test_planar_cells_are_the_normal_bearing_means(self, rng):
        room = _wall_room(rng, density=100.0)
        lone = np.column_stack([np.arange(30.0), np.full(30, 20.0), np.full(30, 5.0)])
        grid = voxelize(PointCloud(np.vstack([room.points, lone])), 0.1)
        index, normals = planar_cells(grid)
        every, _ = grid.compute_normals()
        has_normal = every.any(axis=1)
        assert not has_normal.all()  # the lone points' cells have none
        np.testing.assert_array_equal(index.points, grid.means[has_normal])
        np.testing.assert_array_equal(normals, every[has_normal])

    def test_zero_normal_cells_change_nothing(self, rng, monkeypatch):
        # an index over every cell, zero normals on the cells without one,
        # converges to the transform of the planar cells alone, although its
        # extra cells do take correspondences
        room = _wall_room(rng)
        lone = np.column_stack([np.arange(1.5, 7.0), np.full(6, 3.0), np.full(6, 1.5)])
        grid = voxelize(PointCloud(np.vstack([room.points, lone])), 0.1)
        normals, _ = grid.compute_normals()
        source = PointCloud(np.vstack([room.points[::10], lone]))
        init = RigidTransform(
            rotation_exp([0.0, 0.0, np.radians(1.0)]), np.array([0.05, -0.04, 0.03])
        )
        monkeypatch.setattr("voxloc.registration.CONVERGENCE_EPS", 1e-12)
        for kernel in (None, 0.1):
            planar = icp_point_to_plane(
                source, *planar_cells(grid), init, _ICP_DISTANCE, 100, kernel
            )
            every = icp_point_to_plane(
                source, SpatialIndex(grid.means), normals, init, _ICP_DISTANCE, 100, kernel
            )
            assert planar.converged and every.converged
            assert every.fitness > planar.fitness
            np.testing.assert_allclose(every.transform.rotation, planar.transform.rotation,
                                       rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(every.transform.translation,
                                       planar.transform.translation, rtol=0.0, atol=1e-9)

    def test_kernel_weights_discount_an_outlier_plane(self, rng):
        # a floor, plus a strip of source points 0.2 m above it that match
        # the floor's cells: unweighted ICP lifts the cloud toward the strip,
        # Geman-McClure weights with a small kernel hold it in place
        xy = rng.uniform(0.0, 4.0, size=(6000, 2))
        floor = np.column_stack([xy, np.full(len(xy), 0.05)])
        strip = floor[:300] + [0.0, 0.0, 0.2]
        grid = voxelize(PointCloud(floor), 0.5)
        index, normals = planar_cells(grid)
        source = PointCloud(np.vstack([floor, strip]))
        identity = RigidTransform.identity()
        plain = icp_point_to_plane(source, index, normals, identity, _ICP_DISTANCE, 1)
        robust = icp_point_to_plane(
            source, index, normals, identity, _ICP_DISTANCE, 1, kernel=0.01
        )
        assert abs(plain.transform.translation[2]) > 0.005
        assert abs(robust.transform.translation[2]) < 0.1 * abs(plain.transform.translation[2])

    def test_result_fields_well_formed(self, rng):
        source, target = self._aligned_setup(rng)
        res = icp_point_to_plane(
            source, *target, RigidTransform.identity(), _ICP_DISTANCE, _ICP_ITERATIONS
        )
        assert 0.0 <= res.fitness <= 1.0
        assert res.inlier_rmse >= 0.0
        assert res.iterations >= 1


@pytest.fixture(scope="module")
def room_target():
    """(source, index, normals) of a sparse wall room and its 0.25 m planar cells."""
    room = _wall_room(np.random.default_rng(5), density=60.0)
    return (PointCloud(room.points[::4]),) + planar_cells(voxelize(room, 0.25))


class TestNormalSign:
    @settings(max_examples=50, deadline=None, database=None)
    @given(
        flip_seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.0, 1.0),
        rotation=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
        shift=st.tuples(*[st.floats(-0.2, 0.2)] * 3),
        kernel=st.sampled_from([None, 0.05, 0.5]),
    )
    def test_flipping_target_normals_changes_no_bit(
        self, room_target, flip_seed, share, rotation, shift, kernel
    ):
        # a flip negates a Jacobian row together with its residual, so every
        # product in the normal equations is the same
        source, index, normals = room_target
        flips = np.random.default_rng(flip_seed).random(len(normals)) < share
        flipped = np.where(flips[:, None], -normals, normals)
        init = RigidTransform(rotation_exp(rotation), np.array(shift))
        base = icp_point_to_plane(source, index, normals, init, _ICP_DISTANCE, 5, kernel)
        out = icp_point_to_plane(source, index, flipped, init, _ICP_DISTANCE, 5, kernel)
        np.testing.assert_array_equal(out.transform.rotation, base.transform.rotation)
        np.testing.assert_array_equal(out.transform.translation, base.transform.translation)
        assert (out.fitness, out.inlier_rmse, out.iterations, out.converged) == (
            base.fitness, base.inlier_rmse, base.iterations, base.converged
        )
