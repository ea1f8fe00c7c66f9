"""Sequential odometry: motion prediction, adaptive gating, scan-to-map
registration, and multi-scan combination."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from voxloc.cloud import PointCloud
from voxloc.config import PipelineConfig
from voxloc.errors import InsufficientOverlapError
from voxloc.odometry import (
    RANGE_SCALE,
    REGISTRATION_SCALE,
    THRESHOLD_SCALE,
    OdometryState,
    adaptive_threshold,
    combine_scans,
    predict_motion,
    register_scan,
)
from voxloc.synthetic import SceneSpec, generate_synthetic_scene
from voxloc.transform import RigidTransform, rotation_exp


def _pose(axis_angle, translation):
    return RigidTransform(rotation_exp(np.asarray(axis_angle, float)),
                          np.asarray(translation, float))


def _matrix(pose):
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def _state(scans, deviation_sum_sq):
    """An odometry state that has seen `scans` scans."""
    return OdometryState(
        poses=[RigidTransform.identity()] * scans, deviation_sum_sq=deviation_sum_sq
    )


def _room_cloud(rng, n_ground=22000, n_wall=8000):
    """Ground plus two walls, every plane centered inside a 0.1 m cell layer
    so that no surface sits exactly on a voxel boundary."""
    def rect(origin, eu, ev, n):
        ab = rng.random((n, 2))
        return (np.asarray(origin, float)
                + ab[:, :1] * np.asarray(eu, float)
                + ab[:, 1:] * np.asarray(ev, float))

    return PointCloud(np.vstack([
        rect((0.3, 0.3, 0.05), (7.4, 0, 0), (0, 7.4, 0), n_ground),
        rect((0.4, 0.05, 0.3), (7.2, 0, 0), (0, 0, 2.7), n_wall),
        rect((0.05, 0.4, 0.3), (0, 7.2, 0), (0, 0, 2.7), n_wall),
    ]))


class TestPredictMotion:
    def test_empty_state_predicts_identity(self):
        predicted = predict_motion(OdometryState())
        assert np.array_equal(predicted.rotation, np.eye(3))
        assert np.array_equal(predicted.translation, np.zeros(3))

    def test_single_pose_is_repeated(self):
        pose = _pose([0.1, -0.2, 0.3], [1.0, 2.0, 3.0])
        predicted = predict_motion(OdometryState(poses=[pose]))
        np.testing.assert_allclose(_matrix(predicted), _matrix(pose), atol=1e-15)

    def test_two_poses_extrapolate_last_relative_motion(self, rng):
        prev = _pose(rng.normal(size=3) * 0.3, rng.normal(size=3))
        last = _pose(rng.normal(size=3) * 0.3, rng.normal(size=3))
        predicted = predict_motion(OdometryState(poses=[prev, last]))
        oracle = _matrix(last) @ np.linalg.inv(_matrix(prev)) @ _matrix(last)
        np.testing.assert_allclose(_matrix(predicted), oracle, atol=1e-12)

    def test_identical_poses_predict_zero_velocity(self):
        pose = _pose([0.0, 0.0, 0.4], [2.0, -1.0, 0.5])
        predicted = predict_motion(OdometryState(poses=[pose, pose]))
        np.testing.assert_allclose(_matrix(predicted), _matrix(pose), atol=1e-14)

    def test_constant_advance_continues_one_step_further(self):
        poses = [_pose([0, 0, 0], [float(k), 0.0, 0.0]) for k in range(4)]
        predicted = predict_motion(OdometryState(poses=poses))
        np.testing.assert_allclose(predicted.translation, [4.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(predicted.rotation, np.eye(3), atol=1e-14)

    def test_prediction_rotation_is_orthonormal(self, rng):
        poses = [_pose(rng.normal(size=3), rng.normal(size=3)) for _ in range(2)]
        predicted = predict_motion(OdometryState(poses=poses))
        np.testing.assert_allclose(predicted.rotation @ predicted.rotation.T,
                                   np.eye(3), atol=1e-12)


# map voxel sizes: the default config's (0.5 m), and ten times finer and coarser
MAP_VOXELS = (0.05, 0.5, 5.0)


class TestAdaptiveThreshold:
    """The bound is THRESHOLD_SCALE map voxels; deviations are given in voxels."""

    def test_default_config_keeps_the_metric_distances(self):
        # 1 m and 100 m were absolute constants before they scaled with the map
        voxel = REGISTRATION_SCALE * PipelineConfig().voxel_size_fine
        assert adaptive_threshold(OdometryState(), voxel) == 1.0
        assert RANGE_SCALE * voxel == 100.0

    def test_fresh_state_returns_default(self):
        for voxel in MAP_VOXELS:
            assert adaptive_threshold(OdometryState(), voxel) == THRESHOLD_SCALE * voxel

    def test_single_observation_still_returns_default(self):
        for voxel in MAP_VOXELS:
            state = _state(1, deviation_sum_sq=100.0 * voxel**2)
            assert adaptive_threshold(state, voxel) == THRESHOLD_SCALE * voxel

    def test_uniform_deviations_give_three_sigma(self):
        for voxel in MAP_VOXELS:
            # four deviations of exactly 0.2 voxels: sigma = 0.2, threshold = 0.6 voxels
            state = _state(4, deviation_sum_sq=4 * (0.2 * voxel) ** 2)
            assert adaptive_threshold(state, voxel) == pytest.approx(0.6 * voxel, rel=1e-15)

    def test_near_zero_deviations_clamp_to_lower_bound(self):
        for voxel in MAP_VOXELS:
            state = _state(10, deviation_sum_sq=1e-20)
            assert adaptive_threshold(state, voxel) == pytest.approx(
                0.1 * THRESHOLD_SCALE * voxel, rel=1e-15
            )

    def test_large_deviations_clamp_to_default(self):
        for voxel in MAP_VOXELS:
            state = _state(3, deviation_sum_sq=1200.0 * voxel**2)
            assert adaptive_threshold(state, voxel) == THRESHOLD_SCALE * voxel

    def test_always_within_clamp_interval(self, rng):
        for voxel in MAP_VOXELS:
            bound = THRESHOLD_SCALE * voxel
            for _ in range(50):
                state = _state(
                    int(rng.integers(2, 40)),
                    deviation_sum_sq=float(rng.uniform(0.0, 400.0)) * voxel**2,
                )
                value = adaptive_threshold(state, voxel)
                assert 0.1 * bound <= value <= bound


class TestRegisterScan:
    def test_first_scan_fixes_identity_and_fills_map(self, rng, config):
        scan = _room_cloud(rng, n_ground=4000, n_wall=1500)
        state = OdometryState()
        pose = register_scan(state, scan, config)
        assert np.array_equal(_matrix(pose), np.eye(4))
        assert len(state.local_map) > 0
        assert state.poses == [pose]
        assert state.rejected == []

    def test_repeated_static_scans_stay_at_identity(self, street_scene, config):
        # scans are downsampled on the map's grid, so a repeated scan's
        # registration points coincide with the map means
        _, scans, _ = street_scene
        state = OdometryState()
        for _ in range(4):
            register_scan(state, scans[0], config)
        for pose in state.poses:
            assert np.linalg.norm(pose.translation) < 1e-6
            assert Rotation.from_matrix(pose.rotation).magnitude() < 1e-6
        assert len(state.poses) == 4
        assert state.rejected == []

    def test_empty_scan_is_an_error(self, config):
        state = OdometryState()
        with pytest.raises(ValueError):
            register_scan(state, PointCloud(np.empty((0, 3))), config)

    def test_distant_scan_is_rejected_with_prediction_pose(self, rng, config):
        scan = _room_cloud(rng, n_ground=4000, n_wall=1500)
        state = OdometryState()
        register_scan(state, scan, config)
        cells_before = len(state.local_map)
        counts_before = state.local_map.counts.copy()

        far = PointCloud(scan.points + np.array([60.0, 0.0, 0.0]))
        pose = register_scan(state, far, config)

        prediction = state.poses[0]  # one prior pose: prediction repeats it
        assert np.array_equal(_matrix(pose), _matrix(prediction))
        assert state.rejected == [1]
        assert len(state.local_map) == cells_before
        assert np.array_equal(state.local_map.counts, counts_before)

    def test_rejected_scan_still_extends_the_trajectory(self, rng, config):
        scan = _room_cloud(rng, n_ground=4000, n_wall=1500)
        state = OdometryState()
        register_scan(state, scan, config)
        register_scan(state, PointCloud(scan.points + 80.0), config)
        assert len(state.poses) == 2


class TestCombineScans:
    def test_single_scan_returns_itself_with_identity(self, street_scene, config):
        _, scans, _ = street_scene
        combined, poses = combine_scans([scans[0]], config)
        assert np.array_equal(combined.points, scans[0].points)
        assert len(poses) == 1
        assert np.array_equal(_matrix(poses[0]), np.eye(4))

    def test_static_pair_second_pose_is_identity(self, street_scene, config):
        _, scans, _ = street_scene
        _, poses = combine_scans([scans[0], scans[0]], config)
        second = poses[1]
        assert np.linalg.norm(second.translation) < 1e-6
        assert Rotation.from_matrix(second.rotation).magnitude() < 1e-6

    def test_point_counts_are_conserved(self, street_scene, config):
        _, scans, _ = street_scene
        combined, poses = combine_scans(scans[:3], config)
        assert len(combined) == sum(len(s) for s in scans[:3])
        assert len(poses) == 3

    def test_no_scans_is_an_error(self, config):
        with pytest.raises(ValueError):
            combine_scans([], config)

    def test_supplied_state_exposes_poses_and_map(self, street_scene, config):
        _, scans, _ = street_scene
        state = OdometryState()
        _, poses = combine_scans(scans[:2], config, state=state)
        assert state.poses == poses
        assert len(state.local_map) > 0

    def test_supplied_state_gets_the_configured_map_size(self, street_scene):
        # the map follows the run's voxel_size_fine whether or not the caller
        # supplies the state
        _, scans, _ = street_scene
        config = PipelineConfig(voxel_size_fine=0.2)
        state = OdometryState()
        _, supplied = combine_scans(scans[:3], config, state=state)
        _, default = combine_scans(scans[:3], config)
        assert state.local_map.voxel_size == pytest.approx(1.0)
        for a, b in zip(supplied, default):
            assert np.array_equal(_matrix(a), _matrix(b))

    def test_corridor_tracks_ground_truth(self, config):
        # 20-scan street sequence with 1 cm sensor noise; estimated poses are
        # anchored at the true first pose before comparing since odometry
        # reports motion relative to the first scan
        _, scans, truth = generate_synthetic_scene(21, SceneSpec(noise_sigma=0.01))
        _, estimated = combine_scans(scans, config)
        anchor = truth[0]
        est = np.array([(anchor @ p).translation for p in estimated])
        ref = np.array([p.translation for p in truth])
        errors = np.linalg.norm(est - ref, axis=1)
        path = np.linalg.norm(np.diff(ref, axis=0), axis=1).sum()
        assert errors.max() < 0.05
        assert errors[-1] / path < 0.02
