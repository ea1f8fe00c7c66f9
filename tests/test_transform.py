"""Rigid motions: exponential map, validation, composition."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from voxloc.transform import (
    RigidTransform,
    orthonormalize_rotation,
    rotation_drift,
    rotation_exp,
    skew,
)


class TestRotationExpLog:
    def test_zero_vector_maps_to_identity(self):
        assert np.array_equal(rotation_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        got = rotation_exp([0.0, 0.0, np.pi / 2])
        want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_exp_log_round_trip(self, rng):
        for _ in range(50):
            omega = rng.normal(size=3)
            omega *= rng.uniform(1e-10, 3.0) / np.linalg.norm(omega)
            back = Rotation.from_matrix(rotation_exp(omega)).as_rotvec()
            np.testing.assert_allclose(back, omega, atol=1e-9)

    def test_round_trip_near_half_turn(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        omega = (np.pi - 1e-7) * axis
        back = Rotation.from_matrix(rotation_exp(omega)).as_rotvec()
        np.testing.assert_allclose(back, omega, atol=1e-6)

    def test_exp_is_orthonormal(self, rng):
        for scale in (1e-9, 1e-5, 0.1, 1.0, 3.0):
            rotation = rotation_exp(rng.normal(size=3) * scale)
            assert rotation_drift(rotation) < 1e-12
            assert np.linalg.det(rotation) > 0

    def test_skew_reproduces_cross_product(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


class TestOrthonormalize:
    def test_projects_noisy_rotation(self, rng):
        clean = rotation_exp(rng.normal(size=3))
        noisy = clean + rng.normal(scale=1e-4, size=(3, 3))
        fixed = orthonormalize_rotation(noisy)
        assert rotation_drift(fixed) < 1e-12
        np.testing.assert_allclose(fixed, clean, atol=1e-3)

    def test_idempotent_on_clean_input(self, rng):
        clean = rotation_exp(rng.normal(size=3))
        np.testing.assert_allclose(orthonormalize_rotation(clean), clean, atol=1e-14)

    def test_reflection_becomes_proper_rotation(self):
        fixed = orthonormalize_rotation(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(fixed) > 0
        assert rotation_drift(fixed) < 1e-12

    def test_drift_measure(self):
        assert rotation_drift(np.eye(3)) == 0.0
        scaled = 1.1 * np.eye(3)
        assert rotation_drift(scaled) == pytest.approx(0.21 * np.sqrt(3.0), rel=1e-12)


class TestRigidTransform:
    def test_identity_constructor(self):
        t = RigidTransform.identity()
        assert np.array_equal(t.rotation, np.eye(3))
        assert np.array_equal(t.translation, np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.zeros(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_compose_matches_matrix_product(self, rng):
        a = RigidTransform(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        b = RigidTransform(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        def homogeneous(t):
            return np.vstack([t.matrix3x4(), [0.0, 0.0, 0.0, 1.0]])

        got = homogeneous(a @ b)
        np.testing.assert_allclose(got, homogeneous(a) @ homogeneous(b), atol=1e-12)

    def test_compose_is_closed(self, rng):
        t = RigidTransform.identity()
        for _ in range(200):
            step = RigidTransform(rotation_exp(rng.normal(size=3) * 0.1),
                                  rng.normal(size=3))
            t = step @ t  # construction re-validates the invariants
        assert rotation_drift(t.rotation) <= 1e-9

    def test_inverse_annihilates(self, rng):
        t = RigidTransform(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        round_trip = t.inverse() @ t
        np.testing.assert_allclose(round_trip.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(round_trip.translation, np.zeros(3), atol=1e-12)

    def test_apply_matches_affine_formula(self, rng):
        t = RigidTransform(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        pts = rng.normal(size=(40, 3))
        want = pts @ t.rotation.T + t.translation
        np.testing.assert_allclose(t.apply(pts), want, atol=1e-14)
        np.testing.assert_allclose(t.apply(pts[0]),
                                   t.rotation @ pts[0] + t.translation, atol=1e-14)

    def test_matrix_round_trip(self, rng):
        t = RigidTransform(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        m = t.matrix3x4()
        assert m.shape == (3, 4)
        again = RigidTransform(m[:, :3], m[:, 3])
        assert np.array_equal(again.rotation, t.rotation)
        assert np.array_equal(again.translation, t.translation)
