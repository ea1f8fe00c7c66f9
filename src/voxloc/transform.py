"""Proper rigid motions; a pose sequence is a list[RigidTransform] in scan order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROTATION_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_exp(omega: np.ndarray) -> np.ndarray:
    """Rotation matrix for a rotation vector (Rodrigues)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    k = skew(omega)
    if theta < 1e-8:
        # second-order series keeps the result orthonormal to ~theta^3
        return np.eye(3) + k + 0.5 * (k @ k)
    return np.eye(3) + (np.sin(theta) / theta) * k + ((1.0 - np.cos(theta)) / theta**2) * (k @ k)


def orthonormalize_rotation(rotation: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (Frobenius) with determinant +1."""
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=float))
    if np.linalg.det(u @ vt) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    return u @ vt


def rotation_drift(rotation: np.ndarray) -> float:
    """Frobenius distance of R^T R from the identity."""
    r = np.asarray(rotation, dtype=float)
    return float(np.linalg.norm(r.T @ r - np.eye(3)))


@dataclass(eq=False)
class RigidTransform:
    """Rigid motion ``x -> rotation @ x + translation``.

    The rotation must be orthonormal with determinant +1 (checked to 1e-9).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float).reshape(-1)
        if rotation.shape != (3, 3) or translation.shape != (3,):
            raise ValueError("expected a 3x3 rotation and a length-3 translation")
        if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
            raise ValueError("transform contains non-finite entries")
        if rotation_drift(rotation) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if np.linalg.det(rotation) < 0.0:
            raise ValueError("rotation has negative determinant (reflection)")
        self.rotation = rotation
        self.translation = translation

    @classmethod
    def identity(cls) -> RigidTransform:
        return cls(np.eye(3), np.zeros(3))

    def matrix3x4(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation[:, None]])

    def __matmul__(self, other: RigidTransform) -> RigidTransform:
        """Transform applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> RigidTransform:
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation
