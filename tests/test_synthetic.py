"""Synthetic street scenes: determinism, self-consistency, validation."""

import hashlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from voxloc.synthetic import (
    LABEL_CAR,
    LABEL_FACADE,
    LABEL_GROUND,
    SceneSpec,
    build_street,
    generate_synthetic_scene,
    sample_scans,
    trajectory,
)

# sha256 of _scene_bytes at seeds 3 and 9 of _light_spec()
_LIGHT_SCENE_SHA256 = "6b7e242ceec2e8fd54abee892600a30e293cb52bf31ceebaf232f2e9fd6b38b6"


def _light_spec(**overrides):
    base = dict(street_length=20.0, car_count=3, scan_count=4,
                points_per_scan=2500, surface_density=120.0)
    base.update(overrides)
    return SceneSpec(**base)


def _scene_bytes(scene):
    """Every array of a generated scene, in a fixed order, as raw bytes."""
    reference, scans, truth = scene
    clouds = [reference, *scans]
    arrays = [a for cloud in clouds for a in (cloud.points, cloud.colors, cloud.labels)]
    arrays += [a for pose in truth for a in (pose.rotation, pose.translation)]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestDeterminism:
    def test_generated_bytes_are_pinned(self):
        """Benchmark inputs are regenerated from their seeds on every run, so
        a draw added, dropped or reordered here would silently change every
        workload; a change to the generated bytes must be deliberate."""
        digest = hashlib.sha256()
        for seed in (3, 9):
            digest.update(_scene_bytes(generate_synthetic_scene(seed, _light_spec())))
        assert digest.hexdigest() == _LIGHT_SCENE_SHA256

    def test_scene_is_the_three_stages_on_one_generator(self):
        spec = _light_spec(bend_degrees=0.0)
        rng = np.random.default_rng(5)
        street = build_street(rng, spec)
        truth = trajectory(spec, street)
        scans = sample_scans(rng, spec, street.reference, truth)
        assert _scene_bytes((street.reference, scans, truth)) == _scene_bytes(
            generate_synthetic_scene(5, spec))
        assert street.bend == 0.0
        np.testing.assert_array_equal(street.weld.rotation, np.eye(3))

    def test_same_seed_reproduces_everything(self):
        first = generate_synthetic_scene(9, _light_spec())
        second = generate_synthetic_scene(9, _light_spec())
        assert np.array_equal(first[0].points, second[0].points)
        assert np.array_equal(first[0].labels, second[0].labels)
        assert np.array_equal(first[0].colors, second[0].colors)
        for a, b in zip(first[1], second[1]):
            assert np.array_equal(a.points, b.points)
        for p, q in zip(first[2], second[2]):
            assert np.array_equal(p.rotation, q.rotation)
            assert np.array_equal(p.translation, q.translation)

    def test_different_seeds_differ(self):
        a = generate_synthetic_scene(1, _light_spec())
        b = generate_synthetic_scene(2, _light_spec())
        assert not np.array_equal(a[0].points, b[0].points)


class TestSelfConsistency:
    def test_noiseless_scans_lie_on_the_reference(self):
        ref, scans, truth = generate_synthetic_scene(
            9, _light_spec(noise_sigma=0.0, car_count=0))
        tree = cKDTree(ref.points)
        for scan, pose in zip(scans, truth):
            distances, _ = tree.query(pose.apply(scan.points))
            assert distances.max() < 1e-9

    def test_counts_match_the_spec(self):
        spec = _light_spec()
        ref, scans, truth = generate_synthetic_scene(4, spec)
        assert len(scans) == spec.scan_count
        assert len(truth) == spec.scan_count
        assert all(len(s) == spec.points_per_scan for s in scans)

    def test_reference_carries_all_surface_classes(self):
        ref, _, _ = generate_synthetic_scene(4, _light_spec())
        present = set(np.unique(ref.labels).tolist())
        assert {LABEL_GROUND, LABEL_CAR, LABEL_FACADE} <= present
        assert ref.colors is not None

    def test_scan_points_stay_within_sensor_range(self):
        spec = _light_spec(noise_sigma=0.0)
        _, scans, _ = generate_synthetic_scene(11, spec)
        for scan in scans:
            ranges = np.linalg.norm(scan.points, axis=1)
            assert ranges.max() <= spec.sensor_range + 1e-9

    def test_zero_cars_leaves_no_car_label(self):
        ref, _, _ = generate_synthetic_scene(5, _light_spec(car_count=0))
        assert LABEL_CAR not in np.unique(ref.labels)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(street_length=0.0),
        dict(car_count=-1),
        dict(scan_count=0),
        dict(points_per_scan=0),
        dict(noise_sigma=-0.1),
        dict(bend_degrees=80.0),
        dict(surface_density=0.0),
    ])
    def test_invalid_spec_rejected(self, bad):
        with pytest.raises(ValueError):
            SceneSpec(**bad)
