"""Trajectory error metrics and histogram binning."""

import numpy as np
import pytest

from voxloc.evaluation import (
    error_histogram,
    evaluate_trajectory,
    write_errors_csv,
    write_histogram_csv,
)
from voxloc.io import read_poses, write_poses
from voxloc.transform import RigidTransform


def _trajectory(translations):
    return [RigidTransform(np.eye(3), np.asarray(t, float)) for t in translations]


class TestEvaluateTrajectory:
    def test_identical_trajectories_have_zero_error(self, rng):
        traj = _trajectory(rng.normal(size=(6, 3)))
        errors = evaluate_trajectory(traj, traj)
        assert np.array_equal(errors.xy, np.zeros(6))
        assert np.array_equal(errors.z, np.zeros(6))

    def test_uniform_offset_decomposes_into_xy_and_z(self):
        reference = _trajectory([[0, 0, 0], [1, 2, 3], [4, 5, 6]])
        offset = np.array([0.03, 0.04, 0.01])
        estimated = _trajectory([p.translation + offset for p in reference])
        errors = evaluate_trajectory(estimated, reference)
        np.testing.assert_allclose(errors.xy, 0.05, atol=1e-15)
        np.testing.assert_allclose(errors.z, 0.01, atol=1e-15)

    def test_max_error_of_mixed_population(self):
        magnitudes = np.concatenate([
            np.full(85, 0.02), np.full(13, 0.05), np.full(3, 0.063),
        ])
        reference = _trajectory(np.zeros((101, 3)))
        estimated = _trajectory([[m, 0.0, 0.0] for m in magnitudes])
        errors = evaluate_trajectory(estimated, reference)
        assert errors.xy.max() == pytest.approx(0.063, abs=1e-15)
        assert np.sum(errors.xy > 0.06) == 3

    def test_shared_offset_leaves_errors_unchanged(self, rng):
        ref_t = rng.normal(size=(8, 3))
        est_t = ref_t + rng.normal(scale=0.05, size=(8, 3))
        base = evaluate_trajectory(_trajectory(est_t), _trajectory(ref_t))
        shift = np.array([12.0, -7.0, 3.0])
        moved = evaluate_trajectory(
            _trajectory(est_t + shift), _trajectory(ref_t + shift)
        )
        np.testing.assert_allclose(moved.xy, base.xy, atol=1e-12)
        np.testing.assert_allclose(moved.z, base.z, atol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate_trajectory(_trajectory(np.zeros((3, 3))),
                                _trajectory(np.zeros((4, 3))))

    def test_slices_of_read_poses_score_their_rows(self, rng, tmp_path):
        estimated = _trajectory(rng.normal(size=(5, 3)))
        reference = _trajectory(rng.normal(size=(5, 3)))
        write_poses(tmp_path / "est.txt", estimated)
        write_poses(tmp_path / "ref.txt", reference)
        whole = evaluate_trajectory(estimated, reference)
        part = evaluate_trajectory(read_poses(tmp_path / "est.txt")[1:4],
                                   read_poses(tmp_path / "ref.txt")[1:4])
        assert np.array_equal(part.xy, whole.xy[1:4])
        assert np.array_equal(part.z, whole.z[1:4])

    def test_empty_trajectories_raise(self):
        with pytest.raises(ValueError):
            evaluate_trajectory([], [])


class TestErrorHistogram:
    def test_three_values_with_gaps(self):
        hist = error_histogram(np.array([0.01, 0.035, 0.05]), 0.012)
        assert hist.counts.tolist() == [1, 0, 1, 0, 1]
        assert len(hist.edges) == 6
        np.testing.assert_allclose(hist.edges, 0.012 * np.arange(6), rtol=1e-15)

    def test_all_zero_errors_fill_the_first_bin(self):
        hist = error_histogram(np.zeros(17), 0.006)
        assert hist.counts.tolist() == [17]
        assert np.array_equal(hist.edges, [0.0, 0.006])

    def test_counts_are_conserved(self, rng):
        errors = rng.uniform(0.0, 0.2, size=500)
        hist = error_histogram(errors, 0.006)
        assert hist.counts.sum() == 500

    def test_empty_input_yields_single_empty_bin(self):
        hist = error_histogram(np.array([]), 0.005)
        assert hist.counts.tolist() == [0]
        assert np.array_equal(hist.edges, [0.0, 0.005])

    def test_interior_boundary_goes_to_upper_bin(self):
        # 0.25 and 0.75 are exact in binary, so the edge comparisons are exact
        hist = error_histogram(np.array([0.25, 0.70]), 0.25)
        assert hist.counts.tolist() == [0, 1, 1]

    def test_final_edge_is_inclusive(self):
        hist = error_histogram(np.array([0.1, 0.5]), 0.25)
        assert hist.counts.tolist() == [1, 1]
        assert hist.edges[-1] == 0.5

    def test_edges_start_at_zero_and_cover_max(self, rng):
        for _ in range(20):
            errors = rng.uniform(0.0, 1.0, size=50)
            width = float(rng.uniform(0.003, 0.1))
            hist = error_histogram(errors, width)
            assert hist.edges[0] == 0.0
            assert hist.edges[-1] >= errors.max()
            assert np.all(np.diff(hist.edges) > 0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            error_histogram(np.array([0.1]), 0.0)
        with pytest.raises(ValueError):
            error_histogram(np.array([-0.1]), 0.01)
        with pytest.raises(ValueError):
            error_histogram(np.array([np.nan]), 0.01)


class TestCsvOutput:
    def test_errors_csv_round_trips(self, rng, tmp_path):
        reference = _trajectory(rng.normal(size=(5, 3)))
        estimated = _trajectory(rng.normal(size=(5, 3)))
        errors = evaluate_trajectory(estimated, reference)
        path = tmp_path / "errors.csv"
        write_errors_csv(path, errors)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scan_index,xy_error,z_error"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            idx, xy, z = line.split(",")
            assert int(idx) == i
            assert float(xy) == errors.xy[i]
            assert float(z) == errors.z[i]

    def test_histogram_csv_lists_every_bin(self, rng, tmp_path):
        hist = error_histogram(rng.uniform(0.0, 0.1, size=200), 0.006)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 1 + len(hist.counts)
        total = 0
        for i, line in enumerate(lines[1:]):
            lo, hi, count = line.split(",")
            assert float(lo) == hist.edges[i]
            assert float(hi) == hist.edges[i + 1]
            total += int(count)
        assert total == 200
