"""End-to-end pipeline, scene export, and the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import voxloc
from voxloc import pipeline as pipeline_module
from voxloc.cli import main
from voxloc.cloud import PointCloud
from voxloc.config import PipelineConfig, config_hash
from voxloc.errors import DataError
from voxloc.io import read_ply, read_poses, write_ply, write_poses
from voxloc.odometry import combine_scans
from voxloc.parking import OccupancyState, OrientedBox, ParkingSpace, save_spaces
from voxloc.pipeline import (
    PipelineRun,
    coarse_features,
    export_scene,
    list_scan_files,
    refine_scans,
    run_pipeline,
    two_level_grids,
    write_synthetic_dataset,
)
from voxloc.synthetic import SceneSpec, generate_synthetic_scene
from voxloc.registration import ICP_MAX_ITERATIONS, planar_cells
from voxloc.transform import RigidTransform, Trajectory, rotation_exp
from voxloc.voxel import VoxelGrid, downsample, voxelize

_SMALL_SPEC = SceneSpec(
    street_length=20.0,
    car_count=4,
    scan_count=6,
    points_per_scan=4000,
    surface_density=150.0,
    bend_degrees=0.0,
)

# 20 points from N(0, 0.1 m): nothing a coarse hypothesis could match to a street
_NOISE_CLOUD = PointCloud(np.random.default_rng(0).normal(scale=0.1, size=(20, 3)))


# what export_scene writes; jsonschema is a test dependency only
SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["voxel_size", "voxels", "boxes"],
    "additionalProperties": False,
    "properties": {
        "voxel_size": {"type": "number", "exclusiveMinimum": 0},
        "voxels": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["key", "center", "color"],
                "additionalProperties": False,
                "properties": {
                    "key": {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                    "center": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                    "color": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0, "maximum": 255},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                },
            },
        },
        "boxes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "centroid", "dims", "yaw", "state"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "integer", "minimum": 0},
                    "centroid": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                    "dims": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                    "yaw": {"type": "number"},
                    "state": {"enum": ["occupied", "vacant"]},
                },
            },
        },
    },
}


def _load_scene(path):
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def _move_inputs(paths, offset, out_dir):
    """Reference and ground truth of a dataset moved by offset, written to
    out_dir; returns their paths. The scans stay in their sensor frames."""
    reference = read_ply(paths["reference"])
    moved = PointCloud(reference.points + offset, reference.colors, reference.labels)
    write_ply(out_dir / "reference.ply", moved)
    shift = RigidTransform(np.eye(3), offset)
    truth = Trajectory([shift @ pose for pose in read_poses(paths["gt_poses"])])
    write_poses(out_dir / "gt_poses.txt", truth)
    return out_dir / "reference.ply", out_dir / "gt_poses.txt"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    return write_synthetic_dataset(root, 3, _SMALL_SPEC)


@pytest.fixture(scope="module")
def completed_run(dataset, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    run = PipelineRun(
        config=PipelineConfig(),
        reference_path=dataset["reference"],
        scan_dir=dataset["scans"],
        out_dir=out_dir,
        gt_poses_path=dataset["gt_poses"],
        seed=0,
    )
    return run_pipeline(run)


class TestTwoLevelGrids:
    def test_coarse_is_built_from_fine_means(self, small_scene, config):
        reference = small_scene[0]
        fine, coarse = two_level_grids(reference, config)
        assert fine.voxel_size == config.voxel_size_fine
        assert coarse.voxel_size == config.voxel_size_coarse
        oracle = voxelize(downsample(fine), config.voxel_size_coarse)
        assert np.array_equal(coarse.keys_array, oracle.keys_array)
        assert np.array_equal(coarse.counts, oracle.counts)
        np.testing.assert_array_equal(coarse.means, oracle.means)


class TestCoarseFeatures:
    def test_features_cover_stable_cells(self, small_scene, config):
        _, coarse = two_level_grids(small_scene[0], config)
        cloud, descriptors = coarse_features(coarse, config)
        assert len(cloud) >= 3
        assert descriptors.shape == (len(cloud), 33)
        assert np.isfinite(descriptors).all()
        assert (descriptors >= 0.0).all()

    def test_stages_only_read_their_grid(self, small_scene, config):
        # coarse_features and planar_cells take their normals as returned
        # values and change no array of the grid they are given
        fine, coarse = two_level_grids(small_scene[0], config)
        for grid, stage in ((coarse, lambda g: coarse_features(g, config)), (fine, planar_cells)):
            before = {name: value.copy() for name, value in vars(grid).items()
                      if isinstance(value, np.ndarray)}
            assert "_color_sums" in before
            stage(grid)
            after = {name: value for name, value in vars(grid).items()
                     if isinstance(value, np.ndarray)}
            assert after.keys() == before.keys()
            for name, value in before.items():
                np.testing.assert_array_equal(after[name], value, err_msg=name)

    def test_too_small_grid_rejected(self, rng, config):
        coarse = voxelize(PointCloud(rng.normal(scale=0.1, size=(20, 3))),
                          config.voxel_size_coarse)
        with pytest.raises(DataError):
            coarse_features(coarse, config)


class TestExportScene:
    def test_minimal_single_voxel_document(self, tmp_path):
        grid = voxelize(PointCloud(np.array([[0.2, 0.3, 0.4]])), 1.0)
        path = tmp_path / "scene.json"
        export_scene(grid, [], path)
        doc = _load_scene(path)
        assert doc["voxel_size"] == 1.0
        assert len(doc["voxels"]) == 1
        assert doc["voxels"][0]["key"] == [0, 0, 0]
        assert doc["voxels"][0]["center"] == [0.5, 0.5, 0.5]
        assert doc["boxes"] == []

    def test_vacant_states_appear_verbatim(self, rng, tmp_path):
        grid = voxelize(PointCloud(rng.uniform(0, 5, size=(200, 3))), 1.0)
        spaces = []
        for i in range(10):
            box = OrientedBox(np.array([4.0 * i, 0.0, 0.75]),
                              np.array([4.0, 2.0, 1.5]), 0.0)
            state = OccupancyState.VACANT if i in (2, 5, 7) else OccupancyState.OCCUPIED
            spaces.append(ParkingSpace(i, box, state))
        path = tmp_path / "scene.json"
        export_scene(grid, spaces, path)
        doc = _load_scene(path)
        states = [b["state"] for b in doc["boxes"]]
        assert states.count("vacant") == 3
        assert [b["id"] for b in doc["boxes"] if b["state"] == "vacant"] == [2, 5, 7]

    def test_round_trip_preserves_fields_exactly(self, rng, tmp_path):
        pts = rng.uniform(0, 4, size=(300, 3))
        colors = rng.integers(0, 256, size=(300, 3), dtype=np.uint8)
        grid = voxelize(PointCloud(pts, colors=colors), 1.0)
        box = OrientedBox(np.array([1.25, -2.5, 0.8]), np.array([4.5, 2.25, 1.5]), 0.7)
        spaces = [ParkingSpace(0, box, OccupancyState.OCCUPIED)]
        path = tmp_path / "scene.json"
        export_scene(grid, spaces, path)
        doc = _load_scene(path)
        assert len(doc["voxels"]) == len(grid)
        entry = doc["boxes"][0]
        assert entry["centroid"] == [1.25, -2.5, 0.8]
        assert entry["dims"] == [4.5, 2.25, 1.5]
        assert entry["yaw"] == 0.7
        assert entry["state"] == "occupied"

    def test_boxes_are_the_spaces_file_records(self, rng, tmp_path):
        grid = voxelize(PointCloud(rng.uniform(0, 5, size=(50, 3))), 1.0)
        box = OrientedBox(np.array([1.25, -2.5, 0.8]), np.array([4.5, 2.25, 1.5]), 0.7)
        spaces = [ParkingSpace(3, box, OccupancyState.VACANT)]
        export_scene(grid, spaces, tmp_path / "scene.json")
        save_spaces(tmp_path / "spaces.json", spaces)
        spaces_file = json.loads((tmp_path / "spaces.json").read_text())
        assert _load_scene(tmp_path / "scene.json")["boxes"] == spaces_file

    def test_document_matches_schema(self, completed_run):
        doc = _load_scene(completed_run.artifacts["scene"])
        jsonschema.validate(doc, SCENE_SCHEMA)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_scene(VoxelGrid(1.0), [], tmp_path / "scene.json")


class TestWriteSyntheticDataset:
    def test_produces_pipeline_ready_files(self, dataset):
        assert dataset["reference"].is_file()
        assert dataset["gt_poses"].is_file()
        scan_files = list_scan_files(dataset["scans"])
        assert len(scan_files) == _SMALL_SPEC.scan_count
        assert [p.name for p in scan_files] == sorted(p.name for p in scan_files)
        assert len(read_poses(dataset["gt_poses"])) == _SMALL_SPEC.scan_count
        reference = read_ply(dataset["reference"])
        assert reference.labels is not None
        assert reference.colors is not None

    def test_rewrite_removes_the_earlier_scans(self, tmp_path):
        # a second scene of fewer scans into the same directory once left the
        # first scene's last scans beside its own
        light = ["--out-dir", str(tmp_path), "--street-length", "20",
                 "--surface-density", "40", "--points-per-scan", "300"]
        assert main(["synth", "--seed", "3", "--scan-count", "6", *light]) == 0
        (tmp_path / "scans" / "notes.txt").write_text("kept\n")
        assert main(["synth", "--seed", "5", "--scan-count", "4", *light]) == 0
        names = sorted(p.name for p in (tmp_path / "scans").iterdir())
        assert names == ["notes.txt"] + [f"scan_{i:04d}.ply" for i in range(4)]
        _, scans, _ = generate_synthetic_scene(5, SceneSpec(
            street_length=20.0, scan_count=4, points_per_scan=300, surface_density=40.0))
        for path, scan in zip(list_scan_files(tmp_path / "scans"), scans):
            np.testing.assert_array_equal(read_ply(path).points, scan.points)


class TestRunPipeline:
    def test_successful_run_reports_ok(self, completed_run):
        assert completed_run.status == "ok"
        assert completed_run.exit_code == 0
        assert len(completed_run.refined_poses) == _SMALL_SPEC.scan_count
        assert completed_run.coarse.converged
        assert completed_run.rejected_scans == []

    def test_artifacts_exist_on_disk(self, completed_run):
        expected = {
            "refined_poses", "odometry_poses", "coarse_transform",
            "combined_cloud", "spaces", "scene", "errors_csv",
            "hist_xy_csv", "hist_z_csv", "manifest",
        }
        assert expected <= set(completed_run.artifacts)
        for path in completed_run.artifacts.values():
            assert path.is_file()

    def test_refined_poses_track_ground_truth(self, completed_run):
        assert completed_run.errors is not None
        assert completed_run.errors.xy.mean() < 0.036
        assert completed_run.errors.z.mean() < 0.02

    def test_manifest_names_outputs_and_config(self, completed_run):
        manifest = json.loads(completed_run.artifacts["manifest"].read_text())
        assert manifest["status"] == "ok"
        assert manifest["scan_count"] == _SMALL_SPEC.scan_count
        assert manifest["config_hash"] == config_hash(PipelineConfig())
        assert manifest["rejected_scans"] == []
        assert manifest["skipped_car_clusters"] == 0
        whole = completed_run.whole_cloud
        assert manifest["whole_cloud"] == {
            "fitness": whole.fitness,
            "inlier_rmse": whole.inlier_rmse,
            "iterations": whole.iterations,
            "converged": whole.converged,
        }
        assert whole.converged
        assert whole.fitness > 0.9
        out_dir = completed_run.artifacts["manifest"].parent
        for name in manifest["outputs"].values():
            assert (out_dir / name).is_file()

    def test_written_poses_round_trip(self, completed_run):
        stored = read_poses(completed_run.artifacts["refined_poses"])
        for got, want in zip(stored, completed_run.refined_poses):
            np.testing.assert_allclose(got.matrix3x4(), want.matrix3x4(), atol=1e-15)

    def test_single_scan_self_localization(self, dataset, tmp_path):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        shutil.copy(dataset["reference"], scan_dir / "scan_0000.ply")
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=scan_dir,
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "ok"
        pose = result.refined_poses[0]
        assert np.linalg.norm(pose.translation) < 1e-3
        assert Rotation.from_matrix(pose.rotation).magnitude() < 1e-3

    def test_georeferenced_offset_keeps_the_accuracy(self, dataset, completed_run, tmp_path):
        # the same street and ground truth moved to UTM-scale coordinates
        # must localize as well as at the origin
        reference, truth = _move_inputs(dataset, np.array([5e5, 5e6, 300.0]), tmp_path)
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=reference,
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            gt_poses_path=truth,
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "ok"
        assert abs(result.errors.xy.mean() - completed_run.errors.xy.mean()) < 1e-4

    def test_missing_reference_is_input_error(self, dataset, tmp_path):
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=tmp_path / "absent.ply",
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "input-error"
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_scan_dir_is_input_error(self, dataset, tmp_path):
        empty = tmp_path / "scans"
        empty.mkdir()
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=empty,
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.exit_code == 2

    def test_pose_count_mismatch_is_input_error(self, dataset, tmp_path):
        bad_poses = tmp_path / "gt.txt"
        identity = " ".join(["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0"])
        bad_poses.write_text(identity + "\n")
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            gt_poses_path=bad_poses,
            seed=0,
        )
        result = run_pipeline(run)
        assert result.exit_code == 2

    def test_undecodable_pose_file_is_input_error(self, dataset, tmp_path):
        binary = tmp_path / "gt.txt"
        binary.write_bytes(b"\xff\xfe\x00 not text\n")
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            gt_poses_path=binary,
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "input-error"
        assert result.exit_code == 2
        assert str(binary) in result.message

    def test_stage_failure_leaves_no_artifacts(self, dataset, tmp_path):
        reference = read_ply(dataset["reference"])
        tiny_path = tmp_path / "tiny.ply"
        write_ply(tiny_path, reference.select(np.arange(5)))
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=tiny_path,
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.exit_code == 1
        assert result.status.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_unmatched_combined_cloud_is_a_coarse_error(self, dataset, tmp_path):
        # one scan of 20 points from N(0, 0.1 m): no RANSAC hypothesis can
        # score against the street, which must not end ok with the identity
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        write_ply(scan_dir / "scan_0000.ply", _NOISE_CLOUD)
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=scan_dir,
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert (result.status, result.exit_code) == ("error:coarse", 1)
        assert not (tmp_path / "out").exists()

    def test_degenerate_car_cluster_is_skipped(self, dataset, tmp_path):
        # every car point on one vertical line: the only cluster has no
        # planar spread, so it gets no box, and the run still succeeds
        reference = read_ply(dataset["reference"])
        column = np.zeros((40, 3))
        column[:, :2] = reference.points[:, :2].mean(axis=0)
        column[:, 2] = np.linspace(0.0, 1.95, 40)
        labels = np.zeros(len(reference) + len(column), dtype=np.int64)
        labels[len(reference):] = PipelineConfig().car_label
        degenerate = tmp_path / "degenerate.ply"
        write_ply(degenerate, PointCloud(np.vstack([reference.points, column]), labels=labels))
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        shutil.copy(list_scan_files(dataset["scans"])[0], scan_dir)
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=degenerate,
            scan_dir=scan_dir,
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "ok"
        assert result.exit_code == 0
        for name in ("refined_poses", "odometry_poses", "coarse_transform"):
            assert result.artifacts[name].is_file()
        assert json.loads(result.artifacts["spaces"].read_text()) == []
        assert _load_scene(result.artifacts["scene"])["boxes"] == []
        manifest = json.loads(result.artifacts["manifest"].read_text())
        assert manifest["skipped_car_clusters"] == 1

    def test_parking_failure_names_its_stage(self, dataset, tmp_path, monkeypatch):
        def broken(cloud, config, **collectors):
            raise DataError("parking broke")

        monkeypatch.setattr(pipeline_module, "spaces_from_reference", broken)
        run = PipelineRun(
            config=PipelineConfig(),
            reference_path=dataset["reference"],
            scan_dir=dataset["scans"],
            out_dir=tmp_path / "out",
            seed=0,
        )
        result = run_pipeline(run)
        assert result.status == "error:parking"
        assert result.exit_code == 1
        assert not (tmp_path / "out").exists()

    def test_failed_write_removes_every_file(self, dataset, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        before_scene = []

        def broken(grid, spaces, path):
            before_scene.extend(sorted(p.name for p in out.iterdir()))
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module, "export_scene", broken)
        assert main(["pipeline", "--reference", str(dataset["reference"]),
                     "--scans", str(dataset["scans"]),
                     "--gt-poses", str(dataset["gt_poses"]),
                     "--seed", "0", "--out-dir", str(out)]) == 1
        assert "error: error:write: write: disk full" in capsys.readouterr().err
        assert {"refined_poses.txt", "odometry_poses.txt", "combined.ply"} <= set(before_scene)
        assert list(out.iterdir()) == []

    def test_run_without_ground_truth_removes_the_earlier_evaluation(self, dataset, tmp_path):
        # the error files of an earlier run with ground truth once stayed
        # beside the new poses, unlisted by the new manifest
        out = tmp_path / "out"
        inputs = ["pipeline", "--reference", str(dataset["reference"]),
                  "--scans", str(dataset["scans"]), "--seed", "0", "--out-dir", str(out)]
        assert main([*inputs, "--gt-poses", str(dataset["gt_poses"])]) == 0
        assert (out / "errors.csv").is_file()
        assert main(inputs) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "errors_csv" not in manifest["outputs"]
        listed = set(manifest["outputs"].values()) | {"manifest.json"}
        assert {p.name for p in out.iterdir()} == listed


class TestRefineScans:
    @pytest.fixture(scope="class")
    def staged(self, small_scene):
        reference, scans, truth = small_scene
        config = PipelineConfig()
        fine, _ = two_level_grids(reference, config)
        _, odometry_poses = combine_scans(scans, config)
        # odometry's frame is the first scan's, so the first true pose is the
        # coarse transform RANSAC aims for
        return scans, odometry_poses, truth, fine, config

    def _refine(self, staged, coarse):
        scans, odometry_poses, truth, fine, config = staged
        whole, per_scan = refine_scans(scans, odometry_poses, coarse, fine, config)
        worst = max(
            np.linalg.norm(result.transform.translation - pose.translation)
            for result, pose in zip(per_scan, truth)
        )
        return whole, sum(result.iterations for result in per_scan), worst

    def test_coarse_error_does_not_reach_per_scan_icp(self, staged):
        truth = staged[2]
        _, start_iterations, start_worst = self._refine(staged, truth[0])
        assert start_worst < 0.01
        for sign in (1.0, -1.0):
            offset = RigidTransform(rotation_exp(np.array([0.0, 0.0, 0.05 * sign])),
                                    np.array([2.0 * sign, 0.0, 0.0]))
            whole, iterations, worst = self._refine(staged, offset @ truth[0])
            assert whole.converged
            assert iterations <= start_iterations + 6
            assert worst < 0.01

    def test_whole_cloud_step_keeps_its_own_iteration_cap(self, staged, monkeypatch):
        icp = pipeline_module.icp_point_to_plane
        caps = []

        def recording(source, index, normals, init, max_distance, max_iterations):
            caps.append(max_iterations)
            return icp(source, index, normals, init, max_distance, max_iterations)

        monkeypatch.setattr(pipeline_module, "icp_point_to_plane", recording)
        scans = staged[0]
        self._refine(staged, staged[2][0])
        assert caps == [pipeline_module.WHOLE_CLOUD_MAX_ITERATIONS] + [
            ICP_MAX_ITERATIONS
        ] * len(scans)


def _localize_five_centimetre_noise_street(tmp_path, scene_seed):
    paths = write_synthetic_dataset(tmp_path / "data", scene_seed, SceneSpec(noise_sigma=0.05))
    run = PipelineRun(
        config=PipelineConfig(),
        reference_path=paths["reference"],
        scan_dir=paths["scans"],
        out_dir=tmp_path / "out",
        gt_poses_path=paths["gt_poses"],
        seed=0,
    )
    result = run_pipeline(run)
    assert result.status == "ok"
    # the folded FPFH descriptors discriminate less than signed ones, so
    # RANSAC must still converge below its iteration cap
    assert result.coarse.converged
    assert result.errors.xy.max() < 0.05


@pytest.mark.slow
def test_five_centimetre_noise_street_localizes(tmp_path):
    # the hardest RANSAC case measured: 12 695 of 100 000 iterations
    _localize_five_centimetre_noise_street(tmp_path, 4)


@pytest.mark.slow
def test_five_centimetre_noise_scene_seven_localizes(tmp_path):
    # RANSAC once stopped on its first half-fit hypothesis here and the run
    # ended 8.7 m off with status ok
    _localize_five_centimetre_noise_street(tmp_path, 7)


@pytest.mark.slow
def test_default_street_at_utm_offset_converges(tmp_path):
    # at this offset the whole-cloud step and one scan's ICP once cycled
    # between two correspondence sets up to their iteration caps; the small
    # test street of test_georeferenced_offset_keeps_the_accuracy does not
    paths = write_synthetic_dataset(tmp_path / "data", 7)
    inputs = [
        (paths["reference"], paths["gt_poses"]),
        _move_inputs(paths, np.array([5e5, 5e6, 300.0]), tmp_path),
    ]
    errors = []
    for reference, truth in inputs:
        result = run_pipeline(PipelineRun(
            config=PipelineConfig(),
            reference_path=reference,
            scan_dir=paths["scans"],
            out_dir=tmp_path / f"out{len(errors)}",
            gt_poses_path=truth,
            seed=0,
        ))
        assert result.status == "ok"
        assert result.whole_cloud.converged
        assert all(fine.converged for fine in result.fine)
        errors.append(result.errors.xy.mean())
    assert abs(errors[1] - errors[0]) < 1e-5


@pytest.mark.slow
def test_default_street_localizes_at_coarse_resolutions(tmp_path):
    # odometry distances scale with the map's voxel size: with the 1 m and
    # 100 m of the default config kept fixed, this street ended 7.7 m off, ok
    paths = write_synthetic_dataset(tmp_path / "data", 7)
    result = run_pipeline(PipelineRun(
        config=PipelineConfig(voxel_size_fine=1.0, voxel_size_coarse=2.0),
        reference_path=paths["reference"],
        scan_dir=paths["scans"],
        out_dir=tmp_path / "out",
        gt_poses_path=paths["gt_poses"],
        seed=0,
    ))
    assert result.status == "ok"
    assert result.errors.xy.max() < 0.05


@pytest.mark.slow
def test_localization_is_scale_equivariant(small_scene, tmp_path):
    # every distance of a run derives from the two resolutions and the
    # cluster distance, so a scene and those three scaled by s must give the
    # refined translations times s and the same rotations
    reference, scans, truth = small_scene
    base = PipelineConfig()
    refined = {}
    for s in (1.0, 0.1, 10.0):
        data = tmp_path / f"s{s}"
        (data / "scans").mkdir(parents=True)
        write_ply(data / "reference.ply",
                  PointCloud(reference.points * s, reference.colors, reference.labels))
        for index, scan in enumerate(scans):
            write_ply(data / "scans" / f"scan_{index:04d}.ply",
                      PointCloud(scan.points * s, scan.colors, scan.labels))
        write_poses(data / "gt_poses.txt",
                    Trajectory([RigidTransform(p.rotation, p.translation * s) for p in truth]))
        config = replace(base, voxel_size_fine=base.voxel_size_fine * s,
                         voxel_size_coarse=base.voxel_size_coarse * s,
                         cluster_distance=base.cluster_distance * s)
        result = run_pipeline(PipelineRun(config, data / "reference.ply", data / "scans",
                                          data / "out", data / "gt_poses.txt", seed=0))
        assert result.status == "ok"
        refined[s] = result.refined_poses
    for s in (0.1, 10.0):
        for got, want in zip(refined[s], refined[1.0]):
            assert np.linalg.norm(got.translation / s - want.translation) < 1e-3
            assert Rotation.from_matrix(got.rotation.T @ want.rotation).magnitude() < 1e-4


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(PipelineConfig()) == config_hash(PipelineConfig())

    def test_changes_with_any_field(self):
        assert config_hash(PipelineConfig()) != config_hash(
            PipelineConfig(voxel_size_fine=0.2))


class TestCli:
    def test_staged_subcommands_match_pipeline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out-dir", "data", "--seed", "3",
                     "--scan-count", "4", "--car-count", "4",
                     "--points-per-scan", "3000", "--noise-sigma", "0.02",
                     "--street-length", "20", "--surface-density", "150"]) == 0
        assert main(["odometry", "--scans", "data/scans", "--out-dir", "stage"]) == 0
        assert main(["coarse", "--reference", "data/reference.ply",
                     "--combined", "stage/combined.ply",
                     "--seed", "0", "--out-dir", "stage"]) == 0
        assert main(["fine", "--reference", "data/reference.ply",
                     "--scans", "data/scans",
                     "--odom-poses", "stage/odometry_poses.txt",
                     "--coarse-transform", "stage/coarse_transform.txt",
                     "--out-dir", "stage"]) == 0
        fitness = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("whole_cloud_fitness: ")]
        assert len(fitness) == 1
        assert main(["eval", "--est", "stage/refined_poses.txt",
                     "--gt-poses", "data/gt_poses.txt", "--out-dir", "stage"]) == 0
        assert main(["parking", "--reference", "data/reference.ply",
                     "--update-cloud", "data/reference.ply", "--out-dir", "stage"]) == 0
        assert main(["export-scene", "--reference", "data/reference.ply",
                     "--spaces", "stage/spaces.json", "--out-dir", "stage"]) == 0
        assert main(["pipeline", "--reference", "data/reference.ply",
                     "--scans", "data/scans", "--gt-poses", "data/gt_poses.txt",
                     "--seed", "0", "--out-dir", "full"]) == 0
        full = {path.name for path in (tmp_path / "full").iterdir()}
        assert full == {path.name for path in (tmp_path / "stage").iterdir()} | {"manifest.json"}
        for name in sorted(full - {"manifest.json"}):
            staged = (tmp_path / "stage" / name).read_bytes()
            assert staged == (tmp_path / "full" / name).read_bytes(), name
        manifest = json.loads((tmp_path / "full" / "manifest.json").read_text())
        assert fitness == [f"whole_cloud_fitness: {manifest['whole_cloud']['fitness']:.6f}"]
        assert len(read_poses(tmp_path / "stage" / "refined_poses.txt")) == 4

    def test_export_scene_without_spaces_writes_scene(self, dataset, tmp_path):
        out = tmp_path / "vox"
        assert main(["export-scene", "--reference", str(dataset["reference"]),
                     "--out-dir", str(out)]) == 0
        doc = _load_scene(out / "scene.json")
        _, coarse = two_level_grids(read_ply(dataset["reference"]), PipelineConfig())
        assert len(doc["voxels"]) == len(coarse) > 0
        assert doc["boxes"] == []

    def test_eval_writes_metrics(self, dataset, tmp_path):
        out = tmp_path / "metrics"
        assert main(["eval", "--est", str(dataset["gt_poses"]),
                     "--gt-poses", str(dataset["gt_poses"]),
                     "--out-dir", str(out)]) == 0
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + _SMALL_SPEC.scan_count

    def test_parking_from_reference(self, dataset, tmp_path, capsys):
        out = tmp_path / "park"
        assert main(["parking", "--reference", str(dataset["reference"]),
                     "--update-cloud", str(dataset["reference"]),
                     "--out-dir", str(out)]) == 0
        assert "skipped: 0" in capsys.readouterr().out.splitlines()
        payload = json.loads((out / "spaces.json").read_text())
        assert len(payload) > 0
        assert all(entry["state"] == "occupied" for entry in payload)

    def test_parking_needs_reference_or_spaces(self, dataset, capsys):
        rc = main(["parking", "--update-cloud", str(dataset["reference"]),
                   "--out-dir", "unused"])
        assert rc == 2
        assert "input-error" in capsys.readouterr().err

    def test_parking_on_unlabelled_reference_exits_two(self, dataset, tmp_path, capsys):
        reference = tmp_path / "unlabelled.ply"
        write_ply(reference, PointCloud(read_ply(dataset["reference"]).points))
        rc = main(["parking", "--reference", str(reference),
                   "--update-cloud", str(dataset["reference"]),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "input-error" in err
        assert str(reference) in err

    def test_eval_on_empty_pose_files_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main(["eval", "--est", str(empty), "--gt-poses", str(empty),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "input-error" in err
        assert str(empty) in err

    def test_export_scene_embeds_spaces(self, dataset, tmp_path):
        park = tmp_path / "park"
        assert main(["parking", "--reference", str(dataset["reference"]),
                     "--update-cloud", str(dataset["reference"]),
                     "--out-dir", str(park)]) == 0
        out = tmp_path / "scene"
        assert main(["export-scene", "--reference", str(dataset["reference"]),
                     "--spaces", str(park / "spaces.json"),
                     "--out-dir", str(out)]) == 0
        doc = _load_scene(out / "scene.json")
        assert len(doc["boxes"]) == len(json.loads((park / "spaces.json").read_text()))

    def test_missing_input_exits_two(self, tmp_path, capsys):
        rc = main(["odometry", "--scans", str(tmp_path / "absent"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "input-error" in capsys.readouterr().err

    def test_truncated_reference_exits_two(self, dataset, tmp_path, capsys):
        # two faces declared before the vertices, the file ends after one
        bad = tmp_path / "truncated.ply"
        bad.write_bytes(
            b"ply\nformat binary_little_endian 1.0\n"
            b"element face 2\nproperty list uchar int vertex_indices\n"
            b"element vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
            b"end_header\n\x03" + bytes(12)
        )
        rc = main(["pipeline", "--reference", str(bad), "--scans", str(dataset["scans"]),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "input-error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_featureless_combined_cloud_is_a_stage_failure(self, dataset, tmp_path, capsys):
        # a valid file whose content the coarse stage cannot use (20 points on
        # a line give no cell a normal): exit 1, as run_pipeline reports the
        # same DataError as error:coarse
        line = np.zeros((20, 3))
        line[:, 0] = np.linspace(0.0, 1.9, 20)
        combined = tmp_path / "combined.ply"
        write_ply(combined, PointCloud(line))
        rc = main(["coarse", "--reference", str(dataset["reference"]),
                   "--combined", str(combined), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "input-error" not in capsys.readouterr().err

    def test_unmatched_combined_cloud_is_a_stage_failure(self, dataset, tmp_path, capsys):
        # 20 points from N(0, 0.1 m) once gave the identity with fitness 0
        # after 100000 RANSAC iterations, and exit 0
        combined = tmp_path / "combined.ply"
        write_ply(combined, _NOISE_CLOUD)
        out = tmp_path / "out"
        rc = main(["coarse", "--reference", str(dataset["reference"]),
                   "--combined", str(combined), "--out-dir", str(out)])
        assert rc == 1
        assert "input-error" not in capsys.readouterr().err
        assert not (out / "coarse_transform.txt").exists()

    @pytest.mark.parametrize("text", [
        '[{"id": 0}]\n',
        "not json\n",
        # values json.loads accepts but a box cannot hold
        '[{"id": 0, "centroid": [NaN, 0, 0], "dims": [4, 2, 1.5], "yaw": 0, "state": "vacant"}]\n',
        '[{"id": 0, "centroid": [0, 0, 0], "dims": [Infinity, 2, 1.5], "yaw": 0, "state": "vacant"}]\n',
        '[{"id": 0, "centroid": [0, 0, 0], "dims": [4, -2, 1.5], "yaw": 0, "state": "vacant"}]\n',
        '[{"id": 0, "centroid": [0, 0, 0], "dims": [4, 2, 1.5], "yaw": NaN, "state": "vacant"}]\n',
    ])
    @pytest.mark.parametrize("command", ["parking", "export-scene"])
    def test_malformed_spaces_file_exits_two(self, dataset, tmp_path, capsys, command, text):
        spaces = tmp_path / "spaces.json"
        spaces.write_text(text)
        argv = [command, "--reference", str(dataset["reference"]), "--spaces", str(spaces),
                "--out-dir", str(tmp_path / "out")]
        if command == "parking":
            argv += ["--update-cloud", str(dataset["reference"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input-error" in err
        assert str(spaces) in err

    @pytest.mark.parametrize("command", ["pipeline", "export-scene"])
    def test_directory_as_reference_exits_two(self, dataset, tmp_path, capsys, command):
        argv = [command, "--reference", str(tmp_path), "--out-dir", str(tmp_path / "out")]
        if command == "pipeline":
            argv += ["--scans", str(dataset["scans"])]
        assert main(argv) == 2
        assert "input-error" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, dataset, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text('{"voxel_size_fien": 0.1}\n')
        rc = main(["export-scene", "--config", str(bad),
                   "--reference", str(dataset["reference"]),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "voxel_size_fien" in capsys.readouterr().err

    def test_non_finite_config_value_exits_two(self, dataset, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text('{"voxel_size_fine": Infinity, "voxel_size_coarse": Infinity}\n')
        rc = main(["export-scene", "--config", str(bad),
                   "--reference", str(dataset["reference"]),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "voxel_size_fine must be finite" in capsys.readouterr().err

    def test_cli_import_leaves_graph_module_unloaded(self):
        # parking imports scipy.sparse.csgraph only when it clusters, and no
        # test-only package loads with the CLI, so that starting it stays
        # cheap; every name the package root exports resolves
        code = (
            "import sys, voxloc.cli\n"
            "roots = {name.split('.')[0] for name in sys.modules}\n"
            "import json\n"
            "print(json.dumps({\n"
            "    'csgraph': 'scipy.sparse.csgraph' in sys.modules,\n"
            "    'test_only': sorted(roots & {'jsonschema', 'hypothesis', 'pytest', '_pytest'}),\n"
            "    'unresolved': [n for n in voxloc.__all__ if not hasattr(voxloc, n)],\n"
            "}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(voxloc.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == {"csgraph": False, "test_only": [], "unresolved": []}

    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
