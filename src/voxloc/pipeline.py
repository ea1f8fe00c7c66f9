"""End-to-end localization pipeline and scene export.

run_pipeline chains the stages: voxelize the reference, combine the scans by
odometry, coarse-align the combined cloud with FPFH + RANSAC, refine that
alignment with one point-to-plane ICP of the whole (downsampled) combined
cloud, then refine every raw scan with point-to-plane ICP against the fine
reference grid, each started from the refined whole-cloud alignment.
It computes every stage, parking and scoring included, before it writes the
artifacts and a manifest naming them; a failed write removes every file of the
run. OUTPUT_FILES is the one table of artifact file names, here and in the CLI.

Inputs are read only through load_input and load_scans, here and in the CLI,
so one rule decides every exit code: a file that is missing, unreadable,
malformed or inconsistent is a PipelineInputError (exit 2, status
"input-error"); any other failure is a stage error (exit 1).
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cloud import PointCloud, concat_clouds
from .config import PipelineConfig, config_hash
from .errors import ConfigError, DataError, ParseError
from .evaluation import (
    XY_BIN_WIDTH,
    Z_BIN_WIDTH,
    PoseErrors,
    error_histogram,
    evaluate_trajectory,
    write_errors_csv,
    write_histogram_csv,
)
from .fpfh import compute_fpfh
from .io import read_ply, read_poses, write_ply, write_poses
from .odometry import REGISTRATION_SCALE, OdometryState, combine_scans
from .parking import ParkingSpace, save_spaces, space_record, spaces_from_reference
from .registration import (
    ICP_MAX_ITERATIONS,
    RegistrationResult,
    icp_point_to_plane,
    planar_cells,
    ransac_coarse,
)
from .synthetic import SceneSpec, generate_synthetic_scene
from .transform import RigidTransform, Trajectory
from .voxel import VoxelGrid, downsample, voxelize

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_INPUT_ERROR = 2

_DEFAULT_VOXEL_COLOR = (128, 128, 128)
_PLANARITY_RATIO = 0.03  # max smallest/largest eigenvalue for a feature cell
FPFH_SCALE = 5.0         # FPFH descriptor radius over voxel_size_coarse
RANSAC_SCALE = 2.0       # RANSAC inlier distance over voxel_size_coarse
# whole-cloud ICP iteration cap, above the per-scan one because it starts
# from the metre-level RANSAC error
WHOLE_CLOUD_MAX_ITERATIONS = 200

# file name of every artifact, by the name run_pipeline reports it under
OUTPUT_FILES = {
    "refined_poses": "refined_poses.txt",
    "odometry_poses": "odometry_poses.txt",
    "coarse_transform": "coarse_transform.txt",
    "combined_cloud": "combined.ply",
    "spaces": "spaces.json",
    "scene": "scene.json",
    "errors_csv": "errors.csv",
    "hist_xy_csv": "hist_xy.csv",
    "hist_z_csv": "hist_z.csv",
    "manifest": "manifest.json",
}
_EVALUATION_OUTPUTS = ("errors_csv", "hist_xy_csv", "hist_z_csv")


class PipelineInputError(ValueError):
    """An input file is missing, unreadable, malformed, or inconsistent."""


@dataclass
class PipelineRun:
    """Everything one pipeline invocation needs."""

    config: PipelineConfig
    reference_path: str | Path
    scan_dir: str | Path
    out_dir: str | Path
    gt_poses_path: str | Path | None = None
    seed: int = 0


@dataclass
class PipelineResult:
    status: str
    exit_code: int
    message: str = ""
    artifacts: dict[str, Path] = field(default_factory=dict)
    odometry_poses: Trajectory | None = None
    refined_poses: Trajectory | None = None
    coarse: RegistrationResult | None = None
    whole_cloud: RegistrationResult | None = None
    fine: list[RegistrationResult] = field(default_factory=list)
    errors: PoseErrors | None = None
    rejected_scans: list[int] = field(default_factory=list)


def list_scan_files(scan_dir: str | Path) -> list[Path]:
    """PLY files of a scan directory in filename order."""
    return sorted(Path(scan_dir).glob("*.ply"))


def load_input(reader, path: str | Path, what: str):
    """reader(path), with a file that cannot be read, decoded or checked
    (OSError, UnicodeDecodeError, ParseError, DataError, ConfigError) raised
    as a PipelineInputError that names it."""
    try:
        return reader(path)
    except (OSError, UnicodeDecodeError, ParseError, DataError, ConfigError) as exc:
        raise PipelineInputError(f"{what} {path}: {exc}") from exc


def load_scans(scan_dir: str | Path) -> list[PointCloud]:
    """Every scan of a directory in filename order; a directory without .ply
    files is a PipelineInputError."""
    files = list_scan_files(scan_dir)
    if not files:
        raise PipelineInputError(f"no .ply scans in {scan_dir}")
    return [load_input(read_ply, path, "scan") for path in files]


def export_scene(grid: VoxelGrid, spaces: list[ParkingSpace], path: str | Path) -> None:
    """Write a grid plus parking boxes as a renderer-friendly JSON document.

    Voxel centers are key * size + size / 2 per axis; cells without color
    information get a neutral gray.
    """
    if len(grid) == 0:
        raise ValueError("cannot export an empty grid")
    size = grid.voxel_size
    keys = grid.keys_array
    centers = keys * size + size / 2.0
    colors = grid.colors
    rows = [_DEFAULT_VOXEL_COLOR] * len(grid) if colors is None else colors.tolist()
    voxels = [
        {"key": key, "center": center, "color": color}
        for key, center, color in zip(keys.tolist(), centers.tolist(), rows)
    ]
    boxes = [space_record(space) for space in spaces]
    document = {"voxel_size": float(size), "voxels": voxels, "boxes": boxes}
    with open(path, "w", encoding="ascii") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")


def two_level_grids(cloud: PointCloud, config: PipelineConfig) -> tuple[VoxelGrid, VoxelGrid]:
    """Fine grid of the cloud plus the coarse grid of the fine-cell means."""
    fine = voxelize(cloud, config.voxel_size_fine)
    coarse = voxelize(downsample(fine), config.voxel_size_coarse)
    return fine, coarse


def coarse_features(coarse: VoxelGrid, config: PipelineConfig) -> tuple[PointCloud, np.ndarray]:
    """Feature cloud for coarse matching: the means of the strongly planar
    cells with a normal, and their FPFH within FPFH_SCALE * voxel_size_coarse.

    A cell is strongly planar when its smallest covariance eigenvalue is at
    most _PLANARITY_RATIO times its largest: cells straddling surface edges
    have normals that are unstable under re-voxelization. A normal's sign is
    arbitrary: the folded FPFH angles give the same descriptor for either sign,
    so two grids of the same scene need no shared orientation rule.
    """
    normals, w = coarse.compute_normals()
    mask = normals.any(axis=1) & (w[:, 0] <= _PLANARITY_RATIO * w[:, 2])
    if int(mask.sum()) < 3:
        raise DataError("coarse grid has fewer than 3 cells with stable normals")
    points = coarse.means[mask]
    descriptors = compute_fpfh(points, normals[mask], FPFH_SCALE * config.voxel_size_coarse)
    return PointCloud(points), descriptors


def coarse_align(
    reference_coarse: VoxelGrid, combined: PointCloud, config: PipelineConfig, seed: int
) -> RegistrationResult:
    """Coarse stage: FPFH + RANSAC from the combined scan cloud onto the
    reference's coarse grid, inliers within RANSAC_SCALE * voxel_size_coarse."""
    target_cloud, target_desc = coarse_features(reference_coarse, config)
    _, combined_coarse = two_level_grids(combined, config)
    source_cloud, source_desc = coarse_features(combined_coarse, config)
    return ransac_coarse(
        source_cloud, target_cloud, source_desc, target_desc,
        RANSAC_SCALE * config.voxel_size_coarse, seed,
    )


def refine_scans(
    scans: list[PointCloud],
    odometry_poses: Trajectory,
    coarse_transform: RigidTransform,
    reference_fine: VoxelGrid,
    config: PipelineConfig,
) -> tuple[RegistrationResult, list[RegistrationResult]]:
    """Fine stage: point-to-plane ICP against the planar cells of the
    reference fine grid (planar_cells), in two steps.

    First the combined cloud, rebuilt from the scans and their odometry poses
    and downsampled to REGISTRATION_SCALE * voxel_size_fine, is aligned once
    from the coarse transform (at most WHOLE_CLOUD_MAX_ITERATIONS). Then every
    raw scan is refined from its odometry pose mapped through that alignment
    (at most registration.ICP_MAX_ITERATIONS each), so the scans no longer
    each climb the coarse error on their own. Both steps take correspondences
    within that same distance and stop at
    registration.CONVERGENCE_EPS. Returns the whole-cloud result and the
    per-scan results."""
    index, normals = planar_cells(reference_fine)
    combined = concat_clouds([scan.transformed(pose) for scan, pose in zip(scans, odometry_poses)])
    max_distance = REGISTRATION_SCALE * config.voxel_size_fine
    sparse = downsample(voxelize(combined, max_distance))
    whole = icp_point_to_plane(
        sparse, index, normals, coarse_transform, max_distance, WHOLE_CLOUD_MAX_ITERATIONS
    )
    per_scan = [
        icp_point_to_plane(
            scan, index, normals, whole.transform @ pose, max_distance, ICP_MAX_ITERATIONS
        )
        for scan, pose in zip(scans, odometry_poses)
    ]
    return whole, per_scan


def write_evaluation(out_dir: str | Path, errors: PoseErrors) -> dict[str, Path]:
    """Write the per-scan errors and the xy and z error histograms into
    out_dir; returns their paths by artifact name."""
    paths = {name: Path(out_dir) / OUTPUT_FILES[name] for name in _EVALUATION_OUTPUTS}
    write_errors_csv(paths["errors_csv"], errors)
    write_histogram_csv(paths["hist_xy_csv"], error_histogram(errors.xy, XY_BIN_WIDTH))
    write_histogram_csv(paths["hist_z_csv"], error_histogram(errors.z, Z_BIN_WIDTH))
    return paths


def run_pipeline(run: PipelineRun) -> PipelineResult:
    """Execute the full localization pipeline and write its artifacts.

    Returns a result whose exit_code is 0 on success, 2 when an input is
    missing, unreadable, malformed or inconsistent (status "input-error"),
    and 1 when a stage fails (status "error:<stage>"). Nothing is written
    until every stage has succeeded; a failed write removes every file. A
    successful write removes the artifact files of an earlier run that this
    run does not write, so out_dir holds exactly what the manifest lists.
    """
    config = run.config
    try:
        reference = load_input(read_ply, run.reference_path, "reference cloud")
        scans = load_scans(run.scan_dir)
        ground_truth = None
        if run.gt_poses_path is not None:
            ground_truth = load_input(read_poses, run.gt_poses_path, "ground-truth poses")
            if len(ground_truth) != len(scans):
                raise PipelineInputError(
                    f"{len(ground_truth)} ground-truth poses for {len(scans)} scans"
                )
    except PipelineInputError as exc:
        return PipelineResult("input-error", EXIT_INPUT_ERROR, str(exc))

    stage = "voxelize"
    try:
        reference_fine, reference_coarse = two_level_grids(reference, config)

        stage = "odometry"
        odometry_state = OdometryState()
        combined, odometry_poses = combine_scans(scans, config, state=odometry_state)

        stage = "coarse"
        coarse = coarse_align(reference_coarse, combined, config, run.seed)

        stage = "fine"
        whole, fine_results = refine_scans(
            scans, odometry_poses, coarse.transform, reference_fine, config
        )
        refined_poses = Trajectory([result.transform for result in fine_results])

        stage = "parking"
        spaces = None
        skipped_clusters: list[int] = []
        if reference.labels is not None:
            spaces = spaces_from_reference(reference, config, skipped=skipped_clusters)
    except Exception as exc:  # noqa: BLE001 - any stage failure aborts the run
        return PipelineResult(f"error:{stage}", EXIT_STAGE_ERROR, f"{stage}: {exc}")
    # the ground truth holds one pose per scan, so scoring cannot fail
    errors = None if ground_truth is None else evaluate_trajectory(refined_poses, ground_truth)

    out_dir = Path(run.out_dir)
    present = dict.fromkeys(_EVALUATION_OUTPUTS, errors is not None)
    present["spaces"] = spaces is not None
    artifacts = {
        name: out_dir / file for name, file in OUTPUT_FILES.items() if present.get(name, True)
    }
    manifest = {
        "config": asdict(config),
        "config_hash": config_hash(config),
        "seed": int(run.seed),
        "scan_count": len(scans),
        "rejected_scans": [int(i) for i in odometry_state.rejected],
        "whole_cloud": {
            "fitness": whole.fitness,
            "inlier_rmse": whole.inlier_rmse,
            "iterations": int(whole.iterations),
            "converged": bool(whole.converged),
        },
        "skipped_car_clusters": len(skipped_clusters),
        "status": "ok",
        "outputs": {name: path.name for name, path in artifacts.items() if name != "manifest"},
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_poses(artifacts["refined_poses"], refined_poses)
        write_poses(artifacts["odometry_poses"], odometry_poses)
        write_poses(artifacts["coarse_transform"], Trajectory([coarse.transform]))
        write_ply(artifacts["combined_cloud"], combined)
        if spaces is not None:
            save_spaces(artifacts["spaces"], spaces)
        export_scene(reference_coarse, spaces or [], artifacts["scene"])
        if errors is not None:
            write_evaluation(out_dir, errors)
        with open(artifacts["manifest"], "w", encoding="ascii") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=2)
            handle.write("\n")
        for name, file in OUTPUT_FILES.items():
            if name not in artifacts:  # an earlier run's, which the manifest does not list
                (out_dir / file).unlink(missing_ok=True)
    except Exception as exc:  # noqa: BLE001 - a partial run is worse than none
        for path in artifacts.values():
            with suppress(OSError):
                path.unlink(missing_ok=True)
        return PipelineResult("error:write", EXIT_STAGE_ERROR, f"write: {exc}")

    return PipelineResult(
        "ok",
        EXIT_OK,
        artifacts=artifacts,
        odometry_poses=odometry_poses,
        refined_poses=refined_poses,
        coarse=coarse,
        whole_cloud=whole,
        fine=fine_results,
        errors=errors,
        rejected_scans=manifest["rejected_scans"],
    )


def write_synthetic_dataset(
    out_dir: str | Path, seed: int, spec: SceneSpec | None = None
) -> dict[str, Path]:
    """Materialize a synthetic scene as pipeline-ready input files; scan
    files of an earlier call that this one does not write are removed."""
    out_dir = Path(out_dir)
    scan_dir = out_dir / "scans"
    scan_dir.mkdir(parents=True, exist_ok=True)
    reference, scans, trajectory = generate_synthetic_scene(seed, spec)
    paths = {
        "reference": out_dir / "reference.ply",
        "scans": scan_dir,
        "gt_poses": out_dir / "gt_poses.txt",
    }
    write_ply(paths["reference"], reference)
    names = [f"scan_{index:04d}.ply" for index in range(len(scans))]
    for name, scan in zip(names, scans):
        write_ply(scan_dir / name, scan)
    for path in scan_dir.glob("scan_*.ply"):
        if path.name not in names:
            path.unlink()
    write_poses(paths["gt_poses"], trajectory)
    return paths
