"""Command-line entry point.

`pipeline` runs the whole localization in one go. `odometry`, `coarse` and
`fine` run its stages one at a time, chained through intermediate files; they
call the same stage functions as `pipeline` and write byte-identical files.
`fine` first aligns the combined cloud (rebuilt from the scans and odometry
poses) once from the coarse transform, then refines every scan from that
alignment; it prints the whole-cloud step's fitness.
`parking`, `eval`, `export-scene` and `synth` cover occupancy updates, pose
scoring, the coarse-grid scene (with optional parking boxes) and synthetic
data. Every command names its files by pipeline.OUTPUT_FILES, so the stage
commands, `eval`, `parking --reference R --update-cloud R` and
`export-scene --spaces` chained in one directory reproduce every file of a
`pipeline` run but its manifest.

Every command reads its inputs through pipeline.load_input, load_poses and
load_scans, as run_pipeline does, and exits by the same rule: 0 on success, 2
on a PipelineInputError (an input missing, unreadable, malformed or
inconsistent; stderr says "input-error"), 1 on any other failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .evaluation import PoseErrors, evaluate_trajectory
from .io import read_ply, read_poses, write_ply, write_poses
from .odometry import combine_scans
from .parking import extract_class, load_spaces, save_spaces, spaces_from_reference, update_occupancy
from .pipeline import (
    EXIT_INPUT_ERROR,
    EXIT_STAGE_ERROR,
    OUTPUT_FILES,
    PipelineInputError,
    PipelineRun,
    coarse_align,
    export_scene,
    load_input,
    load_poses,
    load_scans,
    refine_scans,
    run_pipeline,
    two_level_grids,
    write_evaluation,
    write_synthetic_dataset,
)
from .synthetic import SceneSpec
from .voxel import voxelize


def _resolve_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_input(load_config, args.config, "config")
    return PipelineConfig()


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_synth(args) -> int:
    spec = SceneSpec(
        street_length=args.street_length,
        surface_density=args.surface_density,
        car_count=args.car_count,
        scan_count=args.scan_count,
        points_per_scan=args.points_per_scan,
        noise_sigma=args.noise_sigma,
    )
    paths = write_synthetic_dataset(_out_dir(args), args.seed, spec)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_odometry(args) -> int:
    config = _resolve_config(args)
    scans = load_scans(args.scans)
    combined, trajectory = combine_scans(scans, config)
    out = _out_dir(args)
    write_ply(out / OUTPUT_FILES["combined_cloud"], combined)
    write_poses(out / OUTPUT_FILES["odometry_poses"], trajectory)
    print(f"combined {len(scans)} scans, {len(combined)} points")
    print(f"combined cloud: {out / OUTPUT_FILES['combined_cloud']}")
    print(f"poses: {out / OUTPUT_FILES['odometry_poses']}")
    return 0


def _cmd_coarse(args) -> int:
    config = _resolve_config(args)
    reference = load_input(read_ply, args.reference, "reference cloud")
    combined = load_input(read_ply, args.combined, "combined cloud")
    _, reference_coarse = two_level_grids(reference, config)
    result = coarse_align(reference_coarse, combined, config, args.seed)
    out = _out_dir(args) / OUTPUT_FILES["coarse_transform"]
    write_poses(out, [result.transform])
    print(f"fitness: {result.fitness:.6f}")
    print(f"inlier_rmse: {result.inlier_rmse:.6f}")
    print(f"iterations: {result.iterations}")
    print(f"transform: {out}")
    return 0


def _cmd_fine(args) -> int:
    config = _resolve_config(args)
    reference = load_input(read_ply, args.reference, "reference cloud")
    scans = load_scans(args.scans)
    odometry_poses = load_poses(args.odom_poses, "odometry poses", len(scans))
    [coarse] = load_poses(args.coarse_transform, "coarse transform", 1)
    fine_grid = voxelize(reference, config.voxel_size_fine)
    whole, results = refine_scans(scans, odometry_poses, coarse, fine_grid, config)
    out = _out_dir(args) / OUTPUT_FILES["refined_poses"]
    write_poses(out, [result.transform for result in results])
    print(f"whole_cloud_fitness: {whole.fitness:.6f}")
    print(f"refined {len(results)} poses")
    print(f"poses: {out}")
    return 0


def _print_errors(errors: PoseErrors) -> None:
    print(f"mean_xy_error: {float(errors.xy.mean()):.6f}")
    print(f"max_xy_error: {float(errors.xy.max()):.6f}")
    print(f"mean_z_error: {float(errors.z.mean()):.6f}")


def _cmd_pipeline(args) -> int:
    config = _resolve_config(args)
    run = PipelineRun(
        config=config,
        reference_path=args.reference,
        scan_dir=args.scans,
        out_dir=args.out_dir,
        gt_poses_path=args.gt_poses,
        seed=args.seed,
    )
    result = run_pipeline(run)
    if result.exit_code != 0:
        print(f"error: {result.status}: {result.message}", file=sys.stderr)
        return result.exit_code
    for name, path in sorted(result.artifacts.items()):
        print(f"{name}: {path}")
    if result.errors is not None:
        _print_errors(result.errors)
    return 0


def _cmd_parking(args) -> int:
    config = _resolve_config(args)
    skipped: list[int] = []
    if args.spaces:
        spaces = load_input(load_spaces, args.spaces, "spaces file")
    elif args.reference:
        reference = load_input(read_ply, args.reference, "reference cloud")
        if reference.labels is None:
            raise PipelineInputError(f"reference cloud {args.reference} has no labels")
        spaces = spaces_from_reference(reference, config, skipped=skipped)
    else:
        raise PipelineInputError("parking needs --reference or --spaces")
    update = load_input(read_ply, args.update_cloud, "update cloud")
    if update.labels is not None:
        car_points = extract_class(update, config.car_label).points
    else:
        car_points = update.points
    updated = update_occupancy(spaces, car_points, config.occupancy_min_points)
    out = _out_dir(args) / OUTPUT_FILES["spaces"]
    save_spaces(out, updated)
    occupied = sum(1 for s in updated if s.state.value == "occupied")
    print(f"spaces: {len(updated)}")
    print(f"occupied: {occupied}")
    print(f"vacant: {len(updated) - occupied}")
    print(f"skipped: {len(skipped)}")
    print(f"spaces file: {out}")
    return 0


def _cmd_eval(args) -> int:
    estimated = load_input(read_poses, args.est, "estimated poses")
    if not estimated:
        raise PipelineInputError(f"estimated poses {args.est} are empty")
    ground_truth = load_poses(args.gt_poses, "ground-truth poses", len(estimated))
    errors = evaluate_trajectory(estimated, ground_truth)
    paths = write_evaluation(_out_dir(args), errors)
    _print_errors(errors)
    print(f"errors: {paths['errors_csv']}")
    return 0


def _cmd_export_scene(args) -> int:
    config = _resolve_config(args)
    cloud = load_input(read_ply, args.reference, "reference cloud")
    spaces = load_input(load_spaces, args.spaces, "spaces file") if args.spaces else []
    _, coarse = two_level_grids(cloud, config)
    out = _out_dir(args) / OUTPUT_FILES["scene"]
    export_scene(coarse, spaces, out)
    print(f"voxels: {len(coarse)}")
    print(f"boxes: {len(spaces)}")
    print(f"scene: {out}")
    return 0


def _add_common(parser, *, config=True, seed=False, out_dir=True):
    if config:
        parser.add_argument("--config", help="JSON pipeline configuration")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    if out_dir:
        parser.add_argument("--out-dir", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxloc", description="Voxel-based point-cloud localization pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic street dataset")
    _add_common(p, config=False, seed=True)
    p.add_argument("--scan-count", type=int, default=SceneSpec.scan_count)
    p.add_argument("--car-count", type=int, default=SceneSpec.car_count)
    p.add_argument("--points-per-scan", type=int, default=SceneSpec.points_per_scan)
    p.add_argument("--noise-sigma", type=float, default=SceneSpec.noise_sigma)
    p.add_argument("--street-length", type=float, default=SceneSpec.street_length)
    p.add_argument("--surface-density", type=float, default=SceneSpec.surface_density)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("odometry", help="combine a scan directory into one cloud")
    _add_common(p)
    p.add_argument("--scans", required=True, help="directory of per-scan PLY files")
    p.set_defaults(func=_cmd_odometry)

    p = sub.add_parser("coarse", help="coarse-align a combined cloud to a reference")
    _add_common(p, seed=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--combined", required=True, help="combined scan cloud (PLY)")
    p.set_defaults(func=_cmd_coarse)

    p = sub.add_parser("fine", help="refine per-scan poses against the reference grid")
    _add_common(p)
    p.add_argument("--reference", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--odom-poses", required=True, help="odometry pose file")
    p.add_argument("--coarse-transform", required=True, help="single-pose file from coarse")
    p.set_defaults(func=_cmd_fine)

    p = sub.add_parser("pipeline", help="run the full pipeline")
    _add_common(p, seed=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--gt-poses", help="optional ground-truth pose file")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("parking", help="update parking occupancy from a new cloud")
    _add_common(p)
    p.add_argument("--reference", help="labelled reference cloud (to derive spaces)")
    p.add_argument("--spaces", help="existing spaces JSON (instead of --reference)")
    p.add_argument("--update-cloud", required=True, help="cloud in the reference frame")
    p.set_defaults(func=_cmd_parking)

    p = sub.add_parser("eval", help="compare estimated poses against ground truth")
    _add_common(p, config=False)
    p.add_argument("--est", required=True, help="estimated pose file")
    p.add_argument("--gt-poses", required=True, help="ground-truth pose file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-scene", help="export a cloud (and spaces) as scene JSON")
    _add_common(p)
    p.add_argument("--reference", required=True)
    p.add_argument("--spaces", help="optional spaces JSON to embed")
    p.set_defaults(func=_cmd_export_scene)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineInputError as exc:
        print(f"error: input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - stage failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
