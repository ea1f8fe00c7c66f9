"""One child process of the benchmark: generate inputs, or run the pipeline once.

    python3 benchmarks/worker.py prepare --spec JSON --seeds N,M,... --inputs DIR
    python3 benchmarks/worker.py pipeline --inputs DIR --out DIR [--spans FILE]

run.py starts it with PYTHONPATH set to the checkout's src/, one process per
pipeline run so that peak memory is per run and an untraced run never
executes a tracing wrapper. It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

PIPELINE_SEED = 0  # the CLI's default RANSAC seed


def _check_origin() -> None:
    """Refuse to measure a voxloc that is not this checkout's src/."""
    import voxloc

    src = Path(__file__).resolve().parent.parent / "src"
    if src.resolve() not in Path(voxloc.__file__).resolve().parents:
        raise SystemExit(f"voxloc was imported from {voxloc.__file__}, not from {src}")


def prepare(args) -> dict:
    import numpy as np
    import scipy

    from voxloc.pipeline import write_synthetic_dataset
    from voxloc.synthetic import SceneSpec

    spec = SceneSpec(**json.loads(args.spec))
    for seed in args.seeds.split(","):
        write_synthetic_dataset(Path(args.inputs) / seed, int(seed), spec)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "scan_count": spec.scan_count,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
        },
    }


def pipeline(args) -> dict:
    from voxloc import pipeline as vp
    from voxloc.config import PipelineConfig

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = Path(args.inputs)
    run = vp.PipelineRun(
        config=PipelineConfig(),
        reference_path=inputs / "reference.ply",
        scan_dir=inputs / "scans",
        out_dir=args.out,
        gt_poses_path=inputs / "gt_poses.txt",
        seed=PIPELINE_SEED,
    )
    start = time.perf_counter()
    result = vp.run_pipeline(run)
    seconds = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(args.spans, "w", encoding="ascii") as handle:
            json.dump({"metrics": tracing.layer_metrics(tracer), "spans": tracer.to_json()}, handle)
    return {
        "pipeline_s": seconds,
        "peak_rss_mb": peak_rss_mb,
        "status": result.status,
        "exit_code": result.exit_code,
        "message": result.message,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--spec", required=True, help="SceneSpec keyword arguments as JSON")
    p.add_argument("--seeds", required=True, help="scene seeds; one input directory each")
    p.add_argument("--inputs", required=True)
    p = sub.add_parser("pipeline")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="trace the run and write spans and layer metrics here")
    args = parser.parse_args(argv)
    _check_origin()
    result = prepare(args) if args.command == "prepare" else pipeline(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
