"""The voxloc benchmark: end-to-end metrics per workload, plus a per-layer trace.

    python3 benchmarks/run.py --workload street-default --seed 7 --seconds 30 --trace 0

A workload is a SceneSpec and a number of streets per run. Street i of a run
has scene seed ``seed + 1000 * i``, so the first street is the scene --seed
names. The benchmark generates the streets, then runs
``voxloc.pipeline.run_pipeline`` on each, every run in a fresh process with
tracing off. It repeats such rounds over all streets while one more round
fits in --seconds (at least one round). Every run's outputs are checked and
its poses scored against the ground truth.

With --trace 1 only the first street is measured: its untraced rounds, then
one more run in its own process with every layer's entry points wrapped (see
tracing.py), whose pose files must be byte-identical to the untraced ones.

Every metric is printed as ``name value unit``. The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` (localized scans, where a
scan fails when its xy error exceeds 50 mm or its run did not end ``ok``) and
``metrics``: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The full record, with the run's context and every sample, goes to
``.bench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from worker import PIPELINE_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# Scene size and time vary from one scene seed to the next, and a poor RANSAC
# result (a known defect) can make ICP iterate four times longer on a street,
# so a run reports the median over several streets; each count keeps a run
# around a minute. The last two are the heavier variants, which that spread
# keeps out of BENCHMARK.json (see README.md).
WORKLOADS = {
    "street-default": {"spec": {}, "streets": 4},
    # twice the cars: parking clusters take half of a run
    "cars-dense": {"spec": {"car_count": 16}, "streets": 4},
    "scans-dense": {"spec": {"scan_count": 60, "scan_spacing": 0.25}, "streets": 3},
    "street-long": {"spec": {"street_length": 160.0, "car_count": 32}, "streets": 1},
}
STREET_SEED_STRIDE = 1000
DEFAULT_SEED = 7
SETUP_SAMPLES = 7
FAIL_XY_M = 0.05  # a scan whose xy error exceeds this failed
DEADLINE_S = 170.0  # a run stops with an error rather than overrun this
POSE_FILES = ("refined_poses.txt", "odometry_poses.txt", "coarse_transform.txt")

END_TO_END = {"pipeline_s": "s", "setup_s": "s"}
# measured on the untraced runs, reported with the per-layer metrics
RUN_METRICS = {
    "peak_rss_mb": "MB",
    "xy_err_mean_mm": "mm",
    "xy_err_max_mm": "mm",
    "z_err_mean_mm": "mm",
    "scan_fail_ratio": "ratio",
}
LAYER_UNITS = {  # unit by name suffix; any other layer metric is a count
    "_s": "s",
    "_s_p50": "s",
    "_s_tail": "s",
    "_ratio": "ratio",
    "_fitness": "ratio",
    "_fitness_p50": "ratio",
    "bytes_read": "bytes",
    "bytes_written": "bytes",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def unit_of(name: str) -> str:
    named = {**END_TO_END, **RUN_METRICS}
    if name in named:
        return named[name]
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's src/ first, at most nproc threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


class Session:
    """Starts the children of one benchmark run, all before one deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time after {DEADLINE_S:.0f} s")
        try:
            # run() kills and waits for the child when the timeout expires
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc

    def worker(self, *args: str) -> dict:
        proc = self._run([sys.executable, str(HERE / "worker.py"), *args])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_seconds(self) -> float:
        """Wall time from starting a fresh interpreter to ``import voxloc.cli`` done.

        CLOCK_MONOTONIC is system-wide, so the child's reading after the
        import and ours before the start share one time base.
        """
        start = time.monotonic()
        proc = self._run([sys.executable, "-c", "import voxloc.cli, time; print(time.monotonic())"])
        return float(proc.stdout) - start


def read_translations(path: Path) -> list[tuple[float, float, float]]:
    """Translations of a file of row-major 3x4 pose lines."""
    rows = []
    for line in path.read_text().splitlines():
        if line.strip():
            v = [float(t) for t in line.split()]
            rows.append((v[3], v[7], v[11]))
    return rows


def check_outputs(out: Path, result: dict, scan_count: int) -> list[str]:
    """Problems with one run's outputs; an empty list means they are complete."""
    status, code = result["status"], result["exit_code"]
    if status != "ok":
        return [] if code != 0 else [f"status {status!r} with exit code 0"]
    if code != 0:
        return [f"status 'ok' with exit code {code}"]
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = [f"manifest names missing {name}" for name in manifest["outputs"].values()
                if not (out / name).is_file()]
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    if manifest.get("scan_count") != scan_count:
        problems.append(f"manifest scan_count {manifest.get('scan_count')} != {scan_count}")
    for name, expected in (("refined_poses.txt", scan_count), ("odometry_poses.txt", scan_count),
                           ("coarse_transform.txt", 1)):
        if (out / name).is_file() and len(read_translations(out / name)) != expected:
            problems.append(f"{name} does not hold {expected} poses")
    return problems


def score(out: Path, gt_path: Path, result: dict, scan_count: int) -> dict:
    """Pose errors in mm against ground truth; every scan of a run not ``ok`` fails."""
    if result["status"] != "ok":
        return {"failed": scan_count, "xy_mm": [], "z_mm": []}
    estimated = read_translations(out / "refined_poses.txt")
    truth = read_translations(gt_path)
    xy = [1000.0 * math.hypot(e[0] - t[0], e[1] - t[1]) for e, t in zip(estimated, truth)]
    z = [1000.0 * abs(e[2] - t[2]) for e, t in zip(estimated, truth)]
    failed = sum(1 for v in xy if not v <= 1000.0 * FAIL_XY_M) + scan_count - len(xy)
    return {"failed": failed, "xy_mm": xy, "z_mm": z}


class Run(NamedTuple):
    result: dict  # the worker's report: pipeline_s, peak_rss_mb, status, exit_code
    problems: list[str]
    score: dict
    poses: dict[str, bytes | None]


def run_once(session: Session, inputs: Path, out: Path, scan_count: int,
             spans: Path | None = None) -> Run:
    """One pipeline run in a fresh process, checked, scored, and its outputs removed."""
    extra = ["--spans", str(spans)] if spans else []
    result = session.worker("pipeline", "--inputs", str(inputs), "--out", str(out), *extra)
    run = Run(
        result,
        check_outputs(out, result, scan_count),
        score(out, inputs / "gt_poses.txt", result, scan_count),
        {name: (out / name).read_bytes() if (out / name).is_file() else None for name in POSE_FILES},
    )
    shutil.rmtree(out, ignore_errors=True)
    return run


def measure(spec: dict, seeds: list[int], seconds: float, trace: bool, work: Path,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload over the streets ``seeds`` in ``work``; return the full record."""
    session = Session()
    prepared = session.worker("prepare", "--spec", json.dumps(spec),
                              "--seeds", ",".join(map(str, seeds)), "--inputs", str(work / "inputs"))
    scan_count = prepared["scan_count"]
    setup = [session.setup_seconds() for _ in range(setup_samples)]

    streets = [{"seed": seed, "inputs": work / "inputs" / str(seed), "runs": []} for seed in seeds]
    problems: list[str] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for street in streets:
            runs = street["runs"]
            run = run_once(session, street["inputs"], work / f"out-{street['seed']}-{len(runs)}",
                           scan_count)
            problems += run.problems
            if runs and run.poses != runs[0].poses:
                problems.append(f"street {street['seed']}: run {len(runs)} pose files differ from run 0")
            runs.append(run)
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break

    rows = []
    for street in streets:
        runs, first = street["runs"], street["runs"][0].score
        rows.append({
            "seed": street["seed"],
            "pipeline_s": [r.result["pipeline_s"] for r in runs],
            "peak_rss_mb": [r.result["peak_rss_mb"] for r in runs],
            "status": [r.result["status"] for r in runs],
            "failed_scans": first["failed"],
            "xy_mm": first["xy_mm"],
            "z_mm": first["z_mm"],
        })
    xy = [v for row in rows for v in row["xy_mm"]]
    z = [v for row in rows for v in row["z_mm"]]
    metrics = {
        "pipeline_s": statistics.median(statistics.median(row["pipeline_s"]) for row in rows),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(statistics.median(row["peak_rss_mb"]) for row in rows),
        "scan_fail_ratio": sum(row["failed_scans"] for row in rows) / (scan_count * len(rows)),
    }
    if xy:
        metrics.update(xy_err_mean_mm=statistics.fmean(xy), xy_err_max_mm=max(xy),
                       z_err_mean_mm=statistics.fmean(z))
    attempted = sum(scan_count * len(street["runs"]) for street in streets)
    failed = sum(r.score["failed"] for street in streets for r in street["runs"])

    spans = None
    if trace:
        street = streets[0]
        spans_path = work / "spans.json"
        traced = run_once(session, street["inputs"], work / "out-traced", scan_count, spans_path)
        problems += traced.problems
        if traced.poses != street["runs"][0].poses:
            problems.append("traced pose files differ from the untraced run's")
        attempted += scan_count
        failed += traced.score["failed"]
        spans = json.loads(spans_path.read_text())
        metrics.update(spans["metrics"])
        metrics["trace.overhead_ratio"] = (
            traced.result["pipeline_s"] / statistics.median(rows[0]["pipeline_s"])
        )

    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "streets": rows,
        "setup_s": setup,
        "context": {
            "spec": spec,
            "scene_seeds": seeds,
            "pipeline_seed": PIPELINE_SEED,
            "scan_count": scan_count,
            "rounds": len(streets[0]["runs"]),
            "setup_samples": setup_samples,
            "traced_runs": int(trace),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "processor": platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: session.env[var] for var in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            **prepared["versions"],
        },
    }
    if spans is not None:
        record["spans"] = spans["spans"]
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The JSON object of the last stdout line."""
    names = [n for n in record["metrics"] if (n not in END_TO_END if trace else n in END_TO_END)]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }


def report(record: dict, trace: bool) -> None:
    context = record["context"]
    print(f"scene seeds {context['scene_seeds']}  rounds {context['rounds']}"
          f"  traced runs {context['traced_runs']}  setup samples {context['setup_samples']}")
    print(f"python {context['python']}  numpy {context['numpy']}  scipy {context['scipy']}"
          f"  blas {context['blas']}  nproc {context['nproc']}  threads {context['threads']}")
    for row in record["streets"]:
        line = (f"street {row['seed']}: pipeline_s {statistics.median(row['pipeline_s']):.4f} s"
                f"  peak_rss_mb {statistics.median(row['peak_rss_mb']):.1f} MB"
                f"  failed {row['failed_scans']}/{context['scan_count']} scans")
        if row["xy_mm"]:
            line += (f"  xy_err_mean_mm {statistics.fmean(row['xy_mm']):.4f} mm"
                     f"  xy_err_max_mm {max(row['xy_mm']):.4f} mm"
                     f"  z_err_mean_mm {statistics.fmean(row['z_mm']):.4f} mm")
        print(line)
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result_line(record, trace)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="street-default")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="scene seed of the first street")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat rounds over the streets while one more fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 measures the first street only, adds a traced run of it and "
                             "reports the per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voxloc" / "__init__.py").is_file():
        print(f"benchmark error: no voxloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    streets = 1 if args.trace else workload["streets"]
    seeds = [args.seed + STREET_SEED_STRIDE * i for i in range(streets)]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        record = measure(workload["spec"], seeds, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["context"].update(workload=args.workload, seed=args.seed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  record {path.relative_to(ROOT)}")
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
