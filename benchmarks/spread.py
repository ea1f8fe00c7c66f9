"""Run the benchmark once per seed and summarize each metric over the seeds.

    python3 benchmarks/spread.py --workload street-default --seeds 0-9 --out FILE

Runs are made one after another, each as its own ``run.py`` process. For every
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, (Q3 - Q1) / median, next to the bound BENCHMARK.json
gives it. --out writes the per-seed results, the summary and the context of
the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seeds", default="0-9", help="for example 0-9 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]

    per_seed = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=run.ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        per_seed[seed] = line
        print(f"seed {seed}: correct {line['correct']}  failed {line['failed']}/{line['attempted']}  "
              + "  ".join(f"{n} {m['value']:.4g}" for n, m in line["metrics"].items()
                          if n in bounds or args.trace == 0), flush=True)

    names = list(next(iter(per_seed.values()))["metrics"])
    summary = {n: summarize([r["metrics"][n]["value"] for r in per_seed.values()]) for n in names}
    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:36s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {spread:>8s} "
              f"{bounds.get(name, ''):>6}")

    if args.out:
        context_file = run.WORK / "results" / (
            f"{args.workload}-seed{next(iter(per_seed))}-trace{args.trace}.json")
        context = json.loads(context_file.read_text())["context"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "context": context, "summary": summary, "per_seed": per_seed}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
