"""Span tracing of voxloc's layers, installed from outside the package.

``install`` replaces each public entry point with a wrapper at the place its
callers look it up: module attributes as bound in the calling module (for
example ``voxloc.pipeline.icp_point_to_plane`` or ``voxloc.odometry.voxelize``)
and methods on their class (for example ``SpatialIndex.nearest``). Every call
records a span with its name, start, end, enclosing span and counts taken from
the arguments and the return value. Spans stay in memory until the run ends;
``layer_metrics`` folds them into the per-layer metrics.

Nothing under ``src/`` knows about this module, and the wrappers only read
their arguments and results, so a traced run writes the same outputs as an
untraced one.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

# enclosing span -> caller label of a SpatialIndex.nearest call
NEAREST_CALLERS = {
    "odometry.register_scan": "odometry",
    "registration.icp_point_to_plane": "icp",
    "registration.evaluate_alignment": "ransac",
}
TAIL_QUANTILE = 0.9  # of the per-scan times, for the *_tail metrics


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``counts(args, kwargs, result)`` returns the span's counts; it runs
        after the span has ended, so its cost is not timed.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.seconds
        return [span.seconds - c for span, c in zip(self.spans, covered)]

    def to_json(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "start": s.start - origin,
                "end": s.end - origin,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fit(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "fitness": float(result.fitness),
        "converged": bool(result.converged),
    }


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from voxloc import odometry, parking, pipeline, registration
    from voxloc.spatial import SpatialIndex
    from voxloc.voxel import VoxelGrid

    wrap = tracer.wrap
    # io: PLY and pose files, as run_pipeline binds them
    for attr in ("read_ply", "read_poses"):
        wrap(pipeline, attr, "io.read", _file_bytes)
    for attr in ("write_ply", "write_poses"):
        wrap(pipeline, attr, "io.write", _file_bytes)

    # voxel
    def voxelized(args, kwargs, result):
        return {"points": len(args[0]), "cells": len(result)}

    for module in (pipeline, odometry):
        wrap(module, "voxelize", "voxel.voxelize", voxelized)
        wrap(module, "downsample", "voxel.downsample")
    wrap(VoxelGrid, "compute_normals", "voxel.compute_normals",
         lambda a, k, r: {"cells": len(a[0])})
    wrap(VoxelGrid, "insert", "voxel.insert",
         lambda a, k, r: {"points": len(a[1]), "cells": len(a[0])})
    wrap(VoxelGrid, "evict_outside", "voxel.evict_outside")

    # spatial
    wrap(SpatialIndex, "__init__", "spatial.build", lambda a, k, r: {"points": a[0].count})
    wrap(SpatialIndex, "nearest", "spatial.nearest", lambda a, k, r: {"queries": len(r[0])})
    wrap(SpatialIndex, "pairs_within", "spatial.pairs_within", lambda a, k, r: {"pairs": len(r[0])})

    # odometry
    def combined(args, kwargs, result):
        state = kwargs.get("state")
        return {"scans": len(args[0]), "rejected": len(state.rejected) if state else 0}

    wrap(pipeline, "combine_scans", "odometry.combine_scans", combined)
    wrap(odometry, "register_scan", "odometry.register_scan")

    # fpfh
    wrap(pipeline, "compute_fpfh", "fpfh.compute_fpfh", lambda a, k, r: {"points": len(a[0])})

    # registration
    wrap(registration, "match_fpfh", "registration.match_fpfh")
    wrap(pipeline, "ransac_coarse", "registration.ransac_coarse", _fit)
    wrap(registration, "evaluate_alignment", "registration.evaluate_alignment")
    wrap(pipeline, "icp_point_to_plane", "registration.icp_point_to_plane", _fit)

    # parking
    wrap(pipeline, "spaces_from_reference", "parking.spaces_from_reference",
         lambda a, k, r: {"spaces": len(r)})
    wrap(parking, "euclidean_cluster", "parking.euclidean_cluster",
         lambda a, k, r: {"points": len(a[0])})

    # pipeline: orchestration plus the stage helpers it owns
    wrap(pipeline, "coarse_features", "pipeline.coarse_features")
    wrap(pipeline, "export_scene", "pipeline.export_scene")
    wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    ``*_s`` is the total inclusive time of a layer's entry point, except for
    the ``pipeline.*`` metrics, which are self times.
    """
    spans = tracer.spans
    own = tracer.self_seconds()

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.seconds for s in named(name))

    def count_sum(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def self_time(name):
        return sum(own[i] for i, s in enumerate(spans) if s.name == name)

    def p50_tail(samples):
        if not samples:
            return 0.0, 0.0
        return quantile(samples, 0.5), quantile(samples, TAIL_QUANTILE)

    m: dict[str, float] = {}

    scan_s = [s.seconds for s in named("odometry.register_scan")]
    m["odometry.combine_s"] = seconds("odometry.combine_scans")
    m["odometry.scan_s_p50"], m["odometry.scan_s_tail"] = p50_tail(scan_s)
    m["odometry.rejected_scans"] = count_sum("odometry.combine_scans", "rejected")
    m["voxel.insert_s"] = seconds("voxel.insert")
    m["voxel.insert_points"] = count_sum("voxel.insert", "points")
    m["voxel.map_cells"] = max((s.counts.get("cells", 0) for s in named("voxel.insert")), default=0)
    m["spatial.builds"] = len(named("spatial.build"))
    m["spatial.build_points"] = count_sum("spatial.build", "points")
    m["spatial.build_s"] = seconds("spatial.build")

    # a call that raised has no counts
    icp = [s for s in named("registration.icp_point_to_plane") if s.counts]
    m["registration.icp_s"] = seconds("registration.icp_point_to_plane")
    m["registration.icp_scan_s_p50"], m["registration.icp_scan_s_tail"] = p50_tail(
        [s.seconds for s in icp]
    )
    m["registration.icp_iterations"] = count_sum("registration.icp_point_to_plane", "iterations")
    m["registration.icp_converged_ratio"] = (
        sum(s.counts["converged"] for s in icp) / len(icp) if icp else 0.0
    )
    m["registration.icp_fitness_p50"] = (
        quantile([s.counts["fitness"] for s in icp], 0.5) if icp else 0.0
    )

    nearest = named("spatial.nearest")
    m["spatial.nearest_s"] = seconds("spatial.nearest")
    m["spatial.nearest_queries"] = count_sum("spatial.nearest", "queries")
    for caller in NEAREST_CALLERS.values():
        mine = [s for s in nearest if NEAREST_CALLERS.get(_parent_name(spans, s)) == caller]
        m[f"spatial.nearest_{caller}_s"] = sum(s.seconds for s in mine)
        m[f"spatial.nearest_{caller}_queries"] = sum(s.counts.get("queries", 0) for s in mine)

    m["parking.spaces_s"] = seconds("parking.spaces_from_reference")
    m["parking.cluster_s"] = seconds("parking.euclidean_cluster")
    m["parking.car_points"] = count_sum("parking.euclidean_cluster", "points")
    m["parking.spaces"] = count_sum("parking.spaces_from_reference", "spaces")

    m["fpfh.compute_s"] = seconds("fpfh.compute_fpfh")
    m["fpfh.points"] = count_sum("fpfh.compute_fpfh", "points")
    m["pipeline.coarse_features_s"] = self_time("pipeline.coarse_features")
    m["spatial.pairs_s"] = seconds("spatial.pairs_within")
    m["spatial.pairs"] = count_sum("spatial.pairs_within", "pairs")

    m["voxel.voxelize_s"] = seconds("voxel.voxelize")
    m["voxel.voxelize_points"] = count_sum("voxel.voxelize", "points")
    m["voxel.normals_s"] = seconds("voxel.compute_normals")
    # the reference fine grid is the one run_pipeline computes normals on itself
    m["voxel.fine_cells"] = sum(
        s.counts.get("cells", 0) for s in named("voxel.compute_normals")
        if _parent_name(spans, s) == "pipeline.run_pipeline"
    )
    m["pipeline.export_scene_s"] = self_time("pipeline.export_scene")
    m["pipeline.orchestration_s"] = self_time("pipeline.run_pipeline")

    ransac = [s for s in named("registration.ransac_coarse") if s.counts]
    iterations = count_sum("registration.ransac_coarse", "iterations")
    scored = sum(
        1 for s in named("registration.evaluate_alignment")
        if _parent_name(spans, s) == "registration.ransac_coarse"
    )
    m["registration.match_s"] = seconds("registration.match_fpfh")
    m["registration.ransac_s"] = seconds("registration.ransac_coarse")
    m["registration.ransac_iterations"] = iterations
    m["registration.ransac_scored_ratio"] = scored / iterations if iterations else 0.0
    m["registration.ransac_fitness"] = ransac[-1].counts["fitness"] if ransac else 0.0

    m["io.read_s"] = seconds("io.read")
    m["io.write_s"] = seconds("io.write")
    m["io.bytes_read"] = count_sum("io.read", "bytes")
    m["io.bytes_written"] = count_sum("io.write", "bytes")
    m["trace.spans"] = len(spans)
    return m


def _parent_name(spans: list[Span], span: Span) -> str | None:
    return spans[span.parent].name if span.parent >= 0 else None
