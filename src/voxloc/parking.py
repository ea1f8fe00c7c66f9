"""Parking space extraction and occupancy updates.

Car-labelled points are clustered by Euclidean connectivity, each cluster gets
a yaw-oriented bounding box, and later scans flip each space between Occupied
and Vacant by counting the car points that fall inside its box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .config import PipelineConfig
from .errors import DegenerateGeometryError, ParseError
from .spatial import SpatialIndex
from .voxel import _group_keys

CONTAINMENT_SLACK = 1e-9  # absolute slack on box boundaries, in meters
_CELL_MARGIN = 1.0 - 1e-6  # keeps a cell's diagonal below distance despite rounding
_BRUTE_CHUNK = 1 << 20  # point pairs compared at once when two cells are compared in full


class OccupancyState(Enum):
    OCCUPIED = "occupied"
    VACANT = "vacant"


@dataclass(frozen=True)
class OrientedBox:
    centroid: np.ndarray  # (3,)
    dims: np.ndarray      # (length, width, height), length >= width > 0
    yaw: float            # [0, pi)


@dataclass(frozen=True)
class ParkingSpace:
    space_id: int
    box: OrientedBox
    state: OccupancyState


def extract_class(cloud: PointCloud, class_id: int) -> PointCloud:
    """Sub-cloud of points labelled class_id."""
    if cloud.labels is None:
        raise ValueError("cloud has no labels")
    return cloud.select(cloud.labels == class_id)


def euclidean_cluster(cloud: PointCloud, distance: float, min_points: int) -> list[np.ndarray]:
    """Connected components of the <=distance neighbor graph, each as the
    sorted array of its point indices.

    Two points are neighbors when the sum of their squared coordinate
    differences is at most distance**2, boundary included. Components smaller
    than min_points are discarded. Clusters are ordered by their smallest
    contained index.

    The graph is built on cells, by the exact grid method for DBSCAN with
    minPts = 1 (Gan & Tao, "DBSCAN revisited", SIGMOD 2015). The points are
    bucketed into cubes of edge a hair under distance/sqrt(3). A cube's
    diagonal is then shorter than distance, so all points of one cell are
    connected. Two neighbors lie at most two cells apart along each axis, so
    the candidate cell pairs are the keys at most 2*sqrt(3) apart (a
    SpatialIndex query) that differ by at most two on every axis. Two
    candidates are joined when their closest pair is within distance: one
    representative pair is tried first, and both point sets are compared in
    full only when it fails and the cells are not yet connected. The clusters
    are therefore exactly those of a point-by-point search.
    """
    if not distance > 0:
        raise ValueError("distance must be strictly positive")
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    pts = cloud.points
    n = len(pts)
    if n == 0:
        return []
    limit = distance * distance
    # Cells are keyed on coordinates relative to the cloud's corner, so the
    # rounding of the keys scales with the cloud's extent, not its position;
    # _CELL_MARGIN covers that rounding for extents up to about 1e9 cells.
    # The keys are then small non-negative integers, exact in float64.
    cell = distance / np.sqrt(3.0) * _CELL_MARGIN
    keys, counts, inverse = _group_keys(np.floor((pts - pts.min(axis=0)) / cell).astype(np.int64))
    order = np.argsort(inverse, kind="stable")
    sorted_pts = pts[order]
    starts = np.cumsum(counts) - counts

    pairs, _ = SpatialIndex(keys.astype(np.float64)).pairs_within(2.0 * np.sqrt(3.0))
    pairs = pairs[(np.abs(keys[pairs[:, 0]] - keys[pairs[:, 1]]) <= 2).all(axis=1)]
    first, second = pairs[:, 0], pairs[:, 1]
    joined = _squared_gap(sorted_pts[starts[first]], sorted_pts[starts[second]]) <= limit
    labels = _components(len(keys), first[joined], second[joined])
    todo = ~joined & (labels[first] != labels[second])
    found = _any_pair_within(sorted_pts, starts, counts, first[todo], second[todo], limit)
    labels = _components(
        len(keys),
        np.concatenate([first[joined], first[todo][found]]),
        np.concatenate([second[joined], second[todo][found]]),
    )

    point_labels = labels[inverse]
    members = np.argsort(point_labels, kind="stable")  # ascending index per label
    sizes = np.bincount(point_labels)
    bounds = np.cumsum(sizes)
    groups = np.split(members, bounds[:-1])
    smallest = members[bounds - sizes]
    order = np.argsort(smallest, kind="stable")
    return [groups[label] for label in order if sizes[label] >= min_points]


def _squared_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distance, summed in the order cKDTree sums it."""
    d = a - b
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _any_pair_within(
    sorted_pts: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    limit: float,
) -> np.ndarray:
    """Per cell pair, whether any point of one lies within sqrt(limit) of the other."""
    found = np.zeros(len(first), dtype=bool)
    work = counts[first] * counts[second]
    ends = np.cumsum(work)
    lo = 0
    while lo < len(first):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - work[lo] + _BRUTE_CHUNK)))
        size = work[lo:hi]
        pair = np.repeat(np.arange(lo, hi), size)
        within = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
        across = counts[second[pair]]
        i = starts[first[pair]] + within // across
        j = starts[second[pair]] + within % across
        close = _squared_gap(sorted_pts[i], sorted_pts[j]) <= limit
        found[pair[close]] = True
        lo = hi
    return found


def _components(count: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Component label of each of count nodes joined by the edges (first, second)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    edges = coo_matrix((np.ones(len(first), np.int8), (first, second)), shape=(count, count))
    return connected_components(edges, directed=False)[1]


def _rot2(yaw: float) -> tuple[float, float]:
    return float(np.cos(yaw)), float(np.sin(yaw))


def fit_oriented_box(points: np.ndarray) -> OrientedBox:
    """Yaw-oriented bounding box of a cluster.

    Yaw comes from the principal eigenvector of the 2-D xy covariance, folded
    into [0, pi); when the xy covariance is isotropic the box is axis-aligned.
    Dims are the extents in the yaw frame plus raw z, reordered so that
    length >= width.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise DegenerateGeometryError("box fitting needs at least 3 points")
    xy = pts[:, :2]
    centered = xy - xy.mean(axis=0)
    cov = centered.T @ centered / (len(pts) - 1)
    w, v = np.linalg.eigh(cov)
    if w[1] < 1e-18:
        raise DegenerateGeometryError("cluster has zero planar variance")
    if w[1] - w[0] <= 1e-12 * w[1]:
        yaw = 0.0  # isotropic spread: orientation is arbitrary, keep axes
    else:
        principal = v[:, 1]
        yaw = float(np.arctan2(principal[1], principal[0])) % np.pi

    c, s = _rot2(yaw)
    local = xy @ np.array([[c, -s], [s, c]])
    lo = np.array([local[:, 0].min(), local[:, 1].min(), pts[:, 2].min()])
    hi = np.array([local[:, 0].max(), local[:, 1].max(), pts[:, 2].max()])
    dims = hi - lo
    center_local = 0.5 * (lo + hi)
    if dims[1] > dims[0]:
        dims = dims[[1, 0, 2]]
        yaw = (yaw + np.pi / 2.0) % np.pi
    centroid_xy = center_local[:2] @ np.array([[c, s], [-s, c]])
    centroid = np.array([centroid_xy[0], centroid_xy[1], center_local[2]])
    dims = np.maximum(dims, 1e-9)
    return OrientedBox(centroid=centroid, dims=dims, yaw=float(yaw))


def points_in_box(box: OrientedBox, points: np.ndarray) -> int:
    """Count points inside the box (boundary inclusive, 1e-9 slack)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (N, 3) array")
    if len(pts) == 0:
        return 0
    c, s = _rot2(box.yaw)
    rel = pts[:, :2] - box.centroid[:2]
    local = rel @ np.array([[c, -s], [s, c]])
    dz = pts[:, 2] - box.centroid[2]
    half = box.dims / 2.0 + CONTAINMENT_SLACK
    inside = (
        (np.abs(local[:, 0]) <= half[0])
        & (np.abs(local[:, 1]) <= half[1])
        & (np.abs(dz) <= half[2])
    )
    return int(inside.sum())


def update_occupancy(
    spaces: list[ParkingSpace], car_points: np.ndarray, min_points: int
) -> list[ParkingSpace]:
    """New space list with states refreshed from the given car points.

    A space is Occupied iff at least min_points car points fall inside its
    box. Pure: ids and boxes are preserved, inputs are never mutated.
    """
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    updated = []
    for space in spaces:
        count = points_in_box(space.box, car_points)
        state = OccupancyState.OCCUPIED if count >= min_points else OccupancyState.VACANT
        updated.append(ParkingSpace(space.space_id, space.box, state))
    return updated


def spaces_from_reference(
    cloud: PointCloud, config: PipelineConfig, *, skipped: list[int] | None = None
) -> list[ParkingSpace]:
    """Derive parking spaces from a labelled reference cloud.

    Car points are clustered; each cluster becomes an Occupied space with a
    fitted box. A cluster with no planar spread (a mislabelled pole, say) has
    no box and is skipped; pass a list as `skipped` to collect the indices of
    those clusters. Ids are contiguous in cluster order."""
    cars = extract_class(cloud, config.car_label)
    clusters = euclidean_cluster(cars, config.cluster_distance, config.cluster_min_points)
    spaces = []
    for number, cluster in enumerate(clusters):
        try:
            box = fit_oriented_box(cars.points[cluster])
        except DegenerateGeometryError:
            if skipped is not None:
                skipped.append(number)
            continue
        spaces.append(ParkingSpace(len(spaces), box, OccupancyState.OCCUPIED))
    return spaces


def space_record(space: ParkingSpace) -> dict:
    """A space as the JSON record that a spaces file and a scene document hold."""
    return {
        "id": int(space.space_id),
        "centroid": [float(v) for v in space.box.centroid],
        "dims": [float(v) for v in space.box.dims],
        "yaw": float(space.box.yaw),
        "state": space.state.value,
    }


def save_spaces(path: str | Path, spaces: list[ParkingSpace]) -> None:
    payload = [space_record(space) for space in spaces]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_spaces(path: str | Path) -> list[ParkingSpace]:
    """Spaces as save_spaces writes them; ParseError when the text is not JSON
    or an entry lacks a field, holds a value of the wrong kind or shape, a
    value that is not finite, or dims that are not positive."""
    spaces = []
    try:
        for entry in json.loads(Path(path).read_text()):
            box = OrientedBox(
                centroid=np.array(entry["centroid"], dtype=float).reshape(3),
                dims=np.array(entry["dims"], dtype=float).reshape(3),
                yaw=float(entry["yaw"]),
            )
            if not (np.isfinite([*box.centroid, *box.dims, box.yaw]).all() and (box.dims > 0).all()):
                raise ValueError(f"space {entry['id']!r} has a non-finite value or non-positive dims")
            spaces.append(ParkingSpace(int(entry["id"]), box, OccupancyState(entry["state"])))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed spaces file: {exc!r}") from exc
    return spaces
