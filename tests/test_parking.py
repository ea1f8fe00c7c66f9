"""Car clustering, oriented boxes, containment, and occupancy updates."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from voxloc.cloud import PointCloud
from voxloc.config import PipelineConfig
from voxloc.errors import DegenerateGeometryError, ParseError
from voxloc.parking import (
    _CELL_MARGIN,
    OccupancyState,
    OrientedBox,
    ParkingSpace,
    euclidean_cluster,
    extract_class,
    fit_oriented_box,
    load_spaces,
    points_in_box,
    save_spaces,
    spaces_from_reference,
    update_occupancy,
)


def _components_by_union_find(points, distance):
    """Independent connectivity oracle over the full pairwise distance matrix."""
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    diff = points[:, None, :] - points[None, :, :]
    close = np.linalg.norm(diff, axis=2) <= distance
    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return {frozenset(members) for members in groups.values()}


def _clusters_by_bfs(points, distance, min_points):
    """Reference clustering: breadth-first search over k-d tree ball queries.

    cKDTree compares each sum of squared differences against distance**2, the
    comparison euclidean_cluster must reproduce exactly.
    """
    n = len(points)
    if n == 0:
        return []
    tree = cKDTree(points)
    visited = np.zeros(n, bool)
    clusters = []
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        component = [seed]
        frontier = [seed]
        while frontier:
            neighbor_lists = tree.query_ball_point(points[frontier], distance)
            frontier = []
            for neighbors in neighbor_lists:
                for j in neighbors:
                    if not visited[j]:
                        visited[j] = True
                        component.append(j)
                        frontier.append(j)
        if len(component) >= min_points:
            clusters.append(np.sort(np.array(component, dtype=np.int64)))
    return clusters


_UTM_OFFSET = np.array([5e5, 5e6, 300.0])


@st.composite
def _cluster_cases(draw):
    """(points, distance, min_points): random clouds or lattices spaced exactly
    distance apart, with duplicated points, near the origin or at a UTM-sized offset."""
    distance = draw(st.sampled_from([0.05, 0.3, 0.5, 1.0, 2.5]))
    shape = st.tuples(st.integers(1, 60), st.just(3))
    if draw(st.booleans()):
        points = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 4))) * distance
    else:
        unit = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 4.0)))
        points = unit * distance
    copies = draw(st.lists(st.integers(0, len(points) - 1), max_size=10))
    points = np.vstack([points, points[copies]])
    if draw(st.booleans()):
        points = points + _UTM_OFFSET
    return points, distance, draw(st.integers(1, 5))


def _count_inside_brute(box, points):
    """Per-point containment check in the box frame, scalar math only."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    half = box.dims / 2.0 + 1e-9
    count = 0
    for p in points:
        dx, dy, dz = p - box.centroid
        u = c * dx + s * dy
        v = -s * dx + c * dy
        if abs(u) <= half[0] and abs(v) <= half[1] and abs(dz) <= half[2]:
            count += 1
    return count


def _blob(rng, center, n=40, spread=0.15):
    return np.asarray(center, float) + rng.normal(scale=spread, size=(n, 3))


class TestExtractClass:
    def test_picks_only_matching_labels(self, rng):
        pts = rng.normal(size=(30, 3))
        labels = np.array([0, 1, 2] * 10, dtype=np.int64)
        cars = extract_class(PointCloud(pts, labels=labels), 1)
        assert len(cars) == 10
        assert np.array_equal(cars.points, pts[labels == 1])
        assert np.all(cars.labels == 1)

    def test_absent_class_gives_empty_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)), labels=np.zeros(5, dtype=np.int64))
        assert len(extract_class(cloud, 7)) == 0

    def test_unlabelled_cloud_is_an_error(self, rng):
        with pytest.raises(ValueError):
            extract_class(PointCloud(rng.normal(size=(5, 3))), 1)


class TestEuclideanCluster:
    def test_single_point_forms_its_own_cluster(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        clusters = euclidean_cluster(cloud, 0.5, 1)
        assert len(clusters) == 1
        assert clusters[0].indices.tolist() == [0]

    def test_well_separated_blobs_stay_apart(self, rng):
        cloud = PointCloud(np.vstack([
            _blob(rng, (0, 0, 0)),
            _blob(rng, (10, 0, 0)),
        ]))
        clusters = euclidean_cluster(cloud, 1.0, 5)
        assert len(clusters) == 2
        assert clusters[0].indices.max() < 40 <= clusters[1].indices.min()

    def test_matches_union_find_oracle(self, rng):
        points = rng.uniform(0.0, 4.0, size=(120, 3))
        distance = 0.6
        clusters = euclidean_cluster(PointCloud(points), distance, 1)
        got = {frozenset(c.indices.tolist()) for c in clusters}
        assert got == _components_by_union_find(points, distance)

    @settings(max_examples=100, deadline=None, database=None)
    @given(_cluster_cases())
    def test_matches_point_by_point_search(self, case):
        points, distance, min_points = case
        got = euclidean_cluster(PointCloud(points), distance, min_points)
        want = _clusters_by_bfs(points, distance, min_points)
        assert len(got) == len(want)
        for cluster, indices in zip(got, want):
            assert cluster.indices.dtype == np.int64
            assert np.array_equal(cluster.indices, indices)

    def test_boundary_is_inclusive(self):
        points = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.3, 0.3, 0.0]])
        clusters = euclidean_cluster(PointCloud(points), 0.3, 1)
        assert [c.indices.tolist() for c in clusters] == [[0, 1, 2]]

    @pytest.mark.parametrize("offset", [np.zeros(3), _UTM_OFFSET])
    def test_diagonal_just_beyond_distance_stays_apart(self, offset):
        # the two points span one cube of edge just over distance/sqrt(3)
        distance = 0.5
        corner = distance / math.sqrt(3.0) * (1.0 + 1e-7)
        points = np.array([[0.0, 0.0, 0.0], [corner] * 3]) + offset
        clusters = euclidean_cluster(PointCloud(points), distance, 1)
        assert [c.indices.tolist() for c in clusters] == [[0], [1]]

    @pytest.mark.parametrize("offset", [np.zeros(3), _UTM_OFFSET])
    def test_cells_two_apart_on_every_axis_join(self, offset):
        # points 1 and 2 sit in cells two apart on every axis, the farthest
        # cells that can hold neighbors, yet lie within distance; point 0
        # only moves the cloud's corner, from which the cells are counted
        distance = 0.5
        cell = distance / math.sqrt(3.0) * _CELL_MARGIN
        step = distance / math.sqrt(3.0) * (1.0 - 1e-7)
        near = 11 * cell - (step - cell) / 2.0
        points = np.array([[0.0] * 3, [near] * 3, [near + step] * 3]) + offset
        keys = np.floor((points - points.min(axis=0)) / cell).astype(np.int64)
        assert np.array_equal(keys[2] - keys[1], [2, 2, 2])
        assert ((points[2] - points[1]) ** 2).sum() <= distance**2
        clusters = euclidean_cluster(PointCloud(points), distance, 1)
        assert [c.indices.tolist() for c in clusters] == [[0], [1, 2]]

    def test_clusters_ordered_by_smallest_index(self, rng):
        points = rng.uniform(0.0, 8.0, size=(150, 3))
        clusters = euclidean_cluster(PointCloud(points), 0.7, 1)
        firsts = [int(c.indices[0]) for c in clusters]
        assert firsts == sorted(firsts)
        for cluster in clusters:
            assert np.all(np.diff(cluster.indices) > 0)

    def test_min_points_filters_small_components(self, rng):
        cloud = PointCloud(np.vstack([
            _blob(rng, (0, 0, 0), n=30),
            np.array([[50.0, 0.0, 0.0]]),
        ]))
        clusters = euclidean_cluster(cloud, 1.0, 5)
        assert len(clusters) == 1
        assert len(clusters[0].indices) == 30

    def test_empty_cloud_gives_no_clusters(self):
        assert euclidean_cluster(PointCloud(np.empty((0, 3))), 1.0, 1) == []

    def test_invalid_arguments_raise(self):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            euclidean_cluster(cloud, 0.0, 1)
        with pytest.raises(ValueError):
            euclidean_cluster(cloud, 1.0, 0)


class TestFitOrientedBox:
    def test_unit_cube_corners(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                           dtype=float)
        box = fit_oriented_box(corners)
        np.testing.assert_allclose(box.centroid, [0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(box.dims, [1.0, 1.0, 1.0], atol=1e-12)
        assert box.yaw == 0.0

    def test_rotated_rectangle_recovers_yaw_and_dims(self, rng):
        yaw = math.radians(30.0)
        u = rng.uniform(-2.0, 2.0, size=2000)
        v = rng.uniform(-1.0, 1.0, size=2000)
        c, s = math.cos(yaw), math.sin(yaw)
        pts = np.column_stack([
            c * u - s * v + 5.0,
            s * u + c * v - 3.0,
            rng.uniform(0.0, 0.3, size=2000),
        ])
        box = fit_oriented_box(pts)
        delta = abs(box.yaw - yaw) % math.pi
        assert min(delta, math.pi - delta) < math.radians(2.0)
        np.testing.assert_allclose(box.dims[:2], [4.0, 2.0], atol=0.05)
        assert box.dims[2] == pytest.approx(0.3, abs=0.01)

    def test_box_contains_every_input_point(self, rng):
        for _ in range(10):
            pts = _blob(rng, rng.uniform(-5, 5, size=3), n=60, spread=0.4)
            box = fit_oriented_box(pts)
            assert points_in_box(box, pts) == len(pts)

    def test_length_width_order_and_yaw_range(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(50, 3)) * rng.uniform(0.2, 2.0, size=3)
            box = fit_oriented_box(pts)
            assert box.dims[0] >= box.dims[1] > 0
            assert 0.0 <= box.yaw < math.pi

    def test_too_few_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            fit_oriented_box(np.zeros((2, 3)))

    def test_zero_planar_variance_raises(self):
        stacked = np.column_stack([
            np.full(10, 1.0), np.full(10, 2.0), np.linspace(0, 1, 10),
        ])
        with pytest.raises(DegenerateGeometryError):
            fit_oriented_box(stacked)


class TestPointsInBox:
    def test_centroid_is_inside(self):
        box = OrientedBox(np.array([1.0, 2.0, 0.5]), np.array([2.0, 1.0, 1.0]), 0.3)
        assert points_in_box(box, box.centroid[None, :]) == 1

    def test_distant_points_are_outside(self, rng):
        box = OrientedBox(np.zeros(3), np.array([4.0, 2.0, 2.0]), 0.8)
        far = rng.normal(size=(50, 3)) + np.array([1000.0, 0.0, 0.0])
        assert points_in_box(box, far) == 0

    def test_matches_per_point_oracle(self, rng):
        for _ in range(20):
            box = OrientedBox(
                centroid=rng.uniform(-3, 3, size=3),
                dims=rng.uniform(0.5, 4.0, size=3),
                yaw=float(rng.uniform(0.0, math.pi)),
            )
            pts = rng.uniform(-5.0, 5.0, size=(400, 3))
            assert points_in_box(box, pts) == _count_inside_brute(box, pts)

    def test_empty_input_counts_zero(self):
        box = OrientedBox(np.zeros(3), np.ones(3), 0.0)
        assert points_in_box(box, np.empty((0, 3))) == 0

    def test_bad_shape_raises(self):
        box = OrientedBox(np.zeros(3), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            points_in_box(box, np.zeros((4, 2)))


def _grid_of_spaces(n=10, pitch=6.0):
    spaces = []
    for i in range(n):
        centroid = np.array([pitch * i, 0.0, 0.75])
        box = OrientedBox(centroid, np.array([4.0, 2.0, 1.5]), 0.0)
        spaces.append(ParkingSpace(i, box, OccupancyState.OCCUPIED))
    return spaces


class TestUpdateOccupancy:
    def test_no_points_vacates_everything(self):
        spaces = _grid_of_spaces()
        updated = update_occupancy(spaces, np.empty((0, 3)), 10)
        assert all(s.state is OccupancyState.VACANT for s in updated)

    def test_filled_subset_is_occupied(self, rng):
        spaces = _grid_of_spaces()
        filled = [0, 1, 2, 3, 4, 5, 6]
        pts = np.vstack([
            _blob(rng, spaces[i].box.centroid, n=30, spread=0.3) for i in filled
        ])
        updated = update_occupancy(spaces, pts, 10)
        occupied = [s.space_id for s in updated if s.state is OccupancyState.OCCUPIED]
        assert occupied == filled

    def test_threshold_is_inclusive(self):
        spaces = _grid_of_spaces(n=1)
        at_centroid = np.tile(spaces[0].box.centroid, (10, 1))
        assert update_occupancy(spaces, at_centroid, 10)[0].state is OccupancyState.OCCUPIED
        assert update_occupancy(spaces, at_centroid[:9], 10)[0].state is OccupancyState.VACANT

    def test_ids_and_boxes_preserved_inputs_untouched(self, rng):
        spaces = _grid_of_spaces()
        states_before = [s.state for s in spaces]
        pts = rng.uniform(-10, 70, size=(200, 3))
        pts_before = pts.copy()
        updated = update_occupancy(spaces, pts, 5)
        assert [s.space_id for s in updated] == [s.space_id for s in spaces]
        for new, old in zip(updated, spaces):
            assert new.box is old.box
        assert [s.state for s in spaces] == states_before
        assert np.array_equal(pts, pts_before)

    def test_idempotent(self, rng):
        spaces = _grid_of_spaces()
        pts = np.vstack([_blob(rng, spaces[i].box.centroid, n=25) for i in (2, 5)])
        once = update_occupancy(spaces, pts, 10)
        twice = update_occupancy(once, pts, 10)
        assert [s.state for s in once] == [s.state for s in twice]

    def test_adding_points_never_vacates(self, rng):
        spaces = _grid_of_spaces()
        base = np.vstack([_blob(rng, spaces[i].box.centroid, n=25) for i in (1, 8)])
        extra = np.vstack([base, _blob(rng, spaces[4].box.centroid, n=25)])
        before = update_occupancy(spaces, base, 10)
        after = update_occupancy(spaces, extra, 10)
        for a, b in zip(after, before):
            if b.state is OccupancyState.OCCUPIED:
                assert a.state is OccupancyState.OCCUPIED

    def test_invalid_min_points_raises(self):
        with pytest.raises(ValueError):
            update_occupancy(_grid_of_spaces(n=1), np.empty((0, 3)), 0)


class TestSpacesFromReference:
    def test_two_cars_become_two_occupied_spaces(self, rng):
        ground = np.column_stack([
            rng.uniform(0, 20, size=400),
            rng.uniform(0, 10, size=400),
            np.zeros(400),
        ])
        car_a = _blob(rng, (4.0, 3.0, 0.7), n=80, spread=0.5)
        car_b = _blob(rng, (14.0, 6.0, 0.7), n=80, spread=0.5)
        pts = np.vstack([ground, car_a, car_b])
        labels = np.concatenate([
            np.zeros(400, dtype=np.int64), np.ones(160, dtype=np.int64),
        ])
        cloud = PointCloud(pts, labels=labels)
        config = PipelineConfig()
        spaces = spaces_from_reference(cloud, config)
        assert [s.space_id for s in spaces] == [0, 1]
        assert all(s.state is OccupancyState.OCCUPIED for s in spaces)
        centers = sorted(float(s.box.centroid[0]) for s in spaces)
        assert abs(centers[0] - 4.0) < 0.5
        assert abs(centers[1] - 14.0) < 0.5

    def test_collinear_cluster_is_skipped(self, rng):
        # a mislabelled pole: collinear and vertical, so its box has no
        # planar extent; it comes first in cluster order yet takes no id
        pole = np.column_stack([np.full(40, 10.0), np.full(40, 5.0), np.linspace(0.0, 2.0, 40)])
        car = _blob(rng, (4.0, 3.0, 0.7), n=80, spread=0.5)
        cloud = PointCloud(np.vstack([pole, car]), labels=np.ones(120, dtype=np.int64))
        config = PipelineConfig()
        assert len(euclidean_cluster(cloud, config.cluster_distance, config.cluster_min_points)) == 2
        skipped = []
        spaces = spaces_from_reference(cloud, config, skipped=skipped)
        assert skipped == [0]
        assert [s.space_id for s in spaces] == [0]
        assert abs(float(spaces[0].box.centroid[0]) - 4.0) < 0.5


class TestSaveLoadSpaces:
    def test_round_trip_is_exact(self, rng, tmp_path):
        spaces = []
        for i in range(4):
            box = OrientedBox(
                centroid=rng.uniform(-5, 5, size=3),
                dims=np.sort(rng.uniform(0.5, 4.0, size=3))[::-1].copy(),
                yaw=float(rng.uniform(0.0, math.pi)),
            )
            state = OccupancyState.OCCUPIED if i % 2 == 0 else OccupancyState.VACANT
            spaces.append(ParkingSpace(i, box, state))
        path = tmp_path / "spaces.json"
        save_spaces(path, spaces)
        loaded = load_spaces(path)
        assert len(loaded) == len(spaces)
        for got, want in zip(loaded, spaces):
            assert got.space_id == want.space_id
            assert got.state is want.state
            assert np.array_equal(got.box.centroid, want.box.centroid)
            assert np.array_equal(got.box.dims, want.box.dims)
            assert got.box.yaw == want.box.yaw

    @pytest.mark.parametrize("text", [
        "not json",
        '[{"id": 0}]',
        '{"id": 0}',
        '[{"id": 0, "centroid": [0, 0], "dims": [4, 2, 1.5], "yaw": 0, "state": "vacant"}]',
        '[{"id": 0, "centroid": [0, 0, 0], "dims": [4, 2, 1.5], "yaw": 0, "state": "gone"}]',
    ])
    def test_malformed_file_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "spaces.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_spaces(path)
