"""Point cloud and pose file round-trips, parse errors, config loading."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from voxloc.cloud import PointCloud
from voxloc.config import PipelineConfig, load_config, parse_config
from voxloc.errors import ConfigError, DataError, ParseError
from voxloc.io import read_ply, read_poses, write_ply, write_poses
from voxloc.transform import RigidTransform, rotation_exp


def _random_rotation(rng):
    return rotation_exp(rng.normal(size=3))


_XYZ_HEADER = (
    "ply\n"
    "format {fmt} 1.0\n"
    "element vertex {count}\n"
    "property double x\n"
    "property double y\n"
    "property double z\n"
    "end_header\n"
)


# -- PLY ---------------------------------------------------------------------


def test_read_minimal_ascii(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 3\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
        "0 0 0\n"
        "1 0 0\n"
        "0 1 0\n"
    )
    cloud = read_ply(path)
    assert len(cloud) == 3
    assert cloud.colors is None
    assert cloud.labels is None
    np.testing.assert_allclose(cloud.points[1], [1, 0, 0])


def test_read_ascii_colors_preserved(tmp_path):
    path = tmp_path / "colored.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 2\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
        "0 0 0 255 0 10\n"
        "1 1 1 0 128 255\n"
    )
    cloud = read_ply(path)
    assert cloud.colors.dtype == np.uint8
    np.testing.assert_array_equal(cloud.colors, [[255, 0, 10], [0, 128, 255]])


def test_unknown_property_and_foreign_element_skipped(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 1\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property float intensity\n"
        "end_header\n"
        "1 2 3 0.5\n"
    )
    cloud = read_ply(path)
    assert len(cloud) == 1
    np.testing.assert_allclose(cloud.points[0], [1, 2, 3])


def test_binary_roundtrip_positions_bit_exact(tmp_path, rng):
    pts = rng.normal(scale=50.0, size=(10_000, 3))
    colors = rng.integers(0, 256, size=(10_000, 3), dtype=np.uint8)
    labels = rng.integers(0, 5, size=10_000, dtype=np.int32)
    cloud = PointCloud(pts, colors, labels)
    path = tmp_path / "round.ply"
    write_ply(path, cloud)
    back = read_ply(path)
    assert np.array_equal(back.points, pts)  # bit-exact, no tolerance
    np.testing.assert_array_equal(back.colors, colors)
    np.testing.assert_array_equal(back.labels, labels)


def test_ascii_roundtrip_within_printed_precision(tmp_path, rng):
    pts = rng.normal(size=(50, 3))
    rows = "".join(" ".join(format(v, ".17g") for v in p) + "\n" for p in pts)
    path = tmp_path / "ascii.ply"
    path.write_text(_XYZ_HEADER.format(fmt="ascii", count=len(pts)) + rows)
    back = read_ply(path)
    np.testing.assert_allclose(back.points, pts, atol=1e-15, rtol=1e-15)


def test_empty_cloud_roundtrip(tmp_path):
    path = tmp_path / "empty.ply"
    write_ply(path, PointCloud(np.empty((0, 3))))
    assert len(read_ply(path)) == 0


def test_labels_written_as_vertex_property(tmp_path):
    path = tmp_path / "lab.ply"
    cloud = PointCloud(np.zeros((2, 3)), labels=np.array([1, 4]))
    write_ply(path, cloud)
    header = path.read_bytes().split(b"end_header")[0]
    assert b"property int label" in header
    np.testing.assert_array_equal(read_ply(path).labels, [1, 4])


@pytest.mark.parametrize("label", [2**31 + 5, -(2**31) - 1])
def test_label_outside_int32_is_a_data_error(tmp_path, label):
    # a PLY int label would wrap around (2**31 + 5 read back as -2147483643)
    path = tmp_path / "lab.ply"
    cloud = PointCloud(np.zeros((2, 3)), labels=np.array([1, label]))
    with pytest.raises(DataError):
        write_ply(path, cloud)
    assert not path.exists()


def test_int32_extreme_labels_round_trip(tmp_path):
    path = tmp_path / "lab.ply"
    labels = np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max])
    write_ply(path, PointCloud(np.zeros((2, 3)), labels=labels))
    np.testing.assert_array_equal(read_ply(path).labels, labels)


def test_malformed_header_reports_line(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex notanumber\n"
        "end_header\n"
    )
    with pytest.raises(ParseError) as err:
        read_ply(path)
    assert err.value.line == 3


def test_not_a_ply_rejected(tmp_path):
    path = tmp_path / "nope.ply"
    path.write_text("solid something\nend_header\n")
    with pytest.raises(ParseError):
        read_ply(path)


def test_truncated_element_before_vertex_is_a_parse_error(tmp_path):
    # a face list declared before the vertices, its data cut short
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        "element face 2\n"
        "property list uchar int vertex_indices\n"
        "element vertex 1\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
    )
    face = bytes([3]) + np.arange(3, dtype="<i4").tobytes()
    for data in (face, face + bytes([200]), face[:5]):
        path = tmp_path / "cut.ply"
        path.write_bytes(header.encode("ascii") + data)
        with pytest.raises(ParseError, match="face"):
            read_ply(path)


def test_negative_list_length_is_a_parse_error(tmp_path):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        "element face 1\n"
        "property list char int vertex_indices\n"
        "element vertex 0\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
    )
    path = tmp_path / "negative.ply"
    path.write_bytes(header.encode("ascii") + np.int8(-2).tobytes() + bytes(16))
    with pytest.raises(ParseError, match="negative"):
        read_ply(path)


def test_end_header_inside_a_comment_does_not_end_the_header(tmp_path):
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    header = _XYZ_HEADER.format(fmt="binary_little_endian", count=2).replace(
        "ply\n", "ply\ncomment written before end_header was known\n", 1
    )
    path = tmp_path / "comment.ply"
    path.write_bytes(header.encode("ascii") + pts.astype("<f8").tobytes())
    assert np.array_equal(read_ply(path).points, pts)


def test_zero_vertices_read_alike_in_both_formats(tmp_path):
    clouds = []
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_text(_XYZ_HEADER.format(fmt=fmt, count=0))
        clouds.append(read_ply(path))
    for cloud in clouds:
        assert cloud.points.shape == (0, 3)
        assert cloud.colors is None
        assert cloud.labels is None


def test_nonfinite_coordinate_rejected(tmp_path):
    path = tmp_path / "nan.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 1\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
        "nan 0 0\n"
    )
    with pytest.raises(DataError):
        read_ply(path)


# -- poses -------------------------------------------------------------------


def test_identity_pose_line(tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    traj = read_poses(path)
    assert len(traj) == 1
    np.testing.assert_array_equal(traj[0].rotation, np.eye(3))
    np.testing.assert_array_equal(traj[0].translation, np.zeros(3))


def test_pose_roundtrip_tight(tmp_path, rng):
    poses = [
        RigidTransform(_random_rotation(rng), rng.normal(scale=10.0, size=3))
        for _ in range(20)
    ]
    path = tmp_path / "poses.txt"
    write_poses(path, poses)
    back = read_poses(path)
    assert len(back) == 20
    for a, b in zip(poses, back):
        assert np.linalg.norm(a.rotation - b.rotation) < 1e-9
        assert np.linalg.norm(a.translation - b.translation) < 1e-9


def test_101_pose_lines(tmp_path):
    line = "1 0 0 0 0 1 0 0 0 0 1 0\n"
    path = tmp_path / "many.txt"
    path.write_text(line * 101)
    assert len(read_poses(path)) == 101


def test_wrong_token_count_reports_line(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 2 3\n")
    with pytest.raises(ParseError) as err:
        read_poses(path)
    assert err.value.line == 2


def test_slightly_drifted_rotation_is_fixed(tmp_path):
    rot = np.eye(3)
    rot[0, 0] += 3e-8  # drift between the keep and reject thresholds
    vals = np.hstack([np.column_stack([rot, np.zeros(3)]).ravel()])
    path = tmp_path / "drift.txt"
    path.write_text(" ".join(repr(float(v)) for v in vals) + "\n")
    traj = read_poses(path)
    r = traj[0].rotation
    assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12


def test_badly_drifted_rotation_rejected(tmp_path):
    rot = np.eye(3) * 1.01
    vals = np.column_stack([rot, np.zeros(3)]).ravel()
    path = tmp_path / "worse.txt"
    path.write_text(" ".join(str(v) for v in vals) + "\n")
    with pytest.raises(DataError):
        read_poses(path)


def test_empty_trajectory_writes_empty_file(tmp_path):
    path = tmp_path / "none.txt"
    write_poses(path, [])
    assert path.read_text() == ""


def test_pose_precision_at_least_17_digits(tmp_path):
    t = np.array([1.0 / 3.0, 0.1, -2.0 / 7.0])
    path = tmp_path / "prec.txt"
    write_poses(path, [RigidTransform(np.eye(3), t)])
    tokens = path.read_text().split()
    assert float(tokens[3]) == t[0]
    assert float(tokens[7]) == t[1]
    assert float(tokens[11]) == t[2]


# -- config ------------------------------------------------------------------


def test_empty_config_gives_defaults():
    # two resolutions and four parking settings; every registration distance
    # derives from the two voxel sizes
    assert asdict(parse_config({})) == {
        "voxel_size_fine": 0.10,
        "voxel_size_coarse": 1.0,
        "cluster_distance": 0.5,
        "cluster_min_points": 30,
        "occupancy_min_points": 10,
        "car_label": 1,
    }


def test_explicit_fine_size_accepted():
    assert parse_config({"voxel_size_fine": 0.1}).voxel_size_fine == 0.1


def test_coarse_smaller_than_fine_rejected():
    with pytest.raises(ConfigError):
        parse_config({"voxel_size_coarse": 0.05, "voxel_size_fine": 0.1})


def test_unknown_key_named_in_error():
    # a misspelt key, and keys that earlier versions accepted
    for key in (
        "ransac_distance_treshold",
        "icp_convergence_eps",
        "fpfh_radius",
        "ransac_max_iterations",
        "ransac_confidence",
        "icp_max_iterations",
        "ransac_distance_threshold",
        "icp_max_correspondence_distance",
    ):
        with pytest.raises(ConfigError, match=key):
            parse_config({key: 2.0})


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"cluster_min_points": 12}')
    cfg = load_config(path)
    assert cfg.cluster_min_points == 12
    assert cfg.cluster_distance == PipelineConfig().cluster_distance


def test_invalid_value_names_field():
    with pytest.raises(ConfigError, match="cluster_distance must be strictly positive"):
        parse_config({"cluster_distance": -1.5})


@pytest.mark.parametrize("key", ["voxel_size_fine", "voxel_size_coarse", "cluster_distance"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_value_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config({key: value})
