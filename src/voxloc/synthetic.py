"""Synthetic street scenes for tests and demos.

The scene is a street with one bend: a ground plane, two rows of buildings
with varied heights, depths, setbacks, and pitched roofs, a closing wall at
x = 0, and labelled car cuboids parked along both curbs. The dogleg and the
irregular skyline leave no translation or flip that maps the scene near
itself, which coarse registration depends on. Scans are noisy sensor-frame
subsets of the reference points taken along a ground-truth trajectory, so
with zero noise a scan transformed by its ground-truth pose lands exactly on
reference points.

generate_synthetic_scene runs three stages on one generator:
- build_street draws the street geometry: the labelled reference, the weld
  (the pose of the second street piece) and the bend angle;
- trajectory places the poses along the bent centerline and draws nothing;
- sample_scans draws rng.choice, then rng.normal, per scan.
Each stage keeps its draws in this order, so a seed and a spec always give
the same files; a change that adds, drops or reorders a draw changes the
bytes of every scene after that draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cloud import PointCloud
from .transform import RigidTransform, Trajectory

LABEL_GROUND = 0
LABEL_CAR = 1
LABEL_FACADE = 2
LABEL_TREE = 3

STREET_WIDTH = 12.0   # width of the street, in meters
FACADE_HEIGHT = 8.0   # height of the closing wall, in meters
SENSOR_HEIGHT = 1.8   # sensor above the ground, in meters

_CAR_COLORS = np.array(
    [(178, 34, 34), (30, 100, 160), (200, 180, 60), (60, 140, 70),
     (150, 60, 150), (220, 130, 40), (90, 90, 200), (160, 160, 160)],
    dtype=np.uint8,
)


@dataclass
class SceneSpec:
    street_length: float = 40.0
    car_count: int = 8
    scan_count: int = 20
    points_per_scan: int = 8000
    noise_sigma: float = 0.02
    surface_density: float = 400.0  # reference points per square meter
    sensor_range: float = 18.0
    scan_spacing: float = 0.5
    bend_degrees: float | None = None  # None draws 20-30 at random; 0 is straight

    def __post_init__(self):
        for name in ("street_length", "surface_density", "sensor_range", "scan_spacing"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.car_count < 0:
            raise ValueError("car_count must be non-negative")
        if self.scan_count < 1:
            raise ValueError("scan_count must be at least 1")
        if self.points_per_scan < 1:
            raise ValueError("points_per_scan must be at least 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.bend_degrees is not None and not abs(self.bend_degrees) < 60.0:
            raise ValueError("bend_degrees must lie in (-60, 60)")


class Street(NamedTuple):
    """A generated street: the labelled reference cloud, the pose of its
    second straight piece in the frame of the first, and the bend angle."""

    reference: PointCloud
    weld: RigidTransform
    bend: float


def _yaw_matrix(yaw):
    """Rotation by yaw (radians) about +z."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _sample_rect(rng, origin, edge_u, edge_v, density):
    """Uniform samples on the parallelogram origin + a*edge_u + b*edge_v."""
    origin = np.asarray(origin, dtype=float)
    edge_u = np.asarray(edge_u, dtype=float)
    edge_v = np.asarray(edge_v, dtype=float)
    area = np.linalg.norm(np.cross(edge_u, edge_v))
    n = max(1, int(round(area * density)))
    ab = rng.random((n, 2))
    return origin + ab[:, :1] * edge_u + ab[:, 1:] * edge_v


def _sample_box(rng, center, size, yaw, density, top=True):
    """Samples on the faces of a yaw-rotated cuboid."""
    sx, sy, sz = size
    faces = []
    # side faces: +-x and +-y in the box frame
    faces.append(((-sx / 2, -sy / 2, -sz / 2), (0, sy, 0), (0, 0, sz)))
    faces.append(((sx / 2, -sy / 2, -sz / 2), (0, sy, 0), (0, 0, sz)))
    faces.append(((-sx / 2, -sy / 2, -sz / 2), (sx, 0, 0), (0, 0, sz)))
    faces.append(((-sx / 2, sy / 2, -sz / 2), (sx, 0, 0), (0, 0, sz)))
    if top:
        faces.append(((-sx / 2, -sy / 2, sz / 2), (sx, 0, 0), (0, sy, 0)))
    parts = [_sample_rect(rng, o, u, v, density) for o, u, v in faces]
    pts = np.vstack(parts)
    return pts @ _yaw_matrix(yaw).T + np.asarray(center, dtype=float)


def _sample_cylinder(rng, center_xy, radius, z0, z1, density):
    """Uniform samples on an open cylinder shell."""
    n = max(1, int(round(2.0 * np.pi * radius * (z1 - z0) * density)))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    z = rng.uniform(z0, z1, n)
    return np.column_stack(
        [center_xy[0] + radius * np.cos(theta), center_xy[1] + radius * np.sin(theta), z]
    )


def _sample_ellipsoid(rng, center, radii, density):
    """Approximately uniform samples on an ellipsoid shell."""
    radii = np.asarray(radii, dtype=float)
    p = 1.6075  # Thomsen's surface-area approximation
    a, b, c = radii
    area = 4.0 * np.pi * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3.0) ** (1.0 / p)
    n = max(1, int(round(area * density)))
    # oversample directions, thin by the local area distortion
    raw = rng.normal(size=(2 * n + 8, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    weight = np.linalg.norm(raw * radii[None, :], axis=1)
    keep = rng.random(len(raw)) * weight.max() < weight
    pts = raw[keep][:n] * radii[None, :]
    return pts + np.asarray(center, dtype=float)


def _sample_cone(rng, center_xy, radius, z0, z1, density):
    """Uniform samples on an open cone from base radius to a point."""
    h = z1 - z0
    slant = np.hypot(radius, h)
    n = max(1, int(round(np.pi * radius * slant * density)))
    # area element grows linearly with base distance: sample sqrt
    frac = np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * frac
    return np.column_stack(
        [center_xy[0] + r * np.cos(theta), center_xy[1] + r * np.sin(theta), z1 - h * frac]
    )


def _tree(rng, x, y, density):
    """Trunk cylinder plus a crown: ellipsoid shell, or a cone for conifers."""
    trunk_r = rng.uniform(0.15, 0.3)
    trunk_h = rng.uniform(2.2, 3.6)
    parts = [_sample_cylinder(rng, (x, y), trunk_r, 0.0, trunk_h, density)]
    if rng.random() < 0.2:
        cone_r = rng.uniform(1.1, 1.8)
        cone_h = rng.uniform(2.5, 4.5)
        parts.append(_sample_cone(rng, (x, y), cone_r, trunk_h - 0.3, trunk_h + cone_h, density))
    else:
        crown_r = rng.uniform(1.5, 2.6)
        crown_rz = crown_r * rng.uniform(0.9, 1.4)
        parts.append(
            _sample_ellipsoid(rng, (x, y, trunk_h + 0.55 * crown_rz), (crown_r, crown_r, crown_rz), density)
        )
    return np.vstack(parts)


def _street_trees(rng, length, width, car_centers, density):
    """Trees along both curb lines, skipping positions too close to a car."""
    parts = []
    for sign in (-1.0, 1.0):
        y = sign * (width / 2.0 - 1.6)
        x = rng.uniform(2.0, 5.0)
        while x < length - 3.0:
            xy = np.array([x + rng.uniform(-0.6, 0.6), y + rng.uniform(-0.3, 0.3)])
            clear = all(np.hypot(*(xy - c[:2])) > 3.5 for c in car_centers)
            if clear:
                parts.append(_tree(rng, xy[0], xy[1], density))
            x += rng.uniform(4.5, 7.5)
    return parts


def _clear_of_buildings(x, y, half_w, footprints, margin):
    """True when the sidewalk position is not inside any building footprint."""
    for x0, x1, setback in footprints:
        if x0 - margin <= x <= x1 + margin and abs(y) >= half_w + setback - margin:
            return False
    return True


def _sidewalk_greens(rng, length, half_w, side_footprints, density):
    """Bush shells and the odd round kiosk on the setback strips."""
    bushes = []
    kiosks = []
    for sign in (-1.0, 1.0):
        footprints = side_footprints[sign]
        x = rng.uniform(2.0, 6.0)
        while x < length - 2.0:
            y = sign * (half_w + rng.uniform(0.6, 3.4))
            if _clear_of_buildings(x, y, half_w, footprints, 0.8):
                r = rng.uniform(0.9, 1.4)
                rz = r * rng.uniform(0.55, 0.8)
                bushes.append(_sample_ellipsoid(rng, (x, y, 0.5 * rz), (r, r, rz), density))
            x += rng.uniform(5.0, 9.0)
        kx = rng.uniform(0.2, 0.8) * length
        ky = sign * (half_w + rng.uniform(1.4, 2.6))
        if _clear_of_buildings(kx, ky, half_w, footprints, 2.0):
            kr = rng.uniform(1.0, 1.5)
            kh = rng.uniform(2.6, 3.4)
            kiosks.append(_sample_cylinder(rng, (kx, ky), kr, 0.0, kh, density))
            kiosks.append(_sample_cone(rng, (kx, ky), kr + 0.25, kh, kh + rng.uniform(0.8, 1.4), density))
    return bushes, kiosks


def _decorate_ribs(rng, wall_y, inward, x0, blen, height, density):
    """Vertical pilaster ribs along a building front."""
    parts = []
    x = x0 + rng.uniform(0.6, 1.8)
    while x < x0 + blen - 0.8:
        depth = rng.uniform(0.5, 0.9)
        width = rng.uniform(0.5, 1.1)
        rib_h = height * rng.uniform(0.55, 0.95)
        center = (x, wall_y + inward * depth / 2.0, rib_h / 2.0)
        parts.append(_sample_box(rng, center, (width, depth, rib_h), 0.0, density))
        x += rng.uniform(2.2, 4.0)
    return parts


def _decorate_slabs(rng, wall_y, inward, x0, blen, height, density):
    """Horizontal window slabs and balcony boxes on a building front."""
    parts = []
    for level in (0.32 * height, 0.68 * height):
        x = x0 + rng.uniform(0.5, 2.0)
        while x < x0 + blen - 1.2:
            width = rng.uniform(1.2, 2.2)
            depth = rng.uniform(0.35, 0.6)
            z = level + rng.uniform(-0.4, 0.4)
            parts.append(
                _sample_box(rng, (x, wall_y + inward * depth / 2.0, z), (width, depth, 0.4), 0.0, density)
            )
            if rng.random() < 0.4:
                balcony = (x, wall_y + inward * 0.5, max(0.6, z - 1.0))
                parts.append(_sample_box(rng, balcony, (width * 0.8, 1.0, 0.5), 0.0, density))
            x += rng.uniform(2.8, 4.5)
    return parts


def _roof(rng, x0, blen, eave_z, pitch, slopes, density):
    """Roof slopes running along x from x0: each (eave_y, run) rises at pitch
    from its eave at y = eave_y across a horizontal run in y."""
    return [
        _sample_rect(rng, (x0, eave_y, eave_z), (blen, 0.0, 0.0),
                     (0.0, run, abs(run) * np.tan(pitch)), density)
        for eave_y, run in slopes
    ]


def _building_row(rng, length: float, half_w: float, side: float, style: str, density: float):
    """A row of separate buildings: random lengths, depths, setbacks, heights,
    mixed roof shapes, and alley gaps, with style-specific front decoration.

    One wide side-street gap per row breaks the translational repetition of
    the corridor."""
    inward = -side
    parts = []
    footprints = []
    x = 0.0
    cross_gap = rng.uniform(0.35, 0.65) * length
    crossed = False
    while x < length - 3.0:
        if not crossed and x >= cross_gap:
            x += rng.uniform(6.0, 9.0)  # side street
            crossed = True
            continue
        blen = min(rng.uniform(8.0, 16.0), length - x)
        depth = rng.uniform(4.0, 9.0)
        setback = 0.0 if rng.random() < 0.35 else rng.uniform(1.0, 4.0)
        height = rng.uniform(13.0, 16.0) if rng.random() < 0.15 else rng.uniform(5.0, 13.0)
        wall_y = side * (half_w + setback)
        yc = wall_y + side * depth / 2.0
        center = (x + blen / 2.0, yc, height / 2.0)
        parts.append(_sample_box(rng, center, (blen, depth, height), 0.0, density, top=False))
        footprints.append((x, x + blen, setback))
        pitch = rng.uniform(np.radians(18.0), np.radians(45.0))
        if rng.random() < 0.6:  # gable: two half-depth slopes meeting at a ridge
            half = depth / 2.0
            slopes = [(yc - half, half), (yc + half, -half)]
        else:  # shed: one full-depth slope, rising toward +y or -y
            toward = 1.0 if rng.random() < 0.5 else -1.0
            slopes = [(yc - toward * depth / 2.0, toward * depth)]
            pitch *= 0.6
        parts.extend(_roof(rng, x, blen, height, pitch, slopes, density))
        if style == "ribs":
            parts.extend(_decorate_ribs(rng, wall_y, inward, x, blen, height, density))
        else:
            parts.extend(_decorate_slabs(rng, wall_y, inward, x, blen, height, density))
        x += blen
        if rng.random() < 0.75:
            x += rng.uniform(4.0, 8.0)  # alley gap
    return np.vstack(parts), footprints


def _place_cars(rng, length: float, width: float, count: int):
    """Car centers, sizes, yaws along both curbs at irregular positions."""
    cars = []
    if count == 0 or length < 9.0:
        return cars
    per_side = [(count + 1) // 2, count // 2]
    for side, side_count in enumerate(per_side):
        if side_count == 0:
            continue
        sign = -1.0 if side == 0 else 1.0
        y = sign * (width / 2.0 - 1.6)
        slots = np.linspace(4.0, length - 4.0, side_count)
        jitter_bound = min(0.8, max(0.05, (slots[1] - slots[0] - 5.0) / 2.0)) if side_count > 1 else 0.8
        for x in slots:
            dims = np.array([4.5, 1.8, 1.5]) * (0.9 + 0.2 * rng.random(3))
            center = (x + rng.uniform(-jitter_bound, jitter_bound), y + rng.uniform(-0.2, 0.2), dims[2] / 2.0)
            yaw = rng.uniform(-0.07, 0.07)
            cars.append((center, dims, yaw))
    return cars


def _street_segment(rng, spec: SceneSpec, length: float, car_count: int, closed_start: bool):
    """Parts of one straight street piece in its local frame (x in [0, length])."""
    density = spec.surface_density
    half_w = STREET_WIDTH / 2.0
    parts: list[tuple[np.ndarray, int, np.ndarray]] = []

    ground_w = STREET_WIDTH + 8.0  # street plus the setback strips
    ground = _sample_rect(
        rng, (0.0, -ground_w / 2.0, 0.0), (length, 0.0, 0.0), (0.0, ground_w, 0.0), density
    )
    parts.append((ground, LABEL_GROUND, np.array([96, 96, 96], np.uint8)))

    south, south_foot = _building_row(rng, length, half_w, -1.0, "ribs", density)
    parts.append((south, LABEL_FACADE, np.array([172, 120, 86], np.uint8)))
    north, north_foot = _building_row(rng, length, half_w, +1.0, "slabs", density)
    parts.append((north, LABEL_FACADE, np.array([140, 134, 120], np.uint8)))
    bushes, kiosks = _sidewalk_greens(rng, length, half_w, {-1.0: south_foot, 1.0: north_foot}, density)
    if bushes:
        parts.append((np.vstack(bushes), LABEL_TREE, np.array([74, 136, 70], np.uint8)))
    if kiosks:
        parts.append((np.vstack(kiosks), LABEL_FACADE, np.array([128, 116, 104], np.uint8)))
    if closed_start:
        end_wall = _sample_rect(rng, (0.0, -ground_w / 2.0, 0.0), (0.0, ground_w, 0.0),
                                (0.0, 0.0, FACADE_HEIGHT), density)
        portal = _sample_box(rng, (0.35, -0.18 * half_w, 0.3 * FACADE_HEIGHT),
                             (0.7, 0.36 * half_w, 0.6 * FACADE_HEIGHT), 0.0, density)
        wall = np.vstack([end_wall, portal])
        parts.append((wall, LABEL_FACADE, np.array([110, 110, 128], np.uint8)))

    placements = _place_cars(rng, length, STREET_WIDTH, car_count)
    cars = [_sample_box(rng, center, dims, yaw, density) for center, dims, yaw in placements]
    car_centers = [np.asarray(center) for center, _, _ in placements]
    trees = _street_trees(rng, length, STREET_WIDTH, car_centers, density)
    if trees:
        parts.append((np.vstack(trees), LABEL_TREE, np.array([58, 122, 58], np.uint8)))
    return parts, cars


def build_street(rng, spec: SceneSpec) -> Street:
    """Draw the street: two straight pieces welded at the bend, their cars,
    and a round tower on the outside of the bend.

    The street bends once midway; the dogleg gives the corridor a global
    shape that no translation or 180-degree flip maps onto itself. The
    reference carries labels and colors.
    """
    length_a = spec.street_length * rng.uniform(0.4, 0.6)
    length_b = spec.street_length - length_a
    if spec.bend_degrees is None:
        bend = rng.uniform(np.radians(20.0), np.radians(30.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    else:
        bend = np.radians(spec.bend_degrees)
    cars_a = int(round(spec.car_count * length_a / spec.street_length))
    weld = RigidTransform(_yaw_matrix(bend), np.array([length_a, 0.0, 0.0]))

    parts_a, cars_list_a = _street_segment(rng, spec, length_a, cars_a, closed_start=True)
    parts_b, cars_list_b = _street_segment(rng, spec, length_b, spec.car_count - cars_a, closed_start=False)

    parts: list[tuple[np.ndarray, int, np.ndarray]] = list(parts_a)
    for pts, label, color in parts_b:
        parts.append((weld.apply(pts), label, color))
    car_bodies = cars_list_a + [weld.apply(body) for body in cars_list_b]
    for i, body in enumerate(car_bodies):
        parts.append((body, LABEL_CAR, _CAR_COLORS[i % len(_CAR_COLORS)]))

    # round corner tower on the outside of the bend
    half_w = STREET_WIDTH / 2.0
    tower_r = rng.uniform(2.5, 3.5)
    tower_h = rng.uniform(10.0, 14.0)
    outer = -np.sign(bend) if bend != 0.0 else 1.0
    tower_xy = (length_a + 1.0, outer * (half_w + tower_r + 1.0))
    tower = np.vstack([
        _sample_cylinder(rng, tower_xy, tower_r, 0.0, tower_h, spec.surface_density),
        _sample_cone(rng, tower_xy, tower_r + 0.4, tower_h, tower_h + rng.uniform(2.5, 4.0),
                     spec.surface_density),
    ])
    parts.append((tower, LABEL_FACADE, np.array([150, 105, 95], np.uint8)))

    points = np.vstack([p for p, _, _ in parts])
    labels = np.concatenate([np.full(len(p), lab, np.int64) for p, lab, _ in parts])
    colors = np.vstack([np.tile(col, (len(p), 1)) for p, _, col in parts])
    return Street(PointCloud(points, colors, labels), weld, bend)


def trajectory(spec: SceneSpec, street: Street) -> Trajectory:
    """Ground-truth sensor poses, stepped by arclength along the bent
    centerline with a mild wobble; draws no random numbers."""
    length_a = street.weld.translation[0]
    poses = []
    for k in range(spec.scan_count):
        arc = 4.0 + spec.scan_spacing * k
        wobble_y = 0.4 * np.sin(0.35 * k)
        wobble_yaw = 0.05 * np.sin(0.5 * k + 1.0)
        if arc <= length_a:
            base_xy = np.array([arc, wobble_y])
            heading = wobble_yaw
        else:
            base_xy = street.weld.apply(np.array([arc - length_a, wobble_y, 0.0]))[:2]
            heading = street.bend + wobble_yaw
        poses.append(RigidTransform(_yaw_matrix(heading), np.append(base_xy, SENSOR_HEIGHT)))
    return Trajectory(poses)


def sample_scans(rng, spec: SceneSpec, reference: PointCloud,
                 poses: Trajectory) -> list[PointCloud]:
    """One scan per pose, in its sensor frame: up to points_per_scan
    reference points within sensor_range, drawn without replacement, plus
    Gaussian noise of noise_sigma."""
    points = reference.points
    scans = []
    for pose in poses:
        in_range = np.flatnonzero(
            np.linalg.norm(points - pose.translation, axis=1) <= spec.sensor_range
        )
        take = min(spec.points_per_scan, in_range.size)
        chosen = np.sort(rng.choice(in_range, size=take, replace=False))
        local = pose.inverse().apply(points[chosen])
        if spec.noise_sigma > 0:
            local = local + rng.normal(0.0, spec.noise_sigma, local.shape)
        scans.append(PointCloud(local, reference.colors[chosen], reference.labels[chosen]))
    return scans


def generate_synthetic_scene(seed: int, spec: SceneSpec | None = None):
    """Build (reference cloud, scans, ground-truth trajectory).

    Scans are expressed in their sensor frames; the trajectory maps each scan
    into the reference frame. Identical seeds and specs reproduce identical
    outputs.
    """
    if spec is None:
        spec = SceneSpec()
    rng = np.random.default_rng(seed)
    street = build_street(rng, spec)
    truth = trajectory(spec, street)
    return street.reference, sample_scans(rng, spec, street.reference, truth), truth
