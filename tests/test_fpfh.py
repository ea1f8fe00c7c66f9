"""Feature histogram tests against hand-evaluated and brute-force oracles.

The pair-angle cases run on the batch helper that compute_fpfh uses; the
SPFH and weighting cases read rows of compute_fpfh. The angles are folded, so
the descriptors must not change when any normal flips.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxloc.fpfh import (
    BINS_PER_FEATURE,
    DESCRIPTOR_SIZE,
    _ordered_pair_angles,
    _pair_angles_batch,
    compute_fpfh,
)
from voxloc.spatial import SpatialIndex
from voxloc.transform import rotation_exp


def _angles_oracle(p_i, n_i, p_j, n_j):
    """Scalar re-evaluation of the folded Darboux-frame angles, swap rule
    included."""
    p_i, n_i = np.asarray(p_i, float), np.asarray(n_i, float)
    p_j, n_j = np.asarray(p_j, float), np.asarray(n_j, float)
    d = p_j - p_i
    dhat = d / np.linalg.norm(d)
    if abs(np.dot(n_i, dhat)) > abs(np.dot(n_j, dhat)):
        p_i, p_j = p_j, p_i
        n_i, n_j = n_j, n_i
        dhat = -dhat
    u = n_i
    v = np.cross(dhat, u)
    v = v / np.linalg.norm(v)
    w = np.cross(u, v)
    alpha = abs(float(np.dot(v, n_j)))
    phi = abs(float(np.dot(u, dhat)))
    theta = float(np.arctan2(abs(np.dot(w, n_j)), abs(np.dot(u, n_j))))
    return alpha, phi, theta


def _bin11(value, lo, hi):
    idx = int(np.floor((value - lo) / (hi - lo) * BINS_PER_FEATURE))
    return min(max(idx, 0), BINS_PER_FEATURE - 1)


def _spfh_oracle(points, normals, i, radius):
    """Brute-force SPFH: scan every other point, bin valid pairs, normalize."""
    bins = np.zeros(DESCRIPTOR_SIZE)
    kept = 0
    for j in range(len(points)):
        if j == i:
            continue
        d = points[j] - points[i]
        dist = np.linalg.norm(d)
        if dist > radius or dist == 0.0:
            continue
        dhat = d / dist
        u = normals[j] if abs(normals[i] @ dhat) > abs(normals[j] @ dhat) else normals[i]
        if np.linalg.norm(np.cross(dhat, u)) < 1e-9:
            continue
        alpha, phi, theta = _angles_oracle(points[i], normals[i], points[j], normals[j])
        bins[_bin11(alpha, 0.0, 1.0)] += 1
        bins[BINS_PER_FEATURE + _bin11(phi, 0.0, 1.0)] += 1
        bins[2 * BINS_PER_FEATURE + _bin11(theta, 0.0, np.pi / 2.0)] += 1
        kept += 1
    if kept:
        bins /= kept
    return bins


def _fpfh_oracle(points, normals, radius):
    n = len(points)
    spfh_all = np.array([_spfh_oracle(points, normals, i, radius) for i in range(n)])
    out = spfh_all.copy()
    for i in range(n):
        dists = np.linalg.norm(points - points[i], axis=1)
        nbr = [j for j in range(n) if j != i and 0.0 < dists[j] <= radius]
        if nbr:
            acc = sum(spfh_all[j] / dists[j] for j in nbr)
            out[i] = spfh_all[i] + acc / len(nbr)
    return out


def _random_oriented_cloud(rng, n, scale=2.0):
    points = rng.uniform(-scale, scale, size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return points, normals


def _angles(p_i, n_i, p_j, n_j):
    """_pair_angles_batch on a single pair: (alpha, phi, theta, valid)."""
    rows = [np.asarray(v, dtype=float).reshape(1, 3) for v in (p_i, n_i, p_j, n_j)]
    return tuple(out[0] for out in _pair_angles_batch(*rows)[:4])


def _random_pairs(rng, n):
    """n random oriented pairs as (p_i, n_i, p_j, n_j), one row per pair."""
    points, normals = _random_oriented_cloud(rng, 2 * n)
    return points[0::2], normals[0::2], points[1::2], normals[1::2]


def _one_hot(alpha, phi, theta):
    """SPFH of a point with a single valid pair of these angles."""
    bins = np.zeros(DESCRIPTOR_SIZE)
    bins[_bin11(alpha, 0.0, 1.0)] = 1.0
    bins[BINS_PER_FEATURE + _bin11(phi, 0.0, 1.0)] = 1.0
    bins[2 * BINS_PER_FEATURE + _bin11(theta, 0.0, np.pi / 2.0)] = 1.0
    return bins


_UP = (0.0, 0.0, 1.0)


class TestPairAngles:
    def test_coplanar_parallel_normals(self):
        alpha, phi, theta, valid = _angles((0, 0, 0), _UP, (1, 0, 0), _UP)
        assert valid
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert theta == pytest.approx(0.0, abs=1e-15)

    def test_perpendicular_target_normal(self):
        alpha, phi, theta, valid = _angles((0, 0, 0), _UP, (1, 0, 0), (1, 0, 0))
        assert valid
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert theta == pytest.approx(np.pi / 2.0, abs=1e-15)

    def test_swap_picks_less_aligned_source(self):
        # n_i parallel to the pair direction, so the roles must swap; the
        # signed theta is -pi/2, folded to pi/2
        alpha, phi, theta, valid = _angles((0, 0, 0), (1, 0, 0), (1, 0, 0), _UP)
        assert valid
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert theta == pytest.approx(np.pi / 2.0, abs=1e-15)

    def test_matches_scalar_oracle(self, rng):
        p_i, n_i, p_j, n_j = _random_pairs(rng, 200)
        alpha, phi, theta, valid, _ = _pair_angles_batch(p_i, n_i, p_j, n_j)
        assert valid.all()
        for row in range(200):
            want = _angles_oracle(p_i[row], n_i[row], p_j[row], n_j[row])
            np.testing.assert_allclose((alpha[row], phi[row], theta[row]), want, atol=1e-12)

    def test_ranges(self, rng):
        alpha, phi, theta, valid, _ = _pair_angles_batch(*_random_pairs(rng, 300))
        assert valid.all()
        assert ((0.0 <= alpha) & (alpha <= 1.0)).all()
        assert ((0.0 <= phi) & (phi <= 1.0)).all()
        assert ((0.0 <= theta) & (theta <= np.pi / 2.0)).all()

    def test_symmetric_under_argument_order(self, rng):
        p_i, n_i, p_j, n_j = _random_pairs(rng, 100)
        forward = _pair_angles_batch(p_i, n_i, p_j, n_j)
        backward = _pair_angles_batch(p_j, n_j, p_i, n_i)
        for a, b in zip(forward[:3], backward[:3]):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("cloud", ["equal-normals", "lattice", "random-normals"])
    def test_one_pass_per_pair_is_bitwise_both_orders(self, rng, cloud):
        # compute_fpfh's angles against evaluating every pair in both orders:
        # with equal normals every pair ties; on a lattice with 3-4-5 normals
        # many pairs tie with different normals, and the two orders round
        # differently
        points, normals = _random_oriented_cloud(rng, 150)
        if cloud == "equal-normals":
            normals[:] = [0.6, 0.0, 0.8]
        elif cloud == "lattice":
            points = rng.integers(-3, 4, size=(150, 3)) * 0.5
            normals = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6]])[
                rng.integers(0, 3, size=150)
            ]
        pairs, _ = SpatialIndex(points).pairs_within(1.5)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
        expected = _pair_angles_batch(points[src], normals[src], points[nbr], normals[nbr])
        got = _ordered_pair_angles(points, normals, pairs[:, 0], pairs[:, 1])
        for out, want in zip(got, expected[:4]):
            assert np.array_equal(out, want)

    def test_coincident_points_are_invalid(self):
        assert not _angles((1, 2, 3), _UP, (1, 2, 3), _UP)[3]

    def test_direction_parallel_to_both_normals_is_invalid(self):
        assert not _angles((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0))[3]


class TestSpfh:
    """The SPFH stage, read from rows of compute_fpfh."""

    def test_no_neighbors_all_zero(self):
        points = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        normals = np.tile(_UP, (2, 1))
        out = compute_fpfh(points, normals, radius=1.0)
        np.testing.assert_array_equal(out, np.zeros((2, DESCRIPTOR_SIZE)))

    def test_flat_plane_concentrates_alpha_and_phi_at_zero(self, rng):
        xy = rng.uniform(-1.0, 1.0, size=(60, 2))
        points = np.column_stack([xy, np.zeros(60)])
        normals = np.tile(_UP, (60, 1))
        out = compute_fpfh(points, normals, radius=3.0)
        zero_bin = _bin11(0.0, 0.0, 1.0)
        for block in (0, 1):
            bins = out[:, block * BINS_PER_FEATURE:(block + 1) * BINS_PER_FEATURE]
            assert (bins[:, zero_bin] > 0.0).all()
            assert np.count_nonzero(bins) == len(points)

    def test_blocks_sum_to_one_plus_mean_inverse_distance(self, rng):
        # every SPFH block sums to one, so each descriptor block sums to
        # 1 + the mean inverse distance of the point's neighbours
        points, normals = _random_oriented_cloud(rng, 40)
        radius = 2.5
        out = compute_fpfh(points, normals, radius)
        for i in range(len(points)):
            dist = np.linalg.norm(points - points[i], axis=1)
            near = dist[(dist > 0.0) & (dist <= radius)]
            assert len(near)
            for block in range(3):
                s = out[i, block * BINS_PER_FEATURE:(block + 1) * BINS_PER_FEATURE].sum()
                assert s == pytest.approx(1.0 + np.mean(1.0 / near), abs=1e-9)

    def test_duplicate_neighbor_is_skipped(self):
        # point 0's pair with its duplicate has no angles: its SPFH holds the
        # one pair with point 2 at full weight, not half of it
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        normals = np.tile(_UP, (3, 1))
        out = compute_fpfh(points, normals, radius=2.0)
        np.testing.assert_allclose(out[0], 2.0 * _one_hot(0.0, 0.0, 0.0), atol=1e-15)
        assert out[0].sum() == pytest.approx(6.0)  # own SPFH plus point 2's, three blocks

    def test_missing_normal_raises(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            compute_fpfh(points, normals, radius=2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_fpfh(np.zeros((3, 3)), np.zeros((2, 3)), radius=1.0)


class TestFpfhDescriptor:
    """The inverse-distance weighting stage, read from rows of compute_fpfh."""

    def test_isolated_point_keeps_its_spfh(self, rng):
        points, normals = _random_oriented_cloud(rng, 20, scale=0.5)
        points = np.vstack([points, [50.0, 0.0, 0.0]])
        normals = np.vstack([normals, _UP])
        out = compute_fpfh(points, normals, radius=1.0)
        np.testing.assert_array_equal(out[-1], np.zeros(DESCRIPTOR_SIZE))
        assert (out[:-1].sum(axis=1) > 0.0).all()

    def test_two_points_at_distance_two(self):
        points = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        normals = np.array([_UP, [0.0, 0.6, 0.8]])
        out = compute_fpfh(points, normals, radius=3.0)
        # both points share one pair, so both SPFH are its one-hot bins
        spfh = _one_hot(*_angles_oracle(points[0], normals[0], points[1], normals[1]))
        np.testing.assert_allclose(out[0], spfh + 0.5 * spfh, atol=1e-15)
        np.testing.assert_allclose(out[1], out[0], atol=1e-15)

    def test_zero_distance_neighbor_dropped(self):
        # the duplicate of point 0 neither enters the weighted mean nor its
        # count: point 0 gets its SPFH plus half of point 2's
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        normals = np.tile(_UP, (3, 1))
        out = compute_fpfh(points, normals, radius=3.0)
        np.testing.assert_allclose(out[0], 1.5 * _one_hot(0.0, 0.0, 0.0), atol=1e-15)


class TestComputeFpfh:
    def test_empty_cloud(self):
        out = compute_fpfh(np.empty((0, 3)), np.empty((0, 3)), 1.0)
        assert out.shape == (0, DESCRIPTOR_SIZE)

    def test_matches_brute_force_oracle(self, rng):
        points, normals = _random_oriented_cloud(rng, 60)
        batch = compute_fpfh(points, normals, 1.8)
        np.testing.assert_allclose(batch, _fpfh_oracle(points, normals, 1.8), atol=1e-10)

    def test_entries_non_negative_and_finite(self, rng):
        points, normals = _random_oriented_cloud(rng, 100)
        out = compute_fpfh(points, normals, 2.0)
        assert np.isfinite(out).all()
        assert (out >= 0.0).all()

    def test_rigid_invariance(self, rng):
        points, normals = _random_oriented_cloud(rng, 60)
        base = compute_fpfh(points, normals, 1.5)
        for _ in range(8):
            rotation = rotation_exp(rng.uniform(-np.pi, np.pi, size=3))
            translation = rng.uniform(-30.0, 30.0, size=3)
            moved = points @ rotation.T + translation
            turned = normals @ rotation.T
            out = compute_fpfh(moved, turned, 1.5)
            np.testing.assert_allclose(out, base, atol=1e-6)

    def test_duplicate_points_do_not_crash(self, rng):
        points, normals = _random_oriented_cloud(rng, 30)
        points = np.vstack([points, points[:5]])
        normals = np.vstack([normals, normals[:5]])
        out = compute_fpfh(points, normals, 1.5)
        assert np.isfinite(out).all()


@st.composite
def _flip_cases(draw):
    """(points, normals, flips): random clouds, or lattices with axis-aligned
    normals, whose pairs tie in the swap rule or lie along a normal."""
    n = draw(st.integers(2, 40))
    shape = (n, 3)
    if draw(st.booleans()):
        points = draw(hnp.arrays(np.int64, shape, elements=st.integers(-2, 2))) * 0.5
        normals = np.eye(3)[draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))]
    else:
        points = draw(hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        normals = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        normals[np.linalg.norm(normals, axis=1) == 0.0] = _UP
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return points, normals, draw(hnp.arrays(np.bool_, n))


class TestNormalSign:
    @settings(max_examples=50, deadline=None, database=None)
    @given(_flip_cases())
    def test_flipping_normals_changes_no_angle_bit(self, case):
        # the dot products are folded before atan2; folding theta after it
        # would round pi - theta and could move a pair across a bin edge
        points, normals, flips = case
        flipped = np.where(flips[:, None], -normals, normals)
        pairs = (points[:-1], normals[:-1], points[1:], normals[1:])
        flipped_pairs = (points[:-1], flipped[:-1], points[1:], flipped[1:])
        for out, base in zip(_pair_angles_batch(*flipped_pairs), _pair_angles_batch(*pairs)):
            np.testing.assert_array_equal(out, base)

    @settings(max_examples=50, deadline=None, database=None)
    @given(_flip_cases())
    def test_flipping_normals_changes_no_bit(self, case):
        points, normals, flips = case
        flipped = np.where(flips[:, None], -normals, normals)
        np.testing.assert_array_equal(
            compute_fpfh(points, flipped, 1.8), compute_fpfh(points, normals, 1.8)
        )
