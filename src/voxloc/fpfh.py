"""Fast point feature histograms over unoriented points.

For a point pair, the local frame is ``u = n_source``, ``v = normalize(d x u)``,
``w = u x v`` with ``d`` running from source to target. The source role goes to
the point whose normal is less aligned with the pair direction: when
``|n_i . d_hat| > |n_j . d_hat|`` the roles of i and j are swapped first. The
three angles of Rusu et al. (ICRA 2009) are folded so that they do not depend
on the sign of either normal:

    alpha = |v . n_target|      in [0, 1]
    phi   = |u . d_hat|         in [0, 1]
    theta = atan2(|w . n_target|, |u . n_target|)   in [0, pi/2]

Flipping the source normal maps the signed angles (alpha, phi, theta) to
(-alpha, -phi, pi - theta), and flipping the target normal maps them to
(-alpha, phi, theta + pi); the folded ones stay put. The absolute values are
taken of the dot products, before atan2, so a flip changes no bit of a
descriptor. Normals therefore need no consistent orientation.

Each angle is histogrammed into 11 uniform bins over its range, giving 33 bins
total; the final descriptor re-weights neighbor histograms by inverse distance.

Both points of a pair bin its angles. By the swap rule, i -> j and j -> i
take the same source, target and direction, so each unordered pair is
evaluated once, except a tie (``|n_i . d_hat| == |n_j . d_hat|``): there each
order keeps its own source, and the angles agree only up to rounding.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .spatial import SpatialIndex

BINS_PER_FEATURE = 11
DESCRIPTOR_SIZE = 3 * BINS_PER_FEATURE
PARALLEL_TOL = 1e-9  # |d_hat x u| below this means the frame is undefined


def _pair_angles_batch(p: np.ndarray, n: np.ndarray, pts: np.ndarray, nrm: np.ndarray):
    """Pair angles of each row of (p, n) against the same row of (pts, nrm).

    Returns the folded (alpha, phi, theta, valid, tie); invalid rows are
    coincident points or pairs whose direction is parallel to the source
    normal, and tied rows have both normals equally aligned with it.
    """
    d = pts - p
    dist = np.sqrt((d * d).sum(axis=1))
    valid = dist > 0.0
    safe = np.where(valid, dist, 1.0)
    dhat = d / safe[:, None]

    align_i = np.abs((dhat * n).sum(axis=1))
    align_j = np.abs((dhat * nrm).sum(axis=1))
    swap = align_i > align_j
    tie = align_i == align_j

    u = np.where(swap[:, None], nrm, n)
    n_target = np.where(swap[:, None], n, nrm)
    direction = np.where(swap[:, None], -dhat, dhat)

    cross = np.cross(direction, u)
    cross_norm = np.sqrt((cross * cross).sum(axis=1))
    valid &= cross_norm >= PARALLEL_TOL
    v = cross / np.where(cross_norm > 0.0, cross_norm, 1.0)[:, None]
    w = np.cross(u, v)

    alpha = np.minimum(np.abs((v * n_target).sum(axis=1)), 1.0)
    phi = np.minimum(np.abs((u * direction).sum(axis=1)), 1.0)
    theta = np.arctan2(np.abs((w * n_target).sum(axis=1)), np.abs((u * n_target).sum(axis=1)))
    return alpha, phi, theta, valid, tie


def _ordered_pair_angles(points: np.ndarray, normals: np.ndarray, first: np.ndarray,
                         second: np.ndarray):
    """Folded (alpha, phi, theta, valid) of the rows first -> second, then
    second -> first: one evaluation per pair, two per tied pair."""
    forward = _pair_angles_batch(points[first], normals[first], points[second], normals[second])
    tied = np.flatnonzero(forward[4])
    i, j = first[tied], second[tied]
    reverse = _pair_angles_batch(points[j], normals[j], points[i], normals[i])
    both = tuple(np.concatenate([f, f]) for f in forward[:4])
    for out, back in zip(both, reverse):
        out[len(first) + tied] = back
    return both


def _bin_indices(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    idx = np.floor((values - lo) / (hi - lo) * BINS_PER_FEATURE).astype(np.int64)
    return np.clip(idx, 0, BINS_PER_FEATURE - 1)


def compute_fpfh(points: np.ndarray, normals: np.ndarray, radius: float) -> np.ndarray:
    """FPFH descriptors for a whole cloud with normals of any sign: (N, 33).

    A point's SPFH bins the angles of its valid pairs within radius and
    divides each 11-bin block by their count. Its descriptor adds the mean,
    over neighbours at non-zero distance, of their SPFH over that distance.
    All radius pairs are processed in one flat batch.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if points.ndim != 2 or points.shape[1:] != (3,) or normals.shape != points.shape:
        raise ValueError("points and normals must both be (N, 3)")
    if not (np.linalg.norm(normals, axis=1) > 0.0).all():
        raise ValueError("every point needs a non-zero normal")
    n = len(points)
    if n == 0:
        return np.empty((0, DESCRIPTOR_SIZE))
    index = SpatialIndex(points)
    pairs, pair_dist = index.pairs_within(radius)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    dist = np.concatenate([pair_dist, pair_dist])

    spfh_all = np.zeros((n, DESCRIPTOR_SIZE))
    if len(src):
        alpha, phi, theta, valid = _ordered_pair_angles(points, normals, pairs[:, 0], pairs[:, 1])
        rows = src[valid]
        kept = np.bincount(rows, minlength=n).astype(float)
        base = rows * DESCRIPTOR_SIZE
        flat = np.concatenate(
            [
                base + _bin_indices(alpha[valid], 0.0, 1.0),
                base + BINS_PER_FEATURE + _bin_indices(phi[valid], 0.0, 1.0),
                base + 2 * BINS_PER_FEATURE + _bin_indices(theta[valid], 0.0, np.pi / 2.0),
            ]
        )
        spfh_all = np.bincount(flat, minlength=n * DESCRIPTOR_SIZE).astype(float)
        spfh_all = spfh_all.reshape(n, DESCRIPTOR_SIZE)
        nonzero = kept > 0
        spfh_all[nonzero] /= kept[nonzero, None]

    descriptors = spfh_all.copy()
    keep = dist > 0.0
    if keep.any():
        s, nb, dd = src[keep], nbr[keep], dist[keep]
        weights = sparse.csr_matrix((1.0 / dd, (s, nb)), shape=(n, n))
        acc = weights @ spfh_all
        counts = np.bincount(s, minlength=n).astype(float)
        nonzero = counts > 0
        descriptors[nonzero] += acc[nonzero] / counts[nonzero, None]
    return descriptors
