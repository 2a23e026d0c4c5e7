"""Scanning-pattern-aware hierarchical point-cloud clustering.

Mechanical rotating LiDARs sample far more densely in azimuth than in
elevation, so a single Euclidean radius cannot separate nearby objects
without also shattering surfaces across scan rings. The two-stage method
here first clusters each ring on its own with a range-adaptive radius,
then groups the resulting per-ring segments with a normalized distance
that combines centroid separation (in units of the local inter-ring
spacing) and azimuth-interval overlap. A plain point-level DBSCAN is kept
as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .scene import RingScan

NOISE = -1
# The point-level DBSCAN baseline's fixed radius and core size.
DBSCAN_BASELINE_EPS = 0.3  # m
DBSCAN_BASELINE_N_MIN = 4


@dataclass(frozen=True)
class ClusterParams:
    """Parameters shared by both clustering stages.

    ``n_min`` is the DBSCAN core size (neighbor count including the point
    itself); ``dphi``/``dtheta`` are the horizontal/vertical angular
    resolutions in radians. ``epsilon_custom`` gates the segment-level
    grouping; ``ring_gap`` and ``max_centroid_distance`` are the cheap
    rejection gates applied before the full segment metric.
    """

    n_min: int = 4
    dphi: float = math.radians(0.2)
    dtheta: float = math.radians(2.0)
    epsilon_custom: float = 1.5
    ring_gap: int = 3
    max_centroid_distance: float = 1.0

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError(f"n_min must be >= 2, got {self.n_min}")
        if self.epsilon_custom <= 0.0:
            raise ValueError("epsilon_custom must be > 0")
        if self.dphi <= 0.0 or self.dtheta <= 0.0:
            raise ValueError("angular resolutions must be > 0")


@dataclass
class Segment:
    """A per-ring cluster: points plus the features the segment metric uses."""

    ring_index: int
    points: np.ndarray  # (n, 3)
    azimuths: np.ndarray  # (n,), radians, increasing
    ranges: np.ndarray  # (n,), meters
    centroid: np.ndarray = field(init=False)
    azimuth_interval: tuple[float, float] = field(init=False)
    mean_range: float = field(init=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("segment must contain points")
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.azimuths = np.asarray(self.azimuths, dtype=float).reshape(-1)
        self.ranges = np.asarray(self.ranges, dtype=float).reshape(-1)
        # add.reduce over the count is what mean() computes, without its
        # wrapper's overhead; scans build dozens of segments
        self.centroid = np.add.reduce(self.points, axis=0) / len(self.points)
        self.azimuth_interval = (float(self.azimuths.min()), float(self.azimuths.max()))
        self.mean_range = float(np.add.reduce(self.ranges) / len(self.ranges))


@dataclass
class Cluster:
    """A group of segments treated as one physical object."""

    segments: list[Segment]
    points: np.ndarray = field(init=False)
    centroid: np.ndarray = field(init=False)

    def __post_init__(self):
        self.points = np.vstack([s.points for s in self.segments])
        self.centroid = np.add.reduce(self.points, axis=0) / len(self.points)  # mean()


def adaptive_epsilon(s, params: ClusterParams) -> np.ndarray:
    """Range-adaptive neighbor radius n_min * dphi * s, per range in ``s``."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError(f"range must be > 0, got {s.min()}")
    return params.n_min * params.dphi * s


def ring_segments(scan: RingScan, params: ClusterParams) -> list[Segment]:
    """First stage: DBSCAN within each ring with a range-adaptive radius.

    ``scan`` is laid out as :class:`~coopercept.scene.RingScan` states.
    Neighbors of a point at range s are the points of its own ring within
    ``adaptive_epsilon(s)`` (Euclidean, 3D). Points not density-reachable
    from any core point are dropped as noise. The scan is labelled as one
    point set whose candidate neighbors never leave their own ring, so the
    result equals clustering each ring alone. Segments come out by ring,
    then azimuth. Raises ``ValueError`` for points that are not ring-major
    or not sorted by strictly increasing azimuth within their ring.
    """
    if scan.n_points == 0:
        return []
    ring, azimuths, ranges, points = scan.ring, scan.azimuths, scan.ranges, scan.points
    ring_step = np.diff(ring)
    if (ring_step < 0).any() or (np.diff(azimuths)[ring_step == 0] <= 0.0).any():
        raise ValueError("ring points must be ring-major and sorted by strictly "
                         "increasing azimuth")
    bounds = np.concatenate(([0], np.flatnonzero(ring_step) + 1, [len(ring)]))

    radii = adaptive_epsilon(ranges, params)
    labels = _adaptive_dbscan_labels(azimuths, ranges, points, radii, params.n_min, bounds)
    return [Segment(ring_index=int(ring[g[0]]), points=points[g], azimuths=azimuths[g],
                    ranges=ranges[g])
            for g in _label_groups(labels)]


def _adaptive_dbscan_labels(azimuths: np.ndarray, ranges: np.ndarray,
                            points: np.ndarray, radii: np.ndarray,
                            n_min: int, bounds: np.ndarray) -> np.ndarray:
    """DBSCAN with a per-point radius: j neighbors i when d(i, j) <= r_i.

    A point is core when its (asymmetric) neighborhood, itself included,
    holds at least ``n_min`` points. Two cores share a cluster when either
    reaches the other; borders attach to their nearest reaching core.

    Points form rings ``bounds[k]:bounds[k + 1]``, each sorted by azimuth;
    only points of one ring are neighbors. Candidate neighbors come from
    an azimuth window around each point (3D distance between ring points
    grows at least like the chord at the ring's closest range, so the
    window provably covers the radius), then an exact distance test; the
    azimuth seam is a segment boundary.
    """
    n = len(points)
    starts, lengths = bounds[:-1], np.diff(bounds)

    # Window half-width around point i, sized so that every unordered pair
    # with d <= max(r_i, r_j) lies in the lower point's right-hand window:
    # the partner's radius is at most r_i / (1 - k) with k the ring's
    # radius/range slope, the partner's range is within that of s_i, and
    # d >= 2*min_range*cos(elev)*sin(daz/2) with cos(elev) >= 0.5 for any
    # |elevation| < 60 deg (covers indoor mounting).
    slope = np.minimum(np.maximum.reduceat(radii, starts)
                       / np.maximum(np.maximum.reduceat(ranges, starts), 1e-9), 0.5)
    r_sym = radii / (1.0 - np.repeat(slope, lengths))
    floor = np.maximum(ranges - r_sym, 1e-6)
    reach = azimuths + 2.0 * np.arcsin(np.minimum(1.0, r_sym / floor))
    hi = np.empty(n, dtype=np.intp)
    for a, b in zip(starts, bounds[1:]):  # the window ends with its ring
        hi[a:b] = a + np.searchsorted(azimuths[a:b], reach[a:b], side="right")
    width = hi - np.arange(n) - 1  # right-hand neighbors only

    # Ragged (i, i+1 .. hi_i) ranges flattened into (src, dst) pairs.
    src = np.repeat(np.arange(n), width)
    offsets = np.arange(len(src)) - np.repeat(np.cumsum(width) - width, width)
    dst = src + 1 + offsets

    # Cheap 1-D prefilter: partners' ranges differ by at most max(r_i, r_j).
    r_pair = np.maximum(radii[src], radii[dst])
    rough = np.abs(ranges[src] - ranges[dst]) <= r_pair
    src, dst, r_pair = src[rough], dst[rough], r_pair[rough]

    delta = points[src] - points[dst]
    d_sq = np.einsum("ij,ij->i", delta, delta)
    keep = d_sq <= r_pair ** 2
    src, dst, d_sq = src[keep], dst[keep], d_sq[keep]

    le_fwd = d_sq <= radii[src] ** 2  # dst is in src's neighborhood
    le_bwd = d_sq <= radii[dst] ** 2  # src is in dst's neighborhood
    return _dbscan_labels(n, src, dst, le_fwd, le_bwd, n_min, lambda k: d_sq[k])


def _dbscan_labels(n: int, src: np.ndarray, dst: np.ndarray, reach_fwd: np.ndarray,
                   reach_bwd: np.ndarray, n_min: int, border_key) -> np.ndarray:
    """DBSCAN labels of ``n`` points from their candidate neighbor pairs.

    Each unordered pair ``(src[k], dst[k])`` appears once and at least one
    of its points reaches the other: ``reach_fwd[k]`` says dst lies in
    src's neighborhood, ``reach_bwd[k]`` the reverse. A point is core when
    its neighborhood, itself included, holds at least ``n_min`` points.
    Cores in a common pair share a cluster. A border point joins the core
    reaching it whose pair has the smallest ``border_key(pair_indices)``,
    ties going to the lower core index.
    """
    labels = np.full(n, NOISE, dtype=int)
    counts = np.ones(n, dtype=int)  # each point sees itself
    counts += np.bincount(src[reach_fwd], minlength=n)
    counts += np.bincount(dst[reach_bwd], minlength=n)
    core = counts >= n_min
    if not core.any():
        return labels

    cc_mask = core[src] & core[dst]
    core_idx = np.flatnonzero(core)
    remap = np.full(n, -1, dtype=int)
    remap[core_idx] = np.arange(len(core_idx))
    labels[core_idx] = _components(len(core_idx), remap[src[cc_mask]], remap[dst[cc_mask]])

    fwd = np.flatnonzero(core[src] & ~core[dst] & reach_fwd)
    bwd = np.flatnonzero(core[dst] & ~core[src] & reach_bwd)
    anchor = np.concatenate([src[fwd], dst[bwd]])
    border = np.concatenate([dst[fwd], src[bwd]])
    if len(border):
        order = np.lexsort((anchor, border_key(np.concatenate([fwd, bwd]))))
        border, anchor = border[order], anchor[order]
        _, first = np.unique(border, return_index=True)  # nearest core per border
        labels[border[first]] = labels[anchor[first]]
    return labels


def segment_distances(segs: list[Segment], params: ClusterParams) -> np.ndarray:
    """Normalized distance between every pair of per-ring segments, as an
    (n, n) array.

    Cheap gates first: segments whose ring indices differ by more than
    ``ring_gap`` or whose centroids are farther apart than
    ``max_centroid_distance`` are incomparable (inf). Otherwise the
    distance is the centroid separation scaled by the local inter-ring
    spacing, plus one minus the azimuth-interval overlap fraction.

    Azimuth intervals never span the +/-pi seam at generation time, so
    intersecting each interval with the +/-2pi shifted copies of the other
    covers the wrapped cases.
    """
    n = len(segs)
    ring = np.array([s.ring_index for s in segs])
    centroid = np.array([s.centroid for s in segs])
    mean_range = np.array([s.mean_range for s in segs])
    start = np.array([s.azimuth_interval[0] for s in segs])
    end = np.array([s.azimuth_interval[1] for s in segs])
    width = np.maximum(end - start, params.dphi)

    dx = centroid[:, None, 0] - centroid[None, :, 0]
    dy = centroid[:, None, 1] - centroid[None, :, 1]
    dz = centroid[:, None, 2] - centroid[None, :, 2]
    d = np.sqrt(dx * dx + dy * dy + dz * dz)

    feasible = (np.abs(ring[:, None] - ring[None, :]) <= params.ring_gap)
    feasible &= d <= params.max_centroid_distance

    d_norm = d / (np.minimum(mean_range[:, None], mean_range[None, :]) * params.dtheta)
    overlap = np.full((n, n), -np.inf)
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        cand = (np.minimum(end[:, None], end[None, :] + shift)
                - np.maximum(start[:, None], start[None, :] + shift))
        overlap = np.maximum(overlap, cand)
    overlap = np.maximum(overlap, 0.0)
    phi_norm = 1.0 - overlap / np.minimum(width[:, None], width[None, :])
    return np.where(feasible, d_norm + phi_norm, np.inf)


def cluster_segments(segments: list[Segment], params: ClusterParams) -> list[Cluster]:
    """Second stage: single-linkage grouping of segments.

    Connected components under ``segment_distances < epsilon_custom``; the
    pairwise metric is evaluated on dense arrays (segment counts are small
    compared to point counts, which is where the speed of the two-stage
    scheme comes from). Segments are sorted canonically first so the
    output does not depend on input order.
    """
    if not segments:
        return []
    order = sorted(
        range(len(segments)),
        key=lambda i: (segments[i].ring_index, segments[i].azimuth_interval[0]),
    )
    segs = [segments[i] for i in order]
    linked = segment_distances(segs, params) < params.epsilon_custom
    groups = _label_groups(_components(len(segs), *np.nonzero(np.triu(linked, k=1))))
    return [Cluster(segments=[segs[k] for k in g]) for g in groups]


def cluster_scan(scan: RingScan, params: ClusterParams) -> list[Cluster]:
    """Full hierarchical pipeline over a :class:`~coopercept.scene.RingScan`."""
    return cluster_segments(ring_segments(scan, params), params)


def _label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Indices of each label >= 0, ascending; groups in order of their
    lowest index."""
    members = np.flatnonzero(labels >= 0)
    if len(members) == 0:
        return []
    members = members[np.argsort(labels[members], kind="stable")]
    groups = np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)
    groups.sort(key=lambda g: g[0])
    return groups


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label per node under the undirected edges (src, dst);
    labels number components in order of their lowest node."""
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    graph = sparse.csr_matrix((np.ones(len(src)), dst[order], indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def dbscan_baseline(points: np.ndarray, eps: float, n_min: int) -> np.ndarray:
    """Point-level DBSCAN with a fixed Euclidean radius.

    Returns per-point labels (NOISE = -1). Core points are those with at
    least ``n_min`` neighbors within ``eps`` (the point itself included);
    clusters are connected components of cores, and border points attach
    to their nearest core neighbor.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    src, dst = pairs[:, 0], pairs[:, 1]
    mutual = np.ones(len(pairs), dtype=bool)  # a fixed radius reaches both ways
    return _dbscan_labels(
        len(points), src, dst, mutual, mutual, n_min,
        lambda k: np.linalg.norm(points[dst[k]] - points[src[k]], axis=1))


def clusters_from_labels(points: np.ndarray, labels: np.ndarray) -> list[Cluster]:
    """Wrap labeled points as Clusters (one pseudo-segment per cluster).

    Clusters come in label order, noise (negative labels) is dropped, and
    each cluster's points are in stable azimuth order.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    labels = np.asarray(labels)
    members = np.flatnonzero(labels >= 0)
    if len(members) == 0:
        return []
    pts = points[members]
    az = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.lexsort((az, labels[members]))  # stable: ties keep point order
    pts, az = pts[order], az[order]
    ranges = np.linalg.norm(pts, axis=1)
    cuts = np.flatnonzero(np.diff(labels[members][order])) + 1
    return [Cluster(segments=[Segment(ring_index=0, points=p, azimuths=a, ranges=r)])
            for p, a, r in zip(np.split(pts, cuts), np.split(az, cuts),
                               np.split(ranges, cuts))]
