"""Scanning-pattern-aware hierarchical point-cloud clustering.

Mechanical rotating LiDARs sample far more densely in azimuth than in
elevation, so a single Euclidean radius cannot separate nearby objects
without also shattering surfaces across scan rings. The two-stage method
here first clusters each ring on its own with a range-adaptive radius,
then groups the resulting per-ring segments with a normalized distance
that combines centroid separation (in units of the local inter-ring
spacing) and azimuth-interval overlap. A segment is the ascending scan
indices of its points. Both stages run as whole-scan array passes over
flat segments: one ``members`` array of scan indices grouped segment by
segment, and the ``bounds`` where each segment starts, with no loop per
ring or segment. A scan's clusters come out flat the same way, as one
:class:`Clusters` record of grouped points. A plain point-level DBSCAN is
kept as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .scene import RingScan

NOISE = -1
# The point-level DBSCAN baseline's fixed radius and its two core sizes.
DBSCAN_BASELINE_EPS = 0.3  # m
DBSCAN_BASELINE_N_MIN = 4
DBSCAN_BASELINE_DENSE_N_MIN = 8
# The segment grouping links segments closer than EPSILON_CUSTOM under
# segment_distances, after two cheap rejection gates: ring indices more
# than RING_GAP apart, or centroids farther apart than
# MAX_CENTROID_DISTANCE.
EPSILON_CUSTOM = 1.5
RING_GAP = 3
MAX_CENTROID_DISTANCE = 1.0  # m
# Azimuth shifts that bring an interval next to the other across the seam.
_SEAM_SHIFTS = np.array([-2.0 * math.pi, 0.0, 2.0 * math.pi])[:, None, None]


@dataclass(frozen=True)
class ClusterParams:
    """The DBSCAN core size of the per-ring stage.

    ``n_min`` counts neighbors including the point itself. The segment
    grouping's thresholds are the module constants ``EPSILON_CUSTOM``,
    ``RING_GAP`` and ``MAX_CENTROID_DISTANCE``; the angular resolutions
    are the sensor's, carried by each :class:`~coopercept.scene.RingScan`.
    """

    n_min: int = 4

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError(f"n_min must be >= 2, got {self.n_min}")


@dataclass(eq=False)
class Clusters:
    """A scan's clusters, each a group of points treated as one physical
    object: cluster k is ``points[bounds[k]:bounds[k + 1]]`` and its
    centroid is ``centroids[k]``, the mean of its points. ``len()`` is the
    number of clusters."""

    points: np.ndarray  # (n, 3), grouped cluster by cluster
    bounds: np.ndarray  # (k + 1,) int, where each cluster starts, then n
    centroids: np.ndarray = field(init=False)  # (k, 3)

    def __post_init__(self):
        # add.reduce per cluster, as mean() sums (reduceat's order differs)
        edges = self.bounds.tolist()
        sums = [np.add.reduce(self.points[a:b], axis=0) for a, b in zip(edges, edges[1:])]
        self.centroids = np.array(sums).reshape(-1, 3) / np.diff(self.bounds)[:, None]

    def __len__(self) -> int:
        return len(self.bounds) - 1


def adaptive_epsilon(s, n_min: int, dphi: float) -> np.ndarray:
    """Range-adaptive neighbor radius n_min * dphi * s, per range in ``s``."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError(f"range must be > 0, got {s.min()}")
    return n_min * dphi * s


def _flat_segments(scan: RingScan, params: ClusterParams) -> tuple[np.ndarray, np.ndarray]:
    """First stage: DBSCAN within each ring with a range-adaptive radius.

    ``scan`` is laid out as :class:`~coopercept.scene.RingScan` states.
    Neighbors of a point at range s are the points of its own ring within
    ``adaptive_epsilon(s, n_min, scan.dphi)`` (Euclidean, 3D). Points not
    density-reachable from any core point are dropped as noise. The scan
    is labelled as one point set whose candidate neighbors never leave
    their own ring, so the result equals clustering each ring alone.
    Returns the segments flat: segment k is the ascending scan indices
    ``members[bounds[k]:bounds[k + 1]]``, and segments come by ring, then
    azimuth. Raises ``ValueError`` for points that are not ring-major or
    not sorted by strictly increasing azimuth within their ring.
    """
    if scan.n_points == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
    keys = scan.ring + 1j * scan.azimuths  # complex values order as (real, imag) pairs
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError("ring points must be ring-major and sorted by strictly "
                         "increasing azimuth")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(scan.ring)) + 1))
    radii = adaptive_epsilon(scan.ranges, params.n_min, scan.dphi)
    labels = _adaptive_dbscan_labels(keys, scan.ranges, scan.points, radii, params.n_min,
                                     starts)
    # Members grouped by label, ascending within each (one stable sort),
    # then the groups reordered by their lowest member.
    members = np.flatnonzero(labels >= 0)
    by_label = members[np.argsort(labels[members], kind="stable")]
    sizes = np.bincount(labels[members])
    label_start = np.cumsum(sizes) - sizes
    order = np.argsort(by_label[label_start])
    bounds = np.concatenate(([0], np.cumsum(sizes[order])))
    shift = np.repeat(label_start[order] - bounds[:-1], sizes[order])
    return by_label[shift + np.arange(len(members))], bounds


def _adaptive_dbscan_labels(keys: np.ndarray, ranges: np.ndarray, points: np.ndarray,
                            radii: np.ndarray, n_min: int, starts: np.ndarray) -> np.ndarray:
    """DBSCAN with a per-point radius: j neighbors i when d(i, j) <= r_i.

    A point is core when its (asymmetric) neighborhood, itself included,
    holds at least ``n_min`` points. Two cores share a cluster when either
    reaches the other; borders attach to their nearest reaching core.

    ``keys`` holds each point's ring + 1j * azimuth; points are sorted by
    it, ring k starting at ``starts[k]``, and only points of one ring are
    neighbors. Candidate neighbors come from an azimuth window around
    each point (3D distance between ring points grows at least like the
    chord at the ring's closest range, so the window provably covers the
    radius), then an exact distance test; the azimuth seam is a segment
    boundary.
    """
    n = len(points)
    lengths = np.diff(np.append(starts, n))

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
    reach = keys.imag + 2.0 * np.arcsin(np.minimum(1.0, r_sym / floor))
    # one search over the (ring, azimuth) keys ends each window with its ring
    hi = np.searchsorted(keys, keys.real + 1j * reach, side="right")
    width = hi - np.arange(n) - 1  # right-hand neighbors only

    # Ragged (i, i+1 .. hi_i) ranges flattened into (src, dst) pairs.
    src = np.repeat(np.arange(n), width)
    offsets = np.arange(len(src)) - np.repeat(np.cumsum(width) - width, width)
    dst = src + 1 + offsets

    # Cheap 1-D prefilter: partners' ranges differ by at most max(r_i, r_j).
    r_pair = np.maximum(radii[src], radii[dst])
    rough = np.abs(ranges[src] - ranges[dst]) <= r_pair
    src, dst, r_pair = src[rough], dst[rough], r_pair[rough]

    delta = points.take(src, axis=0) - points.take(dst, axis=0)  # take gathers rows fastest
    d_sq = np.einsum("ij,ij->i", delta, delta)
    keep = d_sq <= r_pair ** 2
    src, dst, d_sq = src[keep], dst[keep], d_sq[keep]

    le_fwd = d_sq <= radii[src] ** 2  # dst is in src's neighborhood
    le_bwd = d_sq <= radii[dst] ** 2  # src is in dst's neighborhood
    return _dbscan_labels(n, src, dst, le_fwd, le_bwd, (n_min,), lambda k: d_sq[k])[0]


def _dbscan_labels(n: int, src: np.ndarray, dst: np.ndarray, reach_fwd: np.ndarray,
                   reach_bwd: np.ndarray, n_mins, border_key) -> list[np.ndarray]:
    """DBSCAN labels of ``n`` points from their candidate neighbor pairs,
    one label array per core size in ``n_mins``.

    Each unordered pair ``(src[k], dst[k])`` appears once and at least one
    of its points reaches the other: ``reach_fwd[k]`` says dst lies in
    src's neighborhood, ``reach_bwd[k]`` the reverse. A point is core when
    its neighborhood, itself included, holds at least ``n_min`` points.
    Cores in a common pair share a cluster. A border point joins the core
    reaching it whose pair has the smallest ``border_key(pair_indices)``,
    ties going to the lower core index.
    """
    counts = np.ones(n, dtype=int)  # each point sees itself
    counts += np.bincount(src[reach_fwd], minlength=n)
    counts += np.bincount(dst[reach_bwd], minlength=n)
    out = []
    for core in (counts >= n_min for n_min in n_mins):
        labels = np.full(n, NOISE, dtype=int)
        out.append(labels)
        core_src, core_dst = core[src], core[dst]
        cc_mask = core_src & core_dst
        core_idx = np.flatnonzero(core)
        remap = np.full(n, -1, dtype=int)
        remap[core_idx] = np.arange(len(core_idx))
        labels[core_idx] = _components(len(core_idx), remap[src[cc_mask]], remap[dst[cc_mask]])

        fwd = np.flatnonzero(core_src & ~core_dst & reach_fwd)
        bwd = np.flatnonzero(core_dst & ~core_src & reach_bwd)
        anchor = np.concatenate([src[fwd], dst[bwd]])
        border = np.concatenate([dst[fwd], src[bwd]])
        if len(border):
            order = np.lexsort((anchor, border_key(np.concatenate([fwd, bwd]))))
            border, anchor = border[order], anchor[order]
            _, first = np.unique(border, return_index=True)  # nearest core per border
            labels[border[first]] = labels[anchor[first]]
    return out


def segment_distances(ring: np.ndarray, centroid: np.ndarray, mean_range: np.ndarray,
                      start: np.ndarray, end: np.ndarray, dphi: float,
                      dtheta: float) -> np.ndarray:
    """Normalized distance between every pair of per-ring segments, as an
    (n, n) array; segment k lies on ring ``ring[k]`` with centroid
    ``centroid[k]``, mean range ``mean_range[k]`` and azimuths ``start[k]``
    to ``end[k]``, scanned at the angular resolutions ``dphi``/``dtheta``.

    Cheap gates first: segments whose ring indices differ by more than
    ``RING_GAP`` or whose centroids are farther apart than
    ``MAX_CENTROID_DISTANCE`` are incomparable (inf). Otherwise the
    distance is the centroid separation scaled by the local inter-ring
    spacing, plus one minus the azimuth-interval overlap fraction.

    Azimuth intervals never span the +/-pi seam at generation time, so
    intersecting each interval with the +/-2pi shifted copies of the other
    covers the wrapped cases.
    """
    width = np.maximum(end - start, dphi)

    dx = centroid[:, None, 0] - centroid[None, :, 0]
    dy = centroid[:, None, 1] - centroid[None, :, 1]
    dz = centroid[:, None, 2] - centroid[None, :, 2]
    d = np.sqrt(dx * dx + dy * dy + dz * dz)

    feasible = (np.abs(ring[:, None] - ring[None, :]) <= RING_GAP)
    feasible &= d <= MAX_CENTROID_DISTANCE

    d_norm = d / (np.minimum(mean_range[:, None], mean_range[None, :]) * dtheta)
    overlap = np.maximum(np.max(np.minimum(end[:, None], end + _SEAM_SHIFTS)
                                - np.maximum(start[:, None], start + _SEAM_SHIFTS), axis=0), 0.0)
    phi_norm = 1.0 - overlap / np.minimum(width[:, None], width[None, :])
    return np.where(feasible, d_norm + phi_norm, np.inf)


def _group_segments(scan: RingScan, members: np.ndarray, bounds: np.ndarray) -> Clusters:
    """Second stage: single-linkage grouping of the flat segments of
    ``scan``, laid out as :func:`_flat_segments` returns them.

    Clusters are the connected components under ``segment_distances <
    EPSILON_CUSTOM``, in order of their first segment, each holding its
    segments' points in segment order. The metric runs on dense
    segment-by-segment arrays, which is where the two-stage scheme gets
    its speed: segments are far fewer than points. Segment features are
    summed per segment with ``reduceat``, whose order may differ from a
    per-segment ``add.reduce`` in the last bit; each cluster's centroid
    comes from its own points.
    """
    if len(bounds) == 1:
        return Clusters(scan.points[:0], bounds)
    # azimuths increase within a ring, so a segment's first and last points
    # bound its interval
    starts, sizes = bounds[:-1], np.diff(bounds)
    first, last = members[starts], members[bounds[1:] - 1]
    centroid = np.add.reduceat(scan.points.take(members, axis=0), starts, axis=0) / sizes[:, None]
    mean_range = np.add.reduceat(scan.ranges[members], starts) / sizes
    linked = segment_distances(scan.ring[first], centroid, mean_range, scan.azimuths[first],
                               scan.azimuths[last], scan.dphi, scan.dtheta) < EPSILON_CUSTOM
    # components are numbered in order of their lowest segment; one stable
    # sort of the members by component keeps segment order within each
    component = np.repeat(_components(len(sizes), *np.nonzero(np.triu(linked, k=1))), sizes)
    points = scan.points.take(members[np.argsort(component, kind="stable")], axis=0)
    return Clusters(points, np.concatenate(([0], np.cumsum(np.bincount(component)))))


def cluster_scan(scan: RingScan, params: ClusterParams) -> Clusters:
    """Full hierarchical pipeline over a :class:`~coopercept.scene.RingScan`."""
    return _group_segments(scan, *_flat_segments(scan, params))


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label per node under the undirected edges (src, dst);
    labels number components in order of their lowest node.

    Hook-and-compress labelling (Shiloach & Vishkin 1982): every node
    points at a root, at first itself. Each round of :func:`_hook` hooks
    every edge's higher root to the lowest root it is linked to, then
    drops the edges whose ends now share a root, until no edge is left. A
    root only ever points lower, so each component ends at its lowest
    node, and ``np.unique`` numbers the components in that order.
    """
    root = np.arange(n)
    ends = (src, dst, src, dst)  # each edge's ends and their roots
    while len(ends[0]):
        ends = _hook(root, *ends)
    return np.unique(root, return_inverse=True)[1]


def _hook(root: np.ndarray, src: np.ndarray, dst: np.ndarray, a: np.ndarray,
          b: np.ndarray):
    """One round of :func:`_components` over the edges (src, dst), whose
    roots are (a, b); ``root`` is compressed on entry (every node points
    at a root) and again on exit. Returns the edges whose ends have
    different roots, with those roots."""
    np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
    while True:  # pointer jumping halves every path to a root
        up = root[root]
        if np.array_equal(up, root):
            break
        root[:] = up
    a, b = root[src], root[dst]
    live = a != b
    return src[live], dst[live], a[live], b[live]


def dbscan_baseline(points: np.ndarray, eps: float, n_mins) -> list[np.ndarray]:
    """Point-level DBSCAN with a fixed Euclidean radius.

    Returns per-point labels (NOISE = -1) for each core size in ``n_mins``.
    Core points are those with at least ``n_min`` neighbors within ``eps``
    (the point itself included); clusters are connected components of
    cores, and border points attach to their nearest core neighbor. The
    neighborhoods do not depend on the core size, so all share one search;
    each takes the distances of its own few border pairs, which is cheaper
    than caching them across core sizes.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    # The pair set does not depend on the tree's shape; on these scans an
    # unbalanced tree of uncompacted nodes answers the query fastest.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    src, dst = tree.query_pairs(eps, output_type="ndarray").T.copy()
    mutual = np.ones(len(src), dtype=bool)  # a fixed radius reaches both ways
    return _dbscan_labels(
        len(points), src, dst, mutual, mutual, n_mins,
        lambda k: np.linalg.norm(points.take(dst[k], axis=0) - points.take(src[k], axis=0),
                                 axis=1))


def clusters_from_labels(points: np.ndarray, labels: np.ndarray) -> Clusters:
    """Group labeled points as Clusters.

    Clusters come in label order, noise (negative labels) is dropped, and
    each cluster's points are in stable azimuth order.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    labels = np.asarray(labels)
    members = np.flatnonzero(labels >= 0)
    pts = points.take(members, axis=0)  # take gathers rows about 3x faster than indexing
    # stable: ties keep point order
    order = np.lexsort((np.arctan2(pts[:, 1], pts[:, 0]), labels[members]))
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(labels[members][order])) + 1,
                             [len(members)]))
    return Clusters(pts.take(order, axis=0), bounds if len(members) else bounds[:1])
