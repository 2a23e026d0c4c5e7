"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and written with plain Python
arithmetic so the results do not share code paths with the package. The
exceptions are the fusion-cycle, scoring, wire-decode, box-association,
ground-localization, segment-grouping, wall-distance, detector and
tracker oracles. They keep the per-pair (per-record, per-box, per-edge,
per-object) loops and per-segment (per-track) objects the package
replaced, numpy calls included, so that their results can be compared bit
for bit. They write each gate into their cost as inf, as the package
does, and call its ``gated_assignment`` (the box oracle its
``project_points``, the ground oracle its ``vanishing_point_z``, the
grouping oracle its ``segment_distances``, the detector its
``_jittered_box``, the tracker its ``ctrv_step`` and ``ctrv_jacobian``),
as the replaced code did. The cell-grid DBSCAN oracle is array code, so
that it can check whole runs; it shares no step with the package's
search and is itself checked against the brute force. Cluster oracles
take each cluster's points and compute its mean themselves.
"""

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linear_sum_assignment

from coopercept.assignment import gated_assignment
from coopercept.camera import (_EPS_DEPTH, BED, FOOT, FOOT_COSINE_THRESHOLD, PERSON, BBox2D,
                               CameraGeometryError, project_points, vanishing_point_z)
from coopercept.clustering import EPSILON_CUSTOM, segment_distances
from coopercept.global_fusion import BASE_POSITION_VAR, CONTINUITY_GATE, PROCESS_RATE
from coopercept.evaluation import FrameScore
from coopercept.local_fusion import (DEFAULT_COST_GATE, DEFAULT_DISTANCE_WEIGHT,
                                     DEFAULT_OVERLAP_WEIGHT, PositionedBox)
from coopercept.motion import ctrv_jacobian, ctrv_step, wrap_angle
from coopercept.scene import _jittered_box
from coopercept.tracking import (ASSOCIATION_GATE, INITIAL_VARIANCE, MEASUREMENT_SIGMA,
                                 PROCESS_NOISE_RATE, SPAWN_SUPPRESSION_RADIUS,
                                 YAW_INIT_DISPLACEMENT, StampedObjectList, TrackedObject,
                                 TrackerConfig)
from coopercept.transport import (_CLASS_NAMES, _HEADER, _LENGTH, _RECORD, MAGIC, VERSION,
                                  FrameError)


def brute_force_dbscan(points, eps, n_min):
    """O(n^2) DBSCAN with the same conventions as the package: core points
    count themselves, clusters are connected core components, border
    points attach to the nearest core within eps (ties: lowest index)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    neighbor = dist <= eps
    core = neighbor.sum(axis=1) >= n_min

    labels = [-1] * n
    cluster = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        stack = [seed]
        labels[seed] = cluster
        while stack:
            i = stack.pop()
            for j in range(n):
                if neighbor[i][j] and core[j] and labels[j] == -1:
                    labels[j] = cluster
                    stack.append(j)
        cluster += 1

    for i in range(n):
        if core[i]:
            continue
        best = None
        for j in range(n):
            if core[j] and neighbor[i][j]:
                if best is None or dist[i][j] < dist[i][best] or \
                        (dist[i][j] == dist[i][best] and j < best):
                    best = j
        if best is not None:
            labels[i] = labels[best]
    return np.array(labels)


def cell_grid_dbscan(points, eps, n_min):
    """DBSCAN with :func:`brute_force_dbscan`'s rules, its neighbours found
    through a grid of cubic cells instead of a distance matrix or a tree.

    Points are binned into cells a hair wider than ``eps``, so that
    rounding in ``points / size`` never puts two points within ``eps``
    more than one cell apart; every pair of points in the same or
    adjacent cells (27 per point) is a candidate, and the brute force's
    exact test ``np.linalg.norm(p_i - p_j) <= eps`` decides it. Core
    points count themselves; cores that are neighbours share a cluster,
    clusters numbered in order of their lowest core; a border point joins
    its nearest core neighbour, ties to the lowest index.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, -1)
    if n == 0:
        return labels
    cell = np.floor(points / (eps * (1.0 + 1e-9))).astype(np.int64)
    cell += 1 - cell.min(axis=0)  # every neighbour cell has coordinates >= 0
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    src, dst = [], []
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
        target = key + (dx * dims[1] + dy) * dims[2] + dz
        lo = np.searchsorted(sorted_key, target, side="left")
        count = np.searchsorted(sorted_key, target, side="right") - lo
        first = np.repeat(lo - (np.cumsum(count) - count), count)
        src.append(np.repeat(np.arange(n), count))
        dst.append(order[first + np.arange(count.sum())])
    src, dst = np.concatenate(src), np.concatenate(dst)  # each ordered pair once
    dist = np.linalg.norm(points[src] - points[dst], axis=1)
    near = dist <= eps
    src, dst, dist = src[near], dst[near], dist[near]

    core = np.bincount(src, minlength=n) >= n_min
    link = core[src] & core[dst]
    graph = sparse.coo_matrix((np.ones(link.sum()), (src[link], dst[link])), shape=(n, n))
    component = connected_components(graph, directed=False)[1]
    labels[core] = np.unique(component[core], return_inverse=True)[1]
    border = ~core[src] & core[dst]
    src, dst, dist = src[border], dst[border], dist[border]
    pick = np.lexsort((dst, dist, src))  # per border point: nearest, then lowest core
    src, dst = src[pick], dst[pick]
    first = np.unique(src, return_index=True)[1]
    labels[src[first]] = labels[dst[first]]
    return labels


def points_by_cluster(clusters):
    """The points of each cluster of a
    :class:`~coopercept.clustering.Clusters` record, as a list."""
    edges = clusters.bounds.tolist()
    return [clusters.points[a:b] for a, b in zip(edges, edges[1:])]


def brute_force_clusters_from_labels(points, labels):
    """One cluster per label >= 0, in label order, from a scan of the
    points per label; each cluster's points in stable azimuth order.
    Returns the points of each cluster."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = []
    for cid in range(labels.max() + 1 if labels.size else 0):
        idx = np.flatnonzero(labels == cid)
        if len(idx) == 0:
            continue
        pts = points[idx]
        az = np.arctan2(pts[:, 1], pts[:, 0])
        out.append(pts[np.argsort(az, kind="stable")])
    return out


def brute_force_cluster_segments(scan, segments):
    """Second-stage grouping as one object per segment.

    Each segment (scan indices) becomes a record of its own points with
    the features computed from them: ring, centroid and mean range as
    means, and the azimuth interval as the min and max. The records are
    sorted by (ring, azimuth start), any input order allowed, linked where
    ``segment_distances`` is below ``EPSILON_CUSTOM``, and joined by
    union-find into groups in order of their lowest record. Returns
    ``(points, centroid)`` per cluster, the points stacked record by
    record and the centroid their mean.
    """
    records = []
    for g in segments:
        pts, az, ranges = scan.points[g], scan.azimuths[g], scan.ranges[g]
        records.append(SimpleNamespace(
            ring=int(scan.ring[g[0]]), points=pts, centroid=np.mean(pts, axis=0),
            mean_range=float(np.add.reduce(ranges) / len(ranges)),
            start=float(az.min()), end=float(az.max())))
    records.sort(key=lambda r: (r.ring, r.start))
    if not records:
        return []
    d = segment_distances(*(np.array([getattr(r, name) for r in records])
                            for name in ("ring", "centroid", "mean_range", "start", "end")),
                          scan.dphi, scan.dtheta)
    parent = list(range(len(records)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(records)), 2):
        if d[i, j] < EPSILON_CUSTOM:
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)  # a root is its group's lowest record
    groups = {}
    for i in range(len(records)):
        groups.setdefault(root(i), []).append(records[i])
    out = []
    for members in groups.values():
        points = np.vstack([r.points for r in members])
        out.append((points, np.mean(points, axis=0)))
    return out


def labelings_equal(a, b):
    """True when two labelings are identical up to cluster renaming;
    noise (-1) must match exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if not np.array_equal(a == -1, b == -1):
        return False
    mapping = {}
    reverse = {}
    for x, y in zip(a, b):
        if x == -1:
            continue
        if mapping.setdefault(x, y) != y:
            return False
        if reverse.setdefault(y, x) != x:
            return False
    return True


def brute_force_assignment(cost):
    """Minimum-cost full assignment by enumeration.

    Assigns every row of the smaller dimension; returns (best_cost,
    pairs). Only sensible for tiny matrices.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    transposed = n_rows > n_cols
    if transposed:
        cost = cost.T
        n_rows, n_cols = n_cols, n_rows
    best = (math.inf, None)
    for perm in itertools.permutations(range(n_cols), n_rows):
        total = sum(cost[i, perm[i]] for i in range(n_rows))
        if total < best[0]:
            best = (total, [(i, perm[i]) for i in range(n_rows)])
    if transposed and best[1] is not None:
        best = (best[0], [(j, i) for i, j in best[1]])
    return best


def two_mask_gated_assignment(cost, gate):
    """Gated assignment by the rule the package used while callers passed
    their gate apart from the cost: a pair is feasible when its cost is
    finite and at most ``gate``, and the solver gets every other entry as
    1e12. Returns ``(pairs, unmatched_rows, unmatched_cols, solver_matrix)``."""
    cost = np.asarray(cost, dtype=float)
    feasible = np.isfinite(cost) & (cost <= gate)
    matrix = np.where(feasible, cost, 1e12)
    rows, cols = linear_sum_assignment(matrix)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if feasible[i, j]]
    matched_rows, matched_cols = {i for i, _ in pairs}, {j for _, j in pairs}
    return (pairs, [i for i in range(cost.shape[0]) if i not in matched_rows],
            [j for j in range(cost.shape[1]) if j not in matched_cols], matrix)


def brute_force_gated_matching(cost, gate):
    """Max-cardinality, min-cost matching among pairs with cost <= gate,
    by enumeration over all injective partial assignments."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    best = (0, 0.0)  # (count, cost); larger count wins, then smaller cost
    rows = range(n_rows)

    def recurse(row, used_cols, count, total):
        nonlocal best
        if row == n_rows:
            if count > best[0] or (count == best[0] and total < best[1]):
                best = (count, total)
            return
        recurse(row + 1, used_cols, count, total)  # leave this row unmatched
        for col in range(n_cols):
            if col in used_cols:
                continue
            c = cost[row, col]
            if math.isfinite(c) and c <= gate:
                recurse(row + 1, used_cols | {col}, count + 1, total + c)

    recurse(0, frozenset(), 0, 0.0)
    return best


def scalar_segment_distance(centroid_a, centroid_b, ring_a, ring_b,
                            interval_a, interval_b, mean_range_a, mean_range_b,
                            dtheta, dphi, ring_gap, max_centroid_distance):
    """Plain-arithmetic evaluation of the two-part segment metric."""
    if abs(ring_a - ring_b) > ring_gap:
        return math.inf
    dx = centroid_a[0] - centroid_b[0]
    dy = centroid_a[1] - centroid_b[1]
    dz = centroid_a[2] - centroid_b[2]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d > max_centroid_distance:
        return math.inf
    d_norm = d / (min(mean_range_a, mean_range_b) * dtheta)
    width_a = max(interval_a[1] - interval_a[0], dphi)
    width_b = max(interval_b[1] - interval_b[0], dphi)
    overlap = max(0.0, min(interval_a[1], interval_b[1]) - max(interval_a[0], interval_b[0]))
    phi_norm = 1.0 - overlap / min(width_a, width_b)
    return d_norm + phi_norm


def scalar_ctrv_iterate(x, y, yaw, v, omega, dt, steps=1):
    """Iterate the motion equations with plain floats; yaw wrapped to
    (-pi, pi] the same way the package contract states (in-range values
    untouched)."""
    for _ in range(steps):
        x = x + v * math.cos(yaw) * dt
        y = y + v * math.sin(yaw) * dt
        yaw = yaw + omega * dt
        if not -math.pi < yaw <= math.pi:
            yaw = -((math.pi - yaw) % (2.0 * math.pi) - math.pi)
    return x, y, yaw, v, omega


# -- LiDAR ray casting ---------------------------------------------------------

T_MIN = 0.05  # hits nearer than this to the sensor do not count


def _ieee_div(a, b):
    """a / b with IEEE results for a zero divisor instead of an exception."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _t_ellipse(o, d, obj):
    """Elliptical cylinder (side plus top cap) of a person."""
    ox, oy, oz = o
    dx, dy, dz = d
    a, b = obj.footprint[0] * 0.5, obj.footprint[1] * 0.5
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rx, ry = ox - obj.x, oy - obj.y
    u0 = (rx * c + ry * s) / a
    u1 = (-rx * s + ry * c) / b
    w0 = (dx * c + dy * s) / a
    w1 = (-dx * s + dy * c) / b
    big_a = w0 * w0 + w1 * w1
    big_b = u0 * w0 + u1 * w1
    big_c = u0 * u0 + u1 * u1 - 1.0
    disc = big_b * big_b - big_a * big_c
    t = math.inf
    if disc > 0.0 and big_a > 0.0:
        sq = math.sqrt(disc)
        cand = (-big_b - sq) / big_a
        if not cand > T_MIN:
            cand = (-big_b + sq) / big_a
        z = oz + cand * dz
        if math.isfinite(cand) and cand > T_MIN and 0.0 <= z <= obj.height:
            t = cand
    if abs(dz) > 1e-15:
        t_cap = (obj.height - oz) / dz
        px = ox + t_cap * dx - obj.x
        py = oy + t_cap * dy - obj.y
        q0 = (px * c + py * s) / a
        q1 = (-px * s + py * c) / b
        if t_cap > T_MIN and math.isfinite(t_cap) and q0 * q0 + q1 * q1 <= 1.0:
            t = min(t, t_cap)
    return t


def _t_box(o, d, obj):
    """Slab test against a yawed box extruded from the floor (a bed)."""
    ox, oy, oz = o
    dx, dy, dz = d
    hx, hy = obj.footprint[0] * 0.5, obj.footprint[1] * 0.5
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rx, ry = ox - obj.x, oy - obj.y
    u = (rx * c + ry * s, -rx * s + ry * c, oz)
    w = (dx * c + dy * s, -dx * s + dy * c, dz)
    lo, hi = (-hx, -hy, 0.0), (hx, hy, obj.height)
    enters, exits = [], []
    for k in range(3):
        t1 = _ieee_div(lo[k] - u[k], w[k])
        t2 = _ieee_div(hi[k] - u[k], w[k])
        if math.isnan(t1) or math.isnan(t2):
            continue  # an undefined slab constrains nothing
        enters.append(min(t1, t2))
        exits.append(max(t1, t2))
    if not enters:
        return math.inf
    t_enter, t_exit = max(enters), min(exits)
    if t_enter <= t_exit and t_exit > T_MIN and t_enter > T_MIN:
        return t_enter
    return math.inf


def _t_wall(o, d, a, b, wall_height):
    ox, oy, oz = o
    dx, dy, dz = d
    ex, ey = b[0] - a[0], b[1] - a[1]
    denom = dx * ey - dy * ex
    if not abs(denom) > 1e-15:
        return math.inf
    t = ((a[0] - ox) * ey - (a[1] - oy) * ex) / denom
    u = ((a[0] - ox) * dy - (a[1] - oy) * dx) / denom
    z = oz + t * dz
    if t > T_MIN and 0.0 <= u <= 1.0 and 0.0 <= z <= wall_height:
        return t
    return math.inf


def _inside(polygon, x, y):
    """Even-odd point-in-polygon."""
    inside = False
    j = len(polygon) - 1
    for i in range(len(polygon)):
        xi, yi = polygon[i]
        xj, yj = polygon[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def _t_floor(o, d, polygon):
    ox, oy, oz = o
    dx, dy, dz = d
    if not dz < -1e-15:
        return math.inf
    t = -oz / dz
    if t > T_MIN and _inside(polygon, ox + t * dx, oy + t * dy):
        return t
    return math.inf


def brute_force_scan(model, world, room=None):
    """Nearest hit of every ray against every wall, the floor and every
    object, ray by ray: no candidate windows and nothing cached.

    The ray geometry is the sensor's definition (azimuth -pi + k * dphi,
    directions from numpy's cos/sin of the azimuth and elevation arrays);
    the surfaces repeat the package's arithmetic operation for operation,
    so hits compare bitwise. Returns the flat ring-major ``(ring,
    azimuths, ranges, points)`` arrays of the hits, each ring in azimuth
    order.
    """
    dphi = model.horizontal_resolution
    n_az = int(round(2.0 * math.pi / dphi))
    az = -math.pi + np.arange(n_az) * dphi
    cos_az, sin_az = np.cos(az).tolist(), np.sin(az).tolist()
    elev = np.asarray(model.ring_elevations)
    cos_e, sin_e = np.cos(elev).tolist(), np.sin(elev).tolist()
    o = model.position
    walls = []
    if room is not None:
        poly = room.polygon
        walls = [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]

    hits = []
    for r in range(model.n_rings):
        for k in range(n_az):
            d = (cos_e[r] * cos_az[k], cos_e[r] * sin_az[k], sin_e[r])
            t = math.inf
            for obj in world:
                hit = _t_ellipse if obj.class_label == "person" else _t_box
                t = min(t, hit(o, d, obj))
            for a, b in walls:
                t = min(t, _t_wall(o, d, a, b, room.wall_height))
            if room is not None:
                t = min(t, _t_floor(o, d, room.polygon))
            if t <= model.max_range:
                hits.append((r, float(az[k]), t, (o[0] + t * d[0], o[1] + t * d[1],
                                                  o[2] + t * d[2])))
    return (np.array([h[0] for h in hits], dtype=int),
            np.array([h[1] for h in hits], dtype=float),
            np.array([h[2] for h in hits], dtype=float),
            np.array([h[3] for h in hits], dtype=float).reshape(-1, 3))


# -- simulated detector ----------------------------------------------------------

def _project_rows(camera, points):
    """Pixels and depths of (n, 3) points: one product of all the rows, then
    a division wherever the depth is not degenerate (NaN pixels elsewhere)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    u = np.hstack([pts, np.ones((len(pts), 1))]) @ camera.H.T
    depth = u[:, 2]
    ok = np.abs(depth) >= 1e-12
    pix = np.full((len(pts), 2), np.nan)
    pix[ok] = u[ok, :2] / depth[ok, None]
    return pix, depth


def _object_corners(obj):
    """The 8 corners of the object's upright bounding box, world frame."""
    hx, hy = obj.footprint[0] * 0.5, obj.footprint[1] * 0.5
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    corners = []
    for dx, dy in ((hx, hy), (hx, -hy), (-hx, hy), (-hx, -hy)):
        wx = obj.x + dx * c - dy * s
        wy = obj.y + dx * s + dy * c
        corners.append((wx, wy, 0.0))
        corners.append((wx, wy, obj.height))
    return np.array(corners)


def per_object_detect_camera(camera, world, profile, rng):
    """The simulated detector with one 8-row corner projection per object
    and one row per foot, drawing from ``rng`` in the package's order."""
    rng = np.random.default_rng(rng)
    width, height = camera.image_size
    sigma = profile.pixel_noise_sigma
    detections = []
    for obj in world:
        pix, depth = _project_rows(camera, _object_corners(obj))
        if depth.min() <= T_MIN:
            continue
        x_min, y_min = pix.min(axis=0)
        x_max, y_max = pix.max(axis=0)
        cx_box, cy_box = (x_min + x_max) * 0.5, (y_min + y_max) * 0.5
        if not (0.0 <= cx_box < width and 0.0 <= cy_box < height):
            continue
        if rng.random() < profile.miss_rate:
            continue
        detections.append(_jittered_box(x_min, y_min, x_max, y_max, obj.class_label, rng,
                                        sigma, confidence=float(rng.uniform(0.7, 1.0))))
        if obj.class_label == PERSON and rng.random() < profile.foot_detection_rate:
            ground = _project_rows(camera, [(obj.x, obj.y, 0.0)])[0][0]
            fw = max(2.0, 0.3 * (x_max - x_min))
            fh = max(2.0, 0.12 * (y_max - y_min))
            detections.append(_jittered_box(
                ground[0] - fw * 0.5, ground[1] - fh, ground[0] + fw * 0.5, ground[1],
                FOOT, rng, sigma, confidence=float(rng.uniform(0.6, 0.95))))
    for _ in range(rng.poisson(profile.false_positive_rate)):
        w = rng.uniform(20.0, 80.0)
        h = rng.uniform(40.0, 160.0)
        cx_box = rng.uniform(0.0, width)
        cy_box = rng.uniform(0.0, height)
        detections.append(BBox2D(
            x_min=cx_box - w * 0.5, y_min=cy_box - h * 0.5,
            x_max=cx_box + w * 0.5, y_max=cy_box + h * 0.5,
            class_label=PERSON, confidence=float(rng.uniform(0.3, 0.6))))
    return detections


# -- per-ring adaptive-radius DBSCAN -------------------------------------------

def brute_force_ring_dbscan(azimuths, ranges, points, n_min, dphi):
    """O(n^2) DBSCAN of one ring with the per-point radius n_min*dphi*s,
    from the dense distance matrix.

    j lies in i's neighborhood when d(i, j) <= r_i and the pair does not
    straddle the +/-pi azimuth seam (the seam is a segment boundary).
    Cores hold at least n_min neighbors, themselves included; two cores
    share a cluster when either reaches the other; a border point joins
    the nearest core reaching it, ties going to the lower index.
    """
    az = np.asarray(azimuths, dtype=float)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(p)
    radius = n_min * dphi * np.asarray(ranges, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    d_sq = (diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
            + diff[..., 2] * diff[..., 2])
    reach = (d_sq <= (radius * radius)[:, None]) & \
        (np.abs(az[:, None] - az[None, :]) <= math.pi)  # reach[i, j]: j near i
    core = reach.sum(axis=1) >= n_min

    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        labels[seed] = cluster
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(core & (labels == -1) & (reach[i] | reach[:, i])):
                labels[j] = cluster
                stack.append(j)
        cluster += 1

    for j in np.flatnonzero(~core):
        cores = np.flatnonzero(core & reach[:, j])
        if len(cores):
            labels[j] = labels[cores[np.argmin(d_sq[cores, j])]]  # first minimum
    return labels


# -- ROI filter, ring by ring and point by point -------------------------------

def per_edge_wall_distances(room, x, y):
    """Distance from (x, y) to each wall edge of ``room``, one edge at a
    time, as the simulator's nearest-wall search computed it."""
    p = np.array([x, y])
    out = []
    for a, b in room.edges:
        e = b - a
        tt = float(np.clip(np.dot(p - a, e) / np.dot(e, e), 0.0, 1.0))
        out.append(float(np.linalg.norm(p - (a + tt * e))))
    return out


def brute_force_filter_roi(scan, grid, z_band):
    """Indices of the scan's points whose floor cell is marked in
    ``grid.mask`` and whose z lies in ``[z_min, z_max]``; a cell outside
    the grid's extent drops the point."""
    rows, cols = grid.mask.shape
    z_min, z_max = z_band
    kept = []
    for k, (x, y, z) in enumerate(scan.points.tolist()):
        col = math.floor((x - grid.origin[0]) / grid.cell_size)
        row = math.floor((y - grid.origin[1]) / grid.cell_size)
        if (0 <= row < rows and 0 <= col < cols and grid.mask[row, col]
                and z_min <= z <= z_max):
            kept.append(k)
    return kept


def brute_force_merge_views(per_camera, view_clusters, duplicate_gate=0.5):
    """Merge camera views of possibly different clusterings, by point.

    ``view_clusters[v]`` lists the points of each cluster that view v's
    cluster indices refer to. Objects whose clusters share a point row are
    one physical object; the groups come in order of their lowest object.
    Each group keeps its best label (fused, then LiDAR-only, then the
    higher confidence, ties to the lower object) at the mean of the union
    of its point rows, taken in object order. A camera-only object within
    ``duplicate_gate`` of a kept object is dropped.

    Returns ``(class_label, source, confidence, position, points)`` per
    kept object; ``points`` is None for a camera-only object.
    """
    flat = [o for view in per_camera for o in view]
    clustered = [(o, view_clusters[v][o.cluster]) for v, view in enumerate(per_camera)
                 for o in view if o.cluster is not None]
    rows = [[p.tobytes() for p in points] for _, points in clustered]
    row_sets = [set(r) for r in rows]
    parent = list(range(len(clustered)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(clustered)), 2):
        if not row_sets[i].isdisjoint(row_sets[j]):
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)  # a root is its group's lowest object
    groups = {}
    for i in range(len(clustered)):
        groups.setdefault(root(i), []).append(i)

    rank = {"fused": 0, "lidar_only": 1}
    kept = []
    for members in groups.values():
        best = min((clustered[i][0] for i in members),
                   key=lambda o: (rank.get(o.source, 2), -o.confidence))
        seen, union = set(), []
        for i in members:
            for row, point in zip(rows[i], clustered[i][1]):
                if row not in seen:
                    seen.add(row)
                    union.append(point)
        points = np.array(union)
        kept.append((best.class_label, best.source, best.confidence,
                     np.mean(points, axis=0)[:2], points))
    for obj in flat:
        if obj.cluster is None and not any(
                np.linalg.norm(obj.position - k[3]) < duplicate_gate for k in kept):
            kept.append((obj.class_label, obj.source, obj.confidence, obj.position, None))
    return kept


def brute_force_dedup_observations(labeled, radius, bed_radius):
    """Duplicate suppression one (candidate, kept) pair at a time.

    Candidates go fused first, then lidar-only, then by falling confidence,
    ties to the lower index; each is dropped when it lies within ``radius``
    of an already kept one, or within ``bed_radius`` of a kept bed unless
    it is labeled a person.
    """
    rank = {"fused": 0, "lidar_only": 1}
    ordered = sorted(range(len(labeled)),
                     key=lambda i: (rank[labeled[i].source], -labeled[i].confidence, i))
    kept = []
    for i in ordered:
        obj = labeled[i]
        suppressed = False
        for k in kept:
            gate = radius
            if k.class_label == "bed" and obj.class_label != "person":
                gate = bed_radius
            if float(np.linalg.norm(obj.position - k.position)) < gate:
                suppressed = True
                break
        if not suppressed:
            kept.append(obj)
    return kept


# -- box overlap and box-to-cluster association ----------------------------------

def overlap_ratio(a, b):
    """Intersection area divided by the smaller of the two box areas, for
    two objects with ``x_min``, ``y_min``, ``x_max`` and ``y_max``."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return (iw * ih) / min(area_a, area_b)


def brute_force_foot_to_parent(feet, parents, v_z):
    """Foot-to-parent pairing scored one (foot, parent) pair at a time:
    scalar overlap plus the cosine from ``np.linalg.norm`` and ``a @ b``."""
    if not feet or not parents:
        return []
    v_z = np.asarray(v_z, dtype=float)
    overlap = np.zeros((len(feet), len(parents)))
    cosine = np.zeros_like(overlap)
    for i, foot in enumerate(feet):
        ray_f = foot.center - v_z
        nf = np.linalg.norm(ray_f)
        for j, parent in enumerate(parents):
            ray_p = parent.center - v_z
            npn = np.linalg.norm(ray_p)
            cosine[i, j] = 0.0 if nf == 0.0 or npn == 0.0 else float(ray_f @ ray_p / (nf * npn))
            overlap[i, j] = overlap_ratio(foot, parent)
    rows, cols = linear_sum_assignment(-(overlap + cosine))
    return [(int(i), int(j)) for i, j in zip(rows, cols)
            if not (overlap[i, j] == 0.0 and cosine[i, j] < FOOT_COSINE_THRESHOLD)]


# -- ground localization, one box at a time -------------------------------------

def scalar_recover_ground_position(camera, pixel, z_w):
    """The floor inversion of one pixel on the plane z = z_w, in the
    closed form and operation order the package used per box."""
    h = camera.H
    x_p, y_p = (float(v) for v in pixel)
    a11 = h[2, 0] * x_p - h[0, 0]
    a12 = h[2, 1] * x_p - h[0, 1]
    a21 = h[2, 0] * y_p - h[1, 0]
    a22 = h[2, 1] * y_p - h[1, 1]
    b1 = (h[0, 2] - h[2, 2] * x_p) * z_w + h[0, 3] - h[2, 3] * x_p
    b2 = (h[1, 2] - h[2, 2] * y_p) * z_w + h[1, 3] - h[2, 3] * y_p
    det = a11 * a22 - a12 * a21
    if abs(det) < _EPS_DEPTH:
        raise CameraGeometryError(f"degenerate view of plane z = {z_w}")
    return np.array([(b1 * a22 - b2 * a12) / det, (b2 * a11 - b1 * a21) / det])


def per_box_locate_boxes(detections, camera):
    """Ground positions of person and bed boxes, persons first, one box
    at a time: feet paired by :func:`brute_force_foot_to_parent`, a
    parent's foot pixels collected in a list (its matched foot, then each
    unmatched foot that overlaps it and no lower matched parent) and
    averaged with ``np.mean``, and one :func:`scalar_recover_ground_position`
    per box. Returns ``PositionedBox`` objects."""
    people = [d for d in detections if d.class_label == PERSON]
    feet = [d for d in detections if d.class_label == FOOT]
    beds = [d for d in detections if d.class_label == BED]
    ground_pixel = {i: p.bottom_center for i, p in enumerate(people)}
    if feet and people:
        pairs = brute_force_foot_to_parent(feet, people, vanishing_point_z(camera))
        matched_feet = {f for f, _ in pairs}
        foot_pixels = {}
        for foot_i, person_j in pairs:
            foot_pixels.setdefault(person_j, []).append(feet[foot_i].bottom_center)
        for foot_i, foot in enumerate(feet):
            if foot_i in matched_feet:
                continue
            for person_j in range(len(people)):
                if person_j in foot_pixels and overlap_ratio(foot, people[person_j]) > 0.0:
                    foot_pixels[person_j].append(foot.bottom_center)
                    break
        for person_j, pixels in foot_pixels.items():
            ground_pixel[person_j] = np.mean(pixels, axis=0)
    return ([PositionedBox(p, scalar_recover_ground_position(camera, ground_pixel[i], 0.0))
             for i, p in enumerate(people)]
            + [PositionedBox(b, scalar_recover_ground_position(camera, b.bottom_center, 0.0))
               for b in beds])


def _cluster_pixel_box(points, camera):
    """Pixel bounds of a cluster's points in front of the camera, a zero
    width or height widened to 1 px; None when no point is in front."""
    pix, depth = project_points(camera, points)
    pix = pix[depth > 1e-6]
    if len(pix) == 0:
        return None
    x_min, y_min = pix.min(axis=0)
    x_max, y_max = pix.max(axis=0)
    if not (x_min < x_max and y_min < y_max):
        x_max, y_max = x_min + 1.0, y_min + 1.0
    return SimpleNamespace(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)


def brute_force_association_cost(boxes, clusters, camera):
    """Box-to-cluster cost filled one (box, cluster) pair at a time, each
    cluster given as its points: one projection per cluster, scalar
    overlap, ``np.linalg.norm`` distance to the mean of the points, and
    inf for a pair that costs more than ``DEFAULT_COST_GATE``."""
    cluster_boxes = [_cluster_pixel_box(points, camera) for points in clusters]
    centroids = [np.mean(points, axis=0) for points in clusters]
    cost = np.full((len(boxes), len(clusters)), np.inf)
    for i, pb in enumerate(boxes):
        for j, centroid in enumerate(centroids):
            dist = float(np.linalg.norm(pb.position - centroid[:2]))
            ov = overlap_ratio(pb.box, cluster_boxes[j]) if cluster_boxes[j] else 0.0
            c = DEFAULT_OVERLAP_WEIGHT * (1.0 - ov) + DEFAULT_DISTANCE_WEIGHT * dist
            if c <= DEFAULT_COST_GATE:
                cost[i, j] = c
    return cost


def brute_force_associate_boxes_clusters(boxes, clusters, camera):
    """Box-to-cluster labelling from :func:`brute_force_association_cost`,
    each cluster given as its points. Returns ``(class_label, source,
    confidence, position, cluster index)`` per labelled object, in the
    package's output order."""
    cost = brute_force_association_cost(boxes, clusters, camera)
    pairs, un_boxes, un_clusters = gated_assignment(cost)
    out = [(boxes[i].box.class_label, "fused", boxes[i].box.confidence,
            np.mean(clusters[j], axis=0)[:2], j) for i, j in pairs]
    out += [("unknown", "lidar_only", 1.0, np.mean(clusters[j], axis=0)[:2], j)
            for j in un_clusters]
    out += [(boxes[i].box.class_label, "camera_only", boxes[i].box.confidence,
             boxes[i].position, None) for i in un_boxes]
    return out


# -- center fusion cycle -----------------------------------------------------------

def _numpy_wrap_angle(angle):
    """The array form of the package's wrap_angle, applied to every input."""
    a = np.asarray(angle, dtype=float)
    wrapped = -((math.pi - a) % (2.0 * math.pi) - math.pi)
    out = np.where((a > -math.pi) & (a <= math.pi), a, wrapped)
    return out if out.ndim else float(out)


def _numpy_ctrv_step(state, dt):
    x, y, yaw, v, omega = (float(s) for s in state)
    return np.array([x + v * math.cos(yaw) * dt, y + v * math.sin(yaw) * dt,
                     _numpy_wrap_angle(yaw + omega * dt), v, omega])


def _class_compatible(a, b):
    return a == "unknown" or b == "unknown" or a == b


def brute_force_fuse_cycle(messages, now, params, delay_aware, previous, previous_now,
                           next_gid):
    """One center fusion cycle computed on numpy arrays of one or two
    elements: a 5-vector per compensated object, numpy means for group
    positions, numpy sums, sines and cosines for the combination.

    ``messages`` holds the freshest list per node in node order; one older
    than ``params.max_compensation`` contributes nothing. The baseline
    weighs a group's members uniformly, ``1/len``. ``previous`` holds the
    tracks this function returned for the last cycle, at time
    ``previous_now``. Cross-node assignment and the global-id
    carry-over from the previous tracks, each predicted by a numpy CTRV
    step over ``now - previous_now``, go through the package's
    ``gated_assignment``, as the package does. Returns
    ``(tracks, next_gid)``; each track is a SimpleNamespace with the
    fields of ``GlobalTrack``.
    """
    per_node = []
    for message in messages:
        delay = max(now - message.capture_timestamp, 0.0)
        objs = []
        if delay > params.max_compensation:  # too old: the node sits this cycle out
            per_node.append(objs)
            continue
        dt = delay if delay_aware else 0.0
        for obj in message.objects:
            state = _numpy_ctrv_step(np.array([obj.x, obj.y, obj.yaw, obj.v_x, obj.omega_z]), dt)
            objs.append(SimpleNamespace(
                node_id=message.node_id, track_id=obj.track_id, class_label=obj.class_label,
                x=float(state[0]), y=float(state[1]), yaw=float(state[2]),
                v_x=float(state[3]), omega_z=float(state[4]),
                fusion_var=BASE_POSITION_VAR
                + PROCESS_RATE.get(obj.class_label, PROCESS_RATE["unknown"]) * dt,
                delay_ms=delay * 1e3))
        per_node.append(objs)

    groups = []
    for objs in per_node:
        if not groups:
            groups = [[o] for o in objs]
            continue
        cost = np.full((len(groups), len(objs)), np.inf)
        for i, group in enumerate(groups):
            gx = np.mean([m.x for m in group])
            gy = np.mean([m.y for m in group])
            for j, obj in enumerate(objs):
                if not all(_class_compatible(m.class_label, obj.class_label) for m in group):
                    continue
                gate = max(params.gate_for(obj.class_label),
                           *(params.gate_for(m.class_label) for m in group))
                d = math.hypot(gx - obj.x, gy - obj.y)
                if d <= gate:
                    cost[i, j] = d
        pairs, _, un_objs = gated_assignment(cost)
        for i, j in pairs:
            groups[i].append(objs[j])
        for j in un_objs:
            groups.append([objs[j]])

    tracks = []
    for group in groups:
        if not delay_aware:
            w = np.full(len(group), 1.0 / len(group))
        else:
            inv_var = np.array([1.0 / max(m.fusion_var, 1e-9) for m in group])
            w = inv_var / inv_var.sum()
        yaw = float(math.atan2(np.sum(w * np.sin([m.yaw for m in group])),
                               np.sum(w * np.cos([m.yaw for m in group]))))
        labels = [m.class_label for m in group if m.class_label != "unknown"]
        tracks.append(SimpleNamespace(
            global_id=-1,
            class_label=labels[0] if labels else "unknown",
            x=float(np.sum(w * np.array([m.x for m in group]))),
            y=float(np.sum(w * np.array([m.y for m in group]))),
            yaw=float(_numpy_wrap_angle(yaw)),
            v_x=float(np.sum(w * np.array([m.v_x for m in group]))),
            omega_z=float(np.sum(w * np.array([m.omega_z for m in group]))),
            contributors=tuple(sorted((m.node_id, m.track_id) for m in group)),
            staleness_ms=max(m.delay_ms for m in group),
            weights=tuple(float(v) for v in w)))

    cost = np.full((len(previous), len(tracks)), np.inf)
    for i, prev in enumerate(previous):
        state = _numpy_ctrv_step(np.array([prev.x, prev.y, prev.yaw, prev.v_x, prev.omega_z]),
                                 now - previous_now)
        for j, track in enumerate(tracks):
            if _class_compatible(prev.class_label, track.class_label):
                d = math.hypot(float(state[0]) - track.x, float(state[1]) - track.y)
                if d <= CONTINUITY_GATE:
                    cost[i, j] = d
    pairs, _, unmatched = gated_assignment(cost)
    for i, j in pairs:
        tracks[j].global_id = previous[i].global_id
    for j in unmatched:
        tracks[j].global_id = next_gid
        next_gid += 1
    return tracks, next_gid


# -- scoring ---------------------------------------------------------------------------

def per_pair_match_frame(predictions, ground_truth, d_match, class_gates):
    """Frame scoring one (prediction, ground truth) pair at a time: an inf
    matrix filled entry by entry with the ``math.hypot`` distance where the
    classes agree (or the prediction is unknown) and the distance is within
    the ground truth's gate, the package's ``gated_assignment``, and the
    matched np.float64 costs summed by ``sum``.
    Returns ``(FrameScore, pairs)``."""
    cost = np.full((len(predictions), len(ground_truth)), np.inf)
    gates = [class_gates.get(g_cls, d_match) for g_cls, _, _ in ground_truth]
    for i, (p_cls, px, py) in enumerate(predictions):
        for j, (g_cls, gx, gy) in enumerate(ground_truth):
            d = math.hypot(px - gx, py - gy)
            if _class_compatible(p_cls, g_cls) and d <= gates[j]:
                cost[i, j] = d
    pairs, un_pred, un_gt = gated_assignment(cost)
    return FrameScore(len(pairs), len(un_pred), len(un_gt),
                      float(sum(cost[i, j] for i, j in pairs))), pairs


# -- wire decode --------------------------------------------------------------------

def record_by_record_decode(frame):
    """The wire decoder reading one record at a time with ``unpack_from``
    and building each object by keyword: the same list as
    ``transport.decode``, or the same ``FrameError``."""
    if len(frame) < _LENGTH.size:
        raise FrameError("frame shorter than length prefix")
    (length,) = _LENGTH.unpack_from(frame, 0)
    payload = frame[_LENGTH.size:]
    if len(payload) != length:
        raise FrameError(f"frame length {len(payload)} != declared {length}")
    if len(payload) < _HEADER.size:
        raise FrameError("payload shorter than header")
    magic, version, node_id, ts_us, count = _HEADER.unpack_from(payload, 0)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    expected = _HEADER.size + count * _RECORD.size
    if len(payload) != expected:
        raise FrameError(f"payload size {len(payload)} != expected {expected} "
                         f"for {count} objects")
    objects = []
    offset = _HEADER.size
    for _ in range(count):
        track_id, code, x, y, yaw, v, omega = _RECORD.unpack_from(payload, offset)
        offset += _RECORD.size
        name = _CLASS_NAMES.get(code)
        if name is None:
            raise FrameError(f"unknown class code {code}")
        if not all(map(math.isfinite, (x, y, yaw, v, omega))):
            raise FrameError(f"track {track_id}: non-finite state")
        objects.append(TrackedObject(track_id=track_id, class_label=name,
                                     x=x, y=y, yaw=yaw, v_x=v, omega_z=omega))
    return StampedObjectList(node_id=node_id, capture_timestamp=ts_us / 1e6,
                             objects=tuple(objects))


# -- node tracker -------------------------------------------------------------------

@dataclass(eq=False)
class _OracleTrack:
    track_id: int
    class_label: str
    mean: np.ndarray
    covariance: np.ndarray
    hits: int = 1
    misses: int = 0
    confirmed: bool = False
    birth_position: np.ndarray = None
    birth_timestamp: float = 0.0
    yaw_initialized: bool = False

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(5)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(5, 5)
        if self.birth_position is None:
            self.birth_position = self.mean[:2].copy()


def _oracle_ctrv_predict(state, dt):
    mean = ctrv_step(state.mean, dt)
    F = ctrv_jacobian(state.mean, dt)
    cov = F @ state.covariance @ F.T + PROCESS_NOISE_RATE * dt
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, covariance=cov,
                   birth_position=state.birth_position.copy())


class PerTrackTracker:
    """The node tracker one track at a time: every predict rebuilds the
    track through ``dataclasses.replace``, every (track, observation) and
    (confirmed track, birth) distance is its own ``np.linalg.norm``, and
    the update multiplies by the 2x5 measurement matrix ``H``. Same
    interface and output as ``coopercept.tracking.Tracker``."""

    _H = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0, 0.0]])

    def __init__(self, node_id, config=TrackerConfig()):
        self.node_id = node_id
        self.config = config
        self.tracks = []
        self._next_id = 1
        self._last_timestamp = None

    def _new_track(self, obs, timestamp):
        mean = np.array([obs.position[0], obs.position[1], 0.0, 0.0, 0.0])
        track = _OracleTrack(track_id=self._next_id, class_label=obs.class_label, mean=mean,
                             covariance=np.diag(INITIAL_VARIANCE), birth_timestamp=timestamp)
        self._next_id += 1
        return track

    def _update_track(self, track, obs, timestamp):
        z = np.asarray(obs.position, dtype=float)
        R = np.eye(2) * MEASUREMENT_SIGMA ** 2
        H = self._H
        innovation = z - H @ track.mean
        S = H @ track.covariance @ H.T + R
        K = track.covariance @ H.T @ np.linalg.inv(S)
        track.mean = track.mean + K @ innovation
        track.mean[2] = float(wrap_angle(track.mean[2]))
        IKH = np.eye(5) - K @ H
        track.covariance = IKH @ track.covariance @ IKH.T + K @ R @ K.T
        track.covariance = 0.5 * (track.covariance + track.covariance.T)

        if not track.yaw_initialized:
            disp = track.mean[:2] - track.birth_position
            dist = float(np.linalg.norm(disp))
            if dist > YAW_INIT_DISPLACEMENT:
                elapsed = max(timestamp - track.birth_timestamp, 1e-3)
                track.mean[2] = math.atan2(disp[1], disp[0])
                track.mean[3] = dist / elapsed
                track.covariance[[2, 3], :] = 0.0
                track.covariance[:, [2, 3]] = 0.0
                track.covariance[2, 2] = 0.25
                track.covariance[3, 3] = 0.25
                track.yaw_initialized = True

        track.hits += 1
        track.misses = 0
        if track.class_label == "unknown" and obs.class_label != "unknown":
            track.class_label = obs.class_label
        if track.hits >= self.config.n_confirm:
            track.confirmed = True

    def update(self, observations, timestamp):
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError("frames must arrive in time order")
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        self._last_timestamp = timestamp

        self.tracks = [_oracle_ctrv_predict(t, dt) for t in self.tracks]

        cost = np.full((len(self.tracks), len(observations)), np.inf)
        for i, track in enumerate(self.tracks):
            for j, obs in enumerate(observations):
                if not _class_compatible(track.class_label, obs.class_label):
                    continue
                d = float(np.linalg.norm(track.mean[:2] - obs.position))
                if d <= ASSOCIATION_GATE:
                    cost[i, j] = d
        pairs, un_tracks, un_obs = gated_assignment(cost)

        for i, j in pairs:
            self._update_track(self.tracks[i], observations[j], timestamp)
        for i in un_tracks:
            self.tracks[i].misses += 1
        confirmed_pos = [t.mean[:2].copy() for t in self.tracks if t.confirmed]
        for j in un_obs:
            near_confirmed = any(
                float(np.linalg.norm(p - observations[j].position))
                < SPAWN_SUPPRESSION_RADIUS
                for p in confirmed_pos)
            if not near_confirmed:
                self.tracks.append(self._new_track(observations[j], timestamp))

        self.tracks = [t for t in self.tracks if t.misses <= self.config.m_miss]

        objects = tuple(
            TrackedObject(track_id=t.track_id, class_label=t.class_label,
                          x=float(t.mean[0]), y=float(t.mean[1]), yaw=float(t.mean[2]),
                          v_x=float(t.mean[3]), omega_z=float(t.mean[4]))
            for t in self.tracks if t.confirmed)
        return StampedObjectList(node_id=self.node_id, capture_timestamp=timestamp,
                                 objects=objects)
