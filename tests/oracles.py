"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and written with plain Python
arithmetic so the results do not share code paths with the package. The
exceptions are the fusion-cycle and box-association oracles. They keep
the per-pair loops the package replaced, numpy calls included, so that
their results can be compared bit for bit. They call the package's
``gated_assignment`` (and the box oracle its ``project_points``), as the
replaced code did.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linear_sum_assignment

from coopercept.assignment import gated_assignment
from coopercept.camera import FOOT_COSINE_THRESHOLD, project_points
from coopercept.local_fusion import (DEFAULT_COST_GATE, DEFAULT_DISTANCE_WEIGHT,
                                     DEFAULT_OVERLAP_WEIGHT)


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


def brute_force_clusters_from_labels(points, labels):
    """One cluster per label >= 0, in label order, from a scan of the
    points per label; each cluster's points in stable azimuth order.
    Returns ``(points, azimuths, ranges)`` per cluster."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = []
    for cid in range(labels.max() + 1 if labels.size else 0):
        idx = np.flatnonzero(labels == cid)
        if len(idx) == 0:
            continue
        pts = points[idx]
        az = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(az, kind="stable")
        out.append((pts[order], az[order], np.linalg.norm(pts[order], axis=1)))
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


def brute_force_merge_views(per_camera, duplicate_gate=0.5):
    """Merge camera views of possibly different clusterings, by segment.

    Objects whose clusters share a segment are one physical object; the
    groups come in order of their lowest object. Each group keeps its best
    label (fused, then LiDAR-only, then the higher confidence, ties to the
    lower object) at the centroid of the union of its segments, taken in
    object order. A camera-only object within ``duplicate_gate`` of a kept
    object is dropped.

    Returns ``(class_label, source, confidence, position, points)`` per
    kept object; ``points`` is None for a camera-only object.
    """
    flat = [o for view in per_camera for o in view]
    clustered = [o for o in flat if o.cluster is not None]
    parent = list(range(len(clustered)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(clustered)), 2):
        if any(a is b for a in clustered[i].cluster.segments
               for b in clustered[j].cluster.segments):
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)  # a root is its group's lowest object
    groups = {}
    for i in range(len(clustered)):
        groups.setdefault(root(i), []).append(clustered[i])

    rank = {"fused": 0, "lidar_only": 1}
    kept = []
    for members in groups.values():
        best = min(members, key=lambda o: (rank.get(o.source, 2), -o.confidence))
        segments = []
        for obj in members:
            segments.extend(s for s in obj.cluster.segments
                            if not any(s is t for t in segments))
        points = np.vstack([s.points for s in segments])
        centroid = np.add.reduce(points, axis=0) / len(points)  # as Cluster computes it
        kept.append((best.class_label, best.source, best.confidence, centroid[:2], points))
    for obj in flat:
        if obj.cluster is None and not any(
                np.linalg.norm(obj.position - k[3]) < duplicate_gate for k in kept):
            kept.append((obj.class_label, obj.source, obj.confidence, obj.position, None))
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


def _cluster_pixel_box(cluster, camera):
    """Pixel bounds of the cluster's points in front of the camera, a zero
    width or height widened to 1 px; None when no point is in front."""
    pix, depth = project_points(camera, cluster.points)
    pix = pix[depth > 1e-6]
    if len(pix) == 0:
        return None
    x_min, y_min = pix.min(axis=0)
    x_max, y_max = pix.max(axis=0)
    if not (x_min < x_max and y_min < y_max):
        x_max, y_max = x_min + 1.0, y_min + 1.0
    return SimpleNamespace(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)


def brute_force_association_cost(boxes, clusters, camera):
    """Box-to-cluster cost filled one (box, cluster) pair at a time: one
    projection per cluster, scalar overlap, ``np.linalg.norm`` distance."""
    cluster_boxes = [_cluster_pixel_box(c, camera) for c in clusters]
    cost = np.full((len(boxes), len(clusters)), np.inf)
    for i, pb in enumerate(boxes):
        for j, cl in enumerate(clusters):
            dist = float(np.linalg.norm(pb.position - cl.centroid[:2]))
            ov = overlap_ratio(pb.box, cluster_boxes[j]) if cluster_boxes[j] else 0.0
            cost[i, j] = DEFAULT_OVERLAP_WEIGHT * (1.0 - ov) + DEFAULT_DISTANCE_WEIGHT * dist
    return cost


def brute_force_associate_boxes_clusters(boxes, clusters, camera):
    """Box-to-cluster labelling from :func:`brute_force_association_cost`.
    Returns ``(class_label, source, confidence, position, cluster)`` per
    labelled object, in the package's output order."""
    cost = brute_force_association_cost(boxes, clusters, camera)
    pairs, un_boxes, un_clusters = gated_assignment(cost, DEFAULT_COST_GATE)
    out = [(boxes[i].box.class_label, "fused", boxes[i].box.confidence,
            clusters[j].centroid[:2], clusters[j]) for i, j in pairs]
    out += [("unknown", "lidar_only", 1.0, clusters[j].centroid[:2], clusters[j])
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


def brute_force_fuse_cycle(messages, now, params, delay_aware, previous, next_gid):
    """One center fusion cycle computed on numpy arrays of one or two
    elements: a 5-vector per compensated object, numpy means for group
    positions, numpy sums, sines and cosines for the combination.

    ``messages`` holds the freshest list per node in node order,
    ``previous`` the tracks this function returned for the last cycle.
    Cross-node assignment goes through the package's ``gated_assignment``,
    as the package does. Returns ``(tracks, next_gid)``; each track is a
    SimpleNamespace with the fields of ``GlobalTrack``.
    """
    per_node = []
    for message in messages:
        delay = max(now - message.capture_timestamp, 0.0)
        stale = delay > params.max_compensation
        dt = min(delay, params.max_compensation) if delay_aware else 0.0
        objs = []
        for obj in message.objects:
            state = _numpy_ctrv_step(np.array([obj.x, obj.y, obj.yaw, obj.v_x, obj.omega_z]), dt)
            objs.append(SimpleNamespace(
                node_id=message.node_id, track_id=obj.track_id, class_label=obj.class_label,
                x=float(state[0]), y=float(state[1]), yaw=float(state[2]),
                v_x=float(state[3]), omega_z=float(state[4]),
                fusion_var=params.base_position_var + params.process_rate(obj.class_label) * dt,
                delay_ms=delay * 1e3, stale=stale))
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
        pairs, _, un_objs = gated_assignment(cost, math.inf)
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

    available = list(previous)
    for track in sorted(tracks, key=lambda t: t.contributors):
        best, best_d = None, params.continuity_gate
        for prev in available:
            if not _class_compatible(prev.class_label, track.class_label):
                continue
            d = math.hypot(prev.x - track.x, prev.y - track.y)
            if d < best_d:
                best, best_d = prev, d
        if best is not None:
            track.global_id = best.global_id
            available.remove(best)
        else:
            track.global_id = next_gid
            next_gid += 1
    return tracks, next_gid
