import math

import numpy as np
import pytest

from coopercept.clustering import (
    Cluster,
    ClusterParams,
    Segment,
    adaptive_epsilon,
    cluster_scan,
    cluster_segments,
    clusters_from_labels,
    dbscan_baseline,
    ring_segments,
    segment_distances,
)
from coopercept.scene import LidarModel, make_bed, make_person, scan_lidar

from oracles import (
    brute_force_clusters_from_labels,
    brute_force_dbscan,
    brute_force_ring_dbscan,
    labelings_equal,
    scalar_segment_distance,
)
from scans import scan_from_rings

PARAMS = ClusterParams()


def ring_on_arc(radius, phi_start, phi_stop, step, z=0.0):
    """Points along a circular arc around the origin (constant range)."""
    az = np.arange(phi_start, phi_stop, step)
    pts = np.stack([radius * np.cos(az), radius * np.sin(az), np.full(len(az), z)], axis=1)
    ranges = np.full(len(az), math.hypot(radius, z))
    return az, ranges, pts


def make_segment(ring, az, ranges, pts):
    return Segment(ring_index=ring, points=pts, azimuths=az, ranges=ranges)


def flanking_scene():
    """The two-persons-beside-a-bed geometry where no single point-level
    radius works: the inter-ring spacing on the bed's flank exceeds the
    person-to-bed gap.

    Returns ``(lidar, objects)``; scan with an empty static map.
    """
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=16,
                               elevation_min=math.radians(-15.0))
    bed = make_bed(1, 8.5, 0.0, yaw=math.pi / 2.0, height=1.0)  # broadside
    left = make_person(2, 8.2, 1.62, yaw=0.0, height=1.8)
    right = make_person(3, 8.2, -1.62, yaw=0.0, height=1.8)
    return lidar, [bed, left, right]


# -- adaptive epsilon --------------------------------------------------------

def test_adaptive_epsilon_product():
    params = ClusterParams(n_min=4, dphi=0.0035)
    assert adaptive_epsilon(10.0, params) == pytest.approx(0.14)


def test_adaptive_epsilon_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        adaptive_epsilon(0.0, PARAMS)
    with pytest.raises(ValueError):
        adaptive_epsilon(np.array([2.0, -1.0, 3.0]), PARAMS)
    # the first stage takes its radii from adaptive_epsilon
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    ranges[3] = 0.0
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)


def test_adaptive_epsilon_linear_in_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = ClusterParams(n_min=int(rng.integers(2, 10)),
                               dphi=rng.uniform(1e-4, 1e-2))
        s = rng.uniform(0.1, 20.0)
        assert adaptive_epsilon(2.0 * s, params) == pytest.approx(
            2.0 * adaptive_epsilon(s, params))


# -- per-ring clustering -----------------------------------------------------

def test_wall_arc_single_segment():
    # consecutive spacing 5*dphi is well inside eps(5) = n_min*dphi*5
    az, ranges, pts = ring_on_arc(5.0, -0.3, 0.3, PARAMS.dphi)
    segments = ring_segments(scan_from_rings([(2, az, ranges, pts)]), PARAMS)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.ring_index == 2
    assert len(seg.points) == len(pts)
    assert np.allclose(seg.centroid, pts.mean(axis=0), atol=1e-12)
    assert seg.azimuth_interval == (pytest.approx(az[0]), pytest.approx(az[-1]))


def test_azimuth_gap_splits_segments():
    # two arcs at 5 m separated by a gap whose chord exceeds eps(5)
    eps = adaptive_epsilon(5.0, PARAMS)
    gap = 2.2 * math.asin(eps / (2.0 * 5.0))  # chord slightly above eps
    az1, r1, p1 = ring_on_arc(5.0, 0.0, 0.2, PARAMS.dphi)
    az2, r2, p2 = ring_on_arc(5.0, 0.2 + gap, 0.4 + gap, PARAMS.dphi)
    az = np.concatenate([az1, az2])
    ranges = np.concatenate([r1, r2])
    pts = np.vstack([p1, p2])
    segments = ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)
    assert len(segments) == 2


def test_fewer_than_n_min_points_all_noise():
    az, ranges, pts = ring_on_arc(5.0, 0.0, PARAMS.dphi * (PARAMS.n_min - 1), PARAMS.dphi)
    assert len(az) == PARAMS.n_min - 1
    segments = ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)
    assert segments == []


def test_unsorted_azimuths_rejected():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(0, az[::-1], ranges, pts)]), PARAMS)
    # each ring sorted, but the rings out of order
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(1, az, ranges, pts), (0, az, ranges, pts)]), PARAMS)


# -- segment metric ----------------------------------------------------------

def pair_distances(a, b, params):
    """Both off-diagonal entries of the distance matrix of ``[a, b]``."""
    d = segment_distances([a, b], params)
    return d[0, 1], d[1, 0]


def test_identical_interval_coincident_centroids():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    a = make_segment(0, az, ranges, pts)
    b = make_segment(1, az, ranges, pts)
    assert pair_distances(a, b, PARAMS) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_disjoint_intervals_scalar_arithmetic():
    # centroids 0.1 m apart, min mean range 5, dtheta=0.0349:
    # d_norm = 0.1 / (5 * 0.0349), phi term = 1
    params = ClusterParams(dtheta=0.0349)
    az1, r1, p1 = ring_on_arc(5.0, 0.0, 0.05, params.dphi)
    az2 = az1 + 0.2  # disjoint interval
    p2 = p1 + np.array([0.0, 0.0, 0.1])  # centroid shifted 0.1 m in z
    a = make_segment(0, az1, r1, p1)
    b = make_segment(1, az2, r1, p2)
    expected = 0.1 / (5.0 * 0.0349) + 1.0
    got = pair_distances(a, b, params)
    assert got == pytest.approx((expected, expected), abs=1e-9)


def test_half_overlap_intervals():
    # intervals [10, 20] and [15, 25] degrees, coincident centroids ->
    # overlap 5 deg, min width 10 deg, distance 0.5
    d = math.radians
    pts = np.array([[5.0, 0.0, 0.0], [5.1, 0.0, 0.0]])
    a = Segment(ring_index=0, points=pts, azimuths=np.array([d(10.0), d(20.0)]),
                ranges=np.array([5.0, 5.1]))
    b = Segment(ring_index=1, points=pts, azimuths=np.array([d(15.0), d(25.0)]),
                ranges=np.array([5.0, 5.1]))
    assert pair_distances(a, b, PARAMS) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_ring_gap_returns_inf():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    a = make_segment(0, az, ranges, pts)
    b = make_segment(PARAMS.ring_gap + 1, az, ranges, pts)
    assert pair_distances(a, b, PARAMS) == (math.inf, math.inf)


def test_centroid_gate_returns_inf():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    a = make_segment(0, az, ranges, pts)
    b = make_segment(1, az, ranges, pts + np.array([0.0, 0.0, PARAMS.max_centroid_distance + 0.1]))
    assert pair_distances(a, b, PARAMS) == (math.inf, math.inf)


def test_segment_distance_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(200):
        segs = []
        for ring in rng.integers(0, 6, size=2):
            start = rng.uniform(-math.pi, math.pi - 0.3)
            az, ranges, pts = ring_on_arc(rng.uniform(2.0, 12.0), start,
                                          start + rng.uniform(0.02, 0.2), PARAMS.dphi)
            pts = pts + rng.normal(0.0, 0.1, size=3)
            segs.append(make_segment(int(ring), az, ranges, pts))
        forward = pair_distances(segs[0], segs[1], PARAMS)
        assert forward[0] == forward[1]
        assert pair_distances(segs[1], segs[0], PARAMS) == forward


def test_segment_distance_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        segs = []
        for _ in range(2):
            ring = int(rng.integers(0, 8))
            start = rng.uniform(-2.0, 2.0)
            width = rng.uniform(PARAMS.dphi, 0.3)
            az = np.sort(rng.uniform(start, start + width, size=rng.integers(2, 30)))
            az = np.unique(az)
            if len(az) < 2:
                continue
            radius = rng.uniform(1.0, 15.0)
            pts = np.stack([radius * np.cos(az), radius * np.sin(az),
                            rng.normal(0.0, 0.3, size=len(az))], axis=1)
            ranges = np.linalg.norm(pts, axis=1)
            segs.append(make_segment(ring, az, ranges, pts))
        if len(segs) < 2:
            continue
        a, b = segs
        expected = scalar_segment_distance(
            [float(v) for v in a.centroid], [float(v) for v in b.centroid],
            a.ring_index, b.ring_index, a.azimuth_interval, b.azimuth_interval,
            a.mean_range, b.mean_range, PARAMS.dtheta, PARAMS.dphi,
            PARAMS.ring_gap, PARAMS.max_centroid_distance)
        for got in pair_distances(a, b, PARAMS):
            if math.isinf(expected):
                assert got == math.inf
            else:
                assert got == pytest.approx(expected, abs=1e-12)


# -- one labelling per scan against per-ring brute force ---------------------

def oracle_segments(scan, params):
    """(ring, azimuth bytes) of every brute-force cluster of every ring."""
    out = []
    for ring_index in np.unique(scan.ring).tolist():
        on = scan.ring == ring_index
        az = scan.azimuths[on]
        labels = brute_force_ring_dbscan(az, scan.ranges[on], scan.points[on],
                                         params.n_min, params.dphi)
        out.extend((ring_index, az[labels == cid].tobytes())
                   for cid in range(labels.max() + 1))
    return sorted(out)


def scan_segments(clusters):
    return sorted((s.ring_index, s.azimuths.tobytes())
                  for c in clusters for s in c.segments)


def test_cluster_scan_segments_match_per_ring_brute_force():
    from coopercept.local_fusion import RoiGrid, filter_roi
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import bed_and_three, nine_pedestrians

    checked = 0
    for config in (nine_pedestrians(), bed_and_three()):
        grid = RoiGrid.from_polygon(config.room, config.roi_cell_size, config.roi_margin)
        frames = simulate_world(config)[::15][:2]
        for node in config.nodes:
            for t, world in frames:
                scan = filter_roi(scan_lidar(node.lidar, world, config.room, t),
                                  grid, config.z_band)
                for params in (config.cluster_params, ClusterParams(n_min=8)):
                    got = scan_segments(cluster_scan(scan, params))
                    assert got == oracle_segments(scan, params)
                    checked += len(got)
    assert checked > 100


def test_cluster_scan_seam_and_sparse_rings_match_brute_force():
    # a person straddling the +/-pi seam, split into two segments per ring
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=16,
                               elevation_min=math.radians(-15.0))
    scan = scan_lidar(lidar, [make_person(1, -4.0, 0.0), make_person(2, 3.0, 1.0)])
    rings = [(r, scan.azimuths[scan.ring == r], scan.ranges[scan.ring == r],
              scan.points[scan.ring == r]) for r in np.unique(scan.ring).tolist()]
    # rings with fewer than n_min points are all noise
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    for k in range(1, PARAMS.n_min):
        rings.append((16 + k, az[:k], ranges[:k], pts[:k]))
    rings.append((20, az[:0], ranges[:0], pts[:0]))
    scan = scan_from_rings(rings)

    got = scan_segments(cluster_scan(scan, PARAMS))
    assert got == oracle_segments(scan, PARAMS)
    starts = [np.frombuffer(a)[0] for _, a in got]
    ends = [np.frombuffer(a)[-1] for _, a in got]
    assert min(starts) < -math.pi + 0.1 and max(ends) > math.pi - 0.1
    assert all(ring < 16 for ring, _ in got)
    for ring_index, az_r, ranges_r, pts_r in rings:
        one = scan_from_rings([(ring_index, az_r, ranges_r, pts_r)])
        expected = oracle_segments(one, PARAMS)
        segments = ring_segments(one, PARAMS)
        assert sorted((s.ring_index, s.azimuths.tobytes()) for s in segments) == expected
        assert [s.azimuth_interval[0] for s in segments] == \
            sorted(s.azimuth_interval[0] for s in segments)


# -- segment grouping --------------------------------------------------------

def test_single_segment_single_cluster():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
    clusters = cluster_segments([make_segment(0, az, ranges, pts)], PARAMS)
    assert len(clusters) == 1
    assert len(clusters[0].points) == len(pts)


def test_mutually_inf_segments_stay_apart():
    segs = []
    for ring in range(3):
        az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, PARAMS.dphi)
        segs.append(make_segment(ring * (PARAMS.ring_gap + 2), az, ranges,
                                 pts + np.array([0.0, 0.0, 3.0 * ring])))
    clusters = cluster_segments(segs, PARAMS)
    assert len(clusters) == 3


def arc_segment(ring, start, dz=0.0):
    az, ranges, pts = ring_on_arc(5.0, start, start + 0.1, PARAMS.dphi)
    return make_segment(ring, az, ranges, pts + np.array([0.0, 0.0, dz]))


def test_cluster_segments_chains_groups_by_lowest_member():
    # groups by lowest member, members ascending, singletons kept, a chain
    # linked through a later member: canonical order (ring, start) is
    # 0..5 with links 0-5, 1-4 and 3-4 (3 and 1 are 0.4 m apart, unlinked)
    segs = [arc_segment(0, 0.0), arc_segment(0, 1.0), arc_segment(0, 2.0),
            arc_segment(1, 1.0, 0.4), arc_segment(2, 1.0, 0.2), arc_segment(3, 0.0, 0.1)]
    linked = segment_distances(segs, PARAMS) < PARAMS.epsilon_custom
    assert {(i, j) for i, j in zip(*np.nonzero(np.triu(linked, k=1)))} == \
        {(0, 5), (1, 4), (3, 4)}
    clusters = cluster_segments([segs[k] for k in (4, 2, 5, 0, 3, 1)], PARAMS)
    index = {id(s): k for k, s in enumerate(segs)}
    assert [[index[id(s)] for s in cl.segments] for cl in clusters] == \
        [[0, 5], [1, 3, 4], [2]]
    assert cluster_segments([], PARAMS) == []


def test_cluster_segments_group_and_member_order():
    seg = arc_segment

    # canonical order (ring, start): a=0, b=1, c=2, d=3, e=4; links a-c, b-e
    a, b, c, d, e = seg(0, 0.0), seg(0, 1.0), seg(1, 0.0, 0.1), seg(1, 2.0), seg(2, 1.0, 0.2)
    clusters = cluster_segments([e, d, c, b, a], PARAMS)
    assert [[id(s) for s in cl.segments] for cl in clusters] == \
        [[id(a), id(c)], [id(b), id(e)], [id(d)]]


def test_cluster_order_independent_of_input_order():
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects)
    segments = ring_segments(scan, PARAMS)
    forward = cluster_segments(segments, PARAMS)
    backward = cluster_segments(segments[::-1], PARAMS)
    key = lambda c: tuple(np.round(c.centroid, 9))
    assert sorted(map(key, forward)) == sorted(map(key, backward))


def test_flanking_scene_counts():
    # the geometry where no single point-level radius works: small radius
    # shatters rings apart, large radius swallows persons into the bed
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects)
    points = scan.points

    hier = cluster_scan(scan, PARAMS)
    assert len(hier) == 3

    labels_small = dbscan_baseline(points, eps=0.25, n_min=4)
    assert labels_small.max() + 1 >= 4

    labels_large = dbscan_baseline(points, eps=0.5, n_min=4)
    assert labels_large.max() + 1 <= 2


# -- point-level baseline ----------------------------------------------------

def test_two_points_far_apart_are_noise():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    labels = dbscan_baseline(pts, eps=0.5, n_min=2)
    assert list(labels) == [-1, -1]


def test_dense_grid_single_cluster():
    g = np.arange(10) * 0.1
    pts = np.array([[x, y, 0.0] for x in g for y in g])
    labels = dbscan_baseline(pts, eps=0.2, n_min=4)
    assert labels.min() == 0
    assert labels.max() == 0


def test_dbscan_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(20, 400))
        # clumps plus scatter to exercise core, border, and noise points
        centers = rng.uniform(-5.0, 5.0, size=(4, 3))
        pts = np.vstack([
            centers[rng.integers(0, 4)] + rng.normal(0.0, 0.3, size=3)
            for _ in range(n)
        ])
        eps = rng.uniform(0.2, 0.8)
        n_min = int(rng.integers(2, 8))
        got = dbscan_baseline(pts, eps, n_min)
        expected = brute_force_dbscan(pts, eps, n_min)
        assert labelings_equal(got, expected), f"trial {trial} diverged"


def test_partition_property():
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects)
    clusters = cluster_scan(scan, PARAMS)
    counts = sum(len(c.points) for c in clusters)
    # every clustered point appears exactly once across clusters
    all_pts = np.vstack([c.points for c in clusters])
    assert counts == len(all_pts)
    assert len(np.unique(np.round(all_pts, 9), axis=0)) == len(all_pts)
    assert counts <= scan.n_points


def test_methods_agree_on_isolated_object():
    # n_min large enough that the grazing-incidence silhouette points
    # stay core-reachable in the adaptive per-ring pass as well
    params = ClusterParams(n_min=8)
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=16,
                               elevation_min=math.radians(-15.0))
    scan = scan_lidar(lidar, [make_person(1, 4.0, 0.0)])
    hier = cluster_scan(scan, params)
    labels = dbscan_baseline(scan.points, eps=0.3, n_min=8)
    base = clusters_from_labels(scan.points, labels)
    assert len(hier) == 1
    assert len(base) == 1
    key = lambda pts: set(map(tuple, np.round(pts, 9)))
    assert key(hier[0].points) == key(base[0].points)


def assert_clusters_match_per_label_oracle(points, labels):
    got = clusters_from_labels(points, labels)
    want = brute_force_clusters_from_labels(points, labels)
    assert len(got) == len(want)
    for cluster, (pts, az, ranges) in zip(got, want):
        seg, = cluster.segments
        assert seg.ring_index == 0
        assert seg.points.tobytes() == pts.tobytes()
        assert seg.azimuths.tobytes() == az.tobytes()
        assert seg.ranges.tobytes() == ranges.tobytes()
        assert cluster.points.tobytes() == pts.tobytes()
    return got


def test_clusters_from_labels_matches_per_label_oracle_on_builtin_scans():
    from coopercept.local_fusion import RoiGrid, filter_roi
    from coopercept.pipeline import LOCAL_METHODS, simulate_world
    from coopercept.scenarios import BUILTIN_SCENARIOS

    clusters = 0
    for build in BUILTIN_SCENARIOS.values():
        config = build()
        grid = RoiGrid.from_polygon(config.room, config.roi_cell_size, config.roi_margin)
        for t, world in simulate_world(config)[::25]:
            for node in config.nodes:
                scan = filter_roi(scan_lidar(node.lidar, world, config.room, timestamp=t),
                                  grid, config.z_band)
                for spec in LOCAL_METHODS.values():
                    if spec[0] == "dbscan":
                        labels = dbscan_baseline(scan.points, eps=spec[1], n_min=spec[2])
                        clusters += len(assert_clusters_match_per_label_oracle(
                            scan.points, labels))
    assert clusters > 100


def test_clusters_from_labels_order_ties_gaps_and_noise():
    rng = np.random.default_rng(5)
    points = rng.normal(0.0, 2.0, size=(60, 3))
    points[10:20] = points[10]  # equal azimuths: stable order keeps point order
    points[30:35, :2] = points[30, :2] * rng.uniform(0.5, 2.0, size=(5, 1))
    labels = rng.choice([-1, 0, 2, 3, 7], size=60)
    got = assert_clusters_match_per_label_oracle(points, labels)
    assert len(got) == 4  # labels 1 and 4-6 are unused
    assert assert_clusters_match_per_label_oracle(points, np.full(60, -1)) == []
    assert assert_clusters_match_per_label_oracle(np.zeros((0, 3)),
                                                  np.zeros(0, dtype=int)) == []
    one, = assert_clusters_match_per_label_oracle(points[:1], np.array([4]))
    assert one.points.tobytes() == points[0].tobytes()


def test_cluster_invariants():
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects)
    for cluster in cluster_scan(scan, PARAMS):
        assert np.allclose(cluster.centroid, cluster.points.mean(axis=0), atol=1e-12)
        for seg in cluster.segments:
            assert np.allclose(seg.centroid, seg.points.mean(axis=0), atol=1e-12)
            assert seg.azimuth_interval[0] <= seg.azimuth_interval[1]
