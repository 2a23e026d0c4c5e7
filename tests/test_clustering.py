import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from coopercept import clustering
from coopercept.clustering import (
    Cluster,
    DBSCAN_BASELINE_DENSE_N_MIN,
    DBSCAN_BASELINE_EPS,
    DBSCAN_BASELINE_N_MIN,
    EPSILON_CUSTOM,
    MAX_CENTROID_DISTANCE,
    RING_GAP,
    ClusterParams,
    adaptive_epsilon,
    cluster_scan,
    cluster_segments,
    clusters_from_labels,
    dbscan_baseline,
    ring_segments,
    segment_distances,
)
from coopercept.local_fusion import filter_roi, room_roi
from coopercept.pipeline import simulate_world
from coopercept.scenarios import BUILTIN_SCENARIOS
from coopercept.scene import LidarModel, RangeImage, make_bed, make_person, scan_lidar

from oracles import (
    brute_force_cluster_segments,
    brute_force_clusters_from_labels,
    brute_force_dbscan,
    brute_force_ring_dbscan,
    labelings_equal,
    scalar_segment_distance,
)
from scans import builtin_roi_scans, make_benchmark_scan, scan_from_rings

PARAMS = ClusterParams()
# the resolutions of LidarModel.uniform, the built-in scenes' sensor
DPHI = math.radians(0.2)
DTHETA = math.radians(2.0)


def ring_on_arc(radius, phi_start, phi_stop, step, z=0.0):
    """Points along a circular arc around the origin (constant range)."""
    az = np.arange(phi_start, phi_stop, step)
    pts = np.stack([radius * np.cos(az), radius * np.sin(az), np.full(len(az), z)], axis=1)
    ranges = np.full(len(az), math.hypot(radius, z))
    return az, ranges, pts


def features(ring, az, ranges, pts):
    """``(ring, centroid, mean_range, start, end)`` of one segment."""
    return ring, pts.mean(axis=0), ranges.mean(), az[0], az[-1]


def arc_scan(arcs):
    """A scan of 0.1 rad arcs at 5 m, one per ``(ring, start, dz)``, given
    in (ring, start) order, with the index group of each arc."""
    rings, groups, n = [], [], 0
    for ring, start, dz in arcs:
        az, ranges, pts = ring_on_arc(5.0, start, start + 0.1, DPHI)
        rings.append((ring, az, ranges, pts + np.array([0.0, 0.0, dz])))
        groups.append(np.arange(n, n + len(az)))
        n += len(az)
    return scan_from_rings(rings), groups


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
    assert adaptive_epsilon(10.0, 4, 0.0035) == pytest.approx(0.14)


def test_adaptive_epsilon_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        adaptive_epsilon(0.0, PARAMS.n_min, DPHI)
    with pytest.raises(ValueError):
        adaptive_epsilon(np.array([2.0, -1.0, 3.0]), PARAMS.n_min, DPHI)
    # the first stage takes its radii from adaptive_epsilon
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    ranges[3] = 0.0
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)


def test_adaptive_epsilon_linear_in_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_min, dphi = int(rng.integers(2, 10)), rng.uniform(1e-4, 1e-2)
        s = rng.uniform(0.1, 20.0)
        assert adaptive_epsilon(2.0 * s, n_min, dphi) == pytest.approx(
            2.0 * adaptive_epsilon(s, n_min, dphi))


# -- per-ring clustering -----------------------------------------------------

def test_wall_arc_single_segment():
    # consecutive spacing 5*dphi is well inside eps(5) = n_min*dphi*5
    az, ranges, pts = ring_on_arc(5.0, -0.3, 0.3, DPHI)
    segments = ring_segments(scan_from_rings([(2, az, ranges, pts)]), PARAMS)
    assert len(segments) == 1
    assert np.array_equal(segments[0], np.arange(len(pts)))


def test_azimuth_gap_splits_segments():
    # two arcs at 5 m separated by a gap whose chord exceeds eps(5)
    eps = adaptive_epsilon(5.0, PARAMS.n_min, DPHI)
    gap = 2.2 * math.asin(eps / (2.0 * 5.0))  # chord slightly above eps
    az1, r1, p1 = ring_on_arc(5.0, 0.0, 0.2, DPHI)
    az2, r2, p2 = ring_on_arc(5.0, 0.2 + gap, 0.4 + gap, DPHI)
    az = np.concatenate([az1, az2])
    ranges = np.concatenate([r1, r2])
    pts = np.vstack([p1, p2])
    segments = ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)
    assert [len(g) for g in segments] == [len(az1), len(az2)]


def test_fewer_than_n_min_points_all_noise():
    az, ranges, pts = ring_on_arc(5.0, 0.0, DPHI * (PARAMS.n_min - 1), DPHI)
    assert len(az) == PARAMS.n_min - 1
    segments = ring_segments(scan_from_rings([(0, az, ranges, pts)]), PARAMS)
    assert segments == []


def test_unsorted_azimuths_rejected():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(0, az[::-1], ranges, pts)]), PARAMS)
    # each ring sorted, but the rings out of order
    with pytest.raises(ValueError):
        ring_segments(scan_from_rings([(1, az, ranges, pts), (0, az, ranges, pts)]), PARAMS)


# -- segment metric ----------------------------------------------------------

def pair_distances(a, b, dtheta=DTHETA):
    """Both off-diagonal entries of the distance matrix of the two
    segments' features."""
    d = segment_distances(*(np.array(f) for f in zip(a, b)), DPHI, dtheta)
    return d[0, 1], d[1, 0]


def test_identical_interval_coincident_centroids():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    a = features(0, az, ranges, pts)
    b = features(1, az, ranges, pts)
    assert pair_distances(a, b) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_disjoint_intervals_scalar_arithmetic():
    # centroids 0.1 m apart, min mean range 5, dtheta=0.0349:
    # d_norm = 0.1 / (5 * 0.0349), phi term = 1
    az1, r1, p1 = ring_on_arc(5.0, 0.0, 0.05, DPHI)
    az2 = az1 + 0.2  # disjoint interval
    p2 = p1 + np.array([0.0, 0.0, 0.1])  # centroid shifted 0.1 m in z
    a = features(0, az1, r1, p1)
    b = features(1, az2, r1, p2)
    expected = 0.1 / (5.0 * 0.0349) + 1.0
    got = pair_distances(a, b, dtheta=0.0349)
    assert got == pytest.approx((expected, expected), abs=1e-9)


def test_half_overlap_intervals():
    # intervals [10, 20] and [15, 25] degrees, coincident centroids ->
    # overlap 5 deg, min width 10 deg, distance 0.5
    d = math.radians
    centroid = np.array([5.05, 0.0, 0.0])
    a = (0, centroid, 5.05, d(10.0), d(20.0))
    b = (1, centroid, 5.05, d(15.0), d(25.0))
    assert pair_distances(a, b) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_ring_gap_returns_inf():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    a = features(0, az, ranges, pts)
    b = features(RING_GAP + 1, az, ranges, pts)
    assert pair_distances(a, b) == (math.inf, math.inf)


def test_centroid_gate_returns_inf():
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    a = features(0, az, ranges, pts)
    b = features(1, az, ranges,
                 pts + np.array([0.0, 0.0, MAX_CENTROID_DISTANCE + 0.1]))
    assert pair_distances(a, b) == (math.inf, math.inf)


def random_features(rng, n):
    """Features of ``n`` random segments: rings 0-7, centroids within a
    few meters of each other, intervals up to 0.3 rad wide that do not
    cross the +/-pi seam."""
    start = rng.uniform(-math.pi, math.pi - 0.3, size=n)
    return (rng.integers(0, 8, size=n), rng.uniform(-1.0, 1.0, size=(n, 3)) + [4.0, 0.0, 0.0],
            rng.uniform(1.0, 15.0, size=n), start,
            start + rng.uniform(0.0, 0.3, size=n))


def test_segment_distance_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = segment_distances(*random_features(rng, 12), DPHI, DTHETA)
        assert np.array_equal(d, d.T)


def test_segment_distance_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    finite = 0
    for _ in range(30):
        ring, centroid, mean_range, start, end = random_features(rng, 12)
        got = segment_distances(ring, centroid, mean_range, start, end, DPHI, DTHETA)
        for i in range(12):
            for j in range(12):
                expected = scalar_segment_distance(
                    [float(v) for v in centroid[i]], [float(v) for v in centroid[j]],
                    int(ring[i]), int(ring[j]), (start[i], end[i]), (start[j], end[j]),
                    mean_range[i], mean_range[j], DTHETA, DPHI,
                    RING_GAP, MAX_CENTROID_DISTANCE)
                if math.isinf(expected):
                    assert got[i, j] == math.inf
                else:
                    assert got[i, j] == pytest.approx(expected, abs=1e-12)
                    finite += 1
    assert finite > 500


# -- one labelling per scan against per-ring brute force ---------------------

def oracle_segments(scan, params, dphi=None):
    """(ring, azimuth bytes) of every brute-force cluster of every ring, at
    the scan's own azimuth resolution unless ``dphi`` is given."""
    out = []
    for ring_index in np.unique(scan.ring).tolist():
        on = scan.ring == ring_index
        az = scan.azimuths[on]
        labels = brute_force_ring_dbscan(az, scan.ranges[on], scan.points[on],
                                         params.n_min, dphi or scan.dphi)
        out.extend((ring_index, az[labels == cid].tobytes())
                   for cid in range(labels.max() + 1))
    return sorted(out)


def scan_segments(scan, params):
    """(ring, azimuth bytes) of every segment ``ring_segments`` finds."""
    return sorted((int(scan.ring[g[0]]), scan.azimuths[g].tobytes())
                  for g in ring_segments(scan, params))


def test_cluster_scan_segments_match_per_ring_brute_force():
    checked = 0
    # frames 0 and 15 of each scene
    for config, _, _, scan in builtin_roi_scans(15, ("nine_pedestrians", "bed_and_three"),
                                                duration_s=3.0):
        for params in (config.cluster_params, ClusterParams(n_min=8)):
            got = scan_segments(scan, params)
            assert got == oracle_segments(scan, params)
            checked += len(got)
    assert checked > 100


def test_cluster_scan_seam_and_sparse_rings_match_brute_force():
    # a person straddling the +/-pi seam, split into two segments per ring
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=16,
                               elevation_min=math.radians(-15.0))
    scan = scan_lidar(lidar, [make_person(1, -4.0, 0.0), make_person(2, 3.0, 1.0)]).returns()
    rings = [(r, scan.azimuths[scan.ring == r], scan.ranges[scan.ring == r],
              scan.points[scan.ring == r]) for r in np.unique(scan.ring).tolist()]
    # rings with fewer than n_min points are all noise
    az, ranges, pts = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    for k in range(1, PARAMS.n_min):
        rings.append((16 + k, az[:k], ranges[:k], pts[:k]))
    rings.append((20, az[:0], ranges[:0], pts[:0]))
    scan = scan_from_rings(rings)

    got = scan_segments(scan, PARAMS)
    assert got == oracle_segments(scan, PARAMS)
    starts = [np.frombuffer(a)[0] for _, a in got]
    ends = [np.frombuffer(a)[-1] for _, a in got]
    assert min(starts) < -math.pi + 0.1 and max(ends) > math.pi - 0.1
    assert all(ring < 16 for ring, _ in got)
    for ring_index, az_r, ranges_r, pts_r in rings:
        one = scan_from_rings([(ring_index, az_r, ranges_r, pts_r)])
        assert scan_segments(one, PARAMS) == oracle_segments(one, PARAMS)


def test_ring_segments_follow_the_scanning_sensors_resolution():
    # a 0.1 deg LiDAR: the first stage's radius is n_min * 0.1 deg * s, as
    # the scan carries it, not the 0.2 deg of the built-in sensor
    fine = math.radians(0.1)
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=16, elevation_min=math.radians(-15.0),
                               horizontal_resolution=fine)
    scan = scan_lidar(lidar, [make_person(1, 4.0, 0.0), make_person(2, 4.0, 0.9),
                              make_bed(3, -6.0, 1.0, yaw=0.3)]).returns()
    assert (scan.dphi, scan.dtheta) == (fine, lidar.vertical_resolution)
    got = scan_segments(scan, PARAMS)
    assert got == oracle_segments(scan, PARAMS, dphi=fine)
    assert got != oracle_segments(scan, PARAMS, dphi=DPHI)  # the resolution matters here
    assert len(got) > 20


# -- segment grouping --------------------------------------------------------

def cluster_points(scan, groups, expected):
    """Point bytes of clusters made of the ``expected`` lists of groups."""
    return [scan.points[np.concatenate([groups[k] for k in members])].tobytes()
            for members in expected]


def test_single_segment_single_cluster():
    scan, groups = arc_scan([(0, 0.0, 0.0)])
    clusters = cluster_segments(scan, groups)
    assert [c.points.tobytes() for c in clusters] == [scan.points.tobytes()]
    assert cluster_segments(scan, []) == []


def test_mutually_inf_segments_stay_apart():
    scan, groups = arc_scan([(ring * (RING_GAP + 2), 0.0, 3.0 * ring)
                             for ring in range(3)])
    clusters = cluster_segments(scan, groups)
    assert [c.points.tobytes() for c in clusters] == \
        cluster_points(scan, groups, [[0], [1], [2]])


def test_cluster_segments_chains_groups_by_lowest_member():
    # groups by lowest member, members ascending, singletons kept, a chain
    # linked through a later member: (ring, start) order is 0..5 with
    # links 0-5, 1-4 and 3-4 (3 and 1 are 0.4 m apart, unlinked)
    scan, groups = arc_scan([(0, 0.0, 0.0), (0, 1.0, 0.0), (0, 2.0, 0.0),
                             (1, 1.0, 0.4), (2, 1.0, 0.2), (3, 0.0, 0.1)])
    segs = [features(int(scan.ring[g[0]]), scan.azimuths[g], scan.ranges[g], scan.points[g])
            for g in groups]
    linked = segment_distances(*(np.array(f) for f in zip(*segs)), DPHI, DTHETA) \
        < EPSILON_CUSTOM
    assert {(i, j) for i, j in zip(*np.nonzero(np.triu(linked, k=1)))} == \
        {(0, 5), (1, 4), (3, 4)}
    clusters = cluster_segments(scan, groups)
    assert [c.points.tobytes() for c in clusters] == \
        cluster_points(scan, groups, [[0, 5], [1, 3, 4], [2]])


def test_cluster_segments_group_and_member_order():
    # (ring, start) order a=0, b=1, c=2, d=3, e=4; links a-c, b-e
    scan, groups = arc_scan([(0, 0.0, 0.0), (0, 1.0, 0.0), (1, 0.0, 0.1),
                             (1, 2.0, 0.0), (2, 1.0, 0.2)])
    clusters = cluster_segments(scan, groups)
    assert [c.points.tobytes() for c in clusters] == \
        cluster_points(scan, groups, [[0, 2], [1, 4], [3]])


def test_cluster_segments_ring_gap_and_interleaved_segments():
    # the same arc on two rings, 0.1 m apart: only the ring gap parts them
    for ring, expected in ((RING_GAP, [[0, 1]]), (RING_GAP + 1, [[0], [1]])):
        scan, groups = arc_scan([(0, 0.0, 0.0), (ring, 0.0, 0.1)])
        assert [c.points.tobytes() for c in cluster_segments(scan, groups)] == \
            cluster_points(scan, groups, expected)
    # two segments of one ring interleaved in azimuth, at 5 and 5.1 m: the
    # cluster holds the first segment's points, then the second's
    az, _, _ = ring_on_arc(5.0, 0.0, 0.1, DPHI)
    ranges = np.where(np.arange(len(az)) % 2 == 0, 5.0, 5.1)
    pts = np.stack([ranges * np.cos(az), ranges * np.sin(az), np.zeros(len(az))], axis=1)
    scan = scan_from_rings([(0, az, ranges, pts)])
    groups = [np.arange(0, len(az), 2), np.arange(1, len(az), 2)]
    assert [c.points.tobytes() for c in cluster_segments(scan, groups)] == \
        cluster_points(scan, groups, [[0, 1]])


def test_cluster_segments_scale_by_the_scans_ring_spacing():
    # the same arc on rings 0 and 1, 0.1 m apart at 5 m: 0.1 / (5 * 2 deg)
    # links them, 0.1 / (5 * 0.5 deg) does not
    scan, groups = arc_scan([(0, 0.0, 0.0), (1, 0.0, 0.1)])
    assert len(cluster_segments(scan, groups)) == 1
    fine = replace(scan, dtheta=math.radians(0.5))
    assert len(cluster_segments(fine, groups)) == 2


def random_ring_scan(rng):
    """A scan of up to six rings, each with clumps of points at a few
    ranges and some scatter, azimuths sorted and distinct."""
    rings = []
    for ring in np.sort(rng.choice(12, size=int(rng.integers(1, 7)), replace=False)):
        az = np.unique(np.concatenate(
            [rng.uniform(c, c + rng.uniform(0.01, 0.2), size=int(rng.integers(1, 40)))
             for c in rng.uniform(-math.pi, math.pi - 0.2, size=int(rng.integers(1, 5)))]
            + [rng.uniform(-math.pi, math.pi, size=int(rng.integers(0, 10)))]))
        ranges = rng.choice(rng.uniform(1.0, 10.0, size=3), size=len(az)) \
            + rng.normal(0.0, 0.02, size=len(az))
        elevation = math.radians(-15.0 + 2.0 * ring)
        pts = np.stack([ranges * math.cos(elevation) * np.cos(az),
                        ranges * math.cos(elevation) * np.sin(az),
                        ranges * math.sin(elevation) + 1.5], axis=1)
        rings.append((int(ring), az, ranges, pts))
    return scan_from_rings(rings)


def test_ring_segments_partition_non_noise_points_in_ring_then_azimuth_order():
    rng = np.random.default_rng(11)
    segments_seen = 0
    for _ in range(40):
        scan = random_ring_scan(rng)
        params = ClusterParams(n_min=int(rng.integers(2, 6)))
        segments = ring_segments(scan, params)
        clustered = []
        for ring_index in np.unique(scan.ring).tolist():
            on = np.flatnonzero(scan.ring == ring_index)
            labels = brute_force_ring_dbscan(scan.azimuths[on], scan.ranges[on],
                                             scan.points[on], params.n_min, scan.dphi)
            clustered.extend(on[labels >= 0].tolist())
        # the groups partition the non-noise points
        members = np.concatenate([np.zeros(0, dtype=int)] + segments)
        assert sorted(members.tolist()) == sorted(clustered)
        assert len(set(members.tolist())) == len(members)
        for g in segments:
            assert (np.diff(g) > 0).all()
            assert (scan.ring[g] == scan.ring[g[0]]).all()
        keys = [(int(scan.ring[g[0]]), float(scan.azimuths[g[0]])) for g in segments]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        segments_seen += len(segments)
    assert segments_seen > 100


def test_cluster_scan_matches_object_path_oracle_on_builtin_frames():
    rng = np.random.default_rng(3)
    clusters = 0
    for config, _, _, scan in builtin_roi_scans(1, duration_s=4.0):
        for params in (config.cluster_params, ClusterParams(n_min=8)):
            got = cluster_scan(scan, params)
            segments = ring_segments(scan, params)
            # the oracle sorts its segments itself
            shuffled = [segments[k] for k in rng.permutation(len(segments))]
            want = brute_force_cluster_segments(scan, shuffled)
            assert [(c.points.tobytes(), c.centroid.tobytes()) for c in got] == \
                [(pts.tobytes(), centroid.tobytes()) for pts, centroid in want]
            clusters += len(got)
    assert clusters > 1000


def brute_force_clusters(scan, params):
    """(points, centroid) bytes of every cluster of ``scan`` from the
    brute-force first stage, ring by ring, and the object-path grouping."""
    segments = []
    for ring_index in np.unique(scan.ring).tolist():
        on = np.flatnonzero(scan.ring == ring_index)
        labels = brute_force_ring_dbscan(scan.azimuths[on], scan.ranges[on], scan.points[on],
                                         params.n_min, scan.dphi)
        segments.extend(on[labels == cid] for cid in range(labels.max() + 1))
    return [(pts.tobytes(), centroid.tobytes())
            for pts, centroid in brute_force_cluster_segments(scan, segments)]


def jittered_builtin_scans(sigma, seed, step):
    """Every ``step``-th frame of the built-ins over 4 s, both nodes: each
    range image with N(0, sigma) noise on every return, then ROI-filtered."""
    rng = np.random.default_rng(seed)
    for build in BUILTIN_SCENARIOS.values():
        config = replace(build(), duration_s=4.0)
        for _, world in simulate_world(config)[::step]:
            for node in config.nodes:
                image = scan_lidar(node.lidar, world, config.room)
                noisy = image.ranges + rng.normal(0.0, sigma, size=image.ranges.shape)
                yield filter_roi(RangeImage(image.model, noisy),
                                 room_roi(node.lidar, config.room, config.z_band))


def test_cluster_scan_matches_brute_force_on_noisy_and_large_scans():
    """Segment features come from one reduceat per feature, whose sums
    may differ from a per-segment add.reduce in the last bit; the
    clusters must not."""
    scans = [scan for sigma in (0.02, 0.05) for seed in (7, 2411)
             for scan in jittered_builtin_scans(sigma, seed, step=10)]
    scans += [make_benchmark_scan(1000), make_benchmark_scan(5000)]
    clusters = 0
    for scan in scans:
        got = [(c.points.tobytes(), c.centroid.tobytes()) for c in cluster_scan(scan, PARAMS)]
        assert got == brute_force_clusters(scan, PARAMS)
        clusters += len(got)
    assert len(scans) == 2 * 2 * 3 * 4 * 2 + 2
    assert clusters > 500


def test_flanking_scene_counts():
    # the geometry where no single point-level radius works: small radius
    # shatters rings apart, large radius swallows persons into the bed
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects).returns()
    points = scan.points

    hier = cluster_scan(scan, PARAMS)
    assert len(hier) == 3

    labels_small, = dbscan_baseline(points, eps=0.25, n_mins=(4,))
    assert labels_small.max() + 1 >= 4

    labels_large, = dbscan_baseline(points, eps=0.5, n_mins=(4,))
    assert labels_large.max() + 1 <= 2


# -- point-level baseline ----------------------------------------------------

def test_two_points_far_apart_are_noise():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    labels, = dbscan_baseline(pts, eps=0.5, n_mins=(2,))
    assert list(labels) == [-1, -1]


def test_dense_grid_single_cluster():
    g = np.arange(10) * 0.1
    pts = np.array([[x, y, 0.0] for x in g for y in g])
    labels, = dbscan_baseline(pts, eps=0.2, n_mins=(4,))
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
        got, = dbscan_baseline(pts, eps, (n_min,))
        expected = brute_force_dbscan(pts, eps, n_min)
        assert labelings_equal(got, expected), f"trial {trial} diverged"


def random_clumps(rng, n):
    """``n`` points scattered about four random centers; at radii of
    0.2-0.8 m they hold core, border and noise points."""
    centers = rng.uniform(-5.0, 5.0, size=(4, 3))
    return centers[rng.integers(0, 4, size=n)] + rng.normal(0.0, 0.3, size=(n, 3))


def test_dbscan_core_sizes_share_one_search_and_each_matches_brute_force(monkeypatch):
    searches = []
    tree = clustering.cKDTree
    monkeypatch.setattr(clustering, "cKDTree", lambda *a, **k: searches.append(1) or tree(*a, **k))
    rng = np.random.default_rng(23)
    for n_mins in ((2,), (8, 4), (4, 4)):
        for trial in range(8):
            pts = random_clumps(rng, int(rng.integers(20, 300)))
            eps = rng.uniform(0.2, 0.8)
            del searches[:]
            got = dbscan_baseline(pts, eps, n_mins)
            assert len(searches) == 1 and len(got) == len(n_mins)
            for labels, n_min in zip(got, n_mins):
                assert labelings_equal(labels, brute_force_dbscan(pts, eps, n_min)), \
                    (n_mins, trial, n_min)
    a, b = dbscan_baseline(pts, eps, (4, 4))
    assert a is not b and np.array_equal(a, b)
    for labels in dbscan_baseline(np.zeros((0, 3)), 0.3, (4, 8)):
        assert labels.shape == (0,) and labelings_equal(labels, brute_force_dbscan(
            np.zeros((0, 3)), 0.3, 4))
    assert dbscan_baseline(pts, 0.3, ()) == []


@pytest.mark.parametrize("seed", [7, 2411])
def test_dbscan_baselines_match_brute_force_on_builtin_frames(seed):
    """Both baselines' core sizes from one search on every 5th frame of
    the built-ins' first second; the brute force's distance matrix makes
    each call cost about 0.1 s on these scans."""
    n_mins = (DBSCAN_BASELINE_N_MIN, DBSCAN_BASELINE_DENSE_N_MIN)
    clustered = 0
    for _, _, _, scan in builtin_roi_scans(5, duration_s=1.0, seed=seed):
        got = dbscan_baseline(scan.points, DBSCAN_BASELINE_EPS, n_mins)
        for labels, n_min in zip(got, n_mins):
            assert labelings_equal(labels, brute_force_dbscan(scan.points, DBSCAN_BASELINE_EPS,
                                                              n_min))
            clustered += labels.max() + 1
    assert clustered > 100


def test_partition_property():
    lidar, objects = flanking_scene()
    scan = scan_lidar(lidar, objects).returns()
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
    scan = scan_lidar(lidar, [make_person(1, 4.0, 0.0)]).returns()
    hier = cluster_scan(scan, params)
    labels, = dbscan_baseline(scan.points, eps=0.3, n_mins=(8,))
    base = clusters_from_labels(scan.points, labels)
    assert len(hier) == 1
    assert len(base) == 1
    key = lambda pts: set(map(tuple, np.round(pts, 9)))
    assert key(hier[0].points) == key(base[0].points)


def assert_clusters_match_per_label_oracle(points, labels):
    got = clusters_from_labels(points, labels)
    want = brute_force_clusters_from_labels(points, labels)
    assert len(got) == len(want)
    for cluster, pts in zip(got, want):
        assert cluster.points.tobytes() == pts.tobytes()
        assert cluster.centroid.tobytes() == \
            (np.add.reduce(pts, axis=0) / len(pts)).tobytes()
    return got


def test_clusters_from_labels_matches_per_label_oracle_on_builtin_scans(monkeypatch):
    from coopercept import pipeline

    # the DBSCAN methods hand their labels to pipeline's clusters_from_labels
    monkeypatch.setattr(pipeline, "clusters_from_labels", assert_clusters_match_per_label_oracle)
    clusters = 0
    for config, _, _, scan in builtin_roi_scans(25):
        clusters += sum(map(len, pipeline.cluster_methods(
            scan, config.cluster_params, (pipeline.METHOD_DBSCAN1, pipeline.METHOD_DBSCAN2))))
    assert clusters > 100
    # a scan with no returns gives every method no clusters
    assert pipeline.cluster_methods(scan_from_rings([]), PARAMS,
                                    tuple(pipeline.LOCAL_METHODS)) == [[], [], []]


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
    scan = scan_lidar(lidar, objects).returns()
    for cluster in cluster_scan(scan, PARAMS):
        assert np.allclose(cluster.centroid, cluster.points.mean(axis=0), atol=1e-12)


def test_clusters_compare_by_identity():
    points = np.arange(12.0).reshape(4, 3)
    cluster = Cluster(points)
    assert cluster == cluster
    assert (Cluster(points) == Cluster(points.copy())) is False
    assert cluster in [Cluster(points), cluster]


# -- connected components ------------------------------------------------------

def scipy_components(n, src, dst):
    """The labels of scipy's ``connected_components``, the oracle."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    graph = sparse.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def assert_components_match_scipy(n, src, dst):
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    got = clustering._components(n, src, dst)
    assert np.array_equal(got, scipy_components(n, src, dst))
    return got


def test_components_match_scipy_on_random_graphs():
    rng = np.random.default_rng(11)
    assert len(assert_components_match_scipy(0, [], [])) == 0
    assert list(assert_components_match_scipy(4, [], [])) == [0, 1, 2, 3]
    for _ in range(300):
        n = int(rng.integers(1, 120))
        src = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        dst = rng.integers(0, n, size=len(src))
        # duplicate edges, some reversed
        src, dst = np.concatenate([src, src[:5], dst[:3]]), np.concatenate([dst, dst[:5], src[:3]])
        loops = rng.integers(0, n, size=3)  # self-loops
        labels = assert_components_match_scipy(n, np.concatenate([src, loops]),
                                               np.concatenate([dst, loops]))
        # order of the lowest node: each label first appears after all lower ones
        _, first = np.unique(labels, return_index=True)
        assert list(first) == sorted(first)


@pytest.mark.parametrize("n", [2000, 20000])
def test_components_of_a_shuffled_chain_take_logarithmic_rounds(monkeypatch, n):
    rounds = []
    hook = clustering._hook
    monkeypatch.setattr(clustering, "_hook", lambda *a: rounds.append(1) or hook(*a))
    order = np.random.default_rng(n).permutation(n)
    labels = assert_components_match_scipy(n, order[:-1], order[1:])
    assert not labels.any()
    # one hook round per halving, give or take: 7 and 9 on these chains
    assert len(rounds) <= math.log2(n)


def test_components_match_scipy_on_graphs_from_builtin_frames(monkeypatch):
    graphs = []
    components = clustering._components

    def recorded(n, src, dst):
        graphs.append((n, src, dst))
        return components(n, src, dst)

    monkeypatch.setattr(clustering, "_components", recorded)
    kinds = Counter()
    for config, _, _, scan in builtin_roi_scans(40):
        for kind, run in (
                ("dbscan core", lambda: dbscan_baseline(scan.points, 0.3, (4,))),
                ("ring", lambda: ring_segments(scan, config.cluster_params)),
                ("segment", lambda: cluster_scan(scan, config.cluster_params))):
            del graphs[:]
            run()
            n, src, dst = graphs[-1]  # cluster_scan's last graph is the segments'
            assert_components_match_scipy(n, src, dst)
            kinds[kind] += len(src)
    assert min(kinds.values()) > 1000, kinds
