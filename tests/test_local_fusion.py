import math
from unittest import mock

import numpy as np
import pytest

from coopercept import local_fusion
from coopercept.camera import BBox2D, CameraModel, project_points
from coopercept.clustering import ClusterParams, cluster_scan
from coopercept.local_fusion import (
    CLASS_UNKNOWN,
    DEFAULT_COST_GATE,
    SOURCE_CAMERA_ONLY,
    SOURCE_FUSED,
    SOURCE_LIDAR_ONLY,
    PositionedBox,
    RoiGrid,
    associate_boxes_clusters,
    filter_roi,
    merge_camera_views,
)
from coopercept.scene import LidarModel, Room, make_person, scan_lidar
from coopercept.assignment import gated_assignment

from oracles import (
    brute_force_associate_boxes_clusters,
    brute_force_association_cost,
    brute_force_filter_roi,
    brute_force_foot_to_parent,
    brute_force_gated_matching,
    brute_force_merge_views,
)
from scans import scan_from_rings


def all_true_grid(extent=10.0, cell=0.5):
    n = int(2 * extent / cell)
    return RoiGrid(origin=(-extent, -extent), cell_size=cell,
                   mask=np.ones((n, n), dtype=bool))


def room_scan():
    lidar = LidarModel.uniform((0.0, 0.0, 1.8), n_rings=16,
                               elevation_min=math.radians(-25.0))
    room = Room.rectangle(-6.0, -6.0, 6.0, 6.0)
    world = [make_person(1, 3.0, 0.5)]
    return scan_lidar(lidar, world, room), room


def side_camera():
    K = np.array([[600.0, 0.0, 640.0], [0.0, 600.0, 360.0], [0.0, 0.0, 1.0]])
    return CameraModel.from_pose((0.0, 0.0, 2.4), yaw=0.0, pitch=0.3,
                                 K=K, image_size=(1280, 720))


def fake_cluster(x, y, z=0.9, spread=0.1):
    """A small synthetic cluster centered at (x, y, z)."""
    from coopercept.clustering import Cluster, Segment

    offs = np.array([[-spread, 0.0, -spread], [spread, 0.0, spread],
                     [0.0, -spread, 0.0], [0.0, spread, 0.0]])
    pts = np.array([x, y, z]) + offs
    az = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    seg = Segment(ring_index=0, points=pts, azimuths=az,
                  ranges=np.linalg.norm(pts, axis=1))
    return Cluster(segments=[seg])


# -- ROI filtering -----------------------------------------------------------

def test_all_true_grid_wide_band_is_identity():
    scan, _ = room_scan()
    out = filter_roi(scan, all_true_grid(), z_band=(-10.0, 10.0))
    assert out.n_points == scan.n_points
    assert np.array_equal(scan.ring, out.ring)
    assert np.array_equal(scan.points, out.points)
    assert np.array_equal(scan.azimuths, out.azimuths)


def test_all_false_grid_empties_scan():
    scan, _ = room_scan()
    grid = all_true_grid()
    grid.mask[:] = False
    out = filter_roi(scan, grid, z_band=(-10.0, 10.0))
    assert out.n_points == 0


def test_walls_and_floor_removed_person_kept():
    scan, room = room_scan()
    grid = RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3)
    out = filter_roi(scan, grid, z_band=(0.1, 2.2))
    pts = out.points
    assert len(pts) > 0
    # everything that survives sits near the person, not on walls or floor
    assert np.all(np.abs(pts[:, 0] - 3.0) < 1.0)
    assert np.all(np.abs(pts[:, 1] - 0.5) < 1.0)
    assert np.all(pts[:, 2] >= 0.1)
    # and the wall/floor returns were actually there before filtering
    assert scan.n_points > 4 * len(pts)


def test_filter_roi_idempotent():
    scan, room = room_scan()
    grid = RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3)
    once = filter_roi(scan, grid, z_band=(0.1, 2.2))
    twice = filter_roi(once, grid, z_band=(0.1, 2.2))
    assert once.n_points == twice.n_points
    assert np.array_equal(once.ring, twice.ring)
    assert np.array_equal(once.points, twice.points)


def assert_filter_matches_oracle(scan, grid, z_band):
    out = filter_roi(scan, grid, z_band)
    kept = np.asarray(brute_force_filter_roi(scan, grid, z_band), dtype=int)
    assert out.timestamp == scan.timestamp
    assert out.ring.tobytes() == scan.ring[kept].tobytes()
    assert out.azimuths.tobytes() == scan.azimuths[kept].tobytes()
    assert out.ranges.tobytes() == scan.ranges[kept].tobytes()
    assert out.points.shape == (len(kept), 3)
    assert out.points.tobytes() == scan.points[kept].tobytes()
    return out


def test_filter_roi_matches_per_ring_oracle_on_builtin_scans():
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import bed_and_three, nine_pedestrians

    kept = 0
    for config in (nine_pedestrians(), bed_and_three()):
        grid = RoiGrid.from_polygon(config.room, config.roi_cell_size, config.roi_margin)
        t, world = simulate_world(config)[15]
        for node in config.nodes:
            scan = scan_lidar(node.lidar, world, config.room, t)
            kept += assert_filter_matches_oracle(scan, grid, config.z_band).n_points
    assert kept > 0


def test_filter_roi_matches_per_ring_oracle_on_empty_and_dropped_rings():
    scan, room = room_scan()
    grid = RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3)
    # every ring of the scan, with ids 2k (non-contiguous), then a ring
    # lifted above the z band
    rings = [(2 * r, scan.azimuths[scan.ring == r], scan.ranges[scan.ring == r],
              scan.points[scan.ring == r]) for r in np.unique(scan.ring)]
    source = np.bincount(scan.ring).argmax()
    on = scan.ring == source
    lifted = (40, scan.azimuths[on], scan.ranges[on],
              scan.points[on] + np.array([0.0, 0.0, 10.0]))
    mixed = scan_from_rings(rings + [lifted], timestamp=1.5)
    out = assert_filter_matches_oracle(mixed, grid, (0.1, 2.2))
    assert out.n_points > 0 and on.sum() > 0
    assert 40 not in out.ring  # the lifted ring leaves no entry
    empty = assert_filter_matches_oracle(scan_from_rings([], timestamp=3.0), grid, (0.1, 2.2))
    assert empty.n_points == 0 and empty.points.shape == (0, 3)


def test_points_outside_grid_extent_dropped():
    grid = RoiGrid(origin=(0.0, 0.0), cell_size=1.0, mask=np.ones((2, 2), dtype=bool))
    keep = grid.keep(np.array([[0.5, 0.5], [5.0, 5.0], [-1.0, 0.5]]))
    assert list(keep) == [True, False, False]


# -- box-to-cluster association ---------------------------------------------

def box_over(cluster, camera, label="person"):
    """A camera box 8 px around the pixel bounds of the cluster's points."""
    pix, _ = project_points(camera, cluster.points)
    (x_min, y_min), (x_max, y_max) = pix.min(axis=0), pix.max(axis=0)
    pad = 8.0
    return BBox2D(x_min - pad, y_min - pad, x_max + pad, y_max + pad, label,
                  confidence=0.9)


def test_direct_match():
    cam = side_camera()
    cluster = fake_cluster(4.0, 0.0)
    pb = PositionedBox(box=box_over(cluster, cam),
                       position=cluster.centroid[:2].copy(), from_foot=True)
    out = associate_boxes_clusters([pb], [cluster], cam)
    assert len(out) == 1
    assert out[0].source == SOURCE_FUSED
    assert out[0].class_label == "person"
    assert np.array_equal(out[0].position, cluster.centroid[:2])


def test_crossed_pair_resolved_optimally():
    cam = side_camera()
    c0 = fake_cluster(4.0, -0.25)
    c1 = fake_cluster(4.0, 0.25)
    # boxes listed in swapped order with slightly offset estimates
    b0 = PositionedBox(box=box_over(c1, cam), position=np.array([4.0, 0.22]),
                       from_foot=True)
    b1 = PositionedBox(box=box_over(c0, cam), position=np.array([4.0, -0.22]),
                       from_foot=True)
    out = associate_boxes_clusters([b0, b1], [c0, c1], cam)
    fused = {id(o.cluster): o for o in out if o.source == SOURCE_FUSED}
    assert len(fused) == 2
    # the distance-minimizing pairing puts b0 on c1 and b1 on c0
    assert np.allclose(fused[id(c1)].position, c1.centroid[:2])
    assert np.allclose(fused[id(c0)].position, c0.centroid[:2])


def test_three_boxes_two_clusters_leftover_camera_only():
    cam = side_camera()
    c0 = fake_cluster(4.0, -0.6)
    c1 = fake_cluster(4.0, 0.6)
    boxes = [
        PositionedBox(box=box_over(c0, cam), position=np.array([4.0, -0.6]), from_foot=True),
        PositionedBox(box=box_over(c1, cam), position=np.array([4.0, 0.6]), from_foot=True),
        PositionedBox(box=BBox2D(30, 30, 90, 160, "person", 0.4),
                      position=np.array([5.5, 2.5]), from_foot=False),
    ]
    out = associate_boxes_clusters(boxes, [c0, c1], cam)
    by_source = {}
    for o in out:
        by_source.setdefault(o.source, []).append(o)
    assert len(by_source.get(SOURCE_FUSED, [])) == 2
    assert len(by_source.get(SOURCE_CAMERA_ONLY, [])) == 1
    assert np.allclose(by_source[SOURCE_CAMERA_ONLY][0].position, [5.5, 2.5])


def test_unmatched_cluster_becomes_unknown():
    cam = side_camera()
    cluster = fake_cluster(4.0, 0.0)
    out = associate_boxes_clusters([], [cluster], cam)
    assert len(out) == 1
    assert out[0].class_label == CLASS_UNKNOWN
    assert out[0].source == SOURCE_LIDAR_ONLY


def test_no_duplicate_assignment():
    cam = side_camera()
    rng = np.random.default_rng(4)
    clusters = [fake_cluster(4.0 + i, rng.uniform(-1, 1)) for i in range(4)]
    boxes = [PositionedBox(box=box_over(c, cam),
                           position=c.centroid[:2] + rng.normal(0, 0.05, 2),
                           from_foot=True) for c in clusters[:3]]
    out = associate_boxes_clusters(boxes, clusters, cam)
    fused_clusters = [id(o.cluster) for o in out if o.cluster is not None]
    assert len(fused_clusters) == len(set(fused_clusters))


def test_fused_position_is_cluster_centroid_exactly():
    cam = side_camera()
    cluster = fake_cluster(3.5, 0.8)
    pb = PositionedBox(box=box_over(cluster, cam),
                       position=np.array([3.55, 0.82]), from_foot=True)
    out = associate_boxes_clusters([pb], [cluster], cam)
    fused = [o for o in out if o.source == SOURCE_FUSED]
    assert np.array_equal(fused[0].position, cluster.centroid[:2])


def point_cluster(points):
    """A one-segment cluster over the given (n, 3) points."""
    from coopercept.clustering import clusters_from_labels

    return clusters_from_labels(np.asarray(points, dtype=float), np.zeros(len(points), int))[0]


def labeled_rows(out, clusters):
    """Comparable rows of association output: cluster as its list index."""
    index = {id(c): k for k, c in enumerate(clusters)}
    return [(o.class_label, o.source, o.confidence, o.position.tobytes(),
             None if o.cluster is None else index[id(o.cluster)]) for o in out]


def oracle_rows(boxes, clusters, camera):
    index = {id(c): k for k, c in enumerate(clusters)}
    return [(label, source, confidence, position.tobytes(),
             None if cluster is None else index[id(cluster)])
            for label, source, confidence, position, cluster
            in brute_force_associate_boxes_clusters(boxes, clusters, camera)]


def assert_association_matches_oracle(boxes, clusters, camera):
    """Associate, then check the cost matrix bit for bit and the output
    against the per-pair oracle."""
    with mock.patch.object(local_fusion, "gated_assignment", wraps=gated_assignment) as solver:
        out = associate_boxes_clusters(boxes, clusters, camera)
    cost = solver.call_args.args[0]
    assert cost.tobytes() == brute_force_association_cost(boxes, clusters, camera).tobytes()
    assert labeled_rows(out, clusters) == oracle_rows(boxes, clusters, camera)
    return out


def test_cluster_behind_camera_has_zero_overlap():
    cam = side_camera()  # at the origin, looking along +x
    behind = fake_cluster(-3.0, 0.0)
    assert (project_points(cam, behind.points)[1] <= 1e-6).all()
    box = BBox2D(0.0, 0.0, 1280.0, 720.0, "person", 0.8)  # the whole image
    near = PositionedBox(box=box, position=behind.centroid[:2] + [0.5, 0.0], from_foot=True)
    cost = brute_force_association_cost([near], [behind], cam)
    assert cost[0, 0] == 1.0 + float(np.linalg.norm(near.position - behind.centroid[:2]))
    out = assert_association_matches_oracle([near], [behind], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    far = PositionedBox(box=box, position=behind.centroid[:2] + [0.9, 0.0], from_foot=True)
    out = assert_association_matches_oracle([far], [behind], cam)
    assert sorted(o.source for o in out) == [SOURCE_CAMERA_ONLY, SOURCE_LIDAR_ONLY]


def test_cluster_partly_behind_camera_bounds_its_front_points():
    cam = side_camera()
    front = np.array([[3.0, -0.2, 0.5], [3.0, 0.2, 1.5], [3.2, 0.0, 1.0]])
    # camera axes of side_camera (pitch 0.3 rad along +x): forward, right, down
    forward = np.array([math.cos(0.3), 0.0, -math.sin(0.3)])
    right = np.array([0.0, -1.0, 0.0])
    down = np.cross(forward, right)
    grazing = np.array([0.0, 0.0, 2.4]) + 5e-7 * forward + 0.5 * (right - down)
    back = np.array([[-2.0, 0.0, 1.0], [-2.5, 0.5, 1.0], grazing])
    cluster = point_cluster(np.vstack([front, back]))
    pix, depth = project_points(cam, cluster.points)
    assert (depth > 1e-6).any() and (depth <= 0.0).any()
    assert ((depth > 0.0) & (depth <= 1e-6)).sum() == 1  # the grazing point
    lo, hi = pix[depth > 1e-6].min(axis=0), pix[depth > 1e-6].max(axis=0)
    # the behind and grazing points project above and right of the front
    # points' bounds
    assert (pix[depth <= 1e-6, 0] > hi[0]).any() and (pix[depth <= 1e-6, 1] < lo[1]).all()
    inside = BBox2D(lo[0], lo[1], hi[0], hi[1], "person", 0.9)
    above = BBox2D(hi[0] + 5.0, lo[1] - 300.0, hi[0] + 100.0, lo[1] - 10.0, "person", 0.9)
    position = cluster.centroid[:2] + [0.0, 0.3]
    boxes = [PositionedBox(box=b, position=position, from_foot=True) for b in (inside, above)]
    dist = float(np.linalg.norm(position - cluster.centroid[:2]))
    cost = brute_force_association_cost(boxes, [cluster], cam)
    assert cost.tolist() == [[dist], [1.0 + dist]]  # overlap 1, then 0
    assert_association_matches_oracle(boxes, [cluster], cam)


def test_single_point_cluster_gets_a_one_pixel_box():
    cam = side_camera()
    cluster = point_cluster([[3.0, 0.4, 1.0]])
    (u, v), = project_points(cam, cluster.points)[0]
    # the widened 1 px box lies inside this box, so the overlap is 1
    box = BBox2D(u - 5.0, v - 5.0, u + 5.0, v + 5.0, "person", 0.7)
    pb = PositionedBox(box=box, position=np.array([3.0, 1.0]), from_foot=True)
    cost = brute_force_association_cost([pb], [cluster], cam)
    assert cost[0, 0] == float(np.linalg.norm(pb.position - cluster.centroid[:2]))
    out = assert_association_matches_oracle([pb], [cluster], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    # a box that only touches the 1 px box's far corner does not overlap
    corner = BBox2D(u + 1.0, v + 1.0, u + 9.0, v + 9.0, "person", 0.7)
    pb = PositionedBox(box=corner, position=np.array([3.0, 1.0]), from_foot=True)
    assert brute_force_association_cost([pb], [cluster], cam)[0, 0] == 1.0 + cost[0, 0]
    assert_association_matches_oracle([pb], [cluster], cam)


def test_association_with_no_boxes_or_no_clusters():
    cam = side_camera()
    clusters = [fake_cluster(4.0, 0.0), fake_cluster(5.0, 1.0)]
    boxes = [PositionedBox(box=box_over(c, cam), position=c.centroid[:2].copy(),
                           from_foot=True) for c in clusters]
    assert associate_boxes_clusters([], [], cam) == []
    out = assert_association_matches_oracle([], clusters, cam)
    assert [o.source for o in out] == [SOURCE_LIDAR_ONLY] * 2
    out = assert_association_matches_oracle(boxes, [], cam)
    assert [o.source for o in out] == [SOURCE_CAMERA_ONLY] * 2
    assert [o.position.tobytes() for o in out] == [b.position.tobytes() for b in boxes]


def test_cost_equal_to_gate_is_matched_and_one_ulp_above_is_not():
    cam = side_camera()
    behind = point_cluster([[-3.0, 0.5, 1.0]])  # overlap 0: cost is 1 + distance
    box = BBox2D(0.0, 0.0, 100.0, 100.0, "person", 0.9)
    at_gate = PositionedBox(box=box, position=np.array([-3.0, 1.3]), from_foot=True)
    assert brute_force_association_cost([at_gate], [behind], cam)[0, 0] == DEFAULT_COST_GATE
    out = assert_association_matches_oracle([at_gate], [behind], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    past = PositionedBox(box=box, position=np.array([-3.0, np.nextafter(1.3, 2.0)]),
                         from_foot=True)
    assert brute_force_association_cost([past], [behind], cam)[0, 0] > DEFAULT_COST_GATE
    out = assert_association_matches_oracle([past], [behind], cam)
    assert sorted(o.source for o in out) == [SOURCE_CAMERA_ONLY, SOURCE_LIDAR_ONLY]


def test_association_matches_per_pair_oracle_on_builtin_frames(monkeypatch):
    from dataclasses import replace

    from coopercept import pipeline
    from coopercept.scenarios import BUILTIN_SCENARIOS

    box_calls, foot_calls, costs = [], [], []
    real_associate = pipeline.associate_boxes_clusters
    real_feet = local_fusion.associate_foot_to_parent
    real_gated = local_fusion.gated_assignment

    def record_boxes(boxes, clusters, camera):
        out = real_associate(boxes, clusters, camera)
        box_calls.append((boxes, clusters, camera, out))
        return out

    def record_feet(feet, parents, v_z):
        pairs = real_feet(feet, parents, v_z)
        foot_calls.append((feet, parents, v_z, pairs))
        return pairs

    def record_cost(cost, gate):
        costs.append(cost)
        return real_gated(cost, gate)

    monkeypatch.setattr(pipeline, "associate_boxes_clusters", record_boxes)
    monkeypatch.setattr(local_fusion, "associate_foot_to_parent", record_feet)
    monkeypatch.setattr(local_fusion, "gated_assignment", record_cost)
    for build in BUILTIN_SCENARIOS.values():
        pipeline.run_local_eval(replace(build(), duration_s=2.0))
    assert len(box_calls) == len(costs) == 720  # scenes x frames x nodes x methods x cameras

    entries, sources = 0, set()
    for (boxes, clusters, camera, out), cost in zip(box_calls, costs):
        assert cost.tobytes() == brute_force_association_cost(boxes, clusters, camera).tobytes()
        assert labeled_rows(out, clusters) == oracle_rows(boxes, clusters, camera)
        entries += cost.size
        sources.update(o.source for o in out)
    assert entries > 40000
    assert sources == {SOURCE_FUSED, SOURCE_LIDAR_ONLY, SOURCE_CAMERA_ONLY}

    assert len(foot_calls) > 200
    for feet, parents, v_z, pairs in foot_calls:
        assert pairs == brute_force_foot_to_parent(feet, parents, v_z)
    assert sum(len(pairs) for *_, pairs in foot_calls) > 500


# -- gated assignment vs exhaustive search ------------------------------------

def test_gated_assignment_matches_exhaustive():
    rng = np.random.default_rng(12)
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 2.0, size=(rows, cols))
        cost[rng.random(size=cost.shape) < 0.2] = np.inf
        gate = float(rng.uniform(0.5, 1.8))
        pairs, _, _ = gated_assignment(cost, gate)
        got = (len(pairs), sum(cost[i, j] for i, j in pairs))
        want = brute_force_gated_matching(cost, gate)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=1e-9)


# -- camera view merging ------------------------------------------------------

def test_merge_prefers_fused_label_for_same_cluster():
    cluster = fake_cluster(4.0, 0.0)
    from coopercept.local_fusion import LabeledObject

    lidar_only = LabeledObject(CLASS_UNKNOWN, cluster.centroid[:2], cluster,
                               SOURCE_LIDAR_ONLY)
    fused = LabeledObject("person", cluster.centroid[:2], cluster,
                          SOURCE_FUSED, confidence=0.9)
    merged = merge_camera_views([[lidar_only], [fused]])
    assert len(merged) == 1
    assert merged[0].source == SOURCE_FUSED


def test_merge_drops_camera_only_duplicates():
    from coopercept.local_fusion import LabeledObject

    cluster = fake_cluster(4.0, 0.0)
    fused = LabeledObject("person", cluster.centroid[:2], cluster,
                          SOURCE_FUSED, confidence=0.9)
    dup = LabeledObject("person", cluster.centroid[:2] + 0.1, None,
                        SOURCE_CAMERA_ONLY, confidence=0.5)
    far = LabeledObject("person", cluster.centroid[:2] + 3.0, None,
                        SOURCE_CAMERA_ONLY, confidence=0.5)
    merged = merge_camera_views([[fused, dup], [far]])
    sources = sorted(o.source for o in merged)
    assert sources == [SOURCE_CAMERA_ONLY, SOURCE_FUSED]


def test_merge_keeps_best_label_per_cluster_in_first_appearance_order():
    from coopercept.local_fusion import LabeledObject

    c1, c2, c3 = (fake_cluster(x, 0.0) for x in (2.0, 4.0, 6.0))

    def labeled(cluster, source=SOURCE_LIDAR_ONLY, confidence=1.0):
        label = CLASS_UNKNOWN if source == SOURCE_LIDAR_ONLY else "person"
        return LabeledObject(label, cluster.centroid[:2], cluster, source, confidence)

    first_c2 = labeled(c2)
    best_c1 = labeled(c1, SOURCE_FUSED, 0.9)
    best_c3 = labeled(c3, SOURCE_FUSED, 0.7)
    # two cameras labelling the same cluster list, each in its own order
    merged = merge_camera_views([
        [first_c2, labeled(c1, SOURCE_FUSED, 0.6), labeled(c3)],
        [best_c3, best_c1, labeled(c2)],
    ])
    assert [o.cluster for o in merged] == [c2, c1, c3]
    assert all(o.cluster is c for o, c in zip(merged, (c2, c1, c3)))
    assert [o.source for o in merged] == [SOURCE_LIDAR_ONLY, SOURCE_FUSED, SOURCE_FUSED]
    assert [o.confidence for o in merged] == [1.0, 0.9, 0.7]
    assert merged[0] is first_c2  # ties keep the first view's label
    for o in merged:
        assert o.position.tobytes() == o.cluster.centroid[:2].tobytes()


def test_merge_matches_shared_segment_oracle_on_builtin_views(monkeypatch):
    from dataclasses import replace

    from coopercept import pipeline
    from coopercept.scenarios import BUILTIN_SCENARIOS

    recorded = []
    real_merge = pipeline.merge_camera_views

    def record(per_camera, *args, **kwargs):
        recorded.append(per_camera)
        return real_merge(per_camera, *args, **kwargs)

    monkeypatch.setattr(pipeline, "merge_camera_views", record)
    for build in BUILTIN_SCENARIOS.values():
        pipeline.run_local_eval(replace(build(), duration_s=2.0))
    assert len(recorded) == 3 * 20 * 2 * 3  # scenes x frames x nodes x methods

    relabelled = 0  # clusters that more than one view labelled
    for per_camera in recorded:
        got = [(o.class_label, o.source, o.confidence, o.position.tobytes(),
                None if o.cluster is None else o.cluster.points.tobytes())
               for o in merge_camera_views(per_camera)]
        want = [(label, source, confidence, position.tobytes(),
                 None if points is None else points.tobytes())
                for label, source, confidence, position, points
                in brute_force_merge_views(per_camera)]
        assert got == want
        ids = [id(o.cluster) for view in per_camera for o in view if o.cluster is not None]
        relabelled += len(ids) - len(set(ids))
    assert relabelled > 1000
