import math

import numpy as np
import pytest

from coopercept.camera import BBox2D, CameraModel
from coopercept.clustering import ClusterParams, cluster_scan
from coopercept.local_fusion import (
    CLASS_UNKNOWN,
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

from oracles import brute_force_filter_roi, brute_force_gated_matching, brute_force_merge_views
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
    from coopercept.local_fusion import project_cluster_box

    pix = project_cluster_box(cluster, camera)
    pad = 8.0
    return BBox2D(pix.x_min - pad, pix.y_min - pad, pix.x_max + pad,
                  pix.y_max + pad, label, confidence=0.9)


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
