import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from coopercept import assignment, local_fusion
from coopercept.camera import (UNKNOWN, BBox2D, CameraGeometryError, CameraModel, project_points,
                               vanishing_point_z)
from coopercept.clustering import ClusterParams, cluster_scan
from coopercept.local_fusion import (
    DEFAULT_COST_GATE,
    SOURCE_CAMERA_ONLY,
    SOURCE_FUSED,
    SOURCE_LIDAR_ONLY,
    PositionedBox,
    Roi,
    RoiGrid,
    associate_boxes_clusters,
    filter_roi,
    locate_boxes,
    merge_camera_views,
)
from coopercept.scene import LidarModel, RangeImage, Room, detect_camera, make_person, scan_lidar
from coopercept.assignment import gated_assignment

from oracles import (
    brute_force_associate_boxes_clusters,
    brute_force_association_cost,
    brute_force_filter_roi,
    brute_force_foot_to_parent,
    brute_force_gated_matching,
    brute_force_merge_views,
    overlap_ratio,
    per_box_locate_boxes,
    per_edge_wall_distances,
    two_mask_gated_assignment,
)
from scans import image_of


def all_true_grid(extent=10.0, cell=0.5):
    n = int(2 * extent / cell)
    return RoiGrid(origin=(-extent, -extent), cell_size=cell,
                   mask=np.ones((n, n), dtype=bool))


ROOM_LIDAR = LidarModel.uniform((0.0, 0.0, 1.8), n_rings=16,
                                elevation_min=math.radians(-25.0))


def room_scan():
    room = Room.rectangle(-6.0, -6.0, 6.0, 6.0)
    world = [make_person(1, 3.0, 0.5)]
    return scan_lidar(ROOM_LIDAR, world, room), room


def side_camera():
    K = np.array([[600.0, 0.0, 640.0], [0.0, 600.0, 360.0], [0.0, 0.0, 1.0]])
    return CameraModel.from_pose((0.0, 0.0, 2.4), yaw=0.0, pitch=0.3,
                                 K=K, image_size=(1280, 720))


def fake_cluster(x, y, z=0.9, spread=0.1):
    """A small synthetic cluster centered at (x, y, z)."""
    from coopercept.clustering import Cluster

    offs = np.array([[-spread, 0.0, -spread], [spread, 0.0, spread],
                     [0.0, -spread, 0.0], [0.0, spread, 0.0]])
    return Cluster(np.array([x, y, z]) + offs)


# -- ROI filtering -----------------------------------------------------------

def test_all_true_grid_wide_band_is_identity():
    image, room = room_scan()
    out = filter_roi(image, Roi.record(ROOM_LIDAR, room, all_true_grid(), (-10.0, 10.0)))
    scan = image.returns()
    assert out.n_points == scan.n_points == image.n_points
    assert np.array_equal(scan.ring, out.ring)
    assert np.array_equal(scan.points, out.points)
    assert np.array_equal(scan.azimuths, out.azimuths)


def test_all_false_grid_empties_scan():
    image, room = room_scan()
    grid = all_true_grid()
    grid.mask[:] = False
    out = filter_roi(image, Roi.record(ROOM_LIDAR, room, grid, (-10.0, 10.0)))
    assert out.n_points == 0


def test_walls_and_floor_removed_person_kept():
    image, room = room_scan()
    grid = RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3)
    out = filter_roi(image, Roi.record(ROOM_LIDAR, room, grid, (0.1, 2.2)))
    pts = out.points
    assert len(pts) > 0
    # everything that survives sits near the person, not on walls or floor
    assert np.all(np.abs(pts[:, 0] - 3.0) < 1.0)
    assert np.all(np.abs(pts[:, 1] - 0.5) < 1.0)
    assert np.all(pts[:, 2] >= 0.1)
    # and the wall/floor returns were actually there before filtering
    assert image.n_points > 4 * len(pts)


def test_roi_grid_matches_per_edge_wall_loop_on_concave_room():
    room = Room(((0.0, 0.0), (6.0, 0.0), (6.0, 3.0), (2.5, 3.0), (2.5, 7.0), (0.0, 7.0)))
    rows, cols = 70, 60
    inside = np.zeros((rows, cols), dtype=bool)
    nearest = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            x, y = (c + 0.5) * 0.1, (r + 0.5) * 0.1
            inside[r, c] = room.contains((x, y))
            nearest[r, c] = min(per_edge_wall_distances(room, x, y))
    for margin in (0.25, 0.3):  # 0.25 puts cell centers exactly on the margin
        expected = inside & (nearest > margin)
        assert 0 < expected.sum() < expected.size
        assert np.array_equal(RoiGrid.from_polygon(room, 0.1, margin).mask, expected)


def test_filter_roi_idempotent():
    image, room = room_scan()
    roi = Roi.record(ROOM_LIDAR, room, RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3))
    once = filter_roi(image, roi)
    twice = filter_roi(image_of(once, ROOM_LIDAR), roi)
    assert once.n_points == twice.n_points
    assert np.array_equal(once.ring, twice.ring)
    assert np.array_equal(once.points, twice.points)


def assert_filter_matches_oracle(image, roi):
    scan = image.returns()
    out = filter_roi(image, roi)
    kept = np.asarray(brute_force_filter_roi(scan, roi.grid, roi.z_band), dtype=int)
    assert_kept(out, scan, kept)
    return out


def assert_kept(out, scan, kept):
    assert (out.dphi, out.dtheta) == (scan.dphi, scan.dtheta)
    assert out.ring.tobytes() == scan.ring[kept].tobytes()
    assert out.azimuths.tobytes() == scan.azimuths[kept].tobytes()
    assert out.ranges.tobytes() == scan.ranges[kept].tobytes()
    assert out.points.shape == (len(kept), 3)
    assert out.points.tobytes() == scan.points[kept].tobytes()


def test_filter_roi_matches_per_ring_oracle_on_builtin_scans():
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import bed_and_three, nine_pedestrians

    kept = 0
    for config in (nine_pedestrians(), bed_and_three()):
        grid = RoiGrid.from_polygon(config.room)
        t, world = simulate_world(config)[15]
        for node in config.nodes:
            image = scan_lidar(node.lidar, world, config.room)
            roi = Roi.record(node.lidar, config.room, grid, config.z_band)
            kept += assert_filter_matches_oracle(image, roi).n_points
    assert kept > 0


def test_background_filter_matches_oracle_on_every_builtin_frame():
    """Every frame of the built-ins, both nodes, seeds 7 and 2411. The seed
    moves detector noise and channel latency, not the walks, the room or
    the sensors, so the seeds share their scans: the test checks that and
    filters each scan once. The oracle is a function of a point's
    coordinates alone, so each frame evaluates it only on the returns that
    differ from the empty room's return on the same ray."""
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import BUILTIN_SCENARIOS

    frames = from_background = 0
    for build in BUILTIN_SCENARIOS.values():
        config = build(7)
        assert replace(build(2411), seed=7) == config
        grid = RoiGrid.from_polygon(config.room)
        world_frames = simulate_world(config)
        assert simulate_world(build(2411)) == world_frames
        for node in config.nodes:
            roi = Roi.record(node.lidar, config.room, grid, config.z_band)
            empty = roi.background.returns()
            empty_rays = np.flatnonzero(np.isfinite(roi.background.ranges))
            empty_keep = np.zeros(empty.n_points, dtype=bool)
            empty_keep[brute_force_filter_roi(empty, grid, config.z_band)] = True
            assert np.array_equal(roi.background_kept, empty_rays[empty_keep])
            empty_at = np.full(roi.background.ranges.size, -1)  # ray -> background return
            empty_at[empty_rays] = np.arange(empty.n_points)
            for t, world in world_frames:
                image = scan_lidar(node.lidar, world, config.room)
                scan = image.returns()
                j = empty_at[np.flatnonzero(np.isfinite(image.ranges))]
                same = (j >= 0) & (scan.points == empty.points[j]).all(axis=1)
                keep = same & empty_keep[j]
                other = np.flatnonzero(~same)
                moved = replace(scan, points=scan.points[other])
                keep[other[brute_force_filter_roi(moved, grid, config.z_band)]] = True
                assert_kept(filter_roi(image, roi), scan, np.flatnonzero(keep))
                frames += 1
                from_background += int(same.sum())
    assert frames == 3 * 2 * 600
    assert from_background > 0.9 * frames * empty.n_points


def test_filter_roi_matches_per_ring_oracle_on_empty_and_dropped_rings():
    # walls low enough that the upward rays miss the far walls, so the
    # empty room has rays without a return
    room = Room.rectangle(-6.0, -6.0, 6.0, 6.0, wall_height=2.0)
    grid = RoiGrid.from_polygon(room, cell_size=0.1, margin=0.3)
    roi = Roi.record(ROOM_LIDAR, room, grid, (0.1, 2.2))
    image = scan_lidar(ROOM_LIDAR, [make_person(1, 3.0, 0.5)], room)
    ranges = image.ranges.copy()
    missing = ~np.isfinite(ranges)
    assert missing.any() and not missing.all()
    ranges[missing] = 3.0  # rays the empty room lacks gain a return
    ranges[2] = np.inf  # ring 2 loses every return
    ranges[4] *= 2.0  # ring 4 returns from twice as far, below the floor
    mixed = RangeImage(ROOM_LIDAR, ranges)
    looked_up = []
    roi_keep = local_fusion._roi_keep
    with mock.patch.object(local_fusion, "_roi_keep",
                           lambda p, *a: looked_up.append(len(p)) or roi_keep(p, *a)):
        out = assert_filter_matches_oracle(mixed, roi)
        assert_filter_matches_oracle(image, roi)
        empty = assert_filter_matches_oracle(RangeImage(ROOM_LIDAR, np.full_like(ranges, np.inf)),
                                             roi)
    assert out.n_points > 0 and 2 not in out.ring and 4 not in out.ring
    assert empty.n_points == 0 and empty.points.shape == (0, 3)
    # only returns on rays whose range changed are placed and looked up
    unmoved = image.ranges == roi.background.ranges  # the person moves some rays
    assert unmoved.any() and not unmoved.all()
    changed = (ranges != roi.background.ranges) & np.isfinite(ranges)
    assert looked_up == [int(changed.sum()),
                         int((~unmoved & np.isfinite(image.ranges)).sum()), 0]


def test_filter_roi_rejects_an_image_of_another_sensor():
    image, room = room_scan()
    roi = Roi.record(ROOM_LIDAR, room, RoiGrid.from_polygon(room))
    assert filter_roi(RangeImage(replace(ROOM_LIDAR), image.ranges), roi).n_points > 0
    for other in (replace(ROOM_LIDAR, position=(0.0, 0.0, 1.7)),
                  replace(ROOM_LIDAR, max_range=20.0)):
        with pytest.raises(ValueError, match="another sensor"):
            filter_roi(RangeImage(other, image.ranges), roi)


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
                       position=cluster.centroid[:2].copy())
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
    b0 = PositionedBox(box=box_over(c1, cam), position=np.array([4.0, 0.22]))
    b1 = PositionedBox(box=box_over(c0, cam), position=np.array([4.0, -0.22]))
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
        PositionedBox(box=box_over(c0, cam), position=np.array([4.0, -0.6])),
        PositionedBox(box=box_over(c1, cam), position=np.array([4.0, 0.6])),
        PositionedBox(box=BBox2D(30, 30, 90, 160, "person", 0.4),
                      position=np.array([5.5, 2.5])),
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
    assert out[0].class_label == UNKNOWN
    assert out[0].source == SOURCE_LIDAR_ONLY


def test_no_duplicate_assignment():
    cam = side_camera()
    rng = np.random.default_rng(4)
    clusters = [fake_cluster(4.0 + i, rng.uniform(-1, 1)) for i in range(4)]
    boxes = [PositionedBox(box=box_over(c, cam), position=c.centroid[:2] + rng.normal(0, 0.05, 2))
             for c in clusters[:3]]
    out = associate_boxes_clusters(boxes, clusters, cam)
    fused_clusters = [id(o.cluster) for o in out if o.cluster is not None]
    assert len(fused_clusters) == len(set(fused_clusters))


def test_fused_position_is_cluster_centroid_exactly():
    cam = side_camera()
    cluster = fake_cluster(3.5, 0.8)
    pb = PositionedBox(box=box_over(cluster, cam),
                       position=np.array([3.55, 0.82]))
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
    near = PositionedBox(box=box, position=behind.centroid[:2] + [0.5, 0.0])
    cost = brute_force_association_cost([near], [behind], cam)
    assert cost[0, 0] == 1.0 + float(np.linalg.norm(near.position - behind.centroid[:2]))
    out = assert_association_matches_oracle([near], [behind], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    far = PositionedBox(box=box, position=behind.centroid[:2] + [0.9, 0.0])
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
    boxes = [PositionedBox(box=b, position=position) for b in (inside, above)]
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
    pb = PositionedBox(box=box, position=np.array([3.0, 1.0]))
    cost = brute_force_association_cost([pb], [cluster], cam)
    assert cost[0, 0] == float(np.linalg.norm(pb.position - cluster.centroid[:2]))
    out = assert_association_matches_oracle([pb], [cluster], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    # a box that only touches the 1 px box's far corner does not overlap
    corner = BBox2D(u + 1.0, v + 1.0, u + 9.0, v + 9.0, "person", 0.7)
    pb = PositionedBox(box=corner, position=np.array([3.0, 1.0]))
    assert brute_force_association_cost([pb], [cluster], cam)[0, 0] == 1.0 + cost[0, 0]
    assert_association_matches_oracle([pb], [cluster], cam)


def test_association_with_no_boxes_or_no_clusters():
    cam = side_camera()
    clusters = [fake_cluster(4.0, 0.0), fake_cluster(5.0, 1.0)]
    boxes = [PositionedBox(box=box_over(c, cam), position=c.centroid[:2].copy())
             for c in clusters]
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
    at_gate = PositionedBox(box=box, position=np.array([-3.0, 1.3]))
    assert brute_force_association_cost([at_gate], [behind], cam)[0, 0] == DEFAULT_COST_GATE
    out = assert_association_matches_oracle([at_gate], [behind], cam)
    assert [o.source for o in out] == [SOURCE_FUSED]
    past = PositionedBox(box=box, position=np.array([-3.0, np.nextafter(1.3, 2.0)]))
    assert 1.0 + float(np.linalg.norm(past.position - behind.centroid[:2])) > DEFAULT_COST_GATE
    assert brute_force_association_cost([past], [behind], cam)[0, 0] == math.inf
    out = assert_association_matches_oracle([past], [behind], cam)
    assert sorted(o.source for o in out) == [SOURCE_CAMERA_ONLY, SOURCE_LIDAR_ONLY]


def test_association_matches_per_pair_oracle_on_builtin_frames(monkeypatch, solver_costs):
    from dataclasses import replace

    from coopercept import pipeline
    from coopercept.scenarios import BUILTIN_SCENARIOS

    box_calls, foot_calls = [], []
    real_associate = pipeline.associate_boxes_clusters
    real_feet = local_fusion.associate_foot_to_parent

    def record_boxes(boxes, clusters, camera):
        out = real_associate(boxes, clusters, camera)
        box_calls.append((boxes, clusters, camera, out))
        return out

    def record_feet(feet, parents, v_z, overlap):
        pairs = real_feet(feet, parents, v_z, overlap)
        foot_calls.append(([BBox2D(*row, "foot") for row in feet.tolist()],
                           [BBox2D(*row, "person") for row in parents.tolist()],
                           v_z, overlap, pairs))
        return pairs

    monkeypatch.setattr(pipeline, "associate_boxes_clusters", record_boxes)
    monkeypatch.setattr(local_fusion, "associate_foot_to_parent", record_feet)
    costs = solver_costs(local_fusion)
    for build in BUILTIN_SCENARIOS.values():
        pipeline.run_local_eval(replace(build(), duration_s=2.0))
    assert len(box_calls) == len(costs) == 720  # scenes x frames x nodes x methods x cameras

    entries, gated, sources = 0, 0, set()
    for (boxes, clusters, camera, out), cost in zip(box_calls, costs):
        want = brute_force_association_cost(boxes, clusters, camera)
        assert cost == (want.shape, want.tobytes())
        assert labeled_rows(out, clusters) == oracle_rows(boxes, clusters, camera)
        entries += want.size
        gated += np.isinf(want).sum()
        sources.update(o.source for o in out)
    assert entries > 40000 and 0 < gated < entries
    assert sources == {SOURCE_FUSED, SOURCE_LIDAR_ONLY, SOURCE_CAMERA_ONLY}

    assert len(foot_calls) > 200
    for feet, parents, v_z, overlap, pairs in foot_calls:
        assert overlap.tolist() == [[overlap_ratio(f, p) for p in parents] for f in feet]
        assert pairs == brute_force_foot_to_parent(feet, parents, v_z)
    assert sum(len(pairs) for *_, pairs in foot_calls) > 500


# -- ground localization vs the per-box oracle ---------------------------------

def located_rows(located):
    """(box identity, class, position bytes) of each located box."""
    return [(id(pb.box), pb.box.class_label, pb.position.tobytes()) for pb in located]


def assert_located_like_oracle(detections, camera):
    got = locate_boxes(detections, camera)
    assert located_rows(got) == located_rows(per_box_locate_boxes(detections, camera))
    return got


def test_locate_boxes_matches_per_box_oracle_on_builtin_camera_frames():
    """Every camera-frame of the built-ins over 5 s at seeds 7 and 2411,
    each camera's detector stream drawn as run_node draws it."""
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import BUILTIN_SCENARIOS

    frames = located = 0
    for build in BUILTIN_SCENARIOS.values():
        for seed in (7, 2411):
            config = replace(build(seed), duration_s=5.0)
            world_frames = simulate_world(config)
            for node in config.nodes:
                for k, mount in enumerate(node.cameras):
                    camera = mount.build()
                    rng = np.random.default_rng([config.seed, node.node_id, k])
                    for _, world in world_frames:
                        detections = detect_camera(camera, world, config.detector, rng)
                        located += len(assert_located_like_oracle(detections, camera))
                        frames += 1
    assert frames == 3 * 2 * 2 * 2 * 50
    assert located > 5 * frames


def test_locate_boxes_matches_per_box_oracle_with_extra_feet():
    # crowds of feet on few persons, so that unmatched feet join matched
    # parents, one to three at a time, in any order against their match
    cam = side_camera()
    rng = np.random.default_rng(43)
    extra_feet = 0
    for _ in range(300):
        people = []
        for x in rng.uniform(100.0, 1100.0, size=int(rng.integers(0, 4))):
            y = rng.uniform(100.0, 300.0)
            people.append(BBox2D(x, y, x + rng.uniform(40.0, 90.0), y + rng.uniform(150.0, 350.0),
                                 "person"))
        feet = []
        for person in people:
            for _ in range(int(rng.integers(0, 4))):
                x = rng.uniform(person.x_min - 10.0, person.x_max - 10.0)
                y = rng.uniform(person.y_max - 30.0, person.y_max - 5.0)
                feet.append(BBox2D(x, y, x + 20.0, y + 15.0, "foot"))
        beds = [BBox2D(500.0, 400.0, 800.0, rng.uniform(450.0, 700.0), "bed")] \
            if rng.random() < 0.3 else []
        detections = people + feet + beds
        order = rng.permutation(len(detections))
        assert_located_like_oracle([detections[k] for k in order], cam)
        if people and feet:
            pairs = brute_force_foot_to_parent(feet, people, vanishing_point_z(cam))
            matched = {j for _, j in pairs}
            extra_feet += sum(
                any(j in matched and overlap_ratio(foot, person) > 0.0
                    for j, person in enumerate(people))
                for i, foot in enumerate(feet) if i not in {f for f, _ in pairs})
    assert extra_feet > 100


def test_locate_boxes_raises_on_a_degenerate_view():
    # proportional rows: the floor system of every pixel is singular, and
    # h33 = 0 leaves no vertical vanishing point
    cam = CameraModel(H=np.array([[1.0, 2.0, 0.0, 0.0],
                                  [2.0, 4.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, 1.0]]), image_size=(10, 10))
    person, bed = BBox2D(1.0, 1.0, 3.0, 5.0, "person"), BBox2D(4.0, 1.0, 9.0, 3.0, "bed")
    foot = BBox2D(1.5, 4.0, 2.5, 5.0, "foot")
    for detections in ([person], [bed], [person, bed], [person, foot]):
        for locate in (locate_boxes, per_box_locate_boxes):
            with pytest.raises(CameraGeometryError):
                locate(detections, cam)
    assert locate_boxes([foot], cam) == per_box_locate_boxes([foot], cam) == []


# -- gated assignment vs exhaustive search ------------------------------------

def test_gated_assignment_matches_exhaustive():
    """A caller's gate written into the cost as inf gives the pairs, and the
    solver the matrix, of the former rule that took the gate apart from
    the cost, for raw costs holding NaN, +-inf and entries at the gate."""
    rng = np.random.default_rng(12)
    solve = mock.patch.object(assignment, "linear_sum_assignment",
                              wraps=assignment.linear_sum_assignment)
    seen = Counter()
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        gate = float(rng.uniform(0.5, 1.8))
        raw = rng.uniform(0.0, 2.0, size=(rows, cols))
        # about 15% of the entries sit at the gate, 5% each are NaN, inf and -inf
        mark = rng.random(size=raw.shape)
        raw[mark < 0.15] = gate
        for k, value in enumerate((np.nan, np.inf, -np.inf)):
            raw[(mark >= 0.15 + 0.05 * k) & (mark < 0.2 + 0.05 * k)] = value
        with solve as solver:
            got = gated_assignment(np.where(raw <= gate, raw, np.inf))
        *want, matrix = two_mask_gated_assignment(raw, gate)
        assert got == tuple(want)
        assert solver.call_args.args[0].tobytes() == matrix.tobytes()
        count, total = brute_force_gated_matching(raw, gate)
        assert len(got[0]) == count
        assert sum(raw[i, j] for i, j in got[0]) == pytest.approx(total, abs=1e-9)
        seen.update(str(v) for v in raw.ravel().tolist() if not math.isfinite(v))
        seen["matched at the gate"] += sum(raw[i, j] == gate for i, j in got[0])
    assert min(seen.values()) > 50 and len(seen) == 4


# -- camera view merging ------------------------------------------------------

def test_merge_prefers_fused_label_for_same_cluster():
    cluster = fake_cluster(4.0, 0.0)
    from coopercept.local_fusion import LabeledObject

    lidar_only = LabeledObject(UNKNOWN, cluster.centroid[:2], cluster,
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


def test_merge_screens_camera_only_rows_against_each_other():
    from coopercept.local_fusion import DEFAULT_DUPLICATE_GATE, LabeledObject

    def camera_only(x, confidence=0.8):
        return LabeledObject("person", np.array([x, 1.0]), None, SOURCE_CAMERA_ONLY, confidence)

    first = camera_only(3.0)
    near = camera_only(3.0 + 0.9 * DEFAULT_DUPLICATE_GATE)
    beyond = camera_only(3.0 + 1.1 * DEFAULT_DUPLICATE_GATE)
    # no view holds a cluster: the first camera-only row screens the rest
    merged = merge_camera_views([[first], [near, beyond]])
    assert merged == [first, beyond]
    assert merge_camera_views([[], []]) == []
    assert merge_camera_views([[near], [first]]) == [near]


def test_suppress_duplicates_screens_against_kept_but_never_returns_them():
    from coopercept.local_fusion import LabeledObject, suppress_duplicates

    def at(x):
        return LabeledObject("person", np.array([x, 0.0]), None, SOURCE_CAMERA_ONLY)

    kept = [at(0.0), at(5.0)]
    blocked, free, behind_free = at(0.3), at(2.0), at(2.2)
    assert suppress_duplicates([blocked, free, behind_free], 0.5, kept) == [free]
    assert suppress_duplicates([], 0.5, kept) == []
    assert suppress_duplicates(kept, 0.5) == kept
    # gate[i, k] over the pool [kept[0], a, b]: row i screens objects[i]
    a, b = at(0.25), at(0.5)
    assert suppress_duplicates([a, b], np.array([[0.3, 0, 0], [0.3, 0, 0]]), kept[:1]) == [b]
    assert suppress_duplicates([a, b], np.array([[0.2, 0, 0], [0.2, 0.3, 0]]), kept[:1]) == [a]


def test_merge_keeps_best_label_per_cluster_in_first_appearance_order():
    from coopercept.local_fusion import LabeledObject

    c1, c2, c3 = (fake_cluster(x, 0.0) for x in (2.0, 4.0, 6.0))

    def labeled(cluster, source=SOURCE_LIDAR_ONLY, confidence=1.0):
        label = UNKNOWN if source == SOURCE_LIDAR_ONLY else "person"
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
