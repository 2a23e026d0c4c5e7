import math

import numpy as np
import pytest

from coopercept import scene
from coopercept.camera import CameraModel, project_points, recover_ground_positions
from coopercept.local_fusion import locate_boxes
from coopercept.scene import (
    DetectorProfile,
    LidarModel,
    Room,
    detect_camera,
    make_bed,
    make_person,
    scan_lidar,
    simulate_step,
)

from oracles import (brute_force_scan, per_edge_wall_distances, per_object_detect_camera,
                     scalar_ctrv_iterate)


def overhead_camera():
    K = np.array([[600.0, 0.0, 640.0], [0.0, 600.0, 360.0], [0.0, 0.0, 1.0]])
    return CameraModel.from_pose((0.0, 0.0, 3.0), yaw=0.0, pitch=0.45,
                                 K=K, image_size=(1280, 720))


# -- ground-truth motion -----------------------------------------------------

def test_straight_walk():
    person = make_person(1, 0.0, 0.0, yaw=0.0, speed=1.0)
    out = simulate_step([person], 0.1)
    assert out[0].x == pytest.approx(0.1, abs=0.0)
    assert out[0].y == 0.0


def test_walk_along_y():
    person = make_person(1, 0.0, 0.0, yaw=math.pi / 2.0, speed=2.0)
    out = simulate_step([person], 0.5)
    assert out[0].y == pytest.approx(1.0, abs=1e-15)
    assert abs(out[0].x) < 1e-15


def test_turning_walk_matches_scalar_iterate():
    person = make_person(1, 0.0, 0.0, yaw=0.0, speed=1.0, yaw_rate=0.5)
    world = [person]
    for _ in range(10):
        world = simulate_step(world, 0.1)
    expected = scalar_ctrv_iterate(0.0, 0.0, 0.0, 1.0, 0.5, 0.1, steps=10)
    assert world[0].x == pytest.approx(expected[0], abs=1e-12)
    assert world[0].y == pytest.approx(expected[1], abs=1e-12)
    assert world[0].yaw == pytest.approx(expected[2], abs=1e-12)


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError):
        simulate_step([make_person(1, 0.0, 0.0)], 0.0)


def test_determinism_bitwise():
    def run():
        world = [make_person(1, -3.0, 0.0, speed=1.2,
                             waypoints=((3.0, 0.0), (-3.0, 0.0)))]
        room = Room.rectangle(-5.0, -5.0, 5.0, 5.0)
        states = []
        for _ in range(200):
            world = simulate_step(world, 0.1, room)
            states.append((world[0].x, world[0].y, world[0].yaw))
        return states

    assert run() == run()


def test_waypoint_walker_reaches_target():
    world = [make_person(1, -3.0, -1.0, yaw=0.5, speed=1.0,
                         waypoints=((3.0, 1.0), (-3.0, -1.0)))]
    room = Room.rectangle(-5.0, -5.0, 5.0, 5.0)
    closest = math.inf
    for _ in range(100):
        world = simulate_step(world, 0.1, room)
        closest = min(closest, math.hypot(world[0].x - 3.0, world[0].y - 1.0))
    assert closest < 0.5


def test_objects_stay_inside_room():
    room = Room.rectangle(-4.0, -4.0, 4.0, 4.0)
    world = [make_person(1, 0.0, 0.0, yaw=0.13, speed=2.0)]  # no waypoints: runs at walls
    for _ in range(300):
        world = simulate_step(world, 0.1, room)
        assert room.contains((world[0].x, world[0].y))


# concave: the corner at (2.5, 3) is reflex
L_ROOM = Room(((0.0, 0.0), (6.0, 0.0), (6.0, 3.0), (2.5, 3.0), (2.5, 7.0), (0.0, 7.0)))


def test_wall_distances_match_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.uniform(-2.0, 9.0, size=(2000, 2)),  # inside and outside
                     np.asarray(L_ROOM.polygon),  # on the vertices
                     [(6.0, 1.5), (4.0, 3.0), (2.5, 5.0), (2.0, 2.5)]])
    inside = L_ROOM.contains(pts)
    assert inside.any() and not inside.all()
    dist = L_ROOM.wall_distances(pts)
    assert dist.shape == (len(pts), len(L_ROOM.edges))
    for row, (x, y) in zip(dist, pts):
        assert row.tolist() == per_edge_wall_distances(L_ROOM, x, y)
    # (2.0, 2.5) is equidistant from edges 2 and 3, through the reflex vertex
    tie = L_ROOM.wall_distances((2.0, 2.5))
    assert tie.tolist() == [per_edge_wall_distances(L_ROOM, 2.0, 2.5)]
    assert tie[0, 2] == tie[0, 3] == tie.min()


def test_reflection_off_nearest_wall_of_concave_room():
    # heading east at (2.0, 5.0) leaves through the wall x = 2.5 (edge 3),
    # which is nearer than the walls y = 7 and x = 0
    person = make_person(1, 2.0, 5.0, yaw=0.0, speed=2.0)
    (out,) = simulate_step([person], 0.5, L_ROOM)
    assert (out.x, out.y) == (2.0, 5.0)
    assert math.cos(out.yaw) == pytest.approx(-1.0)
    # heading north at (4.0, 2.9) leaves through y = 3 (edge 2)
    person = make_person(1, 4.0, 2.9, yaw=math.pi / 2.0, speed=1.0)
    (out,) = simulate_step([person], 0.5, L_ROOM)
    assert (out.x, out.y) == (4.0, 2.9)
    assert math.sin(out.yaw) == pytest.approx(-1.0)
    # heading north-east at (2.0, 2.5), edges 2 and 3 tie: the first, y = 3, wins
    person = make_person(1, 2.0, 2.5, yaw=math.pi / 4.0, speed=2.0)
    (out,) = simulate_step([person], 0.5, L_ROOM)
    assert (out.x, out.y) == (2.0, 2.5)
    assert out.yaw == pytest.approx(-math.pi / 4.0)


def test_height_invariants():
    with pytest.raises(ValueError):
        make_person(1, 0.0, 0.0, height=2.5)
    with pytest.raises(ValueError):
        make_bed(1, 0.0, 0.0, height=2.0)


# -- lidar scanning ----------------------------------------------------------

def test_empty_world_empty_scan():
    lidar = LidarModel.uniform((0.0, 0.0, 1.5))
    scan = scan_lidar(lidar, [], static_map=None)
    assert scan.n_points == 0


def test_intra_ring_spacing_on_cylinder():
    # hits on a 0.2 m cylinder at 5 m: consecutive spacing ~ 5 * dphi
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=3,
                               elevation_min=math.radians(-2.0))
    person = make_person(1, 5.0, 0.0, height=1.8)
    scan = scan_lidar(lidar, [person]).returns()
    ring = np.flatnonzero(np.bincount(scan.ring) > 10)[0]
    # central part of the arc (away from grazing edges)
    pts = scan.points[scan.ring == ring][3:-3]
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    expected = 5.0 * lidar.horizontal_resolution
    assert np.median(gaps) == pytest.approx(expected, rel=0.15)


def test_inter_ring_spacing_on_wall():
    # two rings 2 deg apart on a wall at 10 m: vertical spacing ~ 10 * dtheta,
    # about 10x the intra-ring spacing
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=2,
                               elevation_min=math.radians(-1.0))
    room = Room.rectangle(-1.0, -8.0, 10.0, 8.0, wall_height=3.0)
    scan = scan_lidar(lidar, [], static_map=room).returns()
    r0, r1 = ({round(a, 6): p for a, p in zip(scan.azimuths[on], scan.points[on])}
              for on in (scan.ring == 0, scan.ring == 1))
    shared = sorted(set(r0) & set(r1))
    # straight-ahead column hits the x=10 wall
    a = min(shared, key=abs)
    gap = np.linalg.norm(r0[a] - r1[a])
    expected = 10.0 * lidar.vertical_resolution
    assert gap == pytest.approx(expected, rel=0.05)
    intra = np.linalg.norm(r0[shared[len(shared) // 2]] - r0[shared[len(shared) // 2 + 1]])
    assert gap / intra > 5.0


def test_point_geometry_consistency():
    lidar = LidarModel.uniform((1.0, -2.0, 1.8), n_rings=8,
                               elevation_min=math.radians(-11.0))
    room = Room.rectangle(-6.0, -6.0, 6.0, 6.0)
    world = [make_person(1, 3.0, 1.0), make_bed(2, -2.0, -3.0)]
    scan = scan_lidar(lidar, world, room).returns()
    origin = np.array(lidar.position)
    assert np.all(np.diff(scan.ring) >= 0)
    for ring in np.unique(scan.ring):
        assert np.all(np.diff(scan.azimuths[scan.ring == ring]) > 0.0)
    elev = np.asarray(lidar.ring_elevations)[scan.ring]
    dirs = np.stack([
        np.cos(elev) * np.cos(scan.azimuths),
        np.cos(elev) * np.sin(scan.azimuths),
        np.sin(elev),
    ], axis=1)
    rebuilt = origin[None, :] + scan.ranges[:, None] * dirs
    assert np.max(np.linalg.norm(rebuilt - scan.points, axis=1)) < 1e-9
    assert np.all(scan.ranges > 0.0)
    assert np.all(scan.ranges <= lidar.max_range)


def test_scanning_anisotropy_ratio():
    # flat wall straight ahead: intra-ring spacing ~ s*dphi, inter-ring
    # ~ s*dtheta; their ratio tracks dtheta/dphi within 20%
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=4,
                               elevation_min=math.radians(-3.0))
    room = Room.rectangle(-1.0, -10.0, 8.0, 10.0, wall_height=4.0)
    scan = scan_lidar(lidar, [], static_map=room).returns()
    front = [(scan.azimuths[scan.ring == r], scan.points[scan.ring == r])
             for r in np.unique(scan.ring)]
    # use columns near azimuth 0 on the x=8 wall
    intra, inter = [], []
    for az, pts in front:
        pts = pts[np.abs(az) < 0.15]
        if len(pts) > 2:
            intra.extend(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    for (az_a, pts_a), (az_b, pts_b) in zip(front, front[1:]):
        common = sorted(set(np.round(az_a, 9)) & set(np.round(az_b, 9)))
        common = [a for a in common if abs(a) < 0.15]
        pa = {round(a, 9): p for a, p in zip(az_a, pts_a)}
        pb = {round(a, 9): p for a, p in zip(az_b, pts_b)}
        inter.extend(np.linalg.norm(pa[a] - pb[a]) for a in common)
    ratio = np.median(inter) / np.median(intra)
    expected = lidar.vertical_resolution / lidar.horizontal_resolution
    assert ratio == pytest.approx(expected, rel=0.2)


def test_occlusion_nearest_hit():
    lidar = LidarModel.uniform((0.0, 0.0, 1.5), n_rings=8,
                               elevation_min=math.radians(-8.0))
    near = make_person(1, 3.0, 0.0)
    far = make_person(2, 6.0, 0.0)
    scan = scan_lidar(lidar, [near, far]).returns()
    pts = scan.points
    # straight-ahead rays must stop at the near person
    central = pts[np.abs(np.arctan2(pts[:, 1], pts[:, 0])) < 0.02]
    assert len(central) > 0
    assert np.all(np.linalg.norm(central[:, :2], axis=1) < 4.0)


def coarse_lidar(position, n_rings=6, elevation_min=-25.0, step=6.0, dphi=0.75):
    return LidarModel.uniform(position, n_rings=n_rings,
                              elevation_min=math.radians(elevation_min),
                              vertical_resolution=math.radians(step),
                              horizontal_resolution=math.radians(dphi))


def assert_scan_bitwise(scan, expected):
    ring, az, ranges, pts = expected
    assert scan.ring.tobytes() == ring.tobytes()
    assert scan.azimuths.tobytes() == az.tobytes()
    assert scan.ranges.tobytes() == ranges.tobytes()
    assert scan.points.tobytes() == pts.tobytes()


def test_scan_matches_brute_force_over_walk():
    # two sensors share one room; their static hits are cached per sensor
    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import bed_and_three

    config = bed_and_three()
    frames = simulate_world(config)[::7][:5]
    sensors = [coarse_lidar(node.lidar.position) for node in config.nodes]
    for _, world in frames:
        for lidar in sensors:
            scan = scan_lidar(lidar, world, config.room).returns()
            assert_scan_bitwise(scan, brute_force_scan(lidar, world, config.room))


def test_scan_matches_brute_force_with_sensor_inside_object():
    # the person's circumradius holds the sensor, so every ray is a
    # candidate; the upward rings miss the walls and hit only the person
    room = Room.rectangle(-6.0, -5.0, 6.0, 5.0)
    lidar = coarse_lidar((0.0, 0.0, 1.0), elevation_min=-20.0, step=8.0)
    world = [make_person(1, 0.15, 0.1, yaw=0.3, height=1.8),
             make_bed(2, 2.5, -1.0, yaw=0.7), make_person(3, -3.0, 2.0)]
    for step in range(3):
        scan = scan_lidar(lidar, world, room).returns()
        assert_scan_bitwise(scan, brute_force_scan(lidar, world, room))
        world = simulate_step(world, 0.1, room)


def test_scan_without_static_map_matches_brute_force():
    lidar = coarse_lidar((0.0, 0.0, 1.5), n_rings=8, elevation_min=-15.0, step=4.0)
    world = [make_person(1, 3.0, 0.0), make_person(2, -4.0, 0.05, yaw=1.0),
             make_bed(3, 0.5, 5.0, yaw=0.2)]
    scan = scan_lidar(lidar, world).returns()
    assert scan.n_points > 0
    assert_scan_bitwise(scan, brute_force_scan(lidar, world))


def test_lidar_rings_must_point_below_vertical():
    # the ray cull measures each ring's horizontal reach with cos(e) > 0
    assert coarse_lidar((0.0, 0.0, 1.0), n_rings=2, elevation_min=-89.0, step=178.0).n_rings == 2
    for elevation_min, step in ((-90.0, 6.0), (80.0, 10.0), (-100.0, 6.0)):
        with pytest.raises(ValueError, match="between -pi/2 and pi/2"):
            coarse_lidar((0.0, 0.0, 1.0), n_rings=2, elevation_min=elevation_min, step=step)


def test_scan_matches_brute_force_on_random_scenes():
    """Random sensors and scenes against the unculled ray-by-ray caster.
    Sensor heights fall below bed tops (0.8-1.2 m), between the classes,
    inside the persons' 1.4-2.0 m and above both; each trial places one
    object within 1.5 m, often with the sensor inside its circumradius,
    one at 1.5-4 m and one at 4-10 m, of either class; every other trial
    adds a room."""
    rng = np.random.default_rng(2411)
    room = Room.rectangle(-11.0, -11.0, 11.0, 11.0)
    cast = culled = 0
    for trial in range(24):
        height = (0.3, 1.0, 1.3, 1.6, 1.95, 3.0)[trial % 6]
        lidar = coarse_lidar((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), height),
                             n_rings=int(rng.integers(2, 9)),
                             elevation_min=rng.uniform(-40.0, 5.0),
                             step=rng.uniform(2.0, 9.0), dphi=1.0)
        world = []
        for k, (lo, hi) in enumerate(((0.2, 1.5), (1.5, 4.0), (4.0, 10.0))):
            r, a = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
            x, y = lidar.position[0] + r * math.cos(a), lidar.position[1] + r * math.sin(a)
            yaw = rng.uniform(-math.pi, math.pi)
            world.append(make_person(k, x, y, yaw=yaw, height=rng.uniform(1.4, 2.0))
                         if rng.random() < 0.6 else
                         make_bed(k, x, y, yaw=yaw, height=rng.uniform(0.8, 1.2)))
        static = room if trial % 2 else None
        assert_scan_bitwise(scan_lidar(lidar, world, static).returns(),
                            brute_force_scan(lidar, world, static))
        rays = scene._ray_table(lidar)
        for obj in world:
            window = scene._object_ray_window(np.array(lidar.position), obj, rays,
                                              lidar.horizontal_resolution)
            if window is not None:
                cast += 1
                culled += len(np.unique(window // rays.n_az)) < lidar.n_rings
    assert cast > 40 and culled > 20  # the ring cull acted on many objects


def test_writing_to_a_scan_leaves_the_next_scan_unchanged():
    lidar = coarse_lidar((0.0, 0.0, 2.0))
    room = Room.rectangle(-5.0, -5.0, 5.0, 5.0)
    world = [make_person(1, 2.0, 1.0)]
    expected = brute_force_scan(lidar, world, room)
    for _ in range(2):
        image = scan_lidar(lidar, world, room)
        scan = image.returns()
        assert_scan_bitwise(scan, expected)
        image.ranges[:] = 1.0
        scan.ring[:] = -1
        scan.azimuths[:] = 0.0
        scan.ranges[:] = -1.0
        scan.points[:] = np.nan


# -- simulated detector ------------------------------------------------------

def quiet_profile(**kw):
    base = dict(miss_rate=0.0, false_positive_rate=0.0,
                pixel_noise_sigma=0.0, foot_detection_rate=0.0)
    base.update(kw)
    return DetectorProfile(**base)


def test_noise_free_centered_person_box():
    # symmetric setup: level camera at the person's mid height, person on
    # the optical axis -> box center = projected centroid
    K = np.array([[500.0, 0.0, 640.0], [0.0, 500.0, 360.0], [0.0, 0.0, 1.0]])
    person = make_person(1, 4.0, 0.0, yaw=0.0, height=1.8)
    cam = CameraModel.from_pose((0.0, 0.0, 0.9), yaw=0.0, pitch=0.0,
                                K=K, image_size=(1280, 720))
    boxes = detect_camera(cam, [person], quiet_profile(), rng=0)
    assert len(boxes) == 1
    center = boxes[0].center
    expected = project_points(cam, [(4.0, 0.0, 0.9)])[0][0]
    assert np.allclose(center, expected, atol=1e-9)


def test_full_miss_rate_drops_everything():
    person = make_person(1, 4.0, 0.0)
    boxes = detect_camera(overhead_camera(), [person],
                          quiet_profile(miss_rate=1.0), rng=0)
    assert boxes == []


def test_foot_box_round_trips_to_ground_position():
    cam = overhead_camera()
    person = make_person(1, 5.0, 0.5)
    boxes = detect_camera(cam, [person],
                          quiet_profile(foot_detection_rate=1.0), rng=3)
    feet = [b for b in boxes if b.class_label == "foot"]
    assert len(feet) == 1
    located = locate_boxes(boxes, cam)
    assert len(located) == 1
    assert np.allclose(located[0].position, [5.0, 0.5], atol=1e-6)
    # the person box's own bottom center recovers a different point, so
    # the position above comes from the foot
    person_box, = (b for b in boxes if b.class_label == "person")
    own, = recover_ground_positions(cam, [person_box.bottom_center], z_w=0.0)
    assert not np.allclose(own, [5.0, 0.5], atol=1e-6)


def test_objects_behind_camera_skipped():
    cam = overhead_camera()  # looks along +x
    behind = make_person(1, -5.0, 0.0)
    assert detect_camera(cam, [behind], quiet_profile(), rng=0) == []


def test_false_positive_rate():
    cam = overhead_camera()
    rng = np.random.default_rng(5)
    profile = quiet_profile(false_positive_rate=2.0)
    counts = [len(detect_camera(cam, [], profile, rng)) for _ in range(300)]
    assert np.mean(counts) == pytest.approx(2.0, rel=0.15)


def test_detection_determinism():
    cam = overhead_camera()
    world = [make_person(1, 4.0, 1.0), make_person(2, 6.0, -1.0)]
    profile = DetectorProfile(miss_rate=0.2, false_positive_rate=0.5,
                              pixel_noise_sigma=2.0, foot_detection_rate=0.7)
    a = detect_camera(cam, world, profile, rng=np.random.default_rng(11))
    b = detect_camera(cam, world, profile, rng=np.random.default_rng(11))
    assert [(x.x_min, x.y_min, x.x_max, x.y_max, x.class_label) for x in a] == \
        [(x.x_min, x.y_min, x.x_max, x.y_max, x.class_label) for x in b]


def test_batched_detector_matches_per_object_oracle_on_builtin_frames():
    # each camera's generator is seeded as run_node seeds it
    from dataclasses import replace

    from coopercept.pipeline import simulate_world
    from coopercept.scenarios import BUILTIN_SCENARIOS

    camera_frames = boxes = 0
    for build in BUILTIN_SCENARIOS.values():
        for seed in (7, 2411):
            config = replace(build(seed), duration_s=5.0)
            frames = simulate_world(config)
            for node in config.nodes:
                for i, placement in enumerate(node.cameras):
                    cam = placement.build()
                    rng, ref = (np.random.default_rng([seed, node.node_id, i]) for _ in "ab")
                    for _, world in frames:
                        got = detect_camera(cam, world, config.detector, rng)
                        assert got == per_object_detect_camera(cam, world, config.detector, ref)
                        assert rng.bit_generator.state == ref.bit_generator.state
                        camera_frames += 1
                        boxes += len(got)
    assert camera_frames == 3 * 2 * 2 * 2 * 50
    assert boxes > 5 * camera_frames
