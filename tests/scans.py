"""Ring scans and range images for tests: built by hand, ROI-filtered
from the built-ins, or cast in a synthetic crowded room."""

import math
from dataclasses import replace

import numpy as np

from coopercept.local_fusion import filter_roi, room_roi
from coopercept.pipeline import simulate_world
from coopercept.scenarios import BUILTIN_SCENARIOS
from coopercept.scene import (LidarModel, RangeImage, RingScan, Room, make_bed, make_person,
                              scan_lidar)


def scan_from_rings(rings, dphi=math.radians(0.2), dtheta=math.radians(2.0)):
    """A RingScan of per-ring ``(ring, azimuths, ranges, points)`` tuples,
    concatenated in the given order; a ring without points adds nothing.
    ``dphi``/``dtheta`` are the resolutions of the sensor it stands for."""
    rings = list(rings)
    return RingScan(
        ring=np.concatenate([np.zeros(0, dtype=int)]
                            + [np.full(len(az), r) for r, az, _, _ in rings]),
        azimuths=np.concatenate([np.zeros(0)]
                                + [np.asarray(az, dtype=float) for _, az, _, _ in rings]),
        ranges=np.concatenate([np.zeros(0)]
                              + [np.asarray(s, dtype=float) for _, _, s, _ in rings]),
        points=np.concatenate([np.zeros((0, 3))]
                              + [np.asarray(p, dtype=float).reshape(-1, 3)
                                 for _, _, _, p in rings]),
        dphi=dphi, dtheta=dtheta)


def image_of(scan, model):
    """A RangeImage of ``model`` that holds each return of the flat ``scan``
    at its ray (ring, azimuth) and inf on every other ray."""
    n_az = round(2.0 * math.pi / model.horizontal_resolution)
    col = np.rint((scan.azimuths + math.pi) / model.horizontal_resolution).astype(int)
    ranges = np.full((model.n_rings, n_az), np.inf)
    ranges[scan.ring, col] = scan.ranges
    return RangeImage(model, ranges)


def builtin_roi_scans(step, scenarios=tuple(BUILTIN_SCENARIOS), duration_s=None, seed=7):
    """``(config, node, t, scan)`` for every ``step``-th frame of the named
    built-in scenarios at ``seed``, at their own duration or ``duration_s``:
    each node's scan of the frame, ROI-filtered as ``run_node`` filters it."""
    for name in scenarios:
        config = BUILTIN_SCENARIOS[name](seed)
        if duration_s is not None:
            config = replace(config, duration_s=duration_s)
        rois = [room_roi(node.lidar, config.room, config.z_band) for node in config.nodes]
        for t, world in simulate_world(config)[::step]:
            for node, roi in zip(config.nodes, rois):
                yield config, node, t, filter_roi(scan_lidar(node.lidar, world, config.room), roi)


def make_benchmark_scan(target_points: int, seed: int = 0) -> RingScan:
    """Ring-structured scan of roughly ``target_points`` hits.

    A crowded room is scanned with the azimuth resolution solved to land
    near the requested point count, preserving the anisotropic geometry
    that separates the two clustering methods.
    """
    if target_points <= 0:
        return scan_lidar(LidarModel.uniform((0.0, 0.0, 2.0)), []).returns()  # nothing to hit
    rng = np.random.default_rng(seed)
    room = Room.rectangle(-12.0, -12.0, 12.0, 12.0)
    objects = []
    for i in range(12):
        r = rng.uniform(2.5, 10.5)
        a = rng.uniform(-math.pi, math.pi)
        objects.append(make_person(i, r * math.cos(a), r * math.sin(a),
                                   yaw=rng.uniform(-math.pi, math.pi)))
    objects.append(make_bed(100, 6.0, 1.5, yaw=0.4))
    objects.append(make_bed(101, -5.0, -6.0, yaw=-1.0))

    n_rings = 16
    dtheta = math.radians(2.0)
    dphi = n_rings * 2.0 * math.pi / target_points
    if dphi >= 0.9 * dtheta:
        # tiny scans: drop rings instead of breaking the anisotropy premise
        dphi = 0.45 * dtheta
        n_rings = max(2, round(target_points * dphi / (2.0 * math.pi)))

    def build(dphi):
        model = LidarModel.uniform((0.0, 0.0, 2.0), n_rings=n_rings,
                                   horizontal_resolution=dphi, max_range=40.0)
        return scan_lidar(model, objects, room).returns()

    scan = build(dphi)
    got = scan.n_points
    if got and abs(got - target_points) / target_points > 0.02:
        scan = build(dphi * got / target_points)
    return scan
