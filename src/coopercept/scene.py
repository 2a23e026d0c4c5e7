"""Synthetic indoor scene simulation.

Provides controlled, labeled input for the whole pipeline: scripted
pedestrians and a bed moving under CTRV kinematics inside a room polygon,
a ring-structured LiDAR ray caster that reproduces the anisotropic
scanning pattern of a mechanical sensor, and a noisy simulated 2D box
detector standing in for a learned image model.

A scan is a :class:`RangeImage`, one range per (ring, azimuth) ray as a
spinning sensor reports it; :meth:`RangeImage.returns` places the points
of its returns as the flat ring-major :class:`RingScan` that clustering
reads.

All functions are pure given their inputs and an explicit RNG, so frames
can be generated from multiple threads with separate RNG streams.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .camera import BED, FOOT, PERSON, BBox2D, CameraModel, project_points
from .motion import ctrv_advance, wrap_angle

log = logging.getLogger(__name__)

_T_MIN = 0.05  # ignore hits closer than this to the sensor

# Default footprints (full axis lengths, meters).
PERSON_FOOTPRINT = (0.5, 0.4)
BED_FOOTPRINT = (2.2, 1.0)

WAYPOINT_TOLERANCE = 0.3  # m
TURN_GAIN = 3.0  # 1/s
MAX_YAW_RATE = 2.0  # rad/s


@dataclass(frozen=True)
class WorldObject:
    """Ground-truth object state: pose, CTRV rates, and body shape."""

    id: int
    class_label: str
    x: float
    y: float
    yaw: float
    speed: float
    yaw_rate: float
    footprint: tuple[float, float]  # full axis lengths (along-heading, across)
    height: float
    waypoints: tuple[tuple[float, float], ...] = ()
    waypoint_index: int = 0

    def __post_init__(self):
        if self.class_label not in (PERSON, BED):
            raise ValueError(f"unknown object class {self.class_label!r}")
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")
        if min(self.footprint) <= 0.0:
            raise ValueError("footprint axes must be > 0")
        lo, hi = (1.4, 2.0) if self.class_label == PERSON else (0.8, 1.2)
        if not (lo <= self.height <= hi):
            raise ValueError(
                f"{self.class_label} height {self.height} outside [{lo}, {hi}] m"
            )

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def make_person(obj_id, x, y, yaw=0.0, speed=0.0, yaw_rate=0.0, height=1.7, waypoints=()):
    return WorldObject(
        id=obj_id, class_label=PERSON, x=x, y=y, yaw=yaw, speed=speed,
        yaw_rate=yaw_rate, footprint=PERSON_FOOTPRINT, height=height,
        waypoints=tuple(tuple(w) for w in waypoints),
    )


def make_bed(obj_id, x, y, yaw=0.0, speed=0.0, yaw_rate=0.0, height=1.0, waypoints=()):
    return WorldObject(
        id=obj_id, class_label=BED, x=x, y=y, yaw=yaw, speed=speed,
        yaw_rate=yaw_rate, footprint=BED_FOOTPRINT, height=height,
        waypoints=tuple(tuple(w) for w in waypoints),
    )


@dataclass(frozen=True)
class Room:
    """Convex or concave room polygon with vertical walls."""

    polygon: tuple[tuple[float, float], ...]
    wall_height: float = 3.0

    def __post_init__(self):
        if len(self.polygon) < 3:
            raise ValueError("room polygon needs at least 3 vertices")
        object.__setattr__(self, "polygon", tuple(tuple(map(float, v)) for v in self.polygon))

    @classmethod
    def rectangle(cls, x_min, y_min, x_max, y_max, wall_height=3.0) -> "Room":
        return cls(((x_min, y_min), (x_max, y_min), (x_max, y_max), (x_min, y_max)),
                   wall_height=wall_height)

    @property
    def edges(self):
        poly = self.polygon
        return [(np.array(poly[i]), np.array(poly[(i + 1) % len(poly)]))
                for i in range(len(poly))]

    def contains(self, xy) -> np.ndarray:
        """Even-odd point-in-polygon test, vectorized over (n, 2) input."""
        pts = np.atleast_2d(np.asarray(xy, dtype=float))
        poly = np.asarray(self.polygon)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        j = len(poly) - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(poly)):
                xi, yi = poly[i]
                xj, yj = poly[j]
                crosses = (yi > y) != (yj > y)
                x_at = (xj - xi) * (y - yi) / (yj - yi) + xi
                inside ^= crosses & (x < x_at)
                j = i
        return inside if np.ndim(xy) > 1 else inside[0]

    def wall_distances(self, xy) -> np.ndarray:
        """Distance from each of the (n, 2) points to the nearest point of
        each wall edge, in ``edges`` order; (n, edges). vecdot runs numpy's
        dot loop, so each entry equals the one-point ``np.dot`` arithmetic."""
        pts = np.asarray(xy, dtype=float).reshape(-1, 2)
        out = np.empty((len(pts), len(self.polygon)))
        for k, (a, b) in enumerate(self.edges):
            e = b - a
            tt = np.clip(np.vecdot(pts - a, e) / np.vecdot(e, e), 0.0, 1.0)
            r = pts - (a + tt[:, None] * e)
            out[:, k] = np.sqrt(np.vecdot(r, r))
        return out


@dataclass(frozen=True)
class LidarModel:
    """Mechanical scanning LiDAR: ring elevations plus angular resolutions."""

    position: tuple[float, float, float]
    ring_elevations: tuple[float, ...]  # radians, strictly increasing
    horizontal_resolution: float  # dphi, radians
    vertical_resolution: float  # dtheta, radians (nominal ring spacing)
    max_range: float = 30.0

    def __post_init__(self):
        if self.horizontal_resolution <= 0.0 or self.vertical_resolution <= 0.0:
            raise ValueError("angular resolutions must be > 0")
        elev = tuple(float(e) for e in self.ring_elevations)
        if any(b <= a for a, b in zip(elev, elev[1:])):
            raise ValueError("ring elevations must be strictly increasing")
        if elev and not -math.pi / 2.0 < elev[0] <= elev[-1] < math.pi / 2.0:
            raise ValueError("ring elevations must lie strictly between -pi/2 and pi/2")
        if not self.horizontal_resolution < self.vertical_resolution:
            raise ValueError("horizontal resolution must be finer than vertical")
        object.__setattr__(self, "ring_elevations", elev)
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))

    @classmethod
    def uniform(cls, position, n_rings=16, elevation_min=math.radians(-15.0),
                vertical_resolution=math.radians(2.0),
                horizontal_resolution=math.radians(0.2), max_range=30.0) -> "LidarModel":
        elev = tuple(elevation_min + i * vertical_resolution for i in range(n_rings))
        return cls(position=tuple(position), ring_elevations=elev,
                   horizontal_resolution=horizontal_resolution,
                   vertical_resolution=vertical_resolution, max_range=max_range)

    @property
    def n_rings(self) -> int:
        return len(self.ring_elevations)


@dataclass
class RingScan:
    """One LiDAR revolution as flat, ring-major arrays.

    Point ``k`` is the hit on ring ``ring[k]`` at azimuth ``azimuths[k]``,
    ``ranges[k]`` from the sensor, at ``points[k]``. Rings come in
    increasing order and each ring's points in strictly increasing
    azimuth; a ring without hits has no entries. ``dphi`` and ``dtheta``
    are the horizontal and vertical angular resolutions (radians) of the
    sensor that took the scan, the scanning pattern clustering follows.
    """

    ring: np.ndarray  # (n,) int
    azimuths: np.ndarray  # (n,)
    ranges: np.ndarray  # (n,)
    points: np.ndarray  # (n, 3)
    dphi: float
    dtheta: float

    @property
    def n_points(self) -> int:
        return len(self.ranges)


@dataclass
class RangeImage:
    """One LiDAR revolution as the sensor reports it: one range per ray.

    ``ranges[ring, col]`` is the distance along ring ``ring`` at azimuth
    ``-pi + col * dphi``, inf where the ray has no return within the
    sensor's max_range. ``model`` is the sensor that took the image.
    """

    model: LidarModel
    ranges: np.ndarray  # (n_rings, n_az)

    @property
    def n_points(self) -> int:
        """Number of returns."""
        return int(np.count_nonzero(np.isfinite(self.ranges)))

    def returns(self, rays: np.ndarray | None = None) -> RingScan:
        """The returns among ``rays`` (ascending flat ring-major ray indices,
        ``ring * n_az + col``; every ray for None) as a flat scan, each ring
        in azimuth order. Point ``k`` is ``origin + ranges[k] * direction``
        of its ray."""
        table = _ray_table(self.model)
        ranges = self.ranges.ravel()
        if rays is None:
            rays = np.flatnonzero(np.isfinite(ranges))
        else:
            rays = rays[np.isfinite(ranges[rays])]
        t = ranges[rays]
        points = np.asarray(self.model.position) + t[:, None] * table.dirs.take(rays, axis=0)
        ring, col = np.divmod(rays, table.n_az)
        return RingScan(ring=ring, azimuths=table.az[col], ranges=t, points=points,
                        dphi=self.model.horizontal_resolution,
                        dtheta=self.model.vertical_resolution)


@dataclass(frozen=True)
class DetectorProfile:
    """Error model of the simulated 2D box detector."""

    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    pixel_noise_sigma: float = 0.0
    foot_detection_rate: float = 1.0

    def __post_init__(self):
        for name in ("miss_rate", "foot_detection_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.pixel_noise_sigma < 0.0 or self.false_positive_rate < 0.0:
            raise ValueError("noise parameters must be >= 0")


# ---------------------------------------------------------------------------
# Ground-truth motion
# ---------------------------------------------------------------------------

def _waypoint_control(obj: WorldObject):
    """Steer toward the active waypoint; advance it when close enough."""
    idx = obj.waypoint_index
    target = obj.waypoints[idx]
    if math.hypot(target[0] - obj.x, target[1] - obj.y) < WAYPOINT_TOLERANCE:
        idx = (idx + 1) % len(obj.waypoints)
        target = obj.waypoints[idx]
    desired = math.atan2(target[1] - obj.y, target[0] - obj.x)
    err = float(wrap_angle(desired - obj.yaw))
    omega = max(-MAX_YAW_RATE, min(MAX_YAW_RATE, TURN_GAIN * err))
    return omega, idx


def simulate_step(world: list[WorldObject], dt: float,
                  room: Room | None = None) -> list[WorldObject]:
    """Advance every object by CTRV kinematics for one time step.

    Objects with waypoints get their yaw rate re-solved each step to turn
    toward the active waypoint. Objects are kept inside the room polygon:
    a step that would leave reflects the heading off the nearest wall and
    holds position for that step.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = []
    for obj in world:
        omega, wp_idx = (obj.yaw_rate, obj.waypoint_index)
        if obj.waypoints:
            omega, wp_idx = _waypoint_control(obj)
        x, y, yaw, _, _ = ctrv_advance(obj.x, obj.y, obj.yaw, obj.speed, omega, dt)
        steps.append((x, y, yaw, omega, wp_idx))
    # one containment test per step: a call costs about as much for 1 point as for 9
    inside = [True] * len(world) if room is None else room.contains(
        np.array([s[:2] for s in steps]).reshape(-1, 2))
    out = []
    for obj, (x, y, yaw, omega, wp_idx), ok in zip(world, steps, inside):
        if not ok:
            yaw = _reflect_heading(room, obj.x, obj.y, obj.yaw)
            log.debug("object %d reflected at wall near (%.2f, %.2f)", obj.id, x, y)
            x, y = obj.x, obj.y
        out.append(replace(obj, x=x, y=y, yaw=yaw, yaw_rate=omega, waypoint_index=wp_idx))
    return out


def _reflect_heading(room: Room, x: float, y: float, yaw: float) -> float:
    """Mirror a heading about the wall edge nearest to (x, y)."""
    a, b = room.edges[int(np.argmin(room.wall_distances((x, y))[0]))]
    return float(wrap_angle(2.0 * math.atan2(b[1] - a[1], b[0] - a[0]) - yaw))


# ---------------------------------------------------------------------------
# LiDAR ray casting
# ---------------------------------------------------------------------------

def _ray_ellipse_cylinder(origin, dirs, cx, cy, c, s, a, b, height):
    """Ray parameter of the nearest hit on a vertical elliptical cylinder
    (side surface plus top cap); inf where the ray misses. ``c, s`` are
    the cosine and sine of the yaw; the shape parameters are scalars or
    one value per ray."""
    ox, oy, oz = origin
    rx, ry = ox - cx, oy - cy
    u0 = (rx * c + ry * s) / a
    u1 = (-rx * s + ry * c) / b
    w0 = (dirs[:, 0] * c + dirs[:, 1] * s) / a
    w1 = (-dirs[:, 0] * s + dirs[:, 1] * c) / b

    A = w0 * w0 + w1 * w1
    B = u0 * w0 + u1 * w1
    C = u0 * u0 + u1 * u1 - 1.0
    disc = B * B - A * C
    t = np.full(len(dirs), np.inf)
    ok = (disc > 0.0) & (A > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_near = np.where(ok, (-B - sq) / A, np.inf)
        t_far = np.where(ok, (-B + sq) / A, np.inf)
        cand = np.where(t_near > _T_MIN, t_near, t_far)
        z = oz + cand * dirs[:, 2]
    side_ok = ok & np.isfinite(cand) & (cand > _T_MIN) & (z >= 0.0) & (z <= height)
    t[side_ok] = cand[side_ok]

    # Top cap at z = height.
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cap = np.where(np.abs(dz) > 1e-15, (height - oz) / dz, np.inf)
        px = ox + t_cap * dirs[:, 0] - cx
        py = oy + t_cap * dirs[:, 1] - cy
        q0 = (px * c + py * s) / a
        q1 = (-px * s + py * c) / b
    cap_ok = (t_cap > _T_MIN) & np.isfinite(t_cap) & (q0 * q0 + q1 * q1 <= 1.0)
    return np.minimum(t, np.where(cap_ok, t_cap, np.inf))


def _ray_box(origin, dirs, cx, cy, c, s, hx, hy, height):
    """Slab-method ray parameter for a yawed box footprint extruded to
    z in [0, height]; inf where the ray misses. Parameters as for
    :func:`_ray_ellipse_cylinder`."""
    ox, oy, oz = origin
    u = np.empty((len(dirs), 3))
    w = np.empty_like(u)
    rx, ry = ox - cx, oy - cy
    u[:, 0] = rx * c + ry * s
    u[:, 1] = -rx * s + ry * c
    u[:, 2] = oz
    w[:, 0] = dirs[:, 0] * c + dirs[:, 1] * s
    w[:, 1] = -dirs[:, 0] * s + dirs[:, 1] * c
    w[:, 2] = dirs[:, 2]

    lo = np.stack(np.broadcast_arrays(-hx, -hy, 0.0), axis=-1)
    hi = np.stack(np.broadcast_arrays(hx, hy, height), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - u) / w
        t2 = (hi - u) / w
    t_enter = np.nanmax(np.minimum(t1, t2), axis=1)
    t_exit = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (t_enter <= t_exit) & (t_exit > _T_MIN)
    t = np.where(hit & (t_enter > _T_MIN), t_enter, np.inf)
    return t


def _ray_wall(origin, dirs, a, b, wall_height):
    """Ray parameter against one vertical wall segment a->b."""
    ox, oy, oz = origin
    ex, ey = b[0] - a[0], b[1] - a[1]
    denom = dirs[:, 0] * ey - dirs[:, 1] * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((a[0] - ox) * ey - (a[1] - oy) * ex) / denom
        u = ((a[0] - ox) * dirs[:, 1] - (a[1] - oy) * dirs[:, 0]) / denom
    z = oz + t * dirs[:, 2]
    ok = (np.abs(denom) > 1e-15) & (t > _T_MIN) & (u >= 0.0) & (u <= 1.0)
    ok &= (z >= 0.0) & (z <= wall_height)
    return np.where(ok, t, np.inf)


def _ray_floor(origin, dirs, room: Room):
    oz = origin[2]
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dz < -1e-15, -oz / dz, np.inf)
        hit_xy = np.stack([origin[0] + t * dirs[:, 0],
                           origin[1] + t * dirs[:, 1]], axis=1)
    finite = np.isfinite(t)
    ok = finite.copy()
    if finite.any():
        ok[finite] = room.contains(hit_xy[finite])
    return np.where(ok & (t > _T_MIN), t, np.inf)


def _shape_rows(objs: list[WorldObject]) -> np.ndarray:
    """(n, 7) rows of x, y, cos(yaw), sin(yaw), the two half axes of the
    footprint and the height, one per object."""
    return np.array([(obj.x, obj.y, math.cos(obj.yaw), math.sin(obj.yaw),
                      obj.footprint[0] * 0.5, obj.footprint[1] * 0.5, obj.height)
                     for obj in objs]).reshape(-1, 7)


@dataclass(frozen=True)
class _RayTable:
    """One sensor's rays, ring-major: ray ``k`` is ring ``k // n_az`` at
    azimuth ``az[k % n_az]``, with unit direction ``dirs[k]``. Casting and
    point placement both read ``dirs``. Arrays are read-only."""

    az: np.ndarray  # (n_az,)
    tan_e: np.ndarray  # (n_rings,) slope of each ring
    dirs: np.ndarray  # (n_rings * n_az, 3)

    @property
    def n_az(self) -> int:
        return len(self.az)


@functools.lru_cache(maxsize=8)
def _ray_table(model: LidarModel) -> _RayTable:
    n_az = int(round(2.0 * math.pi / model.horizontal_resolution))
    az = -math.pi + np.arange(n_az) * model.horizontal_resolution
    elev = np.asarray(model.ring_elevations)
    cos_e = np.cos(elev)[:, None]
    dirs = np.stack(np.broadcast_arrays(cos_e * np.cos(az), cos_e * np.sin(az),
                                        np.sin(elev)[:, None]), axis=-1).reshape(-1, 3)
    table = _RayTable(az=az, tan_e=np.tan(elev), dirs=dirs)
    for f in fields(table):
        getattr(table, f.name).flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _static_ranges(model: LidarModel, room: Room | None) -> np.ndarray:
    """Nearest wall or floor hit per ray within max_range, inf elsewhere or
    without a map; flat ring-major and read-only."""
    dirs = _ray_table(model).dirs
    t = np.full(len(dirs), np.inf)
    if room is not None:
        origin = np.asarray(model.position, dtype=float)
        for a, b in room.edges:
            t = np.minimum(t, _ray_wall(origin, dirs, a, b, room.wall_height))
        t = np.minimum(t, _ray_floor(origin, dirs, room))
        t[t > model.max_range] = np.inf
    t.flags.writeable = False
    return t


# Height slack of the ring cull, far above the rounding of a ray's height.
_RING_CULL_SLACK = 1e-6  # m


def _object_ray_window(origin, obj: WorldObject, rays: _RayTable,
                       dphi: float) -> np.ndarray | None:
    """Indices of the rays that can graze the object; None means every ray
    is a candidate (sensor inside the footprint circumradius).

    Every surface point of the object lies within ``radius`` of its center
    and at a height in [0, height]. The azimuth window holds the columns
    that can pass within ``radius``; of those, only the rings whose height
    ``oz + h * tan(e)`` can be in [0, height] somewhere between horizontal
    distances ``dist - radius`` and ``dist + radius`` are kept.
    """
    radius = math.hypot(obj.footprint[0], obj.footprint[1]) * 0.5 + 0.05
    dx, dy = obj.x - origin[0], obj.y - origin[1]
    dist = math.hypot(dx, dy)
    if dist <= radius:
        return None
    half = int(math.asin(radius / dist) / dphi) + 2
    center = int(round((math.atan2(dy, dx) + math.pi) / dphi))
    cols = (center + np.arange(-half, half + 1)) % rays.n_az
    near = origin[2] + (dist - radius) * rays.tan_e
    far = origin[2] + (dist + radius) * rays.tan_e
    reach = ((np.maximum(near, far) >= -_RING_CULL_SLACK)
             & (np.minimum(near, far) <= obj.height + _RING_CULL_SLACK))
    return (np.flatnonzero(reach)[:, None] * rays.n_az + cols).ravel()


def scan_lidar(model: LidarModel, world: list[WorldObject],
               static_map: Room | None = None) -> RangeImage:
    """Cast one full revolution and return the nearest hit per ray as a
    range image.

    Azimuths step k * dphi across (-pi, pi), identical for every ring; a
    physical object spanning the +/-pi seam therefore produces split
    segments, which the segment-level clustering may re-merge. Rays with
    no surface within max_range hold inf.

    The static map is cast once per (model, map) and cached. Each frame
    casts only the rays that can graze an object (see
    :func:`_object_ray_window`) and keeps the nearer hit, which is exact.
    """
    origin = np.asarray(model.position, dtype=float)
    rays = _ray_table(model)
    t = _static_ranges(model, static_map).copy()
    for label, cast in ((PERSON, _ray_ellipse_cylinder), (BED, _ray_box)):
        objs = [obj for obj in world if obj.class_label == label]
        if not objs:
            continue
        # One cast for every object of the class, each over its own window.
        windows = [_object_ray_window(origin, obj, rays, model.horizontal_resolution)
                   for obj in objs]
        windows = [np.arange(len(t)) if w is None else w for w in windows]
        shapes = _shape_rows(objs)
        cand = np.concatenate(windows)
        per_ray = np.repeat(shapes, [len(w) for w in windows], axis=0)
        t_obj = cast(origin, rays.dirs.take(cand, axis=0), *per_ray.T)
        t_obj[t_obj > model.max_range] = np.inf
        np.minimum.at(t, cand, t_obj)  # windows of different objects overlap
    return RangeImage(model, t.reshape(model.n_rings, rays.n_az))


# ---------------------------------------------------------------------------
# Simulated 2D detector
# ---------------------------------------------------------------------------

def _object_corners(world: list[WorldObject]) -> np.ndarray:
    """The 8 corners of each object's upright bounding box, world frame;
    (8 * len(world), 3), object by object."""
    x, y, c, s, hx, hy, height = (col[:, None] for col in _shape_rows(world).T)
    dx = np.hstack([hx, hx, -hx, -hx])
    dy = np.hstack([hy, -hy, hy, -hy])
    corners = np.empty((len(world), 4, 2, 3))
    corners[:, :, :, 0] = (x + dx * c - dy * s)[:, :, None]
    corners[:, :, :, 1] = (y + dx * s + dy * c)[:, :, None]
    corners[:, :, 0, 2] = 0.0
    corners[:, :, 1, 2] = height
    return corners.reshape(-1, 3)


def detect_camera(camera: CameraModel, world: list[WorldObject],
                  profile: DetectorProfile, rng) -> list[BBox2D]:
    """Simulate 2D detections: project each visible object's bounding box,
    jitter corners, drop misses, emit foot boxes at the true ground-contact
    pixel for persons, and add spurious boxes.

    ``rng`` is a numpy Generator or a seed for one. Objects behind the
    camera plane are skipped. The corners of every object are projected
    in one call.
    """
    rng = np.random.default_rng(rng)
    width, height = camera.image_size
    sigma = profile.pixel_noise_sigma
    detections: list[BBox2D] = []

    pix, depth = project_points(camera, _object_corners(world))
    pix = pix.reshape(-1, 8, 2)
    lo, hi = pix.min(axis=1), pix.max(axis=1)
    in_front = depth.reshape(-1, 8).min(axis=1) > _T_MIN  # else (partly) behind the camera
    for obj, front, (x_min, y_min), (x_max, y_max) in zip(world, in_front, lo, hi):
        if not front:
            continue
        cx_box, cy_box = (x_min + x_max) * 0.5, (y_min + y_max) * 0.5
        if not (0.0 <= cx_box < width and 0.0 <= cy_box < height):
            continue
        if rng.random() < profile.miss_rate:
            continue
        box = _jittered_box(x_min, y_min, x_max, y_max,
                            obj.class_label, rng, sigma,
                            confidence=float(rng.uniform(0.7, 1.0)))
        detections.append(box)
        if obj.class_label == PERSON and rng.random() < profile.foot_detection_rate:
            ground = project_points(camera, [(obj.x, obj.y, 0.0)])[0][0]
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


def _jittered_box(x_min, y_min, x_max, y_max, label, rng, sigma, confidence) -> BBox2D:
    if sigma > 0.0:
        x_min += rng.normal(0.0, sigma)
        y_min += rng.normal(0.0, sigma)
        x_max += rng.normal(0.0, sigma)
        y_max += rng.normal(0.0, sigma)
        if x_max <= x_min:
            x_min, x_max = x_max - 0.5, x_min + 0.5
        if y_max <= y_min:
            y_min, y_max = y_max - 0.5, y_min + 0.5
    return BBox2D(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max,
                  class_label=label, confidence=confidence)
