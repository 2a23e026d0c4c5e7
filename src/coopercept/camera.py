"""Pinhole camera geometry.

Covers the 3x4 projection model, the z-axis vanishing point, closed-form
recovery of a world position from a pixel on a known-height horizontal
plane, and the vanishing-point-guided pairing of ground-contact boxes
(feet) with their parent boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

PERSON = "person"
FOOT = "foot"
BED = "bed"

BOX_CLASSES = (PERSON, FOOT, BED)

_EPS_DEPTH = 1e-12
FOOT_COSINE_THRESHOLD = 0.95  # foot-to-parent ray agreement without overlap


class CameraGeometryError(ValueError):
    """Degenerate camera geometry (point on camera plane, singular view)."""


@dataclass(frozen=True)
class CameraModel:
    """Calibrated pinhole camera: projection matrix plus image size."""

    H: np.ndarray
    image_size: tuple[int, int]  # (width, height) in pixels

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.shape != (3, 4):
            raise ValueError(f"H must be 3x4, got {H.shape}")
        if np.allclose(H[2], 0.0):
            raise ValueError("third row of H is zero")
        object.__setattr__(self, "H", H)

    @classmethod
    def from_krt(cls, K, R, t, image_size) -> "CameraModel":
        K = np.asarray(K, dtype=float)
        R = np.asarray(R, dtype=float)
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("R is not orthonormal")
        if np.linalg.det(R) < 0.0:
            raise ValueError("R must be a proper rotation (det +1)")
        t = np.asarray(t, dtype=float).reshape(3)
        H = K @ np.hstack([R, t[:, None]])
        return cls(H=H, image_size=tuple(image_size))

    @classmethod
    def from_pose(cls, position, yaw, pitch, K, image_size) -> "CameraModel":
        """Camera at ``position`` looking along ``yaw`` (world z-up),
        pitched down by ``pitch`` radians.

        Camera axes: z forward, x right, y down.
        """
        cy, sy = np.cos(yaw), np.sin(yaw)
        cp, sp = np.cos(pitch), np.sin(pitch)
        forward = np.array([cp * cy, cp * sy, -sp])
        right = np.array([sy, -cy, 0.0])
        down = np.cross(forward, right)
        R = np.vstack([right, down, forward])
        C = np.asarray(position, dtype=float).reshape(3)
        t = -R @ C
        return cls.from_krt(K, R, t, image_size)


@dataclass
class BBox2D:
    """Axis-aligned image box with a semantic label."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    class_label: str
    confidence: float = 1.0

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        if self.class_label not in BOX_CLASSES:
            raise ValueError(f"unknown box class {self.class_label!r}")

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.x_min + self.x_max) * 0.5, (self.y_min + self.y_max) * 0.5])

    @property
    def bottom_center(self) -> np.ndarray:
        return np.array([(self.x_min + self.x_max) * 0.5, self.y_max])


def project(camera: CameraModel, world_point) -> np.ndarray:
    """Project a 3D world point to pixel coordinates.

    Raises :class:`CameraGeometryError` when the point lies on the camera
    plane (projective depth ~ 0).
    """
    p = np.append(np.asarray(world_point, dtype=float).reshape(3), 1.0)
    u = camera.H @ p
    if abs(u[2]) < _EPS_DEPTH:
        raise CameraGeometryError("point on camera plane: projective depth ~ 0")
    return u[:2] / u[2]


def project_points(camera: CameraModel, points: np.ndarray):
    """Vectorized projection of an (N, 3) array.

    Returns ``(pixels (N, 2), depths (N,))``; rows with |depth| below the
    degeneracy threshold hold NaN pixels instead of raising.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    hom = np.hstack([pts, np.ones((len(pts), 1))])
    u = hom @ camera.H.T
    depth = u[:, 2]
    ok = np.abs(depth) >= _EPS_DEPTH
    pix = np.full((len(pts), 2), np.nan)
    pix[ok] = u[ok, :2] / depth[ok, None]
    return pix, depth


def vanishing_point_z(camera: CameraModel) -> np.ndarray:
    """Image point where all world-vertical lines meet: (h13/h33, h23/h33)."""
    H = camera.H
    if abs(H[2, 2]) < _EPS_DEPTH:
        raise CameraGeometryError("world z-axis parallel to image plane (h33 ~ 0)")
    return np.array([H[0, 2] / H[2, 2], H[1, 2] / H[2, 2]])


def recover_ground_position(camera: CameraModel, pixel, z_w: float) -> np.ndarray:
    """Invert the projection on the horizontal plane z = z_w.

    Solves the 2x2 linear system obtained by eliminating the projective
    scale from the projection equations, in closed form.
    """
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
    x_w = (b1 * a22 - b2 * a12) / det
    y_w = (b2 * a11 - b1 * a21) / det
    return np.array([x_w, y_w])


def box_array(boxes: list[BBox2D]) -> np.ndarray:
    """(n, 4) array of the boxes' (x_min, y_min, x_max, y_max)."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=float).reshape(-1, 4)


def overlap_ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection area divided by the smaller of the two box areas, for
    every pair of rows of the (n, 4) and (m, 4) box arrays ``a`` and ``b``
    (rows as :func:`box_array` lays them out); (n, m). Disjoint or touching
    pairs get 0."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    hit = (iw > 0.0) & (ih > 0.0)
    return np.where(hit, iw * ih / np.minimum(area_a[:, None], area_b[None, :]), 0.0)


def associate_foot_to_parent(feet: list[BBox2D], parents: list[BBox2D],
                             v_z: np.ndarray) -> list[tuple[int, int]]:
    """Pair ground-contact boxes with parent boxes.

    Score = overlap ratio + cosine of the angle between the rays from the
    vanishing point to the two box centers; assignment maximizes total
    score. A pair with zero overlap whose cosine falls below
    ``FOOT_COSINE_THRESHOLD`` is rejected, so each returned pair has real
    geometric support. A ray of zero length has cosine 0.
    """
    if not feet or not parents:
        return []
    v_z = np.asarray(v_z, dtype=float)
    ray_f = np.array([f.center for f in feet]) - v_z
    ray_p = np.array([p.center for p in parents]) - v_z
    # vecdot runs numpy's dot loop, so each entry equals the 1-D ``a @ b``
    norm_f = np.sqrt(np.vecdot(ray_f, ray_f))
    norm_p = np.sqrt(np.vecdot(ray_p, ray_p))
    dots = np.vecdot(ray_f[:, None, :], ray_p[None, :, :])
    nonzero = (norm_f[:, None] != 0.0) & (norm_p[None, :] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.where(nonzero, dots / (norm_f[:, None] * norm_p[None, :]), 0.0)
    overlap = overlap_ratios(box_array(feet), box_array(parents))
    rows, cols = linear_sum_assignment(-(overlap + cosine))
    pairs = []
    for i, j in zip(rows, cols):
        if overlap[i, j] == 0.0 and cosine[i, j] < FOOT_COSINE_THRESHOLD:
            continue
        pairs.append((int(i), int(j)))
    return pairs
