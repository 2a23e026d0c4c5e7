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

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


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


def overlap_ratio(a: BBox2D, b: BBox2D) -> float:
    """Intersection area divided by the smaller of the two box areas."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return (iw * ih) / min(a.area, b.area)


def associate_foot_to_parent(feet: list[BBox2D], parents: list[BBox2D],
                             v_z: np.ndarray) -> list[tuple[int, int]]:
    """Pair ground-contact boxes with parent boxes.

    Score = overlap ratio + cosine of the angle between the rays from the
    vanishing point to the two box centers; assignment maximizes total
    score. A pair with zero overlap whose cosine falls below
    ``FOOT_COSINE_THRESHOLD`` is rejected, so each returned pair has real
    geometric support.
    """
    if not feet or not parents:
        return []
    v_z = np.asarray(v_z, dtype=float)
    score = np.zeros((len(feet), len(parents)))
    overlap = np.zeros_like(score)
    cosine = np.zeros_like(score)
    for i, foot in enumerate(feet):
        ray_f = foot.center - v_z
        nf = np.linalg.norm(ray_f)
        for j, parent in enumerate(parents):
            ray_p = parent.center - v_z
            npn = np.linalg.norm(ray_p)
            c = 0.0 if nf == 0.0 or npn == 0.0 else float(ray_f @ ray_p / (nf * npn))
            overlap[i, j] = overlap_ratio(foot, parent)
            cosine[i, j] = c
            score[i, j] = overlap[i, j] + c
    rows, cols = linear_sum_assignment(-score)
    pairs = []
    for i, j in zip(rows, cols):
        if overlap[i, j] == 0.0 and cosine[i, j] < FOOT_COSINE_THRESHOLD:
            continue
        pairs.append((int(i), int(j)))
    return pairs
