"""Pinhole camera geometry.

Covers the 3x4 projection model, the z-axis vanishing point, closed-form
recovery of a world position from a pixel on a known-height horizontal
plane, and the vanishing-point-guided pairing of ground-contact boxes
(feet) with their parent boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import gated_assignment

PERSON = "person"
FOOT = "foot"
BED = "bed"
UNKNOWN = "unknown"  # a LiDAR cluster no camera box labelled

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


def project_points(camera: CameraModel, points: np.ndarray):
    """Vectorized projection of an (N, 3) array.

    Returns ``(pixels (N, 2), depths (N,))``; rows with |depth| below the
    degeneracy threshold hold NaN pixels instead of raising.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    hom = np.empty((len(pts), 4))
    hom[:, :3] = pts
    hom[:, 3] = 1.0
    u = hom @ camera.H.T
    depth = u[:, 2]
    ok = np.abs(depth) >= _EPS_DEPTH
    if ok.all():
        return u[:, :2] / depth[:, None], depth
    pix = np.full((len(pts), 2), np.nan)
    pix[ok] = u[ok, :2] / depth[ok, None]
    return pix, depth


def vanishing_point_z(camera: CameraModel) -> np.ndarray:
    """Image point where all world-vertical lines meet: (h13/h33, h23/h33)."""
    H = camera.H
    if abs(H[2, 2]) < _EPS_DEPTH:
        raise CameraGeometryError("world z-axis parallel to image plane (h33 ~ 0)")
    return np.array([H[0, 2] / H[2, 2], H[1, 2] / H[2, 2]])


def recover_ground_positions(camera: CameraModel, pixels, z_w: float) -> np.ndarray:
    """Invert the projection on the horizontal plane z = z_w for each row
    of the (n, 2) ``pixels``; (n, 2) world xy.

    Solves the 2x2 linear system obtained by eliminating the projective
    scale from the projection equations, in closed form, for every pixel
    at once. Raises ``CameraGeometryError`` if any system is singular.
    """
    h = camera.H
    pix = np.asarray(pixels, dtype=float).reshape(-1, 2)
    # row r of a pixel's system: a_r1 = h[2, 0] * p_r - h[r, 0],
    # a_r2 = h[2, 1] * p_r - h[r, 1] and
    # b_r = (h[r, 2] - h[2, 2] * p_r) * z_w + h[r, 3] - h[2, 3] * p_r
    (a11, a12), (a21, a22) = (pix[:, :, None] * h[2, :2] - h[:2, :2]).transpose(1, 2, 0)
    b1, b2 = ((h[:2, 2] - h[2, 2] * pix) * z_w + h[:2, 3] - h[2, 3] * pix).T
    det = a11 * a22 - a12 * a21
    if (np.abs(det) < _EPS_DEPTH).any():
        raise CameraGeometryError(f"degenerate view of plane z = {z_w}")
    xy = np.empty_like(pix)
    xy[:, 0] = (b1 * a22 - b2 * a12) / det
    xy[:, 1] = (b2 * a11 - b1 * a21) / det
    return xy


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


def associate_foot_to_parent(feet: np.ndarray, parents: np.ndarray, v_z: np.ndarray,
                             overlap: np.ndarray) -> list[tuple[int, int]]:
    """Pair ground-contact boxes with parent boxes, both as box arrays
    (see :func:`box_array`), given their ``overlap_ratios(feet, parents)``.

    Score = overlap ratio + cosine of the angle between the rays from the
    vanishing point to the two box centers; assignment maximizes total
    score. A pair with zero overlap whose cosine falls below
    ``FOOT_COSINE_THRESHOLD`` is rejected, so each returned pair has real
    geometric support. A ray of zero length has cosine 0.
    """
    v_z = np.asarray(v_z, dtype=float)
    # box centers, as BBox2D.center computes them
    ray_f = (feet[:, :2] + feet[:, 2:]) * 0.5 - v_z
    ray_p = (parents[:, :2] + parents[:, 2:]) * 0.5 - v_z
    # vecdot runs numpy's dot loop, so each entry equals the 1-D ``a @ b``
    norms = np.sqrt(np.vecdot(ray_f, ray_f))[:, None] * np.sqrt(np.vecdot(ray_p, ray_p))
    nonzero = norms != 0.0  # pixel rays are 0 or far too long for the product to underflow
    cosine = np.where(nonzero, np.vecdot(ray_f[:, None, :], ray_p) / np.where(nonzero, norms, 1.0),
                      0.0)
    # every score is finite, so every pair is feasible to the solver
    pairs, _, _ = gated_assignment(-(overlap + cosine))
    return [(i, j) for i, j in pairs
            if not (overlap[i, j] == 0.0 and cosine[i, j] < FOOT_COSINE_THRESHOLD)]
