"""Per-node fusion stage: ROI point filtering and box-to-cluster association.

The region of interest is a static binary grid that strips wall and floor
returns before clustering. Camera detections, carrying world positions
recovered from their ground-contact pixels, are matched to point-cloud
clusters by minimum-cost assignment to label the clusters semantically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import gated_assignment
from .camera import (
    BBox2D,
    CameraModel,
    associate_foot_to_parent,
    box_array,
    overlap_ratios,
    project_points,
    recover_ground_position,
    vanishing_point_z,
)
from .clustering import Cluster
from .scene import RingScan, Room

CLASS_UNKNOWN = "unknown"

SOURCE_FUSED = "fused"
SOURCE_LIDAR_ONLY = "lidar_only"
SOURCE_CAMERA_ONLY = "camera_only"

DEFAULT_Z_BAND = (0.1, 2.2)
DEFAULT_COST_GATE = 1.8
DEFAULT_OVERLAP_WEIGHT = 1.0
DEFAULT_DISTANCE_WEIGHT = 1.0  # 1/m
DEFAULT_DUPLICATE_GATE = 0.5


@dataclass
class RoiGrid:
    """Binary keep/drop occupancy grid over the ground plane."""

    origin: tuple[float, float]
    cell_size: float
    mask: np.ndarray  # (rows, cols) bool, row-major from origin

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be > 0")
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.size == 0:
            raise ValueError("grid must be non-empty")

    @classmethod
    def from_polygon(cls, room: Room, cell_size: float = 0.1,
                     margin: float = 0.3) -> "RoiGrid":
        """True inside the room polygon shrunk by ``margin`` (cell centers
        farther than margin from every wall edge)."""
        poly = np.asarray(room.polygon)
        x_min, y_min = poly.min(axis=0)
        x_max, y_max = poly.max(axis=0)
        cols = int(math.ceil((x_max - x_min) / cell_size))
        rows = int(math.ceil((y_max - y_min) / cell_size))
        xs = x_min + (np.arange(cols) + 0.5) * cell_size
        ys = y_min + (np.arange(rows) + 0.5) * cell_size
        gx, gy = np.meshgrid(xs, ys)
        centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
        inside = room.contains(centers)
        if margin > 0.0:
            for a, b in room.edges:
                e = b - a
                ee = float(e @ e)
                tt = np.clip((centers - a) @ e / ee, 0.0, 1.0)
                nearest = a[None, :] + tt[:, None] * e[None, :]
                inside &= np.linalg.norm(centers - nearest, axis=1) > margin
        return cls(origin=(float(x_min), float(y_min)), cell_size=cell_size,
                   mask=inside.reshape(rows, cols))

    def keep(self, xy: np.ndarray) -> np.ndarray:
        """Boolean keep mask for (n, 2) positions; outside the extent is False."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        col = np.floor((xy[:, 0] - self.origin[0]) / self.cell_size).astype(int)
        row = np.floor((xy[:, 1] - self.origin[1]) / self.cell_size).astype(int)
        rows, cols = self.mask.shape
        ok = (row >= 0) & (row < rows) & (col >= 0) & (col < cols)
        out = np.zeros(len(xy), dtype=bool)
        out[ok] = self.mask[row[ok], col[ok]]
        return out


def filter_roi(scan: RingScan, grid: RoiGrid, z_band=DEFAULT_Z_BAND) -> RingScan:
    """Keep points whose ground cell is marked and whose z is in the band;
    kept points stay in scan order, so the result is ring-major too."""
    z_min, z_max = z_band
    z = scan.points[:, 2]
    keep = grid.keep(scan.points[:, :2]) & (z >= z_min) & (z <= z_max)
    return RingScan(timestamp=scan.timestamp, ring=scan.ring[keep],
                    azimuths=scan.azimuths[keep], ranges=scan.ranges[keep],
                    points=scan.points[keep])


@dataclass
class PositionedBox:
    """A semantic 2D box with the world position recovered from its
    ground-contact pixel."""

    box: BBox2D
    position: np.ndarray  # (2,) world xy
    from_foot: bool


@dataclass
class LabeledObject:
    """Classified, localized output of the per-node fusion stage."""

    class_label: str
    position: np.ndarray  # (2,) world xy
    cluster: Cluster | None
    source: str
    confidence: float = 1.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(2)
        if not np.all(np.isfinite(self.position)):
            raise ValueError("position must be finite")
        if (self.class_label == CLASS_UNKNOWN) != (self.source == SOURCE_LIDAR_ONLY):
            # unknown exactly when no 2D box matched
            raise ValueError(f"inconsistent class/source: {self.class_label}/{self.source}")


def locate_boxes(detections: list[BBox2D], camera: CameraModel) -> list[PositionedBox]:
    """Attach world positions to person/bed boxes.

    Feet pair with parent person boxes via the vanishing-point association;
    a matched foot's bottom-center pixel is inverted on the floor plane
    (z=0). Persons without a foot fall back to their own bottom-center,
    as do beds. Multiple feet on one parent average their ground pixels.
    """
    people = [d for d in detections if d.class_label == "person"]
    feet = [d for d in detections if d.class_label == "foot"]
    beds = [d for d in detections if d.class_label == "bed"]

    ground_pixel = {i: p.bottom_center for i, p in enumerate(people)}
    if feet and people:
        v_z = vanishing_point_z(camera)
        pairs = associate_foot_to_parent(feet, people, v_z)
        matched_feet = {f for f, _ in pairs}
        foot_pixels: dict[int, list[np.ndarray]] = {}
        for foot_i, person_j in pairs:
            foot_pixels.setdefault(person_j, []).append(feet[foot_i].bottom_center)
        # A second foot on an already matched parent is extra evidence.
        overlap = overlap_ratios(box_array(feet), box_array(people))
        for foot_i, foot in enumerate(feet):
            if foot_i in matched_feet:
                continue
            for person_j in range(len(people)):
                if person_j in foot_pixels and overlap[foot_i, person_j] > 0.0:
                    foot_pixels[person_j].append(foot.bottom_center)
                    break
        for person_j, pixels in foot_pixels.items():
            ground_pixel[person_j] = np.mean(pixels, axis=0)

    out = []
    for i, person in enumerate(people):
        pos = recover_ground_position(camera, ground_pixel[i], z_w=0.0)
        out.append(PositionedBox(box=person, position=pos,
                                 from_foot=not np.array_equal(ground_pixel[i],
                                                              person.bottom_center)))
    for bed in beds:
        pos = recover_ground_position(camera, bed.bottom_center, z_w=0.0)
        out.append(PositionedBox(box=bed, position=pos, from_foot=False))
    return out


def associate_boxes_clusters(boxes: list[PositionedBox], clusters: list[Cluster],
                             camera: CameraModel) -> list[LabeledObject]:
    """Label clusters with camera classes by minimum-cost assignment.

    Pair cost combines the complement of the pixel overlap between the
    camera box and the projected cluster box with the metric distance
    between the box's recovered position and the cluster centroid. A
    cluster's box is the pixel bounds of its points in front of the camera
    (depth above 1e-6); a cluster with no such point has overlap 0 with
    every box, and a box of zero width or height is widened to 1 px from
    its minimum corner. Matched clusters take the box class at the cluster
    centroid; leftover clusters come out unknown, leftover boxes
    camera-only at their recovered position.
    """
    overlap = np.zeros((len(boxes), len(clusters)))
    if boxes and clusters:
        # one projection for the whole cluster list; bounds per cluster
        # over its in-front points
        pix, depth = project_points(camera, np.concatenate([c.points for c in clusters]))
        front = depth > 1e-6
        counts = np.array([len(c.points) for c in clusters])
        n_front = np.add.reduceat(front.astype(np.intp), np.cumsum(counts) - counts)
        seen = n_front > 0
        if seen.any():
            pix = pix[front]
            front_starts = (np.cumsum(n_front) - n_front)[seen]
            lo = np.minimum.reduceat(pix, front_starts, axis=0)
            hi = np.maximum.reduceat(pix, front_starts, axis=0)
            flat = ~((lo[:, 0] < hi[:, 0]) & (lo[:, 1] < hi[:, 1]))
            hi[flat] = lo[flat] + 1.0
            overlap[:, seen] = overlap_ratios(box_array([pb.box for pb in boxes]),
                                              np.hstack([lo, hi]))
    positions = np.array([pb.position for pb in boxes]).reshape(-1, 2)
    centroids = np.array([c.centroid[:2] for c in clusters]).reshape(-1, 2)
    delta = positions[:, None, :] - centroids[None, :, :]
    # vecdot runs numpy's dot loop, so each entry equals np.linalg.norm(delta[i, j])
    dist = np.sqrt(np.vecdot(delta, delta))
    cost = DEFAULT_OVERLAP_WEIGHT * (1.0 - overlap) + DEFAULT_DISTANCE_WEIGHT * dist

    pairs, un_boxes, un_clusters = gated_assignment(cost, DEFAULT_COST_GATE)
    out = []
    for i, j in pairs:
        out.append(LabeledObject(
            class_label=boxes[i].box.class_label,
            position=clusters[j].centroid[:2].copy(),
            cluster=clusters[j],
            source=SOURCE_FUSED,
            confidence=boxes[i].box.confidence,
        ))
    for j in un_clusters:
        out.append(LabeledObject(
            class_label=CLASS_UNKNOWN,
            position=clusters[j].centroid[:2].copy(),
            cluster=clusters[j],
            source=SOURCE_LIDAR_ONLY,
        ))
    for i in un_boxes:
        out.append(LabeledObject(
            class_label=boxes[i].box.class_label,
            position=boxes[i].position.copy(),
            cluster=None,
            source=SOURCE_CAMERA_ONLY,
            confidence=boxes[i].box.confidence,
        ))
    return out


def merge_camera_views(per_camera: list[list[LabeledObject]]) -> list[LabeledObject]:
    """Combine association results from the node's cameras.

    Precondition: every view labels the same cluster list, so objects that
    carry the same ``Cluster`` are views of the same physical object. Each
    cluster keeps its best label (fused before LiDAR-only, then the higher
    confidence), in order of first appearance. Camera-only detections within
    the duplicate gate of a kept object are dropped as duplicates.
    """
    flat = [o for view in per_camera for o in view]
    rank = {SOURCE_FUSED: 0, SOURCE_LIDAR_ONLY: 1}
    best: dict[int, LabeledObject] = {}
    for obj in flat:
        if obj.cluster is None:
            continue
        held = best.setdefault(id(obj.cluster), obj)
        if (rank.get(obj.source, 2), -obj.confidence) < \
                (rank.get(held.source, 2), -held.confidence):
            best[id(obj.cluster)] = obj
    kept = list(best.values())

    for obj in flat:
        if obj.cluster is not None:
            continue
        near = any(np.linalg.norm(obj.position - k.position) < DEFAULT_DUPLICATE_GATE
                   for k in kept)
        if not near:
            kept.append(obj)
    return kept
