"""Per-node fusion stage: ROI point filtering and box-to-cluster association.

The region of interest (:class:`Roi`) is a static binary grid and a z
band that strip wall and floor returns before clustering. It also holds
one range image of the node's empty room and the ROI's decision for each
of its rays (a per-node background, after Wu et al., TRR 2018). A frame's
ray at exactly the background's range takes that decision, so only the
returns whose range changed, mostly objects, are placed as points and
looked up in the grid. Camera detections, carrying world positions
recovered from their ground-contact pixels, are matched to point-cloud
clusters by minimum-cost assignment to label the clusters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assignment import gated_assignment, pairwise_distances
from .camera import (BED, FOOT, PERSON, UNKNOWN, BBox2D, CameraModel, associate_foot_to_parent,
                     box_array, overlap_ratios, project_points, recover_ground_positions,
                     vanishing_point_z)
from .clustering import Cluster
from .scene import LidarModel, RangeImage, RingScan, Room, scan_lidar

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
                     margin: float = 0.35) -> "RoiGrid":
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
            inside &= (room.wall_distances(centers) > margin).all(axis=1)
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


def _roi_keep(points: np.ndarray, grid: RoiGrid, z_band) -> np.ndarray:
    """The ROI's keep mask of (n, 3) points: ground cell marked, z in band."""
    z = points[:, 2]
    return grid.keep(points[:, :2]) & (z >= z_band[0]) & (z <= z_band[1])


@dataclass(frozen=True, eq=False)
class Roi:
    """A node's region of interest: the ground ``grid``, the ``z_band``, a
    range image of the node's empty room (``background``) and the rays of
    that image whose return the ROI keeps (``background_kept``, ascending
    flat ray indices). Only images from the background's sensor can be
    filtered with it."""

    grid: RoiGrid
    z_band: tuple[float, float]
    background: RangeImage
    background_kept: np.ndarray  # (k,) int

    @classmethod
    def record(cls, lidar: LidarModel, room: Room, grid: RoiGrid,
               z_band=DEFAULT_Z_BAND) -> "Roi":
        """Scan ``room`` with nothing in it and decide every return once."""
        background = scan_lidar(lidar, [], room)
        rays = np.flatnonzero(np.isfinite(background.ranges))
        kept = rays[_roi_keep(background.returns(rays).points, grid, z_band)]
        return cls(grid, tuple(z_band), background, kept)


@functools.lru_cache(maxsize=8)
def room_roi(lidar: LidarModel, room: Room, z_band: tuple[float, float]) -> Roi:
    """The ROI of ``room``'s default grid for ``lidar`` and ``z_band``,
    recorded once per (sensor, room, band) and shared, so its arrays are
    read-only."""
    roi = Roi.record(lidar, room, RoiGrid.from_polygon(room), z_band)
    for array in (roi.grid.mask, roi.background.ranges, roi.background_kept):
        array.flags.writeable = False
    return roi


def filter_roi(image: RangeImage, roi: Roi) -> RingScan:
    """The image's returns whose ground cell is marked and whose z is in the
    band, as a flat ring-major scan (see :meth:`RangeImage.returns`).

    A ray whose range equals the background's exactly is the same point,
    so it takes the background's decision. Only the returns whose range
    changed are placed and looked up in the grid; the other points placed
    are the kept ones. The background sets only the cost, never the
    result. Raises ``ValueError`` if the image's sensor is not the one
    the ROI was recorded with.
    """
    if image.model != roi.background.model:
        raise ValueError("the image comes from another sensor than the ROI's background")
    ranges, empty = image.ranges.ravel(), roi.background.ranges.ravel()
    still = roi.background_kept[ranges[roi.background_kept] == empty[roi.background_kept]]
    moved = np.flatnonzero(ranges != empty)
    moved = moved[np.isfinite(ranges[moved])]
    moved = moved[_roi_keep(image.returns(moved).points, roi.grid, roi.z_band)]
    # moved is ascending; only kept background returns need merging in
    return image.returns(np.sort(np.concatenate([still, moved])) if len(still) else moved)


@dataclass(eq=False)
class PositionedBox:
    """A semantic 2D box with the world position recovered from its
    ground-contact pixel."""

    box: BBox2D
    position: np.ndarray  # (2,) world xy


@dataclass(eq=False)
class LabeledObject:
    """Classified, localized output of the per-node fusion stage."""

    class_label: str
    position: np.ndarray  # (2,) world xy
    cluster: Cluster | None
    source: str
    confidence: float = 1.0


def locate_boxes(detections: list[BBox2D], camera: CameraModel) -> list[PositionedBox]:
    """Attach world positions to person/bed boxes, persons first.

    Feet pair with parent person boxes via the vanishing-point association;
    a matched foot's bottom-center pixel is inverted on the floor plane
    (z=0). An unmatched foot joins the first matched parent it overlaps:
    a second foot is extra evidence, and the parent's feet average their
    ground pixels, its matched foot first. Persons without a foot fall
    back to their own bottom-center, as do beds. The feet x persons
    overlap is computed once, and every position comes from one
    :func:`~coopercept.camera.recover_ground_positions` solve.
    """
    boxes = box_array(detections)
    # bottom centers: (x_min + x_max) / 2, and (y_max + y_max) / 2 is
    # y_max exactly (columns ::3 are x_min and y_max)
    pixels = (boxes[:, 2:] + boxes[:, ::3]) * 0.5
    kinds = [d.class_label for d in detections]
    people = [i for i, kind in enumerate(kinds) if kind == PERSON]
    feet = [i for i, kind in enumerate(kinds) if kind == FOOT]
    located = people + [i for i, kind in enumerate(kinds) if kind == BED]
    ground = pixels[located]
    if feet and people:
        foot_boxes, person_boxes = boxes[feet], boxes[people]
        overlap = overlap_ratios(foot_boxes, person_boxes)
        pairs = associate_foot_to_parent(foot_boxes, person_boxes, vanishing_point_z(camera),
                                         overlap)
        foot, parent = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        foot_pixels = pixels[feet]
        ground[parent] = foot_pixels[foot]
        if len(pairs) < len(feet):  # an unmatched foot joins its first overlapped parent
            matched = np.zeros(len(people), dtype=bool)
            matched[parent] = True
            joins = (overlap > 0.0) & matched
            joins[foot] = False
            extra = np.flatnonzero(joins.any(axis=1))
            owner = joins[extra].argmax(axis=1)
            # sum each parent's feet in np.mean's order, its matched foot
            # first (add.at adds its rows one by one), over their count;
            # a count of 1 divides exactly
            np.add.at(ground, owner, foot_pixels[extra])
            ground[:len(people)] /= 1 + np.bincount(owner, minlength=len(people))[:, None]
    positions = recover_ground_positions(camera, ground, z_w=0.0)
    return [PositionedBox(detections[i], p) for i, p in zip(located, positions)]


def associate_boxes_clusters(boxes: list[PositionedBox], clusters: list[Cluster],
                             camera: CameraModel) -> list[LabeledObject]:
    """Label clusters with camera classes by minimum-cost assignment.

    Pair cost combines the complement of the pixel overlap between the
    camera box and the projected cluster box with the metric distance
    between the box's recovered position and the cluster centroid. A
    cluster's box is the pixel bounds of its points in front of the camera
    (depth above 1e-6); a cluster with no such point has overlap 0 with
    every box, and a box of zero width or height is widened to 1 px from
    its minimum corner. A pair costing more than ``DEFAULT_COST_GATE`` costs
    inf instead. Matched clusters take the box class at the cluster
    centroid; leftover clusters come out unknown, leftover boxes
    camera-only at their recovered position. Each call builds its box,
    position and centroid arrays once, projects every cluster point in
    one call and bounds all clusters with one reduceat per corner.
    """
    overlap = np.zeros((len(boxes), len(clusters)))
    if boxes and clusters:
        # one projection for the whole cluster list; a cluster's box bounds
        # its in-front points, and is NaN (overlapping nothing) without one
        pix, depth = project_points(camera, np.concatenate([c.points for c in clusters]))
        pix[depth <= 1e-6] = np.nan
        starts = list(itertools.accumulate((len(c.points) for c in clusters[:-1]), initial=0))
        cluster_boxes = np.empty((len(clusters), 4))
        lo, hi = cluster_boxes[:, :2], cluster_boxes[:, 2:]
        np.fmin.reduceat(pix, starts, axis=0, out=lo)
        np.fmax.reduceat(pix, starts, axis=0, out=hi)
        flat = ~((lo[:, 0] < hi[:, 0]) & (lo[:, 1] < hi[:, 1]))
        hi[flat] = lo[flat] + 1.0
        overlap = overlap_ratios(box_array([pb.box for pb in boxes]), cluster_boxes)
    dist = pairwise_distances(np.array([pb.position for pb in boxes]).reshape(-1, 2),
                              np.array([c.centroid for c in clusters]).reshape(-1, 3)[:, :2])
    cost = DEFAULT_OVERLAP_WEIGHT * (1.0 - overlap) + DEFAULT_DISTANCE_WEIGHT * dist
    cost = np.where(cost <= DEFAULT_COST_GATE, cost, np.inf)

    pairs, un_boxes, un_clusters = gated_assignment(cost)
    out = [LabeledObject(boxes[i].box.class_label, clusters[j].centroid[:2].copy(), clusters[j],
                         SOURCE_FUSED, boxes[i].box.confidence) for i, j in pairs]
    out += [LabeledObject(UNKNOWN, clusters[j].centroid[:2].copy(), clusters[j], SOURCE_LIDAR_ONLY)
            for j in un_clusters]
    out += [LabeledObject(boxes[i].box.class_label, boxes[i].position.copy(), None,
                          SOURCE_CAMERA_ONLY, boxes[i].box.confidence) for i in un_boxes]
    return out


def observation_rank(obj: LabeledObject) -> tuple:
    """Sort key that puts the preferred observation first: fused before
    the rest, then higher confidence."""
    return obj.source != SOURCE_FUSED, -obj.confidence


def suppress_duplicates(objects: list[LabeledObject], gate, kept=()) -> list[LabeledObject]:
    """Visit ``objects`` in list order and keep each one unless an entry of
    ``kept`` or an earlier kept one is closer than ``gate`` (a scalar, or
    ``gate[i, k]`` over the pool ``kept + objects``); only ``objects`` come out."""
    pool = list(kept) + list(objects)
    positions = np.array([o.position for o in pool]).reshape(-1, 2)
    near = (pairwise_distances(positions[len(kept):], positions) < gate).tolist()
    keep = list(range(len(kept)))
    for i, row in enumerate(near, start=len(kept)):
        if not any(row[k] for k in keep):
            keep.append(i)
    return [pool[k] for k in keep[len(kept):]]


def merge_camera_views(per_camera: list[list[LabeledObject]]) -> list[LabeledObject]:
    """Combine association results from the node's cameras.

    Precondition: every view labels the same cluster list, so objects that
    carry the same ``Cluster`` are views of the same physical object. Each
    cluster keeps its first best label by :func:`observation_rank`, in order
    of first appearance, and all of them are kept. A camera-only detection
    within the duplicate gate of a kept one is dropped.
    """
    flat = [o for view in per_camera for o in view]
    best: dict[int, LabeledObject] = {}
    for obj in flat:
        if obj.cluster is None:
            continue
        held = best.setdefault(id(obj.cluster), obj)
        if observation_rank(obj) < observation_rank(held):
            best[id(obj.cluster)] = obj
    kept = list(best.values())
    camera_only = [o for o in flat if o.cluster is None]
    return kept + suppress_duplicates(camera_only, DEFAULT_DUPLICATE_GATE, kept)
