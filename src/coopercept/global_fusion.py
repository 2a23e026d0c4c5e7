"""Center-node fusion with transmission-delay compensation.

Each received object list carries its capture timestamp; comparing it
with the center clock gives the transmission-plus-processing delay. Every
object is forward-predicted over that delay with the class-conditioned
CTRV model before lists from different nodes are associated and combined.
Fresher contributions carry more weight because each contributor's scalar
weighting variance grows with the compensated interval at its class's
process-noise rate.
A delay-ignorant uniform-weight variant serves as the comparison baseline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .assignment import gated_assignment
from .motion import ctrv_step, wrap_angle
from .tracking import StampedObjectList, TrackedObject, class_compatible

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusionParams:
    distance_gate: float = 1.0  # m, cross-node association gate
    # nodes on opposite sides of an extended object see opposite surfaces,
    # so their position estimates legitimately differ by most of its length
    bed_gate_scale: float = 2.0
    max_compensation: float = 0.5  # s, beyond this objects are flagged stale
    continuity_gate: float = 0.8  # m, global id carry-over between cycles
    # Common base position variance for contributor weighting: weights are
    # inverse of (base + process rate * compensated interval), which makes
    # equal delays exactly uniform.
    base_position_var: float = 0.0025  # m^2
    # Position process noise rates (m^2/s) by class; pedestrians move, the
    # bed barely does, unknown sits in between.
    process_rate_person: float = 0.5
    process_rate_bed: float = 0.05
    process_rate_unknown: float = 0.3

    def process_rate(self, class_label: str) -> float:
        if class_label == "person":
            return self.process_rate_person
        if class_label == "bed":
            return self.process_rate_bed
        return self.process_rate_unknown

    def gate_for(self, class_label: str) -> float:
        if class_label == "bed":
            return self.distance_gate * self.bed_gate_scale
        return self.distance_gate


@dataclass
class CompensatedObject:
    """A reported object forward-predicted to the fusion time."""

    node_id: int
    source: TrackedObject
    x: float
    y: float
    yaw: float
    v_x: float
    omega_z: float
    fusion_var: float  # scalar weighting variance (base + rate * dt)
    delay_ms: float
    stale: bool

    @property
    def class_label(self) -> str:
        return self.source.class_label


@dataclass
class GlobalTrack:
    """Fused center-node object."""

    global_id: int
    class_label: str
    x: float
    y: float
    yaw: float
    v_x: float
    omega_z: float
    contributors: tuple[tuple[int, int], ...]  # (node_id, track_id)
    staleness_ms: float
    weights: tuple[float, ...] = ()


def compensate_delay(message: StampedObjectList, now: float,
                     params: FusionParams = FusionParams(),
                     enabled: bool = True) -> list[CompensatedObject]:
    """Predict every object of a message forward to the center time.

    The prediction interval is the measured delay, capped at the
    configured maximum (capped objects are flagged stale). A capture
    timestamp ahead of the center clock clamps to zero with a warning.
    With ``enabled=False`` states pass through unchanged and only the
    delay bookkeeping happens (the baseline path).
    """
    delay = now - message.capture_timestamp
    if delay < 0.0:
        if delay < -1e-6:  # quantization jitter below a microsecond is silent
            log.warning("node %d capture timestamp %.6f ahead of center clock %.6f; "
                        "clamping delay to 0", message.node_id,
                        message.capture_timestamp, now)
        delay = 0.0
    stale = delay > params.max_compensation
    dt = min(delay, params.max_compensation) if enabled else 0.0

    out = []
    for obj in message.objects:
        state = np.array([obj.x, obj.y, obj.yaw, obj.v_x, obj.omega_z])
        state = ctrv_step(state, dt)
        rate = params.process_rate(obj.class_label)
        out.append(CompensatedObject(
            node_id=message.node_id,
            source=obj,
            x=float(state[0]), y=float(state[1]), yaw=float(state[2]),
            v_x=float(state[3]), omega_z=float(state[4]),
            fusion_var=params.base_position_var + rate * dt,
            delay_ms=delay * 1e3,
            stale=stale,
        ))
    return out


def _associate_across_nodes(per_node: list[list[CompensatedObject]],
                            params: FusionParams) -> list[list[CompensatedObject]]:
    """Fold node lists into groups of co-observed objects.

    Nodes are merged one at a time with a gated minimum-cost assignment
    between current group positions and the next node's objects; at most
    one contribution per node can land in a group. The gate is class
    dependent (wider for the bed's extent).
    """
    groups: list[list[CompensatedObject]] = []
    for objs in per_node:
        if not groups:
            groups = [[o] for o in objs]
            continue
        cost = np.full((len(groups), len(objs)), np.inf)
        for i, group in enumerate(groups):
            gx = np.mean([m.x for m in group])
            gy = np.mean([m.y for m in group])
            for j, obj in enumerate(objs):
                if not all(class_compatible(m.class_label, obj.class_label)
                           for m in group):
                    continue
                gate = max(params.gate_for(obj.class_label),
                           *(params.gate_for(m.class_label) for m in group))
                d = math.hypot(gx - obj.x, gy - obj.y)
                if d <= gate:
                    cost[i, j] = d
        pairs, _, un_objs = gated_assignment(cost, math.inf)
        for i, j in pairs:
            groups[i].append(objs[j])
        for j in un_objs:
            groups.append([objs[j]])
    return groups


def _combine(group: list[CompensatedObject], uniform: bool):
    """Inverse-variance (or uniform) scalar-weighted combination.

    The per-contributor variance grows with the compensated interval, so
    fresher messages weigh more; equal delays reduce to uniform weights.
    """
    if uniform:
        w = np.full(len(group), 1.0 / len(group))
    else:
        inv_var = np.array([1.0 / max(m.fusion_var, 1e-9) for m in group])
        w = inv_var / inv_var.sum()
    x = float(np.sum(w * np.array([m.x for m in group])))
    y = float(np.sum(w * np.array([m.y for m in group])))
    v = float(np.sum(w * np.array([m.v_x for m in group])))
    omega = float(np.sum(w * np.array([m.omega_z for m in group])))
    yaw = float(math.atan2(
        np.sum(w * np.sin([m.yaw for m in group])),
        np.sum(w * np.cos([m.yaw for m in group])),
    ))
    labels = [m.class_label for m in group if m.class_label != "unknown"]
    label = labels[0] if labels else "unknown"
    return x, y, wrap_angle(yaw), v, omega, label, w


def _fuse_groups(groups: list[list[CompensatedObject]],
                 uniform: bool, previous: list[GlobalTrack],
                 params: FusionParams, next_gid: int):
    tracks: list[GlobalTrack] = []
    for group in groups:
        x, y, yaw, v, omega, label, w = _combine(group, uniform)
        tracks.append(GlobalTrack(
            global_id=-1,
            class_label=label,
            x=x, y=y, yaw=float(yaw), v_x=v, omega_z=omega,
            contributors=tuple(sorted((m.node_id, m.source.track_id) for m in group)),
            staleness_ms=max(m.delay_ms for m in group),
            weights=tuple(float(v_) for v_ in w),
        ))

    # Global id continuity: greedy nearest neighbor to the previous cycle.
    available = list(previous)
    for track in sorted(tracks, key=lambda t: t.contributors):
        best, best_d = None, params.continuity_gate
        for prev in available:
            if not class_compatible(prev.class_label, track.class_label):
                continue
            d = math.hypot(prev.x - track.x, prev.y - track.y)
            if d < best_d:
                best, best_d = prev, d
        if best is not None:
            track.global_id = best.global_id
            available.remove(best)
        else:
            track.global_id = next_gid
            next_gid += 1
    return tracks, next_gid


class CenterNode:
    """Stateful fusion cycle runner holding global-id continuity."""

    def __init__(self, params: FusionParams = FusionParams(), delay_aware: bool = True):
        self.params = params
        self.delay_aware = delay_aware
        self.previous: list[GlobalTrack] = []
        self._next_gid = 1
        self._latest: dict[int, StampedObjectList] = {}

    def receive(self, message: StampedObjectList) -> None:
        """Keep the freshest message per node (reordered arrivals may
        deliver an older capture after a newer one)."""
        current = self._latest.get(message.node_id)
        if current is None or message.capture_timestamp >= current.capture_timestamp:
            self._latest[message.node_id] = message

    def fuse_cycle(self, now: float) -> list[GlobalTrack]:
        if not self._latest:
            self.previous = []
            return []
        per_node = [
            compensate_delay(self._latest[nid], now, self.params,
                             enabled=self.delay_aware)
            for nid in sorted(self._latest)
        ]
        groups = _associate_across_nodes(per_node, self.params)
        tracks, self._next_gid = _fuse_groups(
            groups, uniform=not self.delay_aware,
            previous=self.previous, params=self.params, next_gid=self._next_gid)
        self.previous = tracks
        return tracks
