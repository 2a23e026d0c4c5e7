"""Center-node fusion with transmission-delay compensation.

Each received object list carries its capture timestamp; comparing it
with the center clock gives the delay. A node sends each list at its
capture time (``pipeline.replay_fusion``), so the delay is the channel
latency plus any clock error; processing latency is not modelled yet. Every
object is forward-predicted over that delay with the class-conditioned
CTRV model before lists from different nodes are associated and combined.
Fresher contributions carry more weight because each contributor's scalar
weighting variance grows with the compensated interval at its class's
process-noise rate. The delay-ignorant baseline compensates over a zero
interval, so its contributors' variances are equal and their weights
uniform. In both, a list older than ``max_compensation`` is left out of
the cycle, and global ids carry over by an assignment, gated by
``CONTINUITY_GATE``, to the previous cycle's tracks predicted over the
cycle interval.

The center's own processing time adds to the delay it compensates, and a
cycle holds a few objects per node, where numpy's per-call overhead would
be most of the cost. So the cycle works on Python floats and ``math``:
records are slot dataclasses built by position (the wire's objects are
tuples), and each gated cost matrix (cross-node, id carry-over, scoring)
is one list of ``math.hypot`` distances, inf past a gate that the class
rule decides once per row key and label (``assignment.gated_costs``), made
an array once for the solver, whose feasible pairs are its finite entries.
The result is the numpy form's to the bit: sums are left folds from 0.0 in
group order, which equal numpy's ``add.reduce`` for up to seven terms (it
switches to unrolled partial sums at eight), a mean is that sum over the
count as in ``np.mean``, and a group holds at most one object per node.
Tried and dropped: numpy gate matrices with an ``np.hypot`` prefilter and
a ``math.hypot`` recheck were exact but slower (``np.hypot`` differs in
the last bit for 11,636 of 2,000,000 normal pairs); skipping the solver
when every row and column has at most one feasible entry cost more than it
saved; passing states through at the baseline's zero interval is inexact,
as ``ctrv_advance`` wraps a yaw of -pi, which the wire keeps, to pi; a
pure-Python port of scipy's solver was exact but about 14 times slower per
call, so ``scipy.optimize`` stays behind ``assignment.gated_assignment``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .assignment import gated_assignment, gated_costs
from .camera import BED, PERSON, UNKNOWN
from .motion import ctrv_advance, wrap_angle
from .tracking import StampedObjectList, class_compatible

log = logging.getLogger(__name__)


CONTINUITY_GATE = 0.8  # m, new track to previous track predicted to now
# Common base position variance for contributor weighting: weights are
# inverse of (base + process rate * compensated interval), which makes
# equal intervals uniform (to the bit at this value).
BASE_POSITION_VAR = 0.0025  # m^2
# Position process noise rates (m^2/s) by class; pedestrians move, the bed
# barely does, unknown (and any other label) sits in between.
PROCESS_RATE = {PERSON: 0.5, BED: 0.05, UNKNOWN: 0.3}


@dataclass(frozen=True)
class FusionParams:
    distance_gate: float = 1.0  # m, cross-node association gate
    # nodes on opposite sides of an extended object see opposite surfaces,
    # so their position estimates legitimately differ by most of its length
    bed_gate_scale: float = 2.0
    max_compensation: float = 0.5  # s, lists older than this are left out of the cycle

    def __post_init__(self):
        if self.max_compensation <= 0.0:
            raise ValueError(f"max_compensation must be > 0, got {self.max_compensation}")

    def gate_for(self, class_label: str) -> float:
        if class_label == BED:
            return self.distance_gate * self.bed_gate_scale
        return self.distance_gate

    def group_gate(self, classes, label: str) -> float:
        """Gate between a group of member ``classes`` and an object ``label``:
        the widest of their gates, or -inf unless every member admits the label."""
        if not all(class_compatible(c, label) for c in classes):
            return -math.inf
        return max(self.gate_for(label), max(self.gate_for(c) for c in classes))


@dataclass(slots=True)
class CompensatedObject:
    """A reported object forward-predicted to the fusion time."""

    node_id: int
    track_id: int
    class_label: str
    x: float
    y: float
    yaw: float
    v_x: float
    omega_z: float
    fusion_var: float  # scalar weighting variance (base + rate * dt)
    delay_ms: float


@dataclass(slots=True)
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

    A message older than ``params.max_compensation`` yields no objects, so
    a silent node's last list leaves the cycle. Otherwise the prediction
    interval is the measured delay, or zero with ``enabled=False`` (the
    baseline path: states pass through and only the delay bookkeeping
    happens). A capture timestamp ahead of the center clock clamps to zero
    with a warning.
    """
    delay = now - message.capture_timestamp
    if delay < 0.0:
        if delay < -1e-6:  # quantization jitter below a microsecond is silent
            log.warning("node %d capture timestamp %.6f ahead of center clock %.6f; "
                        "clamping delay to 0", message.node_id,
                        message.capture_timestamp, now)
        delay = 0.0
    if delay > params.max_compensation:
        return []
    dt = delay if enabled else 0.0

    delay_ms = delay * 1e3
    unknown_rate = PROCESS_RATE[UNKNOWN]
    return [CompensatedObject(message.node_id, track_id, label,
                              *ctrv_advance(x, y, yaw, v_x, omega_z, dt),
                              BASE_POSITION_VAR + PROCESS_RATE.get(label, unknown_rate) * dt,
                              delay_ms)
            for track_id, label, x, y, yaw, v_x, omega_z in message.objects]


def _fold(terms: list[float]) -> float:
    """Left-to-right sum from 0.0, the order in which numpy's
    ``add.reduce`` adds up to seven terms (so all -0.0 terms sum to 0.0).
    Not ``sum``: from Python 3.12 it compensates rounding errors."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _associate_across_nodes(per_node: list[list[CompensatedObject]],
                            params: FusionParams) -> list[list[CompensatedObject]]:
    """Fold node lists into groups of co-observed objects.

    Nodes are merged one at a time with a gated minimum-cost assignment
    between current group positions and the next node's objects; at most
    one contribution per node can land in a group. The gate, written into
    the cost, is class dependent (wider for the bed's extent).
    """
    groups: list[list[CompensatedObject]] = []
    for objs in per_node:
        if not groups:
            groups = [[o] for o in objs]
            continue
        rows = []
        for group in groups:
            gx = gy = 0.0  # left folds, as in _fold
            for m in group:
                gx += m.x
                gy += m.y
            rows.append((frozenset([m.class_label for m in group]),
                         gx / len(group), gy / len(group)))
        cost = gated_costs(rows, [(o.class_label, o.x, o.y) for o in objs], params.group_gate)
        pairs, _, un_objs = gated_assignment(cost)
        for i, j in pairs:
            groups[i].append(objs[j])
        for j in un_objs:
            groups.append([objs[j]])
    return groups


def _combine(group: list[CompensatedObject]) -> GlobalTrack:
    """Inverse-variance scalar-weighted combination, as a track with no id
    yet.

    The per-contributor variance grows with the compensated interval, so
    fresher messages weigh more. Equal intervals, the baseline's zero ones
    included, give equal variances and so uniform weights.
    """
    inv_var = [1.0 / max(m.fusion_var, 1e-9) for m in group]
    total = _fold(inv_var)
    w = [iv / total for iv in inv_var]
    x = y = v = omega = sin_yaw = cos_yaw = 0.0  # left folds, as in _fold
    for wi, m in zip(w, group):
        x += wi * m.x
        y += wi * m.y
        v += wi * m.v_x
        omega += wi * m.omega_z
        sin_yaw += wi * math.sin(m.yaw)
        cos_yaw += wi * math.cos(m.yaw)
    labels = [m.class_label for m in group if m.class_label != UNKNOWN]
    return GlobalTrack(-1, labels[0] if labels else UNKNOWN,
                       x, y, wrap_angle(math.atan2(sin_yaw, cos_yaw)), v, omega,
                       tuple(sorted([(m.node_id, m.track_id) for m in group])),
                       max([m.delay_ms for m in group]), tuple(w))


def _fuse_groups(groups: list[list[CompensatedObject]], previous: list[GlobalTrack],
                 dt: float, next_gid: int):
    tracks = [_combine(group) for group in groups]

    # Ids carry over from previous tracks predicted over the cycle interval.
    rows = []
    for prev in previous:
        px, py, _, _, _ = ctrv_advance(prev.x, prev.y, prev.yaw, prev.v_x, prev.omega_z, dt)
        rows.append((prev.class_label, px, py))
    cost = gated_costs(rows, [(t.class_label, t.x, t.y) for t in tracks],
                       lambda a, b: CONTINUITY_GATE if class_compatible(a, b) else -math.inf)
    pairs, _, unmatched = gated_assignment(cost)
    for i, j in pairs:
        tracks[j].global_id = previous[i].global_id
    for j in unmatched:
        tracks[j].global_id = next_gid
        next_gid += 1
    return tracks, next_gid


class CenterNode:
    """Fusion cycle runner; ids carry over from predicted previous tracks."""

    def __init__(self, params: FusionParams = FusionParams(), delay_aware: bool = True):
        self.params = params
        self.delay_aware = delay_aware
        self.previous: list[GlobalTrack] = []
        self._previous_time = -math.inf  # no cycle yet, so no tracks to predict
        self._next_gid = 1
        self._latest: dict[int, StampedObjectList] = {}

    def receive(self, message: StampedObjectList) -> None:
        """Keep the freshest message per node (reordered arrivals may
        deliver an older capture after a newer one)."""
        current = self._latest.get(message.node_id)
        if current is None or message.capture_timestamp >= current.capture_timestamp:
            self._latest[message.node_id] = message

    def fuse_cycle(self, now: float) -> list[GlobalTrack]:
        """Fuse the freshest list per node at ``now``, a time no earlier than
        the last cycle's; lists older than ``max_compensation`` are held but
        left out, and ids match the last tracks predicted to ``now``."""
        if now < self._previous_time:
            raise ValueError(f"cycle time {now} is earlier than the last cycle's "
                             f"{self._previous_time}")
        dt, self._previous_time = now - self._previous_time, now
        per_node = [
            compensate_delay(self._latest[nid], now, self.params,
                             enabled=self.delay_aware)
            for nid in sorted(self._latest)
        ]
        groups = _associate_across_nodes(per_node, self.params)
        tracks, self._next_gid = _fuse_groups(groups, self.previous, dt,
                                              self._next_gid)
        self.previous = tracks
        return tracks
