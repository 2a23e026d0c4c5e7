"""Class-aware multi-object tracking for one sensor node.

An extended recursive Gaussian filter over the CTRV state observes object
positions only; velocity and turn rate fall out of the filter and feed the
center node's delay compensation. Association is minimum-cost on position
distance; a pair of incompatible classes or farther apart than
``ASSOCIATION_GATE`` costs inf, so a confirmed track can never flip
between person and bed.

The filter runs on all tracks at once, as stacked (k, 5) means and
(k, 5, 5) covariances: prediction pushes every mean through
``ctrv_step`` and every covariance through its motion Jacobian plus
``PROCESS_NOISE_RATE`` times dt. Because only the position is measured, the
update of the matched rows reads the covariances' first two rows and
columns directly (``S = P[:2, :2] + R``, ``K = P[:, :2] S^-1``) and applies
one stacked Joseph form with ``I - KH`` as the identity less ``K`` in its
first two columns. Each slice is what the same product on one track
gives, bit for bit. Each track then holds its row of the stacks. Once a
track has moved ``YAW_INIT_DISPLACEMENT`` from its birth, heading and
speed restart from that displacement: their covariance rows and columns
are zeroed and their variances set to 0.25, so they keep no correlation
from the prior and the covariance stays PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import gated_assignment, pairwise_distances
from .camera import UNKNOWN
from .local_fusion import LabeledObject
from .motion import STATE_DIM, ctrv_jacobian, ctrv_step, wrap_angle


# Process noise rate, per second, of [x, y, yaw, v, omega]: direct
# position jitter 0.05 m/sqrt(s), yaw 0.2 rad/sqrt(s), acceleration
# 0.8 m/s^2 and yaw acceleration 0.5 rad/s^2, each squared.
PROCESS_NOISE_RATE = np.diag([0.05 ** 2, 0.05 ** 2, 0.2 ** 2, 0.8 ** 2, 0.5 ** 2])
INITIAL_VARIANCE = (0.1, 0.1, math.pi ** 2, 1.0, 0.5)  # of a new track's state
MEASUREMENT_SIGMA = 0.05  # m, cluster centroid scatter
ASSOCIATION_GATE = 1.0  # m
# births this close to a confirmed track are occlusion fragments, not new
# objects
SPAWN_SUPPRESSION_RADIUS = 0.5  # m
YAW_INIT_DISPLACEMENT = 0.1  # m before heading is observable


@dataclass(frozen=True)
class TrackerConfig:
    """Track lifecycle counts: hits to confirm, consecutive misses kept."""

    n_confirm: int = 3
    m_miss: int = 5


@dataclass(eq=False)
class TrackState:
    """One tracked object: CTRV mean, covariance, and lifecycle counters."""

    track_id: int
    class_label: str
    mean: np.ndarray  # (5,) [x, y, yaw, v, omega]
    covariance: np.ndarray  # (5, 5)
    birth_position: np.ndarray  # (2,)
    birth_timestamp: float
    hits: int = 1
    misses: int = 0
    confirmed: bool = False
    yaw_initialized: bool = False


class TrackedObject(NamedTuple):
    """Wire-facing snapshot of one confirmed track. A tuple, because the
    center builds one per object of every list it decodes."""

    track_id: int
    class_label: str
    x: float
    y: float
    yaw: float
    v_x: float
    omega_z: float


@dataclass(frozen=True)
class StampedObjectList:
    """A node's tracked objects plus the synchronized capture timestamp."""

    node_id: int
    capture_timestamp: float
    objects: tuple[TrackedObject, ...]


class Tracker:
    """Per-node tracker; one instance per node, strict frame ordering."""

    def __init__(self, node_id: int, config: TrackerConfig = TrackerConfig()):
        self.node_id = node_id
        self.config = config
        self.tracks: list[TrackState] = []
        self._next_id = 1
        self._last_timestamp: float | None = None

    def _new_track(self, obs: LabeledObject, timestamp: float) -> TrackState:
        mean = np.array([obs.position[0], obs.position[1], 0.0, 0.0, 0.0])
        track = TrackState(track_id=self._next_id, class_label=obs.class_label,
                           mean=mean, covariance=np.diag(INITIAL_VARIANCE),
                           birth_position=mean[:2].copy(),
                           birth_timestamp=timestamp)
        self._next_id += 1
        return track

    def _observed(self, track: TrackState, obs: LabeledObject, timestamp: float) -> None:
        """A matched track's heading start and lifecycle, after its filter
        update."""
        if not track.yaw_initialized:
            disp = track.mean[:2] - track.birth_position
            dist = float(np.linalg.norm(disp))
            if dist > YAW_INIT_DISPLACEMENT:
                elapsed = max(timestamp - track.birth_timestamp, 1e-3)
                track.mean[2] = math.atan2(disp[1], disp[0])
                track.mean[3] = dist / elapsed
                track.covariance[[2, 3], :] = 0.0
                track.covariance[:, [2, 3]] = 0.0
                track.covariance[2, 2] = 0.25
                track.covariance[3, 3] = 0.25
                track.yaw_initialized = True

        track.hits += 1
        track.misses = 0
        if track.class_label == UNKNOWN and obs.class_label != UNKNOWN:
            track.class_label = obs.class_label
        if track.hits >= self.config.n_confirm:
            track.confirmed = True

    def update(self, observations: list[LabeledObject], timestamp: float) -> StampedObjectList:
        """Run one predict/associate/update cycle and emit the confirmed
        tracks stamped with the capture time."""
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError("frames must arrive in time order")
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        self._last_timestamp = timestamp

        means = np.array([t.mean for t in self.tracks]).reshape(-1, STATE_DIM)
        covs = np.array([t.covariance for t in self.tracks]).reshape(-1, STATE_DIM, STATE_DIM)
        F = ctrv_jacobian(means, dt)
        means = ctrv_step(means, dt)
        P = F @ covs @ F.mT + PROCESS_NOISE_RATE * dt
        covs = 0.5 * (P + P.mT)

        obs_pos = np.array([o.position for o in observations]).reshape(-1, 2)
        compatible = class_compatible(
            np.array([t.class_label for t in self.tracks], dtype=str)[:, None],
            np.array([o.class_label for o in observations], dtype=str))
        dist = pairwise_distances(means[:, :2], obs_pos)
        cost = np.where(compatible & (dist <= ASSOCIATION_GATE), dist, np.inf)
        pairs, un_tracks, un_obs = gated_assignment(cost)

        if pairs:
            rows, cols = (list(k) for k in zip(*pairs))
            R = np.eye(2) * MEASUREMENT_SIGMA ** 2
            P = covs[rows]
            K = P[:, :, :2] @ np.linalg.inv(P[:, :2, :2] + R)
            mean = means[rows] + (K @ (obs_pos[cols] - means[rows, :2])[:, :, None])[:, :, 0]
            mean[:, 2] = wrap_angle(mean[:, 2])
            IKH = np.broadcast_to(np.eye(STATE_DIM), P.shape).copy()
            IKH[:, :, :2] -= K
            # Joseph form keeps the covariance symmetric PSD.
            P = IKH @ P @ IKH.mT + K @ R @ K.mT
            means[rows], covs[rows] = mean, 0.5 * (P + P.mT)
        for t, mean, cov in zip(self.tracks, means, covs):
            t.mean, t.covariance = mean, cov
        for i, j in pairs:
            self._observed(self.tracks[i], observations[j], timestamp)
        for i in un_tracks:
            self.tracks[i].misses += 1
        confirmed_pos = np.array([t.mean[:2] for t in self.tracks if t.confirmed]).reshape(-1, 2)
        near_confirmed = (pairwise_distances(confirmed_pos, obs_pos)
                          < SPAWN_SUPPRESSION_RADIUS).any(axis=0)
        self.tracks += [self._new_track(observations[j], timestamp)
                        for j in un_obs if not near_confirmed[j]]

        self.tracks = [t for t in self.tracks if t.misses <= self.config.m_miss]

        objects = tuple(
            TrackedObject(
                track_id=t.track_id,
                class_label=t.class_label,
                x=float(t.mean[0]),
                y=float(t.mean[1]),
                yaw=float(t.mean[2]),
                v_x=float(t.mean[3]),
                omega_z=float(t.mean[4]),
            )
            for t in self.tracks if t.confirmed
        )
        return StampedObjectList(node_id=self.node_id,
                                 capture_timestamp=timestamp, objects=objects)


def class_compatible(a, b):
    """Symmetric class gate: labels must agree unless either is unknown.
    Takes two labels, or two broadcastable label arrays for a gate matrix."""
    return (a == UNKNOWN) | (b == UNKNOWN) | (a == b)
