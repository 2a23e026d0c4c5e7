"""Class-aware multi-object tracking for one sensor node.

An extended recursive Gaussian filter over the CTRV state observes object
positions only; velocity and turn rate fall out of the filter and feed the
center node's delay compensation. Association is minimum-cost on position
distance with a hard class gate, so a confirmed track can never flip
between person and bed.

The filter works on each track in place: prediction pushes the mean
through ``ctrv_step`` and the covariance through the motion Jacobian plus
the process noise rate times dt. Because only the position is measured,
the update reads the covariance's first two rows and columns directly
(``S = P[:2, :2] + R``, ``K = P[:, :2] S^-1``) and applies the Joseph
form with ``I - KH`` as the identity less ``K`` in its first two columns.
Once a track has moved ``yaw_init_displacement`` from its birth, heading
and speed restart from that displacement: their covariance rows and
columns are zeroed and their variances set to 0.25, so they keep no
correlation from the prior and the covariance stays PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import gated_assignment, pairwise_distances
from .local_fusion import CLASS_UNKNOWN, LabeledObject
from .motion import STATE_DIM, ctrv_jacobian, ctrv_step, wrap_angle


@dataclass(frozen=True)
class TrackerConfig:
    process_accel_sigma: float = 0.8  # m/s^2
    process_yaw_accel_sigma: float = 0.5  # rad/s^2
    process_position_sigma: float = 0.05  # m/sqrt(s), direct position jitter
    process_yaw_sigma: float = 0.2  # rad/sqrt(s)
    measurement_sigma: float = 0.05  # m, cluster centroid scatter
    association_gate: float = 1.0  # m
    n_confirm: int = 3
    m_miss: int = 5
    # births this close to a confirmed track are occlusion fragments, not
    # new objects
    spawn_suppression_radius: float = 0.5  # m
    yaw_init_displacement: float = 0.1  # m before heading is observable
    initial_position_var: float = 0.1
    initial_yaw_var: float = math.pi ** 2
    initial_speed_var: float = 1.0
    initial_yaw_rate_var: float = 0.5

    def process_noise_rate(self) -> np.ndarray:
        return np.diag([
            self.process_position_sigma ** 2,
            self.process_position_sigma ** 2,
            self.process_yaw_sigma ** 2,
            self.process_accel_sigma ** 2,
            self.process_yaw_accel_sigma ** 2,
        ])


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


@dataclass(frozen=True)
class TrackedObject:
    """Wire-facing snapshot of one confirmed track."""

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
        c = self.config
        mean = np.array([obs.position[0], obs.position[1], 0.0, 0.0, 0.0])
        cov = np.diag([c.initial_position_var, c.initial_position_var,
                       c.initial_yaw_var, c.initial_speed_var, c.initial_yaw_rate_var])
        track = TrackState(track_id=self._next_id, class_label=obs.class_label,
                           mean=mean, covariance=cov, birth_position=mean[:2].copy(),
                           birth_timestamp=timestamp)
        self._next_id += 1
        return track

    def _update_track(self, track: TrackState, obs: LabeledObject, timestamp: float) -> None:
        c = self.config
        P = track.covariance
        R = np.eye(2) * c.measurement_sigma ** 2
        K = P[:, :2] @ np.linalg.inv(P[:2, :2] + R)
        track.mean = track.mean + K @ (obs.position - track.mean[:2])
        track.mean[2] = float(wrap_angle(track.mean[2]))
        IKH = np.eye(STATE_DIM)
        IKH[:, :2] -= K
        # Joseph form keeps the covariance symmetric PSD.
        P = IKH @ P @ IKH.T + K @ R @ K.T
        track.covariance = 0.5 * (P + P.T)

        if not track.yaw_initialized:
            disp = track.mean[:2] - track.birth_position
            dist = float(np.linalg.norm(disp))
            if dist > c.yaw_init_displacement:
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
        if track.class_label == CLASS_UNKNOWN and obs.class_label != CLASS_UNKNOWN:
            track.class_label = obs.class_label
        if track.hits >= c.n_confirm:
            track.confirmed = True

    def update(self, observations: list[LabeledObject], timestamp: float) -> StampedObjectList:
        """Run one predict/associate/update cycle and emit the confirmed
        tracks stamped with the capture time."""
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError("frames must arrive in time order")
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        self._last_timestamp = timestamp

        Q = self.config.process_noise_rate() * dt
        for t in self.tracks:
            F = ctrv_jacobian(t.mean, dt)
            t.mean = ctrv_step(t.mean, dt)
            P = F @ t.covariance @ F.T + Q
            t.covariance = 0.5 * (P + P.T)

        obs_pos = np.array([o.position for o in observations]).reshape(-1, 2)
        track_pos = np.array([t.mean[:2] for t in self.tracks]).reshape(-1, 2)
        compatible = class_compatible(
            np.array([t.class_label for t in self.tracks], dtype=str)[:, None],
            np.array([o.class_label for o in observations], dtype=str))
        cost = np.where(compatible, pairwise_distances(track_pos, obs_pos), np.inf)
        pairs, un_tracks, un_obs = gated_assignment(cost, self.config.association_gate)

        for i, j in pairs:
            self._update_track(self.tracks[i], observations[j], timestamp)
        for i in un_tracks:
            self.tracks[i].misses += 1
        confirmed_pos = np.array([t.mean[:2] for t in self.tracks if t.confirmed]).reshape(-1, 2)
        near_confirmed = (pairwise_distances(confirmed_pos, obs_pos)
                          < self.config.spawn_suppression_radius).any(axis=0)
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
    return (a == CLASS_UNKNOWN) | (b == CLASS_UNKNOWN) | (a == b)
