"""Class-aware multi-object tracking for one sensor node.

An extended recursive Gaussian filter over the CTRV state observes object
positions only; velocity and turn rate fall out of the filter and feed the
center node's delay compensation. Association is minimum-cost on position
distance with a hard class gate, so a confirmed track can never flip
between person and bed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import gated_assignment
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
    hits: int = 1
    misses: int = 0
    confirmed: bool = False
    birth_position: np.ndarray = field(default=None)  # type: ignore[assignment]
    birth_timestamp: float = 0.0
    yaw_initialized: bool = False

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(STATE_DIM)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(STATE_DIM, STATE_DIM)
        if self.birth_position is None:
            self.birth_position = self.mean[:2].copy()

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2]


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


def ctrv_predict(state: TrackState, dt: float, config: TrackerConfig = TrackerConfig()) -> TrackState:
    """Propagate mean and covariance by the CTRV model.

    The mean follows the forward-Euler motion step exactly; the covariance
    is pushed through the motion Jacobian and inflated by the process
    noise rate times dt. dt=0 leaves the mean untouched.
    """
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    mean = ctrv_step(state.mean, dt)
    F = ctrv_jacobian(state.mean, dt)
    cov = F @ state.covariance @ F.T + config.process_noise_rate() * dt
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, covariance=cov,
                   birth_position=state.birth_position.copy())


class Tracker:
    """Per-node tracker; one instance per node, strict frame ordering."""

    _H = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0, 0.0]])

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
                           mean=mean, covariance=cov, birth_timestamp=timestamp)
        self._next_id += 1
        return track

    def _update_track(self, track: TrackState, obs: LabeledObject, timestamp: float) -> None:
        c = self.config
        z = np.asarray(obs.position, dtype=float)
        R = np.eye(2) * c.measurement_sigma ** 2
        H = self._H
        innovation = z - H @ track.mean
        S = H @ track.covariance @ H.T + R
        K = track.covariance @ H.T @ np.linalg.inv(S)
        track.mean = track.mean + K @ innovation
        track.mean[2] = float(wrap_angle(track.mean[2]))
        IKH = np.eye(STATE_DIM) - K @ H
        # Joseph form keeps the covariance symmetric PSD.
        track.covariance = IKH @ track.covariance @ IKH.T + K @ R @ K.T
        track.covariance = 0.5 * (track.covariance + track.covariance.T)

        if not track.yaw_initialized:
            disp = track.mean[:2] - track.birth_position
            dist = float(np.linalg.norm(disp))
            if dist > c.yaw_init_displacement:
                elapsed = max(timestamp - track.birth_timestamp, 1e-3)
                track.mean[2] = math.atan2(disp[1], disp[0])
                track.mean[3] = dist / elapsed
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

        self.tracks = [ctrv_predict(t, dt, self.config) for t in self.tracks]

        cost = np.full((len(self.tracks), len(observations)), np.inf)
        for i, track in enumerate(self.tracks):
            for j, obs in enumerate(observations):
                if not class_compatible(track.class_label, obs.class_label):
                    continue
                cost[i, j] = float(np.linalg.norm(track.position - obs.position))
        pairs, un_tracks, un_obs = gated_assignment(cost, self.config.association_gate)

        for i, j in pairs:
            self._update_track(self.tracks[i], observations[j], timestamp)
        for i in un_tracks:
            self.tracks[i].misses += 1
        confirmed_pos = [t.position.copy() for t in self.tracks if t.confirmed]
        for j in un_obs:
            near_confirmed = any(
                float(np.linalg.norm(p - observations[j].position))
                < self.config.spawn_suppression_radius
                for p in confirmed_pos)
            if not near_confirmed:
                self.tracks.append(self._new_track(observations[j], timestamp))

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


def class_compatible(a: str, b: str) -> bool:
    """Symmetric class gate: labels must agree unless either is unknown."""
    return a == CLASS_UNKNOWN or b == CLASS_UNKNOWN or a == b
