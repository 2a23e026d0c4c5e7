"""Node-to-center message transport.

Defines the framed binary wire format for stamped object lists, a
truncated-Gaussian latency model fitted to measured 5G round trips, a
deterministic discrete-event simulated network (messages may reorder;
the channel is lossless by default), and per-node clock skew.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass

import numpy as np

from .camera import BED, PERSON, UNKNOWN
from .tracking import StampedObjectList, TrackedObject

MAGIC = b"SOL1"
VERSION = 2

_HEADER = struct.Struct("<4sHHqI")  # magic, version, node_id, timestamp_us, count
MAX_NODE_ID = 0xFFFF  # the header's uint16 node_id
_RECORD = struct.Struct("<IB5d")  # id, class, x, y, yaw, v, omega
_LENGTH = struct.Struct("<I")

_CLASS_CODES = {PERSON: 0, BED: 1, UNKNOWN: 2}
_CLASS_NAMES = {v: k for k, v in _CLASS_CODES.items()}

MIN_LATENCY_MS = 0.1
MAX_CLOCK_OFFSET_MS = 1000.0  # the largest node clock offset accepted


class FrameError(ValueError):
    """Malformed wire frame: bad magic/version, truncated data or a
    non-finite field."""


def encode(message: StampedObjectList) -> bytes:
    """Serialize to a length-prefixed little-endian frame.

    Timestamps travel as integer microseconds since epoch, so sub-
    microsecond fractions do not survive the wire; object fields are raw
    64-bit floats and round-trip bitwise.
    """
    ts_us = round(message.capture_timestamp * 1e6)
    body = [_HEADER.pack(MAGIC, VERSION, message.node_id, ts_us, len(message.objects))]
    for obj in message.objects:
        code = _CLASS_CODES.get(obj.class_label)
        if code is None:
            raise FrameError(f"class {obj.class_label!r} not encodable")
        body.append(_RECORD.pack(obj.track_id, code, obj.x, obj.y, obj.yaw,
                                 obj.v_x, obj.omega_z))
    payload = b"".join(body)
    return _LENGTH.pack(len(payload)) + payload


def decode(frame: bytes) -> StampedObjectList:
    """Parse one full frame produced by :func:`encode`."""
    if len(frame) < _LENGTH.size:
        raise FrameError("frame shorter than length prefix")
    (length,) = _LENGTH.unpack_from(frame, 0)
    payload = frame[_LENGTH.size:]
    if len(payload) != length:
        raise FrameError(f"frame length {len(payload)} != declared {length}")
    if len(payload) < _HEADER.size:
        raise FrameError("payload shorter than header")
    magic, version, node_id, ts_us, count = _HEADER.unpack_from(payload, 0)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    expected = _HEADER.size + count * _RECORD.size
    if len(payload) != expected:
        raise FrameError(f"payload size {len(payload)} != expected {expected} "
                         f"for {count} objects")
    objects = []
    for track_id, code, x, y, yaw, v, omega in _RECORD.iter_unpack(payload[_HEADER.size:]):
        name = _CLASS_NAMES.get(code)
        if name is None:
            raise FrameError(f"unknown class code {code}")
        if not all(map(math.isfinite, (x, y, yaw, v, omega))):
            raise FrameError(f"track {track_id}: non-finite state")
        objects.append(TrackedObject(track_id, name, x, y, yaw, v, omega))
    return StampedObjectList(node_id=node_id, capture_timestamp=ts_us / 1e6,
                             objects=tuple(objects))


@dataclass(frozen=True)
class LatencyModel:
    """Gaussian transmission latency, truncated away from zero.

    A degenerate model (std 0) always returns exactly its mean, which also
    admits an ideal zero-latency channel for control runs; a stochastic
    model must have a positive mean and its draws are floored at the
    channel minimum.
    """

    mean_ms: float = 50.0
    std_ms: float = 8.0

    def __post_init__(self):
        if self.mean_ms < 0.0 or (self.mean_ms == 0.0 and self.std_ms > 0.0):
            raise ValueError("mean latency must be > 0 for a stochastic model")
        if self.std_ms < 0.0:
            raise ValueError("latency std must be >= 0")


def sample_latency(model: LatencyModel, rng: np.random.Generator) -> float:
    """Draw one latency in milliseconds; stochastic draws never fall below
    the channel floor."""
    if model.std_ms == 0.0:
        return model.mean_ms
    return max(float(rng.normal(model.mean_ms, model.std_ms)), MIN_LATENCY_MS)


@dataclass(frozen=True)
class ClockModel:
    """Per-node clock error: fixed offset plus linear drift."""

    offset_ms: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        if abs(self.offset_ms) > MAX_CLOCK_OFFSET_MS:
            raise ValueError(f"clock offset exceeds {MAX_CLOCK_OFFSET_MS} ms")
        if not 1.0 + self.drift_ppm * 1e-6 > 0.0:  # a clock must run forward
            raise ValueError(f"drift_ppm must be > -1e6, got {self.drift_ppm}")

    def node_time(self, global_time: float) -> float:
        return global_time + self.offset_ms * 1e-3 + self.drift_ppm * 1e-6 * global_time

    def global_time(self, node_time: float) -> float:
        """Inverse of :meth:`node_time`; exact for a zero offset and drift."""
        return (node_time - self.offset_ms * 1e-3) / (1.0 + self.drift_ppm * 1e-6)


class SimulatedNetwork:
    """Deterministic discrete-event channel.

    Deliveries pop in non-decreasing arrival time, ties broken by
    (time, node_id, send sequence). Latency samples are independent per
    message, so two messages from one node may arrive out of order; the
    channel never drops a frame unless a drop probability is configured.
    """

    def __init__(self, latency: LatencyModel, seed: int = 0, drop_probability: float = 0.0):
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self.latency = latency
        self.rng = np.random.default_rng(seed)
        self.drop_probability = drop_probability
        self._queue: list[tuple[float, int, int, StampedObjectList]] = []
        self._seq = 0

    def send(self, message: StampedObjectList, now: float) -> float | None:
        """Schedule delivery of a message sent at global time ``now``.

        Returns the scheduled arrival time, or None when the message was
        dropped. The wire codec runs on every send so transported bytes
        are exactly what a real channel would carry.
        """
        delay_ms = sample_latency(self.latency, self.rng)
        if self.drop_probability > 0.0 and self.rng.random() < self.drop_probability:
            return None
        arrival = now + delay_ms * 1e-3
        heapq.heappush(self._queue, (arrival, message.node_id, self._seq,
                                     decode(encode(message))))
        self._seq += 1
        return arrival

    def deliveries_until(self, time: float) -> list[tuple[float, StampedObjectList]]:
        """Pop every ``(arrival time, message)`` whose arrival is <= ``time``."""
        out = []
        while self._queue and self._queue[0][0] <= time:
            arrival, _, _, message = heapq.heappop(self._queue)
            out.append((arrival, message))
        return out
