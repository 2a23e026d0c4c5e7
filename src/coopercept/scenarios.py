"""Scenario configuration: rooms, nodes, scripted crowds, experiment grids.

Three built-in scenarios mirror the evaluation data's composition (a
crowded nine-pedestrian case, a four-pedestrian case, and a bed moving
among three pedestrians) inside a two-node room. Configurations load from
and save to YAML and hash deterministically for reproducibility stamps.
Each setting is stated once: a LiDAR's angular resolutions live on its
``LidarModel`` and reach clustering through its scans, and no field is
kept that no run reads. A field is what runs vary; a value that no run
sets is a named constant in the module that uses it (the tracker's noise
model in ``tracking``, the scoring gates in ``evaluation``), not a field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import MISSING, dataclass

import numpy as np
import yaml

from .camera import CameraModel
from .clustering import ClusterParams
from .global_fusion import FusionParams
from .local_fusion import DEFAULT_Z_BAND
from .scene import (
    DetectorProfile,
    LidarModel,
    Room,
    WorldObject,
    make_bed,
    make_person,
)
from .tracking import TrackerConfig
from .transport import MAX_NODE_ID, ClockModel, LatencyModel


@dataclass(frozen=True)
class CameraMount:
    """Camera pose plus intrinsics, resolved to a CameraModel on demand."""

    position: tuple[float, float, float]
    yaw_deg: float
    pitch_deg: float
    focal: float = 500.0
    image_size: tuple[int, int] = (1280, 720)

    def build(self) -> CameraModel:
        w, h = self.image_size
        K = np.array([[self.focal, 0.0, w / 2.0],
                      [0.0, self.focal, h / 2.0],
                      [0.0, 0.0, 1.0]])
        return CameraModel.from_pose(self.position, math.radians(self.yaw_deg),
                                     math.radians(self.pitch_deg), K, self.image_size)


@dataclass(frozen=True)
class NodePlacement:
    node_id: int
    lidar: LidarModel
    cameras: tuple[CameraMount, ...]
    clock: ClockModel = ClockModel()


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    room: Room
    objects: list[WorldObject]
    nodes: list[NodePlacement]
    detector: DetectorProfile = DetectorProfile(
        miss_rate=0.05, false_positive_rate=0.2,
        pixel_noise_sigma=1.0, foot_detection_rate=0.8)
    cluster_params: ClusterParams = ClusterParams()
    tracker: TrackerConfig = TrackerConfig()
    fusion: FusionParams = FusionParams()
    delay_grid_ms: tuple[float, ...] = (50.0, 100.0, 150.0)
    jitter_ms: float = 8.0  # latency std around each delay_grid_ms mean
    frame_rate_hz: float = 10.0
    duration_s: float = 60.0
    z_band: tuple[float, float] = DEFAULT_Z_BAND
    settle_s: float = 1.0  # cycles before this are not scored

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.z_band[0] < self.z_band[1]:  # an empty band keeps no LiDAR point
            raise ValueError(f"z_band must run from low to high, got {self.z_band}")
        if not self.nodes:
            raise ValueError("scenario needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"node ids must be unique, got {ids}")
        if not all(0 <= i <= MAX_NODE_ID for i in ids):
            raise ValueError(f"node ids must be in 0..{MAX_NODE_ID} (the wire header's "
                             f"uint16), got {ids}")
        if not all(math.isfinite(x) and x > 0.0 for x in (self.frame_rate_hz, self.duration_s)):
            raise ValueError(f"frame_rate_hz and duration_s must be finite and > 0, got "
                             f"{self.frame_rate_hz} and {self.duration_s}")
        for delay_ms in self.delay_grid_ms:  # the channels run_delay_eval builds
            try:
                LatencyModel(mean_ms=delay_ms, std_ms=self.jitter_ms)
            except ValueError as exc:
                raise ValueError(f"delay_grid_ms entry {delay_ms} with jitter_ms "
                                 f"{self.jitter_ms}: {exc}") from None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return _to_data(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            yaml.safe_dump(self.to_dict(), f, sort_keys=False)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = yaml.safe_load(f)
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        return _from_data(cls, data, str(path))

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_SCALAR_KINDS = {float: (int, float), int: (int,), str: (str,)}


_field_types = functools.cache(typing.get_type_hints)


def _item_types(tp, n: int) -> tuple:
    """Types of the ``n`` items of a ``tuple[...]`` or ``list[X]`` type."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args[-1] is not Ellipsis:
        return args
    return (args[0],) * n


def _to_data(value, tp=None):
    """Plain YAML/JSON data: a dataclass becomes a mapping of its init
    fields, a tuple or list becomes a list, and an int held where the
    field type ``tp`` says float becomes that float."""
    if dataclasses.is_dataclass(value):
        hints = _field_types(type(value))
        return {f.name: _to_data(getattr(value, f.name), hints[f.name])
                for f in dataclasses.fields(value) if f.init}
    if isinstance(value, (tuple, list)):
        return [_to_data(v, t) for v, t in zip(value, _item_types(tp, len(value)))]
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _from_data(tp, data, where: str):
    """Inverse of :func:`_to_data`, driven by the field type ``tp``.

    Missing keys take the dataclass default. Unknown keys, wrong sequence
    lengths, values of the wrong kind and a dataclass's own checks raise
    ValueError naming the path.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected a mapping, got {type(data).__name__}")
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        missing = [name for name, f in fields.items() if name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"{where}: missing keys {missing}")
        hints = _field_types(tp)
        kwargs = {k: _from_data(hints[k], v, f"{where}.{k}") for k, v in data.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    origin = typing.get_origin(tp)
    if origin in (tuple, list):
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list, got {type(data).__name__}")
        item_types = _item_types(tp, len(data))
        if len(item_types) != len(data):
            raise ValueError(f"{where}: expected {len(item_types)} items, got {len(data)}")
        return origin(_from_data(t, v, f"{where}[{i}]")
                      for i, (t, v) in enumerate(zip(item_types, data)))
    kinds = _SCALAR_KINDS.get(tp)
    if kinds is None:
        raise TypeError(f"{where}: unsupported field type {tp!r}")
    # bool is a subclass of int, but no field takes one
    if not isinstance(data, kinds) or isinstance(data, bool):
        raise ValueError(f"{where}: expected {tp.__name__}, got {data!r}")
    if tp is float and not math.isfinite(data):
        raise ValueError(f"{where}: expected a finite float, got {data!r}")
    return tp(data)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

_ROOM = Room.rectangle(-8.0, -6.0, 8.0, 6.0, wall_height=3.0)


def _default_nodes() -> list[NodePlacement]:
    lidar1 = LidarModel.uniform((-7.0, -5.0, 2.2), n_rings=16,
                                elevation_min=math.radians(-25.0))
    lidar2 = LidarModel.uniform((7.0, 5.0, 2.2), n_rings=16,
                                elevation_min=math.radians(-25.0))
    cams1 = (
        CameraMount(position=(-7.0, -5.0, 2.4), yaw_deg=18.0, pitch_deg=16.0),
        CameraMount(position=(-7.0, -5.0, 2.4), yaw_deg=62.0, pitch_deg=16.0),
    )
    cams2 = (
        CameraMount(position=(7.0, 5.0, 2.4), yaw_deg=198.0, pitch_deg=16.0),
        CameraMount(position=(7.0, 5.0, 2.4), yaw_deg=242.0, pitch_deg=16.0),
    )
    return [NodePlacement(node_id=1, lidar=lidar1, cameras=cams1),
            NodePlacement(node_id=2, lidar=lidar2, cameras=cams2)]


def _walker(obj_id, waypoints, speed) -> WorldObject:
    x0, y0 = waypoints[0]
    x1, y1 = waypoints[1]
    yaw = math.atan2(y1 - y0, x1 - x0)
    return make_person(obj_id, x0, y0, yaw=yaw, speed=speed, waypoints=waypoints)


_WALKS_NINE = [
    ([(-6.0, -4.0), (6.0, 4.0)], 1.65),
    ([(6.0, -4.0), (-6.0, 4.0)], 1.5),
    ([(-6.0, 0.0), (6.0, 0.0)], 1.35),
    ([(0.0, -4.5), (0.0, 4.5)], 1.2),
    ([(-5.0, 3.0), (5.0, 3.0), (5.0, -3.0), (-5.0, -3.0)], 1.7),
    ([(-4.0, -2.0), (-4.0, 2.0), (4.0, 2.0), (4.0, -2.0)], 1.4),
    ([(-2.0, -4.0), (2.0, 4.0)], 1.8),
    ([(2.0, -4.0), (-2.0, 4.0)], 1.25),
    ([(-6.0, 2.0), (6.0, -2.0)], 1.55),
]


def nine_pedestrians(seed: int = 7) -> ScenarioConfig:
    """Crowded crossing-paths case: nine scripted pedestrians."""
    objects = [_walker(i + 1, wp, v) for i, (wp, v) in enumerate(_WALKS_NINE)]
    return ScenarioConfig(name="nine_pedestrians", seed=seed, room=_ROOM,
                          objects=objects, nodes=_default_nodes())


def four_pedestrians(seed: int = 7) -> ScenarioConfig:
    """Sparser case for precision analysis: four pedestrians."""
    objects = [_walker(i + 1, wp, v) for i, (wp, v) in enumerate(_WALKS_NINE[:4])]
    return ScenarioConfig(name="four_pedestrians", seed=seed, room=_ROOM,
                          objects=objects, nodes=_default_nodes())


def bed_and_three(seed: int = 7) -> ScenarioConfig:
    """A slow robot bed crossing the room among three pedestrians."""
    objects = [_walker(i + 1, wp, v) for i, (wp, v) in enumerate(_WALKS_NINE[:3])]
    bed = make_bed(10, -4.0, -1.5, yaw=0.0, speed=0.4,
                   waypoints=((4.0, -1.5), (-4.0, -1.5)))
    objects.append(bed)
    return ScenarioConfig(name="bed_and_three", seed=seed, room=_ROOM,
                          objects=objects, nodes=_default_nodes())


BUILTIN_SCENARIOS = {
    "nine_pedestrians": nine_pedestrians,
    "four_pedestrians": four_pedestrians,
    "bed_and_three": bed_and_three,
}
