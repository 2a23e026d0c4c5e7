"""End-to-end experiment orchestration.

Runs scripted worlds through per-node perception (scan, ROI filter,
clustering, camera fusion, tracking), replays the resulting message
streams through the simulated network at each delay setting, executes
center-node fusion cycles, and scores everything against interpolated
ground truth. Local perception is independent of transport delay, so each
scenario's node pipelines run once and their output streams are reused
across the delay grid. Within a node-frame, sensing (scan, ROI filter,
detection, ground localization) is shared by every clustering method
compared, and the DBSCAN baselines share one neighbour search. Only
the first method's labels feed the tracker, which local eval skips.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .camera import BED, PERSON
from .clustering import (
    DBSCAN_BASELINE_DENSE_N_MIN,
    DBSCAN_BASELINE_EPS,
    DBSCAN_BASELINE_N_MIN,
    ClusterParams,
    cluster_scan,
    clusters_from_labels,
    dbscan_baseline,
)
from .evaluation import aggregate, match_frame
from .global_fusion import CenterNode
from .local_fusion import (
    SOURCE_CAMERA_ONLY,
    LabeledObject,
    filter_roi,
    locate_boxes,
    associate_boxes_clusters,
    merge_camera_views,
    observation_rank,
    room_roi,
    suppress_duplicates,
)
from .scene import WorldObject, detect_camera, scan_lidar, simulate_step
from .scenarios import NodePlacement, ScenarioConfig
from .tracking import StampedObjectList, Tracker
from .transport import LatencyModel, SimulatedNetwork

METHOD_HIERARCHICAL = "hierarchical"
METHOD_DBSCAN1 = "dbscan1"
METHOD_DBSCAN2 = "dbscan2"
# Each method's DBSCAN core size; the hierarchical method has none.
LOCAL_METHODS = {METHOD_DBSCAN1: DBSCAN_BASELINE_N_MIN,
                 METHOD_DBSCAN2: DBSCAN_BASELINE_DENSE_N_MIN, METHOD_HIERARCHICAL: None}
OBSERVATION_MERGE_RADIUS = 0.45  # m, the dedup gate for occlusion fragments
BED_MERGE_RADIUS = 1.4  # m, the dedup gate around a kept bed

METRIC_COLUMNS = ("scenario", "node", "method", "delay_ms", "precision",
                  "recall", "avg_de_m", "frames", "config_hash", "seed")


def simulate_world(config: ScenarioConfig) -> list[tuple[float, list[WorldObject]]]:
    """Ground-truth trajectory: one (time, objects) entry per frame."""
    dt = 1.0 / config.frame_rate_hz
    # one frame per whole frame period; the epsilon absorbs float error in
    # the product (0.29 s at 100 Hz is 28.999999999999996 periods)
    n_frames = math.floor(config.duration_s * config.frame_rate_hz + 1e-9)
    world = list(config.objects)
    frames = []
    for k in range(n_frames):
        t = k / config.frame_rate_hz
        frames.append((t, world))
        world = simulate_step(world, dt, config.room)
    return frames


def interpolate_gt(frames, t: float):
    """Ground truth as (class, x, y) tuples, positions linearly
    interpolated between the bracketing frames."""
    if t <= frames[0][0]:
        world = frames[0][1]
        return [(o.class_label, o.x, o.y) for o in world]
    if t >= frames[-1][0]:
        world = frames[-1][1]
        return [(o.class_label, o.x, o.y) for o in world]
    hi = bisect.bisect_left(frames, t, key=lambda f: f[0])  # first frame at or after t
    lo = hi - 1
    t0, w0 = frames[lo]
    t1, w1 = frames[hi]
    alpha = (t - t0) / (t1 - t0)
    by_id = {o.id: o for o in w1}
    out = []
    for o in w0:
        o1 = by_id.get(o.id, o)
        out.append((o.class_label,
                    o.x + alpha * (o1.x - o.x),
                    o.y + alpha * (o1.y - o.y)))
    return out


@dataclass
class NodeRun:
    """One node's per-frame outputs over a scenario.

    ``messages`` is the tracker stream of the first method run (empty
    untracked); ``predictions[method]`` holds, per frame, that method's
    labeled objects as the ``(class, x, y)`` tuples :func:`match_frame` scores.
    """

    messages: list[StampedObjectList]
    predictions: dict[str, list[list[tuple]]]


def cluster_methods(scan, params: ClusterParams, methods) -> list[list]:
    """Each method's clusters of one scan, the DBSCAN methods' from one
    :func:`dbscan_baseline` search. Stages are looked up in this module
    when called, so a wrapper set on this module sees each call."""
    dbscans = [m for m in methods if LOCAL_METHODS[m]]
    labels = dbscan_baseline(scan.points, DBSCAN_BASELINE_EPS,
                             [LOCAL_METHODS[m] for m in dbscans]) if dbscans else []
    by_method = dict(zip(dbscans, labels))
    return [clusters_from_labels(scan.points, by_method[m]) if m in by_method
            else cluster_scan(scan, params) for m in methods]


def _dedup_observations(labeled: list[LabeledObject], radius: float) -> list[LabeledObject]:
    """Collapse near-coincident observations of one physical object.

    Occlusion can split a cluster into fragments that all survive camera
    association; feeding them all to the tracker births duplicate tracks.
    Every observation carries a cluster; they are visited in
    :func:`~coopercept.local_fusion.observation_rank` order, ties in list
    order. A kept bed absorbs unlabeled fragments over its whole extent,
    but never a detection positively labeled as a person.
    """
    ranked = sorted(labeled, key=observation_rank)
    bed = np.array([o.class_label == BED for o in ranked], dtype=bool)
    person = np.array([o.class_label == PERSON for o in ranked], dtype=bool)
    return suppress_duplicates(
        ranked, np.where(bed[None, :] & ~person[:, None], BED_MERGE_RADIUS, radius))


def run_node(config: ScenarioConfig, node: NodePlacement, world_frames,
             methods: tuple[str, ...] = (METHOD_HIERARCHICAL,), *, track=True) -> NodeRun:
    """Run one sensor node's full local pipeline over all frames.

    The node takes its :class:`~coopercept.local_fusion.Roi` from
    :func:`~coopercept.local_fusion.room_roi` (the config's room grid and
    z band, and a scan of the empty room that is not one of the frames),
    recorded once per sensor, room and band. Each frame is then scanned,
    ROI-filtered, detected and ground-located once; every method in
    ``methods`` clusters that one scan (:func:`cluster_methods`) and
    labels its clusters from the same boxes. Unless ``track`` is False,
    deduplication and the tracker run once per frame on the labels of
    ``methods[0]``, so ``messages`` is that method's stream.
    Detector RNG streams are derived from (seed, node, camera) only, so
    the detections do not depend on the methods asked for. Raises
    ``ValueError`` for a bare string, no methods or an unknown name.
    """
    if isinstance(methods, str) or not methods or \
            any(m not in LOCAL_METHODS for m in methods):
        raise ValueError(f"methods must be a non-empty tuple of {sorted(LOCAL_METHODS)}, "
                         f"got {methods!r}")
    cameras = [m.build() for m in node.cameras]
    roi = room_roi(node.lidar, config.room, config.z_band)
    tracker = Tracker(node.node_id, config.tracker)
    det_rngs = [np.random.default_rng([config.seed, node.node_id, i])
                for i in range(len(cameras))]

    messages = []
    predictions = {method: [] for method in methods}
    for t, world in world_frames:
        scan = filter_roi(scan_lidar(node.lidar, world, config.room), roi)
        boxes = [locate_boxes(detect_camera(cam, world, config.detector, rng), cam)
                 for cam, rng in zip(cameras, det_rngs)]

        clustered = cluster_methods(scan, config.cluster_params, methods)
        for i, (method, clusters) in enumerate(zip(methods, clustered)):
            labeled = merge_camera_views([associate_boxes_clusters(b, clusters, cam)
                                          for b, cam in zip(boxes, cameras)])
            predictions[method].append([(o.class_label, *o.position.tolist())
                                        for o in labeled])
            if i == 0 and track:
                # camera-only labels carry no cluster position: not tracked
                tracked = _dedup_observations(
                    [o for o in labeled if o.source != SOURCE_CAMERA_ONLY],
                    OBSERVATION_MERGE_RADIUS)
                messages.append(tracker.update(tracked, node.clock.node_time(t)))
    return NodeRun(messages=messages, predictions=predictions)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_local_eval(config: ScenarioConfig):
    """Per-node comparison of the clustering methods on identical frames.

    One ``run_node`` call per node runs all three methods over one scan
    and one detection pass per frame, untracked: only the labeled
    objects are scored.

    Returns metric rows (dicts in METRIC_COLUMNS order): per node,
    dbscan1, dbscan2, then hierarchical. Raises ``ValueError`` if the run has no frame.
    """
    world_frames = simulate_world(config)
    if not world_frames:
        raise ValueError(f"duration_s={config.duration_s} at frame_rate_hz="
                         f"{config.frame_rate_hz} gives no frame to evaluate")
    gts = [[(o.class_label, o.x, o.y) for o in world] for _, world in world_frames]
    stamp = config.config_hash()
    rows = []
    for node in config.nodes:
        run = run_node(config, node, world_frames, tuple(LOCAL_METHODS), track=False)
        for method, frames in run.predictions.items():
            scores = [match_frame(predictions, gt) for predictions, gt in zip(frames, gts)]
            precision, recall, avg_de = aggregate(scores)
            rows.append(_metric_row(config, stamp, node=str(node.node_id), method=method,
                                    delay_ms="", precision=precision, recall=recall,
                                    avg_de=avg_de, frames=len(scores)))
    return rows


def replay_fusion(messages_by_node: dict[int, list[StampedObjectList]],
                  frame_times, mean_delay_ms: float, std_ms: float,
                  net_seed, config: ScenarioConfig, delay_aware: bool):
    """Push recorded node streams through the simulated network and run
    one fusion cycle per frame time.

    Returns ``[(t, [GlobalTrack])]`` for every cycle. Each list is sent at
    the global time of its node-clock capture stamp, by the clock its node
    has in ``config.nodes``. A zero mean delay with zero jitter is the
    ideal channel: frames still pass through the wire codec but arrive
    exactly at their send time.
    """
    center = CenterNode(config.fusion, delay_aware=delay_aware)
    net = SimulatedNetwork(LatencyModel(mean_ms=mean_delay_ms, std_ms=std_ms),
                           seed=net_seed)
    clocks = {node.node_id: node.clock for node in config.nodes}
    for node_id in sorted(messages_by_node):
        for msg in messages_by_node[node_id]:
            net.send(msg, now=clocks[node_id].global_time(msg.capture_timestamp))

    cycles = []
    for t in frame_times:
        for _, msg in net.deliveries_until(t):
            center.receive(msg)
        cycles.append((t, center.fuse_cycle(t)))
    return cycles


def score_cycles(cycles, world_frames, config: ScenarioConfig):
    """Score fusion cycles against interpolated ground truth, skipping the
    settle window where tracks are still confirming."""
    scores = []
    for t, tracks in cycles:
        if t < config.settle_s:
            continue
        predictions = [(tr.class_label, tr.x, tr.y) for tr in tracks]
        gt = interpolate_gt(world_frames, t)
        scores.append(match_frame(predictions, gt))
    return scores


def run_delay_eval(config: ScenarioConfig, track_sink=None):
    """Full two-stage experiment: local pipelines once, then every
    (delay, method) grid point on the recorded streams.

    ``track_sink(scenario, delay_ms, method, cycles)`` receives the raw
    fusion cycles when provided (for JSONL dumps). Raises ``ValueError``
    before any node runs if no frame time reaches ``settle_s``.
    """
    world_frames = simulate_world(config)
    frame_times = [t for t, _ in world_frames]
    if not frame_times or frame_times[-1] < config.settle_s:
        raise ValueError(f"duration_s={config.duration_s} at frame_rate_hz={config.frame_rate_hz}"
                         f" gives no frame to score at or after settle_s={config.settle_s}")
    messages_by_node = {}
    for node in config.nodes:
        messages_by_node[node.node_id] = run_node(config, node, world_frames).messages

    stamp = config.config_hash()
    rows = []
    for delay_ms in config.delay_grid_ms:
        net_seed = [config.seed, int(round(delay_ms * 1000))]
        for method, delay_aware in (("baseline", False), ("delay_aware", True)):
            cycles = replay_fusion(messages_by_node, frame_times, delay_ms,
                                   config.jitter_ms, net_seed, config,
                                   delay_aware)
            if track_sink is not None:
                track_sink(config.name, delay_ms, method, cycles)
            scores = score_cycles(cycles, world_frames, config)
            precision, recall, avg_de = aggregate(scores)
            rows.append(_metric_row(config, stamp, node="", method=method,
                                    delay_ms=_fmt_float(delay_ms),
                                    precision=precision, recall=recall,
                                    avg_de=avg_de, frames=len(scores)))
    return rows


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def _metric_row(config: ScenarioConfig, config_hash: str, node, method, delay_ms,
                precision, recall, avg_de, frames) -> dict:
    return {
        "scenario": config.name,
        "node": node,
        "method": method,
        "delay_ms": delay_ms,
        "precision": _fmt_float(precision),
        "recall": _fmt_float(recall),
        "avg_de_m": _fmt_float(avg_de),
        "frames": str(frames),
        "config_hash": config_hash,
        "seed": str(config.seed),
    }


def write_csv(path, rows, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in columns) + "\n")


def write_ground_truth_jsonl(path, world_frames) -> None:
    """One line per frame: {t, objects: [{id, class, x, y, yaw, v, omega}]}."""
    with open(path, "w", encoding="utf-8") as f:
        for t, world in world_frames:
            record = {
                "t": t,
                "objects": [
                    {"id": o.id, "class": o.class_label, "x": o.x, "y": o.y,
                     "yaw": o.yaw, "v": o.speed, "omega": o.yaw_rate}
                    for o in world
                ],
            }
            f.write(json.dumps(record) + "\n")


def write_tracks_jsonl(path, cycles) -> None:
    """One line per fusion cycle: {t, tracks: [...]}."""
    with open(path, "w", encoding="utf-8") as f:
        for t, tracks in cycles:
            record = {
                "t": t,
                "tracks": [
                    {"gid": tr.global_id, "class": tr.class_label,
                     "x": tr.x, "y": tr.y, "yaw": tr.yaw,
                     "v": tr.v_x, "omega": tr.omega_z,
                     "staleness_ms": tr.staleness_ms,
                     "contributors": [list(c) for c in tr.contributors]}
                    for tr in tracks
                ],
            }
            f.write(json.dumps(record) + "\n")
