"""Per-layer spans and counters, taken from outside the program.

:func:`instrument` wraps the names that ``coopercept.pipeline`` calls
through its own namespace, the ``Tracker``, ``CenterNode`` and
``SimulatedNetwork`` methods, and ``transport.encode``/``decode`` at
module level (``SimulatedNetwork.send`` and the zero-delay replay look
them up there). :func:`layer_metrics` turns the recorded spans into the
per-layer metrics named in BENCHMARK.json.

Span names are ``<module>.<callable>``. A layer that a workload never
calls reports 0 calls, 0 ms and 0 for its counters.
"""

from __future__ import annotations

import math
import statistics

from spans import END, INFO, NAME, PARENT, START, children_of, duration_ns, self_times_ns, \
    summarize_ms

# Spans reported with .calls, .ms_p50 and .ms_p90 of their self time.
TIMED_SPANS = (
    "scene.scan_lidar",
    "scene.detect_camera",
    "local_fusion.filter_roi",
    "local_fusion.locate_boxes",
    "local_fusion.associate_boxes_clusters",
    "local_fusion.merge_camera_views",
    "clustering.cluster_scan",
    "clustering.dbscan_baseline",
    "clustering.clusters_from_labels",
    "tracking.Tracker.update",
    "transport.encode",
    "transport.decode",
    "transport.SimulatedNetwork.send",
    "global_fusion.CenterNode.fuse_cycle",
    "evaluation.match_frame",
    "pipeline.interpolate_gt",
)

# The simulator's share of a node-frame; the rest is the method's own
# processing latency, the part of the delay the paper compensates.
SIMULATOR_SPANS = frozenset({"scene.scan_lidar", "scene.detect_camera"})


def _labeled_by_source(args, kwargs, result):
    sources = [o.source for o in result]
    return sources.count("fused"), sources.count("lidar_only"), sources.count("camera_only")


def _send_delay_ms(args, kwargs, result):
    # SimulatedNetwork.send(self, envelope, now) returns the arrival time,
    # or None for a dropped frame.
    now = kwargs["now"] if "now" in kwargs else args[2]
    return None if result is None else (result - now) * 1e3


def _receive_discarded(args, kwargs, result):
    # CenterNode keeps the freshest list per node; an older arrival is not held.
    center, message = args[0], args[1]
    return center._latest.get(message.node_id) is not message


def _fuse_cycle_info(args, kwargs, result):
    center, now = args[0], args[1]
    horizon = center.params.max_compensation
    stale = sum(len(m.objects) for m in center._latest.values()
                if now - m.capture_timestamp > horizon)
    return tuple(t.global_id for t in result), stale


def instrument(tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    from coopercept import pipeline, transport
    from coopercept.global_fusion import CenterNode
    from coopercept.tracking import Tracker
    from coopercept.transport import SimulatedNetwork

    wrap = tracer.wrap
    for attr in ("run_delay_eval", "run_local_eval", "run_node", "replay_fusion",
                 "score_cycles", "simulate_world", "interpolate_gt"):
        wrap(pipeline, attr, "pipeline." + attr)
    wrap(pipeline, "_dedup_observations", "pipeline.dedup",
         lambda a, k, r: (len(a[0]), len(r)))
    wrap(pipeline, "scan_lidar", "scene.scan_lidar", lambda a, k, r: r.n_points)
    wrap(pipeline, "detect_camera", "scene.detect_camera")
    wrap(pipeline, "filter_roi", "local_fusion.filter_roi",
         lambda a, k, r: (a[0].n_points, r.n_points))
    wrap(pipeline, "locate_boxes", "local_fusion.locate_boxes")
    wrap(pipeline, "associate_boxes_clusters", "local_fusion.associate_boxes_clusters")
    wrap(pipeline, "merge_camera_views", "local_fusion.merge_camera_views",
         _labeled_by_source)
    wrap(pipeline, "cluster_scan", "clustering.cluster_scan", lambda a, k, r: len(r))
    wrap(pipeline, "dbscan_baseline", "clustering.dbscan_baseline")
    wrap(pipeline, "clusters_from_labels", "clustering.clusters_from_labels")
    wrap(pipeline, "match_frame", "evaluation.match_frame")
    wrap(pipeline, "aggregate", "evaluation.aggregate")
    wrap(Tracker, "update", "tracking.Tracker.update", lambda a, k, r: len(r.objects))
    wrap(transport, "encode", "transport.encode", lambda a, k, r: len(r))
    wrap(transport, "decode", "transport.decode")
    wrap(SimulatedNetwork, "send", "transport.SimulatedNetwork.send", _send_delay_ms)
    wrap(SimulatedNetwork, "deliveries_until", "transport.SimulatedNetwork.deliveries_until")
    wrap(CenterNode, "receive", "global_fusion.CenterNode.receive", _receive_discarded)
    wrap(CenterNode, "fuse_cycle", "global_fusion.CenterNode.fuse_cycle", _fuse_cycle_info)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(value: float) -> float:
    """A percentile of no samples (NaN) reads 0, like an unused layer's count."""
    return 0.0 if math.isnan(value) else value


def _node_frames(spans, children):
    """Per node-frame (method ns, simulator ns, run_node self ns).

    A node-frame is one pass of run_node's loop: it starts at a scan and
    ends at the next scan or at the end of run_node. Time before the first
    scan (per-call set-up) belongs to no frame.
    """
    frames = []
    for i, span in enumerate(spans):
        if span[NAME] != "pipeline.run_node":
            continue
        kids = children.get(i, [])
        starts = [j for j, k in enumerate(kids) if spans[k][NAME] == "scene.scan_lidar"]
        for n, first in enumerate(starts):
            last = starts[n + 1] if n + 1 < len(starts) else len(kids)
            members = kids[first:last]
            end = spans[kids[last]][START] if last < len(kids) else span[END]
            busy = sum(duration_ns(spans[k]) for k in members)
            sim = sum(duration_ns(spans[k]) for k in members
                      if spans[k][NAME] in SIMULATOR_SPANS)
            frames.append((busy - sim, sim, end - spans[kids[first]][START] - busy))
    return frames


def layer_metrics(spans, setup_end: int, n_passes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``spans[:setup_end]`` were recorded during set-up, the rest over
    ``n_passes`` timed passes. ``.calls`` is calls per workload execution
    (set-up once plus one pass); percentiles pool every recorded call.
    """
    children = children_of(spans)
    self_ns = self_times_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, [])]

    out: dict[str, float] = {}
    for name in TIMED_SPANS:
        idx = by_name.get(name, [])
        in_setup = sum(1 for i in idx if i < setup_end)
        _, p50, p90 = summarize_ms([self_ns[i] for i in idx])
        out[name + ".calls"] = in_setup + (len(idx) - in_setup) / max(n_passes, 1)
        out[name + ".ms_p50"] = _p(p50)
        out[name + ".ms_p90"] = _p(p90)

    out["scene.scan_lidar.points_out"] = _mean(infos("scene.scan_lidar"))
    roi = infos("local_fusion.filter_roi")
    out["local_fusion.filter_roi.keep_ratio"] = _ratio(sum(o for _, o in roi),
                                                       sum(i for i, _ in roi))
    labeled = infos("local_fusion.merge_camera_views")
    for k, source in enumerate(("fused", "lidar_only", "camera_only")):
        out[f"local_fusion.labeled.{source}"] = _mean(c[k] for c in labeled)
    out["clustering.cluster_scan.clusters"] = _mean(infos("clustering.cluster_scan"))
    dedup = infos("pipeline.dedup")
    out["pipeline.dedup.suppressed_ratio"] = _ratio(sum(i - o for i, o in dedup),
                                                    sum(i for i, _ in dedup))
    out["tracking.tracks_out"] = _mean(infos("tracking.Tracker.update"))

    frames = _node_frames(spans, children)
    _, method_p50, method_p90 = summarize_ms(f[0] for f in frames)
    out["pipeline.node_frame.method_ms_p50"] = _p(method_p50)
    out["pipeline.node_frame.method_ms_p90"] = _p(method_p90)
    out["pipeline.node_frame.sim_ms_p50"] = _p(summarize_ms(f[1] for f in frames)[1])
    out["pipeline.run_node.self_ms_p50"] = _p(summarize_ms(f[2] for f in frames)[1])

    out["transport.bytes_per_msg"] = _mean(infos("transport.encode"))
    delays = [d for d in infos("transport.SimulatedNetwork.send") if d is not None]
    _, delay_p50, delay_p90 = summarize_ms(d * 1e6 for d in delays)
    out["transport.delay_ms_p50"] = _p(delay_p50)
    out["transport.delay_ms_p90"] = _p(delay_p90)
    received = infos("global_fusion.CenterNode.receive")
    out["global_fusion.receive.discarded_ratio"] = _ratio(sum(received), len(received))

    cycles = by_name.get("global_fusion.CenterNode.fuse_cycle", [])
    ids_per_center: dict[int, set] = {}
    for i in cycles:
        ids_per_center.setdefault(spans[i][PARENT], set()).update(spans[i][INFO][0])
    out["global_fusion.groups_per_cycle"] = _mean(len(spans[i][INFO][0]) for i in cycles)
    out["global_fusion.new_ids"] = _mean(len(ids) for ids in ids_per_center.values())
    out["global_fusion.stale_contributors"] = _mean(spans[i][INFO][1] for i in cycles)
    return out
