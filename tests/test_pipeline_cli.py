import itertools
import json
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from coopercept import pipeline
from coopercept.cli import main
from coopercept.global_fusion import FusionParams
from coopercept.local_fusion import room_roi
from coopercept.scenarios import (ScenarioConfig, bed_and_three, four_pedestrians,
                                  nine_pedestrians)
from coopercept.tracking import Tracker, TrackerConfig
from coopercept.transport import ClockModel, encode


def small(build=nine_pedestrians, **kw):
    return replace(build(), duration_s=kw.pop("duration_s", 6.0), **kw)


def test_simulate_world_frame_grid():
    config = small(duration_s=2.0)
    frames = pipeline.simulate_world(config)
    assert len(frames) == 20
    assert frames[0][0] == 0.0
    assert frames[10][0] == pytest.approx(1.0)
    assert len(frames[0][1]) == 9
    # one frame per whole frame period: a half period neither rounds up nor
    # to even, and a product a hair under a whole count (0.29 * 100 is
    # 28.999999999999996) still reaches it
    for duration_s, rate_hz, n_frames in ((1.05, 10.0, 10), (1.15, 10.0, 11), (1.25, 10.0, 12),
                                          (2.3, 10.0, 23), (3.0, 10.0, 30), (0.29, 100.0, 29)):
        config = small(duration_s=duration_s, frame_rate_hz=rate_hz)
        assert len(pipeline.simulate_world(config)) == n_frames, (duration_s, rate_hz)


def test_ground_truth_interpolation_linear():
    config = small(duration_s=2.0)
    frames = pipeline.simulate_world(config)
    t = 0.55
    gt = pipeline.interpolate_gt(frames, t)
    lo = {o.id: o for o in frames[5][1]}
    hi = {o.id: o for o in frames[6][1]}
    for (cls, x, y), oid in zip(gt, sorted(lo)):
        a, b = lo[oid], hi[oid]
        assert x == pytest.approx(a.x + 0.5 * (b.x - a.x), abs=1e-12)
        assert y == pytest.approx(a.y + 0.5 * (b.y - a.y), abs=1e-12)


def test_ground_truth_interpolation_matches_linear_search():
    frames = pipeline.simulate_world(small(duration_s=2.0))
    times = [ft for ft, _ in frames]

    def linear(t):
        if t <= times[0]:
            return [(o.class_label, o.x, o.y) for o in frames[0][1]]
        if t >= times[-1]:
            return [(o.class_label, o.x, o.y) for o in frames[-1][1]]
        hi = next(i for i, ft in enumerate(times) if ft >= t)
        (t0, w0), (t1, w1) = frames[hi - 1], frames[hi]
        alpha = (t - t0) / (t1 - t0)
        by_id = {o.id: o for o in w1}
        return [(o.class_label, o.x + alpha * (by_id.get(o.id, o).x - o.x),
                 o.y + alpha * (by_id.get(o.id, o).y - o.y)) for o in w0]

    probes = times + [0.5 * (a + b) for a, b in zip(times, times[1:])]
    probes += [times[0] - 1.0, times[-1] + 1.0, math.nextafter(times[3], 0.0),
               math.nextafter(times[3], math.inf)]
    for t in probes:
        assert repr(pipeline.interpolate_gt(frames, t)) == repr(linear(t))


def test_run_node_streams_are_stamped_and_ordered():
    config = small(duration_s=3.0)
    frames = pipeline.simulate_world(config)
    run = pipeline.run_node(config, config.nodes[0], frames)
    stamps = [m.capture_timestamp for m in run.messages]
    assert stamps == sorted(stamps)
    assert len(run.messages) == len(frames)
    assert run.messages[-1].node_id == 1
    assert len(run.messages[-1].objects) >= 5  # most walkers confirmed


ALL_METHODS = (pipeline.METHOD_HIERARCHICAL, pipeline.METHOD_DBSCAN1,
               pipeline.METHOD_DBSCAN2)


def test_detections_identical_across_methods():
    config = small(duration_s=2.0)
    frames = pipeline.simulate_world(config)
    node = config.nodes[0]
    shared = pipeline.run_node(config, node, frames, ALL_METHODS)
    for m in ALL_METHODS:
        assert len(shared.predictions[m]) == len(frames)
        assert shared.predictions[m] == pipeline.run_node(config, node, frames, (m,)).predictions[m]
    default = pipeline.run_node(config, node, frames)
    assert [encode(m) for m in shared.messages] == [encode(m) for m in default.messages]

    # With the ROI dropping every LiDAR point, every object is camera-only
    # and depends on the detector stream alone, not on the clustering.
    blind = replace(config, z_band=(50.0, 51.0))
    camera_only = pipeline.run_node(blind, node, frames, ALL_METHODS).predictions
    assert sum(map(len, camera_only[ALL_METHODS[0]])) > 0
    for m in ALL_METHODS:
        assert camera_only[m] == camera_only[ALL_METHODS[0]]


def test_untracked_run_node_predicts_as_the_tracked_call_and_streams_nothing():
    config = small(bed_and_three, duration_s=2.0)
    frames = pipeline.simulate_world(config)
    for node in config.nodes:
        for methods in (ALL_METHODS, (pipeline.METHOD_DBSCAN2, pipeline.METHOD_HIERARCHICAL)):
            tracked = pipeline.run_node(config, node, frames, methods)
            untracked = pipeline.run_node(config, node, frames, methods, track=False)
            assert len(tracked.messages) == len(frames) and untracked.messages == []
            assert repr(untracked.predictions) == repr(tracked.predictions)
            objects = [p for frame in untracked.predictions[methods[0]] for p in frame]
            assert objects and all(type(x) is float for _, *xy in objects for x in xy)


def test_run_node_rejects_bad_methods_before_any_frame(monkeypatch):
    config = small(duration_s=1.0)
    frames = pipeline.simulate_world(config)

    def no_scan(*args, **kwargs):
        raise AssertionError("a frame ran")

    monkeypatch.setattr(pipeline, "scan_lidar", no_scan)
    for methods, named in ((pipeline.METHOD_HIERARCHICAL, "'hierarchical'"),
                           ((), r"got \(\)"),
                           ((pipeline.METHOD_DBSCAN1, "optics"), "'optics'")):
        with pytest.raises(ValueError, match=named):
            pipeline.run_node(config, config.nodes[0], frames, methods)


# The names that perfbench/layers.py times by wrapping them in pipeline's
# namespace; a stage that stops calling through that namespace reads 0 there.
NODE_STAGE_NAMES = ("scan_lidar", "filter_roi", "detect_camera", "locate_boxes",
                    "associate_boxes_clusters", "merge_camera_views", "cluster_scan",
                    "dbscan_baseline", "clusters_from_labels", "_dedup_observations")


def count_node_stage_calls(monkeypatch):
    """A Counter of the calls to each of NODE_STAGE_NAMES and Tracker.update."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in NODE_STAGE_NAMES:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    monkeypatch.setattr(Tracker, "update", counted("Tracker.update", Tracker.update))
    return counts


def node_frame_calls(node, methods, frames, track=True):
    """The calls ``frames`` node-frames of ``run_node`` make to each name:
    sensing once per frame and detection once per camera; one DBSCAN
    neighbour search per frame for all DBSCAN methods; labelling,
    association and merging once per method; dedup and tracking once per
    frame when tracked, else never."""
    cameras = len(node.cameras)
    dbscans = sum(m != pipeline.METHOD_HIERARCHICAL for m in methods)
    return Counter({
        "scan_lidar": frames, "filter_roi": frames, "_dedup_observations": track * frames,
        "Tracker.update": track * frames, "detect_camera": cameras * frames,
        "locate_boxes": cameras * frames,
        "associate_boxes_clusters": cameras * len(methods) * frames,
        "merge_camera_views": len(methods) * frames,
        "cluster_scan": (pipeline.METHOD_HIERARCHICAL in methods) * frames,
        "dbscan_baseline": (dbscans > 0) * frames, "clusters_from_labels": dbscans * frames,
    })


def test_local_eval_senses_and_searches_once_per_node_frame_untracked(monkeypatch):
    counts = count_node_stage_calls(monkeypatch)
    config = small(duration_s=2.0)
    rows = pipeline.run_local_eval(config)
    assert len(rows) == len(config.nodes) * len(ALL_METHODS)
    assert counts == sum((node_frame_calls(node, ALL_METHODS, 20, track=False)
                          for node in config.nodes), Counter())
    assert counts["Tracker.update"] == counts["_dedup_observations"] == 0


def test_run_node_scans_filters_and_tracks_once_per_frame(monkeypatch):
    """perfbench finds each node-frame's spans by these names in
    ``pipeline``'s namespace (a frame starts at ``scan_lidar``), so the
    empty-room scan behind the ROI must not pass through them, and every
    stage must call through them once per frame, camera or method."""
    counts = count_node_stage_calls(monkeypatch)
    config = small(duration_s=1.5)
    frames = pipeline.simulate_world(config)
    # the default call, then all three methods, then all three untracked
    for extra, kw in (((), {}), ((ALL_METHODS,), {}), ((ALL_METHODS,), {"track": False})):
        methods = extra[0] if extra else (pipeline.METHOD_HIERARCHICAL,)
        for node in config.nodes:
            counts.clear()
            pipeline.run_node(config, node, frames, *extra, **kw)
            assert counts == node_frame_calls(node, methods, 15, **kw)


def test_run_node_calls_share_one_read_only_roi_per_sensor_and_room(monkeypatch):
    rois = []
    real_filter = pipeline.filter_roi
    monkeypatch.setattr(pipeline, "filter_roi",
                        lambda image, roi: rois.append(roi) or real_filter(image, roi))
    config = small(duration_s=0.3)
    frames = pipeline.simulate_world(config)
    node, other = config.nodes[:2]
    pipeline.run_node(config, node, frames)
    pipeline.run_node(replace(config, seed=config.seed + 1), node, frames, ALL_METHODS)
    assert len(rois) == 6 and all(roi is rois[0] for roi in rois)
    assert rois[0] is room_roi(node.lidar, config.room, config.z_band)
    assert room_roi(other.lidar, config.room, config.z_band) is not rois[0]
    for array in (rois[0].grid.mask, rois[0].background.ranges, rois[0].background_kept):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


# -- duplicate suppression before the tracker ---------------------------------

_cluster_index = itertools.count()


def observation(label, x, y, source="fused", confidence=1.0):
    """A labeled observation of a cluster of its own."""
    from coopercept.local_fusion import LabeledObject

    return LabeledObject(label, np.array([x, y]), next(_cluster_index), source, confidence)


def dedup(labeled):
    return pipeline._dedup_observations(labeled, pipeline.OBSERVATION_MERGE_RADIUS)


def test_dedup_kept_bed_absorbs_unlabeled_fragments_but_never_a_person():
    bed = observation("bed", 0.0, 0.0, confidence=0.9)
    fragment = observation("unknown", 1.3, 0.0, "lidar_only")
    person = observation("person", 1.0, 0.0, confidence=0.8)
    beyond = observation("unknown", 0.0, 1.4, "lidar_only")  # the gate is strict
    assert dedup([fragment, person, beyond, bed]) == [bed, person, beyond]
    # a kept person gates with the plain radius only
    near_person = observation("unknown", 0.0, 0.5, "lidar_only")
    lone = observation("person", 0.0, 0.0)
    assert dedup([near_person, lone]) == [lone, near_person]


def test_dedup_fused_beats_lidar_only_then_higher_confidence_wins():
    lidar_only = observation("unknown", 0.0, 0.0, "lidar_only")
    fused = observation("person", 0.3, 0.0, confidence=0.5)
    assert dedup([lidar_only, fused]) == [fused]
    low, high = observation("person", 0.0, 0.0, confidence=0.6), \
        observation("person", 0.2, 0.0, confidence=0.9)
    assert dedup([low, high]) == [high]
    first, second = observation("person", 0.0, 0.0), observation("person", 0.2, 0.0)
    assert dedup([first, second]) == [first]  # ties keep the lower index
    assert dedup([]) == []


def test_dedup_matches_per_pair_oracle():
    from oracles import brute_force_dedup_observations

    radius = pipeline.OBSERVATION_MERGE_RADIUS
    rng = np.random.default_rng(17)
    dropped = 0
    for _ in range(300):
        labeled = [observation(str(rng.choice(["person", "bed", "unknown"])),
                               *rng.uniform(0.0, 3.0, size=2),
                               str(rng.choice(["fused", "lidar_only"])),
                               float(rng.choice([0.6, 0.8, 1.0])))
                   for _ in range(int(rng.integers(0, 12)))]
        got = pipeline._dedup_observations(labeled, radius)
        want = brute_force_dedup_observations(labeled, radius, pipeline.BED_MERGE_RADIUS)
        assert got == want
        dropped += len(labeled) - len(got)
    assert dropped > 300


def test_dedup_matches_per_pair_oracle_on_builtin_frames(monkeypatch):
    from oracles import brute_force_dedup_observations

    recorded = []
    real_dedup = pipeline._dedup_observations

    def record(labeled, radius):
        recorded.append((labeled, radius))
        return real_dedup(labeled, radius)

    monkeypatch.setattr(pipeline, "_dedup_observations", record)
    config = small(bed_and_three, duration_s=3.0)
    for node in config.nodes:
        pipeline.run_node(config, node, pipeline.simulate_world(config))
    assert len(recorded) == 2 * 30
    for labeled, radius in recorded:
        assert real_dedup(labeled, radius) == \
            brute_force_dedup_observations(labeled, radius, pipeline.BED_MERGE_RADIUS)


def test_zero_latency_methods_tie_end_to_end():
    config = small(duration_s=5.0)
    frames = pipeline.simulate_world(config)
    times = [t for t, _ in frames]
    messages = {n.node_id: pipeline.run_node(config, n, frames).messages
                for n in config.nodes}
    base = pipeline.replay_fusion(messages, times, 0.0, 0.0, [1, 0], config, False)
    aware = pipeline.replay_fusion(messages, times, 0.0, 0.0, [1, 0], config, True)
    sb = pipeline.score_cycles(base, frames, config)
    sa = pipeline.score_cycles(aware, frames, config)
    from coopercept.evaluation import aggregate
    mb, ma = aggregate(sb), aggregate(sa)
    for vb, va in zip(mb, ma):
        assert va == pytest.approx(vb, abs=1e-6)


def test_lists_are_sent_on_global_time_under_clock_offset():
    # node 2's clock runs ahead or behind; its lists carry node-time stamps
    # but must leave at the same global time, so the baseline (which
    # predicts over zero) scores as with synchronized clocks
    config = small(duration_s=3.0)
    rows = {}
    for offset_ms in (0.0, 150.0, -100.0):
        nodes = [replace(n, clock=ClockModel(offset_ms=offset_ms)) if n.node_id == 2
                 else n for n in config.nodes]
        rows[offset_ms] = [r for r in pipeline.run_delay_eval(replace(config, nodes=nodes))
                           if r["method"] == "baseline"]
    assert len(rows[0.0]) == 3
    for offset_ms in (150.0, -100.0):
        for skewed, synced in zip(rows[offset_ms], rows[0.0]):
            assert (skewed["delay_ms"], skewed["precision"], skewed["recall"]) == \
                (synced["delay_ms"], synced["precision"], synced["recall"])
            assert float(skewed["avg_de_m"]) == pytest.approx(float(synced["avg_de_m"]),
                                                              abs=1e-12)


def test_delay_eval_rows_and_determinism():
    config = small(duration_s=5.0)
    rows1 = pipeline.run_delay_eval(config)
    rows2 = pipeline.run_delay_eval(config)
    assert rows1 == rows2
    assert len(rows1) == len(config.delay_grid_ms) * 2
    for row in rows1:
        assert row["config_hash"] == config.config_hash()
        assert row["seed"] == str(config.seed)


def test_local_eval_rows():
    config = small(duration_s=3.0)
    rows = pipeline.run_local_eval(config)
    assert len(rows) == 2 * 3  # nodes x methods
    methods = {r["method"] for r in rows}
    assert methods == {"dbscan1", "dbscan2", "hierarchical"}


@pytest.mark.parametrize("command, duration", [
    ("delay-eval", "1"), ("delay-eval", "1.05"), ("local-eval", "0.05")])
def test_cli_short_runs_fail_before_any_node_runs(command, duration, tmp_path, capsys,
                                                   monkeypatch):
    # frames come at 0.1 s steps from t = 0, and delay-eval scores from settle_s = 1 s
    reason = ("gives no frame to evaluate" if command == "local-eval"
              else "gives no frame to score at or after settle_s=1.0")
    monkeypatch.setattr(pipeline, "run_node", lambda *a, **k: pytest.fail("a node ran"))
    rc = main([command, "--scenario", "four_pedestrians", "--duration", duration,
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == \
        f"error: duration_s={float(duration)} at frame_rate_hz=10.0 {reason}"


def test_delay_eval_scores_a_frame_time_at_settle_s():
    rows = pipeline.run_delay_eval(small(duration_s=1.1))
    assert {row["frames"] for row in rows} == {"1"}


def test_config_yaml_round_trip(tmp_path):
    tuned = replace(nine_pedestrians(), tracker=TrackerConfig(n_confirm=5),
                    fusion=FusionParams(distance_gate=3.0))
    for config in (nine_pedestrians(), bed_and_three(), tuned):
        path = tmp_path / "scenario.yaml"
        config.save(path)
        loaded = ScenarioConfig.load(path)
        assert loaded == config
        assert loaded.config_hash() == config.config_hash()
        assert loaded.name == config.name
        assert len(loaded.objects) == len(config.objects)
        assert loaded.nodes[0].lidar.ring_elevations == config.nodes[0].lidar.ring_elevations


def test_config_hash_changes_with_content():
    a = nine_pedestrians()
    for change in ({"seed": 99}, {"tracker": TrackerConfig(n_confirm=5)},
                   {"fusion": FusionParams(distance_gate=3.0)},
                   {"jitter_ms": 40.0}):
        b = replace(nine_pedestrians(), **change)
        assert a.config_hash() != b.config_hash(), change


def test_config_hash_int_in_float_field_hashes_as_float(tmp_path):
    from coopercept.scene import make_person

    as_int = replace(nine_pedestrians(), duration_s=3)
    as_float = replace(nine_pedestrians(), duration_s=3.0)
    assert as_int.config_hash() == as_float.config_hash() == "a21aa1b19dd7"
    nested = replace(nine_pedestrians(), objects=[make_person(1, 2, -1, speed=1)])
    nested_float = replace(nine_pedestrians(), objects=[make_person(1, 2.0, -1.0, speed=1.0)])
    assert nested.config_hash() == nested_float.config_hash()
    path = tmp_path / "scenario.yaml"
    as_int.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded == as_int
    assert loaded.config_hash() == as_int.config_hash()
    assert nine_pedestrians().config_hash() == "5632b63b6f95"  # the built-in's stamp is pinned


def load_data(tmp_path, data) -> ScenarioConfig:
    """``ScenarioConfig.load`` of ``data`` saved as YAML."""
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return ScenarioConfig.load(path)


def test_config_rejects_bad_input(tmp_path):
    edits = [
        lambda d: d.update(bogus=1),  # unknown key
        lambda d: d["detector"].update(mean=20.0),  # unknown nested key
        lambda d: d.update(z_band=[0.1]),  # wrong fixed-tuple length
        lambda d: d["nodes"][0]["cameras"][0].update(image_size=[1280, 720, 3]),
        lambda d: d.update(room=[[0.0, 0.0]]),  # list where a mapping is expected
        lambda d: d.update(seed="7"),  # string for an int
        lambda d: d.update(seed=True),  # bool for an int
        lambda d: d.update(jitter_ms=True),  # bool for a float
        lambda d: d.update(frame_rate_hz="10"),  # string for a float
        lambda d: d.pop("room"),  # missing required key
        lambda d: d.update(duration_s=-1.0),  # rejected by __post_init__
        lambda d: d.update(jitter_ms=-1.0),  # a channel LatencyModel rejects
        lambda d: d.update(delay_grid_ms=[0.0, 50.0]),  # zero mean with jitter
        lambda d: d["nodes"][1].update(node_id=1),  # duplicate node ids
        lambda d: d["nodes"][0].update(node_id=70001),  # beyond the wire's uint16
        lambda d: d["nodes"][0].update(node_id=-1),
    ]
    for k, edit in enumerate(edits):
        data = nine_pedestrians().to_dict()
        edit(data)
        with pytest.raises(ValueError):
            load_data(tmp_path, data)
            pytest.fail(f"edit {k} was accepted")


def test_config_rejects_negative_seed_and_empty_z_band():
    # numpy's generators reject a negative seed only once the world is
    # simulated, and a z_band from high to low silently keeps no LiDAR point
    for field, value, message in (
            ("seed", -3, "seed must be >= 0, got -3"),
            ("z_band", (2.2, 0.1), "z_band must run from low to high, got (2.2, 0.1)"),
            ("z_band", (1.0, 1.0), "z_band must run from low to high, got (1.0, 1.0)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(nine_pedestrians(), **{field: value})
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        nine_pedestrians(seed=-1)
    assert nine_pedestrians(seed=0).seed == 0


def test_config_rejects_duplicate_object_ids():
    # ground truth takes each object's next position by id, so two walkers
    # sharing one were scored at one of their positions
    config = four_pedestrians()
    first, second, *rest = config.objects
    with pytest.raises(ValueError, match=r"^object ids must be unique, got \[1, 1, 3, 4\]$"):
        replace(config, objects=[first, replace(second, id=first.id), *rest])
    frames = pipeline.simulate_world(replace(config, duration_s=1.0))
    gt = pipeline.interpolate_gt(frames, 0.5)
    assert len({(x, y) for _, x, y in gt}) == len(gt) == 4


def test_config_rejects_removed_keys(tmp_path):
    # settings that nothing read, or that the sensor states itself
    edits = [
        ("", "latency", lambda d: d.update(latency={"mean_ms": 50.0, "std_ms": 8.0})),
        ("", "track_camera_only", lambda d: d.update(track_camera_only=False)),
        (".cluster_params", "dphi", lambda d: d["cluster_params"].update(dphi=0.0035)),
        (".cluster_params", "dtheta", lambda d: d["cluster_params"].update(dtheta=0.035)),
        (".nodes[0].clock", "max_offset_ms",
         lambda d: d["nodes"][0]["clock"].update(max_offset_ms=1000.0)),
    ]
    # values that no run set, now constants of the module that uses them
    removed_constants = {
        "": ("roi_cell_size", "roi_margin", "match_gate", "bed_match_gate",
             "observation_merge_radius"),
        "cluster_params": ("epsilon_custom", "ring_gap", "max_centroid_distance"),
        "tracker": ("process_accel_sigma", "process_yaw_accel_sigma", "process_position_sigma",
                    "process_yaw_sigma", "measurement_sigma", "association_gate",
                    "spawn_suppression_radius", "yaw_init_displacement",
                    "initial_position_var", "initial_yaw_var", "initial_speed_var",
                    "initial_yaw_rate_var"),
        "fusion": ("continuity_gate", "base_position_var", "process_rate_person",
                   "process_rate_bed", "process_rate_unknown"),
    }
    for section, keys in removed_constants.items():
        for key in keys:
            edits.append((f".{section}" if section else "", key,
                          lambda d, s=section, k=key: (d[s] if s else d).update({k: 1.0})))
    assert len(edits) == 5 + 25
    for where, key, edit in edits:
        data = nine_pedestrians().to_dict()
        edit(data)
        with pytest.raises(ValueError) as err:
            load_data(tmp_path, data)
        assert str(err.value) == f"{tmp_path / 'scenario.yaml'}{where}: unknown keys ['{key}']"


def test_config_settable_keys_are_pinned():
    # the tuning values runs vary, beside the scene itself (name, seed,
    # room, objects, nodes); a value no run sets is a module constant
    def paths(data, prefix=""):
        for key, value in data.items():
            if isinstance(value, dict):
                yield from paths(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    data = nine_pedestrians().to_dict()
    assert list(data)[:5] == ["name", "seed", "room", "objects", "nodes"]
    assert list(paths(dict(list(data.items())[5:]))) == [
        "detector.miss_rate", "detector.false_positive_rate",
        "detector.pixel_noise_sigma", "detector.foot_detection_rate",
        "cluster_params.n_min", "tracker.n_confirm", "tracker.m_miss",
        "fusion.distance_gate", "fusion.bed_gate_scale", "fusion.max_compensation",
        "delay_grid_ms", "jitter_ms", "frame_rate_hz", "duration_s", "z_band", "settle_s",
    ]


def test_config_missing_keys_take_dataclass_defaults(tmp_path):
    data = nine_pedestrians().to_dict()
    for key in ("tracker", "fusion", "jitter_ms", "detector", "delay_grid_ms"):
        del data[key]
    del data["nodes"][0]["clock"]
    assert load_data(tmp_path, data) == nine_pedestrians()


def test_ground_truth_jsonl(tmp_path):
    config = small(duration_s=1.0)
    frames = pipeline.simulate_world(config)
    path = tmp_path / "gt.jsonl"
    pipeline.write_ground_truth_jsonl(path, frames)
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    record = json.loads(lines[0])
    assert set(record) == {"t", "objects"}
    assert set(record["objects"][0]) == {"id", "class", "x", "y", "yaw", "v", "omega"}


# -- CLI -----------------------------------------------------------------------

def test_cli_simulate(tmp_path):
    rc = main(["simulate", "--scenario", "four_pedestrians",
               "--duration", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "gt_four_pedestrians.jsonl"
    assert out.exists()
    assert len(out.read_text().splitlines()) == 10


def test_cli_unknown_scenario(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
    assert rc != 0
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_missing_config(tmp_path):
    rc = main(["delay-eval", "--config", str(tmp_path / "absent.yaml"),
               "--out", str(tmp_path)])
    assert rc != 0


def test_cli_rejects_node_ids_the_wire_cannot_carry(tmp_path, capsys):
    # an id beyond the header's uint16 cannot be encoded, and duplicate ids
    # would overwrite one node's message stream
    for ids, message in (((70001, 2), "0..65535"), ((1, 1), "unique")):
        data = nine_pedestrians().to_dict()
        for node, node_id in zip(data["nodes"], ids):
            node["node_id"] = node_id
        path = tmp_path / "nodes.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        rc = main(["delay-eval", "--config", str(path), "--duration", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err


def test_cli_config_errors_name_file_and_key(tmp_path, capsys, monkeypatch):
    # each is rejected when the config loads, before any node pipeline runs
    monkeypatch.setattr(pipeline, "run_node", lambda *a, **k: pytest.fail("pipeline ran"))
    path = tmp_path / "bad.yaml"
    for edit, message in (
            # YAML's .nan and .inf: a NaN jitter scored every run, and an
            # infinite duration overflowed the frame count
            (lambda d: d.update(jitter_ms=math.nan),
             f"error: {path}.jitter_ms: expected a finite float, got nan"),
            (lambda d: d.update(duration_s=math.inf),
             f"error: {path}.duration_s: expected a finite float, got inf"),
            (lambda d: d.update(seed=-3), f"error: {path}: seed must be >= 0, got -3"),
            (lambda d: d.update(z_band=[2.2, 0.1]),
             f"error: {path}: z_band must run from low to high, got (2.2, 0.1)"),
            # ClockModel.global_time divides by 1 + drift_ppm * 1e-6
            (lambda d: d["nodes"][0]["clock"].update(drift_ppm=-1e6),
             f"error: {path}.nodes[0].clock: drift_ppm must be > -1e6, got -1000000.0"),
            (lambda d: d.update(jitter_ms=-1.0),
             f"error: {path}: delay_grid_ms entry 50.0 with jitter_ms -1.0: "
             "latency std must be >= 0"),
            (lambda d: d["fusion"].update(max_compensation=-0.1),
             f"error: {path}.fusion: max_compensation must be > 0, got -0.1"),
            (lambda d: d["fusion"].update(max_compensation=0.0),
             f"error: {path}.fusion: max_compensation must be > 0, got 0.0"),
            # interpolate_gt took the next frame of the last object of an id
            (lambda d: d["objects"][1].update(id=1),
             f"error: {path}: object ids must be unique, got [1, 1, 3, 4, 5, 6, 7, 8, 9]"),
            # m_miss = -1 dropped every track in the update that made it
            (lambda d: d["tracker"].update(m_miss=-1),
             f"error: {path}.tracker: n_confirm must be >= 1 and m_miss >= 0, got 3 and -1"),
            (lambda d: d["tracker"].update(n_confirm=0),
             f"error: {path}.tracker: n_confirm must be >= 1 and m_miss >= 0, got 0 and 5")):
        data = nine_pedestrians().to_dict()
        edit(data)
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        rc = main(["delay-eval", "--config", str(path), "--duration", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == message


def test_cli_rejects_non_finite_duration(tmp_path, capsys):
    for value in ("inf", "nan"):
        rc = main(["simulate", "--scenario", "four_pedestrians", "--duration", value,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == ("error: --duration: frame_rate_hz and "
                                                   f"duration_s must be finite and > 0, got "
                                                   f"10.0 and {value}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "local-eval", "delay-eval"])
def test_cli_rejects_negative_seed_and_duration_naming_the_flag(command, tmp_path, capsys,
                                                                 monkeypatch):
    # exit 2 before the world is simulated, as the same values in a YAML file
    monkeypatch.setattr(pipeline, "simulate_world", lambda *a: pytest.fail("the world ran"))
    for flag, value, message in (
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--seed", "-3", "seed must be >= 0, got -3"),
            ("--duration", "-1",
             "frame_rate_hz and duration_s must be finite and > 0, got 10.0 and -1.0")):
        rc = main([command, "--scenario", "four_pedestrians", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == f"error: {flag}: {message}"
    assert not list(tmp_path.iterdir())


def test_cli_malformed_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    for text in ("name: x\nseed: 1\n",  # missing required sections
                 "name: [unclosed\n"):  # not YAML
        bad.write_text(text)
        rc = main(["local-eval", "--config", str(bad), "--out", str(tmp_path)])
        assert rc != 0


def test_cli_dump_names_keep_fractional_delays_apart(tmp_path):
    data = replace(nine_pedestrians(), delay_grid_ms=(50.2, 50.7)).to_dict()
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    rc = main(["delay-eval", "--config", str(path), "--duration", "2.0",
               "--dump-tracks", "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.glob("tracks_*.jsonl")) == [
        f"tracks_nine_pedestrians_{d}ms_{m}.jsonl"
        for d in ("50.2", "50.7") for m in ("baseline", "delay_aware")]


def test_cli_delay_eval_deterministic_bytes(tmp_path):
    args = ["delay-eval", "--scenario", "four_pedestrians",
            "--duration", "4.0", "--seed", "5"]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "delay_eval.csv").read_bytes()
    b = (tmp_path / "b" / "delay_eval.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == ",".join(pipeline.METRIC_COLUMNS)


def test_cli_dump_tracks(tmp_path):
    rc = main(["delay-eval", "--scenario", "four_pedestrians", "--duration", "2.0",
               "--dump-tracks", "--out", str(tmp_path)])
    assert rc == 0
    dumps = list(tmp_path.glob("tracks_four_pedestrians_*ms_*.jsonl"))
    assert len(dumps) == 6
    record = json.loads(dumps[0].read_text().splitlines()[-1])
    assert set(record) == {"t", "tracks"}
    if record["tracks"]:
        assert "staleness_ms" in record["tracks"][0]
        assert "contributors" in record["tracks"][0]
