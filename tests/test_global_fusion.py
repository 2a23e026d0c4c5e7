import dataclasses
import math

import numpy as np
import pytest

from coopercept import global_fusion, pipeline
from coopercept.evaluation import CLASS_MATCH_GATES, DEFAULT_MATCH_GATE, aggregate, match_frame
from coopercept.global_fusion import (
    BASE_POSITION_VAR,
    PROCESS_RATE,
    CenterNode,
    FusionParams,
    GlobalTrack,
    compensate_delay,
)
from coopercept.tracking import StampedObjectList, TrackedObject
from coopercept.transport import ClockModel, SimulatedNetwork

import oracles
from oracles import brute_force_fuse_cycle, per_pair_match_frame, scalar_ctrv_iterate


def tracked(track_id=1, label="person", x=0.0, y=0.0, yaw=0.0, v=0.0, omega=0.0):
    return TrackedObject(track_id=track_id, class_label=label, x=x, y=y, yaw=yaw,
                         v_x=v, omega_z=omega)


def message(node_id, ts, objects):
    return StampedObjectList(node_id=node_id, capture_timestamp=ts,
                             objects=tuple(objects))


def fuse(messages, now, params=FusionParams(), delay_aware=True):
    """One fusion cycle of a fresh center over the given messages."""
    center = CenterNode(params, delay_aware=delay_aware)
    for m in messages:
        center.receive(m)
    return center.fuse_cycle(now)


# -- delay compensation --------------------------------------------------------

def test_zero_delay_leaves_states():
    msg = message(1, 10.0, [tracked(x=1.0, y=2.0, yaw=0.3, v=1.0, omega=0.1)])
    out = compensate_delay(msg, now=10.0)
    assert out[0].x == 1.0
    assert out[0].y == 2.0
    assert out[0].yaw == 0.3
    assert out[0].delay_ms == 0.0


def test_100ms_delay_shifts_forward():
    msg = message(1, 0.0, [tracked(v=1.0)])
    out = compensate_delay(msg, now=0.1)
    assert out[0].x == pytest.approx(0.1, abs=1e-15)
    assert out[0].y == 0.0


def test_turning_compensation_matches_scalar_step():
    msg = message(1, 0.0, [tracked(x=0.5, y=-0.5, yaw=0.4, v=1.0, omega=0.5)])
    out = compensate_delay(msg, now=0.15)
    expected = scalar_ctrv_iterate(0.5, -0.5, 0.4, 1.0, 0.5, 0.15, steps=1)
    assert out[0].x == pytest.approx(expected[0], abs=1e-12)
    assert out[0].y == pytest.approx(expected[1], abs=1e-12)
    assert out[0].yaw == pytest.approx(expected[2], abs=1e-12)


@pytest.mark.parametrize("delay_aware", (True, False))
def test_lists_older_than_max_compensation_leave_the_cycle(delay_aware):
    params = FusionParams(max_compensation=0.5)
    center = CenterNode(params, delay_aware=delay_aware)
    center.receive(message(1, 0.9, [tracked(track_id=1, x=0.0, v=1.0)]))
    center.receive(message(2, 0.4, [tracked(track_id=7, x=3.0, v=1.0)]))
    tracks = center.fuse_cycle(1.0)  # node 1 is 0.1 s old, node 2 0.6 s
    assert [tr.contributors for tr in tracks] == [((1, 1),)]
    assert len(center._latest) == 2  # held, only left out of the cycle
    center.receive(message(2, 0.5, [tracked(track_id=7, x=3.0, v=1.0)]))
    tracks = center.fuse_cycle(1.0)  # node 2 now exactly 0.5 s old
    assert sorted(tr.contributors for tr in tracks) == [((1, 1),), ((2, 7),)]
    assert max(tr.staleness_ms for tr in tracks) == 500.0


def test_clock_ahead_clamps_to_zero():
    msg = message(1, 5.0, [tracked(x=1.0, v=3.0)])
    out = compensate_delay(msg, now=4.9)
    assert out[0].x == 1.0


def test_covariance_inflation_by_class():
    params = FusionParams()
    now = 0.2
    person = compensate_delay(message(1, 0.0, [tracked(label="person")]), now, params)
    bed = compensate_delay(message(1, 0.0, [tracked(label="bed")]), now, params)
    # the same delay inflates a pedestrian's weighting variance more
    assert person[0].fusion_var > bed[0].fusion_var


# -- fusion ----------------------------------------------------------------------

def test_single_node_passthrough():
    msg = message(1, 0.0, [tracked(track_id=4, x=2.0, y=3.0, v=1.0)])
    tracks = fuse([msg], now=0.1)
    assert len(tracks) == 1
    assert tracks[0].contributors == ((1, 4),)
    comp = compensate_delay(msg, now=0.1)[0]
    assert tracks[0].x == pytest.approx(comp.x)
    assert tracks[0].y == pytest.approx(comp.y)


def test_equal_weight_mean():
    a = message(1, 1.0, [tracked(track_id=1, x=1.00, y=2.0)])
    b = message(2, 1.0, [tracked(track_id=9, x=1.10, y=2.0)])
    tracks = fuse([a, b], now=1.0)  # equal (zero) delays -> equal weights
    assert len(tracks) == 1
    assert tracks[0].x == pytest.approx(1.05, abs=1e-12)
    assert tracks[0].y == pytest.approx(2.0, abs=1e-12)
    assert sum(tracks[0].weights) == pytest.approx(1.0, abs=1e-12)


def test_fresher_node_weighs_more_exact_weights():
    # hand-computed inverse-variance weights: var = base + rate * delay
    params = FusionParams()
    base = BASE_POSITION_VAR
    rate = PROCESS_RATE["person"]
    now = 1.0
    a = message(1, now - 0.020, [tracked(track_id=1, x=1.00, y=2.0)])
    b = message(2, now - 0.120, [tracked(track_id=2, x=1.10, y=2.0)])
    tracks = fuse([a, b], now=now, params=params)
    w1 = 1.0 / (base + rate * 0.020)
    w2 = 1.0 / (base + rate * 0.120)
    expected_x = (w1 * 1.00 + w2 * 1.10) / (w1 + w2)
    assert len(tracks) == 1
    assert tracks[0].x == pytest.approx(expected_x, abs=1e-9)
    assert tracks[0].x < 1.05  # pulled toward the fresher node
    assert sum(tracks[0].weights) == pytest.approx(1.0, abs=1e-12)


def test_weights_sum_to_one_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        msgs = []
        for node in (1, 2, 3):
            objs = [tracked(track_id=node * 10, x=float(rng.normal(0, 0.05)),
                            y=float(rng.normal(0, 0.05)))]
            msgs.append(message(node, rng.uniform(0.0, 0.2), objs))
        tracks = fuse(msgs, now=0.3)
        for tr in tracks:
            assert sum(tr.weights) == pytest.approx(1.0, abs=1e-9)


def test_contributor_uniqueness_per_cycle():
    rng = np.random.default_rng(14)
    msgs = []
    for node in (1, 2):
        objs = [tracked(track_id=k, x=float(rng.uniform(-3, 3)),
                        y=float(rng.uniform(-3, 3))) for k in range(6)]
        msgs.append(message(node, 0.0, objs))
    tracks = fuse(msgs, now=0.05)
    seen = []
    for tr in tracks:
        seen.extend(tr.contributors)
    assert len(seen) == len(set(seen))
    per_track_nodes = [[n for n, _ in tr.contributors] for tr in tracks]
    assert all(len(nodes) == len(set(nodes)) for nodes in per_track_nodes)


def test_class_gate_prevents_person_bed_merge():
    a = message(1, 0.0, [tracked(track_id=1, label="person", x=0.0)])
    b = message(2, 0.0, [tracked(track_id=2, label="bed", x=0.1)])
    tracks = fuse([a, b], now=0.0)
    assert len(tracks) == 2


# -- baseline ---------------------------------------------------------------------

def test_zero_latency_methods_tie():
    a = message(1, 1.0, [tracked(track_id=1, x=1.0, y=0.5, v=1.3)])
    b = message(2, 1.0, [tracked(track_id=2, x=1.05, y=0.5, v=1.3)])
    aware = fuse([a, b], now=1.0)
    base = fuse([a, b], now=1.0, delay_aware=False)
    assert len(aware) == len(base) == 1
    assert aware[0].x == pytest.approx(base[0].x, abs=1e-9)
    assert aware[0].y == pytest.approx(base[0].y, abs=1e-9)


def test_baseline_lags_moving_pedestrian():
    # 1 m/s, 150 ms old message: baseline sits 0.15 m behind along motion
    msg = message(1, 0.0, [tracked(track_id=1, v=1.0)])
    aware = fuse([msg], now=0.15)
    base = fuse([msg], now=0.15, delay_aware=False)
    assert aware[0].x - base[0].x == pytest.approx(0.15, abs=1e-12)


def test_static_scene_methods_agree_under_any_delay():
    msg = message(1, 0.0, [tracked(track_id=1, x=2.0, y=-1.0, v=0.0)])
    for delay in (0.05, 0.2, 0.4):
        aware = fuse([msg], now=delay)
        base = fuse([msg], now=delay, delay_aware=False)
        assert aware[0].x == pytest.approx(base[0].x, abs=1e-12)
        assert aware[0].y == pytest.approx(base[0].y, abs=1e-12)


# -- duplicate failure mode --------------------------------------------------------

def _turn_scenario(turned: bool):
    """Node 1 reports fresh; node 2's message is 0.45 s stale. When the
    person turned after node 2's capture, its straight-line prediction
    lands far from the fresh report."""
    now = 1.0
    if turned:
        fresh = tracked(track_id=1, x=1.0, y=0.5, yaw=0.0, v=2.5)
    else:
        fresh = tracked(track_id=1, x=0.0, y=1.125, yaw=math.pi / 2, v=2.5)
    a = message(1, now, [fresh])
    stale = tracked(track_id=2, x=0.0, y=0.0, yaw=math.pi / 2, v=2.5)
    b = message(2, now - 0.45, [stale])
    return [a, b], now


def test_sharp_turn_creates_duplicate():
    msgs, now = _turn_scenario(turned=True)
    tracks = fuse(msgs, now=now)
    assert len(tracks) == 2  # the known recall failure mode


def test_straight_motion_fuses_single_track():
    msgs, now = _turn_scenario(turned=False)
    tracks = fuse(msgs, now=now)
    assert len(tracks) == 1
    assert len(tracks[0].contributors) == 2


# -- id continuity ------------------------------------------------------------------

def test_global_ids_stable_across_cycles():
    center = CenterNode()
    gids = []
    for k in range(10):
        t = k * 0.1
        center.receive(message(1, t, [tracked(track_id=1, x=0.1 * k, v=1.0)]))
        tracks = center.fuse_cycle(t)
        gids.append(tracks[0].global_id)
    assert len(set(gids)) == 1


def test_new_object_gets_new_gid():
    center = CenterNode()
    center.receive(message(1, 0.0, [tracked(track_id=1, x=0.0)]))
    first = center.fuse_cycle(0.0)[0].global_id
    center.receive(message(1, 0.1, [tracked(track_id=1, x=0.0),
                                    tracked(track_id=2, x=5.0)]))
    tracks = center.fuse_cycle(0.1)
    gids = {tr.global_id for tr in tracks}
    assert first in gids
    assert len(gids) == 2


def test_tandem_walkers_keep_their_ids():
    # 3 m/s, 0.35 m apart: each walker's new report lies nearer the other's
    # last position than its own, but on its own predicted position
    center = CenterNode()
    center.receive(message(1, 0.1, [tracked(track_id=1, x=0.0, v=3.0),
                                    tracked(track_id=2, x=0.35, v=3.0)]))
    first = {tr.contributors: tr.global_id for tr in center.fuse_cycle(0.1)}
    center.receive(message(1, 0.2, [tracked(track_id=1, x=0.3, v=3.0),
                                    tracked(track_id=2, x=0.65, v=3.0)]))
    second = {tr.contributors: tr.global_id for tr in center.fuse_cycle(0.2)}
    assert len(set(first.values())) == 2
    assert second == first


def test_cycle_time_must_not_go_backwards():
    center = CenterNode()
    center.receive(message(1, 0.0, [tracked(v=1.0)]))
    center.fuse_cycle(0.2)
    with pytest.raises(ValueError, match=r"0\.1 .*0\.2"):
        center.fuse_cycle(0.1)
    assert len(center.fuse_cycle(0.2)) == 1  # the same time again is a zero interval


def _id_switches(cycles, frames, config):
    """CLEAR MOT identity switches over the scored cycles: ground truth is
    matched to the global tracks as ``match_frame`` matches it, and an
    object whose matched gid differs from the gid it last matched counts
    one switch."""
    ids = [o.id for o in frames[0][1]]
    assert all([o.id for o in world] == ids for _, world in frames)  # interpolate_gt's order
    last, switches = {}, 0
    for t, tracks in cycles:
        if t < config.settle_s:
            continue
        predictions = [(tr.class_label, tr.x, tr.y) for tr in tracks]
        gt = pipeline.interpolate_gt(frames, t)
        want, pairs = per_pair_match_frame(predictions, gt, DEFAULT_MATCH_GATE,
                                           CLASS_MATCH_GATES)
        got = match_frame(predictions, gt, DEFAULT_MATCH_GATE, CLASS_MATCH_GATES)
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))
        for i, j in pairs:
            gid = tracks[i].global_id
            switches += last.get(ids[j], gid) != gid
            last[ids[j]] = gid
    return switches


# Id switches summed over the delay grid and both methods, counted by
# _id_switches, when ids were carried over greedily, in contributor order,
# to the nearest unpredicted previous position.
GREEDY_ID_SWITCHES = {
    "nine_pedestrians/7": 101, "four_pedestrians/7": 20, "bed_and_three/7": 81,
    "nine_pedestrians/2411": 70, "four_pedestrians/2411": 27, "bed_and_three/2411": 77,
}


def test_fewer_id_switches_on_builtin_streams(builtin_node_runs):
    counts = {}
    for label, config, frames, nodes in builtin_node_runs:
        messages = {node_id: stream for node_id, (_, stream) in nodes.items()}
        times = [t for t, _ in frames]
        counts[label] = 0
        for delay_ms in config.delay_grid_ms:  # the grid and seeds run_delay_eval uses
            net_seed = [config.seed, int(round(delay_ms * 1000))]
            for delay_aware in (False, True):
                cycles = pipeline.replay_fusion(messages, times, delay_ms, config.jitter_ms,
                                                net_seed, config, delay_aware)
                counts[label] += _id_switches(cycles, frames, config)
    assert all(counts[k] <= GREEDY_ID_SWITCHES[k] for k in GREEDY_ID_SWITCHES), counts
    assert sum(counts.values()) < sum(GREEDY_ID_SWITCHES.values()), counts


def test_silent_node_leaves_no_ghost_tracks(builtin_node_runs):
    # each node in turn stops sending at 2.5 s; its last list must not keep
    # emitting tracks once it is older than max_compensation
    cut, scored_from = 2.5, 3.0
    for label, config, frames, nodes in builtin_node_runs:
        messages = {node_id: stream for node_id, (_, stream) in nodes.items()}
        times = [t for t, _ in frames]
        for silent in messages:
            streams = dict(messages)
            streams[silent] = [m for m in messages[silent] if m.capture_timestamp < cut]
            for delay_ms in config.delay_grid_ms:
                net_seed = [config.seed, int(round(delay_ms * 1000))]
                cycles = pipeline.replay_fusion(streams, times, delay_ms, config.jitter_ms,
                                                net_seed, config, delay_aware=True)
                scores = pipeline.score_cycles([c for c in cycles if c[0] >= scored_from],
                                               frames, config)
                precision, _, _ = aggregate(scores)
                floor = 0.7 if label.startswith("bed_and_three") else 0.94
                assert precision >= floor, (label, silent, delay_ms, precision)


# -- oracle ---------------------------------------------------------------------------

_YAW_EDGES = (math.pi, -math.pi, math.pi - 1e-10, -math.pi + 1e-10,
              math.pi - 1e-9, -math.pi + 1e-9, 0.0, -0.0)


def _random_object(rng, track_id, anchor):
    label = ("person", "bed", "unknown")[int(rng.integers(3))]
    if rng.random() < 0.3:
        yaw = _YAW_EDGES[int(rng.integers(len(_YAW_EDGES)))]
    else:
        yaw = float(rng.uniform(-math.pi, math.pi))
    return tracked(track_id=track_id, label=label,
                   x=float(anchor[0] + rng.normal(0.0, 0.4)),
                   y=float(anchor[1] + rng.normal(0.0, 0.4)),
                   yaw=yaw, v=float(rng.uniform(-0.5, 2.5)),
                   omega=float(rng.choice([0.0, rng.normal(0.0, 2.0), 40.0, -40.0])))


def _track_fields(track):
    """Every GlobalTrack field, as a repr that tells floats apart by their bits."""
    return repr(tuple(getattr(track, f.name) for f in dataclasses.fields(GlobalTrack)))


@pytest.mark.parametrize("n_nodes", (2, 3, 4))
@pytest.mark.parametrize("delay_aware", (True, False))
def test_fuse_cycle_matches_numpy_oracle_bit_for_bit(n_nodes, delay_aware, solver_costs):
    params = FusionParams()
    costs, oracle_costs = solver_costs(global_fusion), solver_costs(oracles)
    rng = np.random.default_rng(100 * n_nodes + delay_aware)
    for _ in range(15):
        center = CenterNode(params, delay_aware=delay_aware)
        previous, previous_now, next_gid = [], 0.0, 1
        anchors = rng.uniform(-4.0, 4.0, size=(6, 2))
        for cycle in range(8):
            now = 0.1 * (cycle + 1)
            for node in range(1, n_nodes + 1):
                if cycle and rng.random() < 0.25:
                    continue  # no new list: the center keeps the last one
                seen = rng.random(len(anchors)) < 0.7
                objects = [_random_object(rng, 10 * node + k, a)
                           for k, a in enumerate(anchors) if seen[k]]
                delay = float(rng.choice([0.0, rng.uniform(0.0, 0.2),
                                          rng.uniform(0.4, 0.9), -5e-7]))
                center.receive(message(node, now - delay, objects))
            got = center.fuse_cycle(now)
            latest = [center._latest[nid] for nid in sorted(center._latest)]
            want, next_gid = brute_force_fuse_cycle(latest, now, params, delay_aware,
                                                    previous, previous_now, next_gid)
            previous, previous_now = want, now
            assert [_track_fields(t) for t in got] == [_track_fields(t) for t in want]
    # an id carry-over per cycle, and a cross-node merge per node after the
    # first with objects
    assert costs == oracle_costs and len(costs) > 15 * 8


# The channel grid of the center_replay benchmark: the ideal channel, then
# every mean delay with 8 and 40 ms jitter.
REPLAY_GRID = [(0.0, 0.0)] + [(d, j) for d in (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)
                              for j in (8.0, 40.0)]


def _replay_checked(monkeypatch, streams, times, delay_ms, jitter_ms, config, delay_aware):
    """``pipeline.replay_fusion`` with every cycle's GlobalTracks checked
    bit for bit against ``brute_force_fuse_cycle`` on the lists the center
    holds; returns the number of cycles checked."""
    checked = []

    class Checked(CenterNode):
        def fuse_cycle(self, now):
            got = super().fuse_cycle(now)
            previous, previous_now, next_gid = checked[-1] if checked else ([], 0.0, 1)
            latest = [self._latest[nid] for nid in sorted(self._latest)]
            want, next_gid = brute_force_fuse_cycle(latest, now, self.params, self.delay_aware,
                                                    previous, previous_now, next_gid)
            assert [_track_fields(t) for t in got] == [_track_fields(t) for t in want], now
            checked.append((want, now, next_gid))
            return got

    monkeypatch.setattr(pipeline, "CenterNode", Checked)
    net_seed = [config.seed, round(delay_ms * 1000), round(jitter_ms * 1000)]
    pipeline.replay_fusion(streams, times, delay_ms, jitter_ms, net_seed, config, delay_aware)
    return len(checked)


def _recorded(builtin_node_runs, labels):
    runs = [(config, frames, {nid: stream for nid, (_, stream) in nodes.items()})
            for label, config, frames, nodes in builtin_node_runs if label in labels]
    assert len(runs) == len(labels)
    return runs


@pytest.mark.parametrize("delay_aware", (False, True))
def test_fuse_cycle_matches_numpy_oracle_on_recorded_streams(builtin_node_runs, monkeypatch,
                                                             delay_aware):
    labels = ("nine_pedestrians/7", "nine_pedestrians/2411", "bed_and_three/7",
              "bed_and_three/2411")
    for config, frames, streams in _recorded(builtin_node_runs, labels):
        times = [t for t, _ in frames]
        for delay_ms, jitter_ms in REPLAY_GRID:
            assert _replay_checked(monkeypatch, streams, times, delay_ms, jitter_ms, config,
                                   delay_aware) == len(times)


@pytest.mark.parametrize("delay_aware", (False, True))
def test_fuse_cycle_matches_numpy_oracle_under_loss_and_clock_skew(builtin_node_runs,
                                                                   monkeypatch, delay_aware):
    fast = ClockModel(offset_ms=150.0)
    for config, frames, streams in _recorded(builtin_node_runs,
                                             ("nine_pedestrians/7", "bed_and_three/2411")):
        times = [t for t, _ in frames]
        with monkeypatch.context() as lossy:  # 30% of the frames never arrive
            lossy.setattr(pipeline, "SimulatedNetwork", lambda latency, seed: SimulatedNetwork(
                latency, seed=seed, drop_probability=0.3))
            assert _replay_checked(lossy, streams, times, 100.0, 40.0, config,
                                   delay_aware) == len(times)
        # node 2's clock runs 150 ms ahead: its stamps do, and it sends by them
        skewed = {**streams, 2: [dataclasses.replace(m, capture_timestamp=fast.node_time(
            m.capture_timestamp)) for m in streams[2]]}
        nodes = [dataclasses.replace(n, clock=fast) if n.node_id == 2 else n
                 for n in config.nodes]
        assert _replay_checked(monkeypatch, skewed, times, 50.0, 8.0,
                               dataclasses.replace(config, nodes=nodes), delay_aware) == len(times)
