import math

import numpy as np
import pytest

from coopercept import tracking
from coopercept.camera import UNKNOWN
from coopercept.local_fusion import LabeledObject, SOURCE_FUSED, SOURCE_LIDAR_ONLY
from coopercept.tracking import (
    StampedObjectList,
    TrackState,
    Tracker,
    TrackerConfig,
)

import oracles
from oracles import PerTrackTracker, scalar_ctrv_iterate


def obs(x, y, label="person"):
    source = SOURCE_LIDAR_ONLY if label == UNKNOWN else SOURCE_FUSED
    return LabeledObject(label, np.array([x, y]), None, source)


def fresh_state(x=0.0, y=0.0, yaw=0.0, v=0.0, omega=0.0):
    return TrackState(track_id=1, class_label="person",
                      mean=np.array([x, y, yaw, v, omega]),
                      covariance=np.eye(5) * 0.1,
                      birth_position=np.array([x, y]), birth_timestamp=0.0)


def coasting(state):
    """A tracker holding ``state`` at time 0 that never drops it, so each
    ``update([], t)`` is a pure prediction to ``t``."""
    tracker = Tracker(node_id=1, config=TrackerConfig(m_miss=1000))
    tracker.tracks = [state]
    tracker.update([], 0.0)
    return tracker


# -- prediction ---------------------------------------------------------------

def test_tracker_config_rejects_counts_out_of_range():
    # m_miss = -1 dropped every track in the update that made it, so no
    # list ever held an object
    for kwargs, got in (({"m_miss": -1}, "3 and -1"), ({"n_confirm": 0}, "0 and 5"),
                        ({"n_confirm": -2, "m_miss": 4}, "-2 and 4")):
        with pytest.raises(ValueError,
                           match=f"^n_confirm must be >= 1 and m_miss >= 0, got {got}$"):
            TrackerConfig(**kwargs)
    # the least settings still track, and drop a track on its first miss
    tracker = Tracker(node_id=1, config=TrackerConfig(n_confirm=1, m_miss=0))
    for t in (0.0, 0.1):
        out = tracker.update([obs(1.0, 2.0)], t)
    assert len(out.objects) == 1
    assert tracker.update([], 0.2).objects == () and tracker.tracks == []


def test_predict_zero_dt_identity():
    state = fresh_state(1.0, 2.0, 0.3, 1.5, -0.2)
    before = state.mean.copy()
    coasting(state).update([], 0.0)
    assert np.array_equal(state.mean, before)


def test_predict_straight():
    state = fresh_state(x=1.0, v=2.0)
    coasting(state).update([], 0.25)
    assert state.mean[0] == pytest.approx(1.5, abs=0.0)
    assert state.mean[1] == 0.0


def test_predict_matches_scalar_iterate():
    state = fresh_state(v=1.0, omega=0.2)
    tracker = coasting(state)
    for k in range(1, 21):
        tracker.update([], k * 0.1)
    expected = scalar_ctrv_iterate(0.0, 0.0, 0.0, 1.0, 0.2, 0.1, steps=20)
    assert state.mean[0] == pytest.approx(expected[0], abs=1e-12)
    assert state.mean[1] == pytest.approx(expected[1], abs=1e-12)
    assert state.mean[2] == pytest.approx(expected[2], abs=1e-12)


def test_predict_covariance_grows_and_stays_psd():
    state = fresh_state(v=1.0, omega=0.4)
    tracker = coasting(state)
    for k in range(1, 31):
        prev = state.covariance.copy()
        tracker.update([], k * 0.1)
        assert np.allclose(state.covariance, state.covariance.T)
        assert np.linalg.eigvalsh(state.covariance).min() >= -1e-9
    assert np.trace(state.covariance) > np.trace(prev) - 1e-12


# -- track lifecycle ----------------------------------------------------------

def test_single_observation_spawns_tentative_track():
    tracker = Tracker(node_id=1)
    out = tracker.update([obs(1.0, 1.0)], 0.0)
    assert isinstance(out, StampedObjectList)
    assert out.node_id == 1
    assert out.objects == ()  # not confirmed yet
    assert len(tracker.tracks) == 1
    assert not tracker.tracks[0].confirmed


def test_stationary_object_confirms_with_near_zero_speed():
    tracker = Tracker(node_id=1)
    out = None
    for k in range(10):
        out = tracker.update([obs(2.0, -1.0)], k * 0.1)
    assert len(out.objects) == 1
    tracked = out.objects[0]
    assert abs(tracked.v_x) < 0.05
    assert math.hypot(tracked.x - 2.0, tracked.y + 1.0) < 0.05


def test_straight_mover_velocity_and_heading():
    tracker = Tracker(node_id=1)
    out = None
    for k in range(11):
        t = k * 0.1
        out = tracker.update([obs(t * 1.0, 0.0)], t)  # 1 m/s along +x
    assert len(out.objects) == 1
    tracked = out.objects[0]
    assert 0.9 <= tracked.v_x <= 1.1
    assert abs(tracked.yaw) < math.radians(5.0)


def test_track_ids_never_reused():
    tracker = Tracker(node_id=1, config=TrackerConfig(m_miss=0))
    seen = set()
    for k in range(6):
        # alternate object positions so tracks die and new ones spawn
        x = 10.0 * (k % 2)
        tracker.update([obs(x, 0.0)], k * 0.1)
        for tr in tracker.tracks:
            seen.add(tr.track_id)
    assert len(seen) >= 3  # several generations
    # ids strictly increase; the tracker never hands one out twice
    assert sorted(seen) == list(range(min(seen), max(seen) + 1))


def test_class_gate_forbids_person_bed_flip():
    tracker = Tracker(node_id=1)
    for k in range(5):
        tracker.update([obs(0.0, 0.0, "person")], k * 0.1)
    assert tracker.tracks[0].class_label == "person"
    # a bed observation inside the association gate must not update the
    # person track (0.7 m: outside spawn suppression, inside the gate)
    tracker.update([obs(0.7, 0.0, "bed")], 0.5)
    labels = sorted(t.class_label for t in tracker.tracks)
    assert labels == ["bed", "person"]
    assert tracker.tracks[0].class_label == "person"


def test_unknown_observation_keeps_then_upgrades_class():
    tracker = Tracker(node_id=1)
    tracker.update([obs(0.0, 0.0, UNKNOWN)], 0.0)
    assert tracker.tracks[0].class_label == UNKNOWN
    tracker.update([obs(0.0, 0.0, "bed")], 0.1)
    assert tracker.tracks[0].class_label == "bed"


def test_miss_counter_removes_track():
    config = TrackerConfig(m_miss=2)
    tracker = Tracker(node_id=1, config=config)
    for k in range(4):
        tracker.update([obs(0.0, 0.0)], k * 0.1)
    assert len(tracker.tracks) == 1
    for k in range(4, 8):
        tracker.update([], k * 0.1)
    assert tracker.tracks == []


def test_covariance_psd_through_update_cycles():
    tracker = Tracker(node_id=1)
    rng = np.random.default_rng(8)
    for k in range(50):
        t = k * 0.1
        noisy = obs(t * 1.2 + rng.normal(0, 0.05), rng.normal(0, 0.05))
        tracker.update([noisy], t)
        for tr in tracker.tracks:
            assert np.allclose(tr.covariance, tr.covariance.T, atol=1e-12)
            assert np.linalg.eigvalsh(tr.covariance).min() >= -1e-9


def test_yaw_always_normalized():
    tracker = Tracker(node_id=1)
    # walk a tight circle to push yaw through the seam repeatedly
    for k in range(80):
        t = k * 0.1
        ang = 1.5 * t
        tracker.update([obs(2.0 * math.cos(ang), 2.0 * math.sin(ang))], t)
        for msg_obj in tracker.update([], t + 0.05).objects:
            assert -math.pi < msg_obj.yaw <= math.pi


def test_out_of_order_frames_rejected():
    tracker = Tracker(node_id=1)
    tracker.update([obs(0.0, 0.0)], 1.0)
    with pytest.raises(ValueError):
        tracker.update([obs(0.0, 0.0)], 0.5)


# -- built-in streams ---------------------------------------------------------

@pytest.fixture(scope="module")
def builtin_tracker_inputs(builtin_node_runs):
    """Each built-in node's tracker inputs over 5 s at seeds 7 and 2411, as
    ``(label, node_id, tracker_config, [(observations, timestamp)])``."""
    return [(label, node_id, config.tracker, calls)
            for label, config, _, nodes in builtin_node_runs
            for node_id, (calls, _) in nodes.items()]


def test_tracker_matches_per_track_oracle_bit_for_bit(builtin_tracker_inputs, solver_costs):
    assert len(builtin_tracker_inputs) == 12  # 3 scenarios x 2 seeds x 2 nodes
    costs, oracle_costs = solver_costs(tracking), solver_costs(oracles)
    for label, node_id, config, calls in builtin_tracker_inputs:
        tracker, oracle = Tracker(node_id, config), PerTrackTracker(node_id, config)
        for k, (observations, t) in enumerate(calls):
            got, want = tracker.update(observations, t), oracle.update(observations, t)
            assert repr(got) == repr(want), (label, node_id, k)
            assert [s.covariance.tobytes() for s in tracker.tracks] == \
                [s.covariance.tobytes() for s in oracle.tracks], (label, node_id, k)
    assert costs == oracle_costs and len(costs) > 500


def test_covariance_psd_after_every_update_on_builtin_streams(builtin_tracker_inputs):
    for label, node_id, config, calls in builtin_tracker_inputs:
        tracker = Tracker(node_id, config)
        for k, (observations, t) in enumerate(calls):
            tracker.update(observations, t)
            for track in tracker.tracks:
                worst = np.linalg.eigvalsh(track.covariance).min()
                assert worst >= 0.0, (label, node_id, k, track.track_id, worst)
