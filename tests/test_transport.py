import math
import struct

import numpy as np
import pytest

from coopercept.tracking import StampedObjectList, TrackedObject
from coopercept.transport import (
    ClockModel,
    FrameError,
    LatencyModel,
    SimulatedNetwork,
    decode,
    encode,
    sample_latency,
)

from oracles import record_by_record_decode


def random_message(rng, node_id=None, n_objects=None) -> StampedObjectList:
    node_id = int(rng.integers(0, 60000)) if node_id is None else node_id
    n = int(rng.integers(0, 12)) if n_objects is None else n_objects
    objects = tuple(
        TrackedObject(
            track_id=int(rng.integers(0, 2 ** 32 - 1)),
            class_label=["person", "bed", "unknown"][int(rng.integers(0, 3))],
            x=float(rng.normal(0.0, 10.0)),
            y=float(rng.normal(0.0, 10.0)),
            yaw=float(rng.uniform(-math.pi, math.pi)),
            v_x=float(rng.normal(0.0, 2.0)),
            omega_z=float(rng.normal(0.0, 1.0)),
        )
        for _ in range(n)
    )
    # wire timestamps are integer microseconds; keep the corpus on-grid
    ts = int(rng.integers(0, 10 ** 12)) / 1e6
    return StampedObjectList(node_id=node_id, capture_timestamp=ts, objects=objects)


@pytest.mark.parametrize("field, value", [
    ("x", math.nan), ("y", math.inf), ("yaw", -math.inf), ("v_x", math.nan),
    ("omega_z", math.inf),
])
def test_decode_rejects_non_finite_fields(field, value):
    from dataclasses import replace

    msg = random_message(np.random.default_rng(3), n_objects=3)
    bad = replace(msg, objects=(msg.objects[0], msg.objects[1]._replace(**{field: value}),
                                msg.objects[2]))
    with pytest.raises(FrameError):
        decode(encode(bad))


def test_decode_accepts_extreme_finite_values():
    obj = TrackedObject(track_id=1, class_label="bed", x=1.7e308, y=-2.0, yaw=0.5,
                        v_x=0.0, omega_z=-5e-324)
    msg = StampedObjectList(node_id=2, capture_timestamp=1.5, objects=(obj,))
    assert decode(encode(msg)) == msg


# -- latency model -------------------------------------------------------------

def test_degenerate_model_returns_exact_mean():
    model = LatencyModel(mean_ms=42.0, std_ms=0.0)
    rng = np.random.default_rng(0)
    assert all(sample_latency(model, rng) == 42.0 for _ in range(100))


def test_sampler_statistics_50_8():
    model = LatencyModel(mean_ms=50.0, std_ms=8.0)
    rng = np.random.default_rng(123)
    samples = np.array([sample_latency(model, rng) for _ in range(100_000)])
    assert abs(samples.mean() - 50.0) < 0.1
    assert abs(samples.std(ddof=1) - 8.0) < 0.2
    assert samples.min() >= 0.1


def test_sampler_tail_52_7_7_9():
    # fitted transmission-latency parameters: nearly all mass in [30, 76] ms
    model = LatencyModel(mean_ms=52.7, std_ms=7.9)
    rng = np.random.default_rng(321)
    samples = np.array([sample_latency(model, rng) for _ in range(100_000)])
    inside = np.mean((samples >= 30.0) & (samples <= 76.0))
    assert inside >= 0.99


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        LatencyModel(mean_ms=-1.0)
    with pytest.raises(ValueError):
        LatencyModel(mean_ms=0.0, std_ms=5.0)
    with pytest.raises(ValueError):
        LatencyModel(mean_ms=10.0, std_ms=-0.1)


# -- wire format ----------------------------------------------------------------

def test_empty_list_round_trip():
    msg = StampedObjectList(node_id=3, capture_timestamp=1.25, objects=())
    frame = encode(msg)
    assert decode(frame) == msg


def test_random_corpus_round_trip_bitwise():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg


def test_truncated_frame_is_an_error():
    rng = np.random.default_rng(1)
    frame = encode(random_message(rng, n_objects=3))
    for cut in (1, 4, 10, len(frame) - 5, len(frame) - 1):
        with pytest.raises(FrameError):
            decode(frame[:cut])


def test_bad_magic_and_version():
    rng = np.random.default_rng(2)
    frame = bytearray(encode(random_message(rng, n_objects=1)))
    frame[4] ^= 0xFF  # corrupt magic inside the payload
    with pytest.raises(FrameError):
        decode(bytes(frame))
    frame = bytearray(encode(random_message(rng, n_objects=1)))
    frame[8] ^= 0xFF  # corrupt version
    with pytest.raises(FrameError):
        decode(bytes(frame))
    # a well-formed version-1 frame: 69-byte records that also carried the
    # 2x2 position covariance
    payload = (struct.pack("<4sHHqI", b"SOL1", 1, 3, 1_250_000, 1)
               + struct.pack("<IB8d", 7, 0, 1.0, 2.0, 0.1, 0.5, 0.0, 0.01, 0.0, 0.01))
    with pytest.raises(FrameError):
        decode(struct.pack("<I", len(payload)) + payload)


def test_garbage_never_raises_anything_but_frame_error():
    rng = np.random.default_rng(3)
    for _ in range(200):
        blob = rng.bytes(int(rng.integers(0, 120)))
        try:
            decode(blob)
        except FrameError:
            pass


def _decoded(decoder, frame):
    try:
        return decoder(frame)
    except FrameError as error:
        return f"FrameError: {error}"


def test_decode_matches_record_by_record_oracle():
    rng = np.random.default_rng(2024)
    corpus = []
    for _ in range(400):
        frame = bytearray(encode(random_message(rng)))
        corpus.append(bytes(frame))
        head = 4 + struct.calcsize("<4sHHqI")
        n_records = (len(frame) - head) // 45
        for _ in range(3):
            bad = bytearray(frame)
            kind = int(rng.integers(5))
            if kind == 0:  # any byte flipped: prefix, header, id, class or state
                bad[int(rng.integers(len(bad)))] ^= int(rng.integers(1, 256))
            elif kind == 1 and n_records:  # an unknown class code
                bad[head + 45 * int(rng.integers(n_records)) + 4] = int(rng.integers(3, 256))
            elif kind == 2 and n_records:  # one state field not finite
                offset = head + 45 * int(rng.integers(n_records)) + 5 + 8 * int(rng.integers(5))
                bad[offset:offset + 8] = struct.pack("<d", [math.nan, math.inf, -math.inf][
                    int(rng.integers(3))])
            elif kind == 3:  # truncated, with the length prefix still claiming it all
                bad = bad[:int(rng.integers(len(bad)))]
            else:  # one record too many or too few for the header's count
                bad = bad[:-45] if n_records and rng.random() < 0.5 else bad + bad[-45:]
                bad[:4] = struct.pack("<I", len(bad) - 4)
            corpus.append(bytes(bad))
    corpus += [rng.bytes(int(rng.integers(0, 200))) for _ in range(200)]
    outcomes = [_decoded(decode, frame) for frame in corpus]
    assert outcomes == [_decoded(record_by_record_decode, frame) for frame in corpus]
    errors = [o for o in outcomes if isinstance(o, str)]
    for reason in ("unknown class code", "non-finite state", "!= declared", "!= expected"):
        assert any(reason in e for e in errors), reason
    assert len(errors) < len(outcomes) - 400  # intact frames decode, and some mutated ones


# -- simulated network -----------------------------------------------------------

def _msg(node_id, ts):
    return StampedObjectList(node_id=node_id, capture_timestamp=ts, objects=())


def test_zero_latency_delivers_at_send_time():
    net = SimulatedNetwork(LatencyModel(mean_ms=0.0, std_ms=0.0), seed=0)
    arrival = net.send(_msg(1, 2.0), now=2.0)
    assert arrival == 2.0
    assert net.deliveries_until(2.0) == [(2.0, _msg(1, 2.0))]


def test_reordering_occurs_with_jitter():
    net = SimulatedNetwork(LatencyModel(mean_ms=50.0, std_ms=8.0), seed=7)
    arrivals = []
    for k in range(200):
        t = k * 0.001  # 1 ms apart
        arrivals.append(net.send(_msg(1, t), now=t))
    flips = sum(1 for a, b in zip(arrivals, arrivals[1:]) if b < a)
    assert flips > 0
    delivered = net.deliveries_until(10.0)
    assert len(delivered) == 200
    sends = [msg.capture_timestamp for _, msg in delivered]
    assert sorted(sends) == pytest.approx([k * 0.001 for k in range(200)])


def test_lossless_channel_counts():
    net = SimulatedNetwork(LatencyModel(mean_ms=30.0, std_ms=5.0), seed=11)
    for node in (1, 2, 3):
        for k in range(100):
            t = k * 0.1
            net.send(_msg(node, t), now=t)
    out = net.deliveries_until(1e9)
    assert len(out) == 300


def test_dropped_frames_never_arrive():
    def run(seed):
        net = SimulatedNetwork(LatencyModel(mean_ms=30.0, std_ms=5.0), seed=seed,
                               drop_probability=0.3)
        sent = {}
        for k in range(2000):
            t = k / 1000  # on the wire's microsecond grid, so it survives decode
            sent[t] = net.send(_msg(1, t), now=t)
        delivered = {msg.capture_timestamp: arrival
                     for arrival, msg in net.deliveries_until(1e9)}
        return sent, delivered

    sent, delivered = run(13)
    dropped = {t for t, arrival in sent.items() if arrival is None}
    assert 540 <= len(dropped) <= 660
    # every kept frame arrives when send said, and no dropped one ever does
    assert delivered == {t: a for t, a in sent.items() if a is not None}
    assert run(13) == (sent, delivered)
    for p in (1.0, -0.1):
        with pytest.raises(ValueError, match="drop probability"):
            SimulatedNetwork(LatencyModel(), drop_probability=p)


def test_delivery_order_deterministic():
    def run():
        net = SimulatedNetwork(LatencyModel(mean_ms=40.0, std_ms=10.0), seed=5)
        for node in (2, 1):
            for k in range(50):
                t = k * 0.05
                net.send(_msg(node, t), now=t)
        return [(arrival, msg.node_id, msg.capture_timestamp)
                for arrival, msg in net.deliveries_until(1e9)]

    assert run() == run()


def test_deliveries_sorted_by_time_then_node():
    net = SimulatedNetwork(LatencyModel(mean_ms=25.0, std_ms=6.0), seed=9)
    for node in (1, 2):
        for k in range(80):
            t = k * 0.02
            net.send(_msg(node, t), now=t)
    out = net.deliveries_until(1e9)
    keys = [(arrival, msg.node_id) for arrival, msg in out]
    assert keys == sorted(keys)


def test_clock_model_skew():
    clock = ClockModel(offset_ms=25.0, drift_ppm=100.0)
    assert clock.node_time(0.0) == pytest.approx(0.025)
    assert clock.node_time(100.0) == pytest.approx(100.0 + 0.025 + 0.01)
    for t in (0.0, 3.7, 100.0):
        assert clock.global_time(clock.node_time(t)) == pytest.approx(t, abs=1e-12)
        assert ClockModel().global_time(t) == t
    with pytest.raises(ValueError):
        ClockModel(offset_ms=5000.0)
