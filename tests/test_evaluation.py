import dataclasses
import math

import numpy as np
import pytest

from coopercept import evaluation
from coopercept.evaluation import CLASS_MATCH_GATES, FrameScore, aggregate, match_frame

import oracles
from oracles import brute_force_gated_matching, per_pair_match_frame


def test_perfect_predictions():
    gt = [("person", 1.0, 1.0), ("bed", -2.0, 0.5)]
    score = match_frame(gt, gt, d_match=0.5)
    assert (score.true_positives, score.false_positives, score.false_negatives) == (2, 0, 0)
    assert score.sum_matched_distance == 0.0
    assert aggregate([score]) == (1.0, 1.0, 0.0)


def test_two_of_three_found():
    gt = [("person", 0.0, 0.0), ("person", 3.0, 0.0), ("person", 6.0, 0.0)]
    preds = [("person", 0.1, 0.0), ("person", 3.05, 0.0)]
    score = match_frame(preds, gt, d_match=0.5)
    assert (score.true_positives, score.false_positives, score.false_negatives) == (2, 0, 1)
    precision, recall, _ = aggregate([score])
    assert precision == 1.0
    assert recall == pytest.approx(2.0 / 3.0)


def test_matching_cost_equals_exhaustive_minimum():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n_pred = int(rng.integers(0, 6))
        n_gt = int(rng.integers(0, 6))
        preds = [("person", float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
                 for _ in range(n_pred)]
        gt = [("person", float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
              for _ in range(n_gt)]
        gate = 1.5
        score = match_frame(preds, gt, d_match=gate)
        cost = np.full((n_pred, n_gt), np.inf)
        for i, (_, px, py) in enumerate(preds):
            for j, (_, gx, gy) in enumerate(gt):
                cost[i, j] = math.hypot(px - gx, py - gy)
        count, total = brute_force_gated_matching(cost, gate)
        assert score.true_positives == count
        assert score.sum_matched_distance == pytest.approx(total, abs=1e-9)


def test_match_frame_matches_per_pair_oracle_bit_for_bit(solver_costs):
    costs, oracle_costs = solver_costs(evaluation), solver_costs(oracles)
    rng = np.random.default_rng(1234)
    gate_sets = ((0.5, CLASS_MATCH_GATES), (0.5, {}), (0.8, {"person": 0.3, "bed": 1.5}))
    for _ in range(1500):
        anchors = rng.uniform(-4.0, 4.0, size=(int(rng.integers(0, 9)), 2))
        gt = [(("person", "bed")[int(rng.random() < 0.2)], float(x), float(y))
              for x, y in anchors]
        preds = [(("person", "bed", "unknown")[int(rng.integers(3))],
                  float(x + rng.normal(0.0, 0.5)), float(y + rng.normal(0.0, 0.5)))
                 for x, y in anchors if rng.random() < 0.8]
        preds += [preds[-1]] if preds and rng.random() < 0.2 else []  # an exact duplicate
        # one gate away along x, exactly so wherever x + gate - x rounds back to the gate
        preds += [("unknown", x + float(rng.choice([0.3, 0.5, 0.8, 1.2, 1.5])), y)
                  for _, x, y in gt if rng.random() < 0.3]
        preds += [("person", float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
                  for _ in range(int(rng.integers(0, 3)))]
        for d_match, class_gates in gate_sets:
            got = match_frame(preds, gt, d_match, class_gates)
            want, _ = per_pair_match_frame(preds, gt, d_match, class_gates)
            assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))
    assert costs == oracle_costs and len(costs) == 4500


def test_class_agreement():
    gt = [("person", 0.0, 0.0), ("bed", 1.0, 0.0)]
    preds = [("bed", 0.0, 0.0), ("person", 1.0, 0.0)]
    score = match_frame(preds, gt, d_match=0.5, class_gates={})
    assert score.true_positives == 0
    assert score.false_positives == 2
    assert score.false_negatives == 2
    # an unlabeled detection may match anything
    score = match_frame([("unknown", 0.0, 0.0)], gt, d_match=0.5)
    assert score.true_positives == 1


def test_prediction_order_irrelevant():
    gt = [("person", 0.0, 0.0), ("person", 1.0, 0.0), ("person", 2.0, 0.0)]
    preds = [("person", 0.05, 0.0), ("person", 1.02, 0.0), ("person", 2.1, 0.0)]
    a = match_frame(preds, gt, 0.5)
    b = match_frame(preds[::-1], gt, 0.5)
    assert a == b


def test_aggregate_arithmetic():
    score = FrameScore(true_positives=2, false_positives=0,
                       false_negatives=1, sum_matched_distance=0.1)
    precision, recall, avg_de = aggregate([score])
    assert precision == 1.0
    assert recall == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert avg_de == pytest.approx(0.05, abs=1e-15)


def test_empty_frames_report_undefined_not_zero():
    scores = [FrameScore() for _ in range(5)]
    precision, recall, avg_de = aggregate(scores)
    assert math.isnan(precision)
    assert math.isnan(recall)
    assert math.isnan(avg_de)


def test_micro_pooling_differs_from_macro():
    # frame 1: 1 TP of 1; frame 2: 1 TP of 10 -> micro recall 2/11,
    # macro would say (1 + 0.1)/2 = 0.55
    f1 = FrameScore(true_positives=1, false_positives=0, false_negatives=0)
    f2 = FrameScore(true_positives=1, false_positives=0, false_negatives=9)
    _, recall, _ = aggregate([f1, f2])
    assert recall == pytest.approx(2.0 / 11.0)
    macro = 0.5 * (1.0 + 0.1)
    assert abs(recall - macro) > 0.3


def test_avg_de_bounded_by_gate():
    rng = np.random.default_rng(2)
    scores = []
    gate = 0.5
    for _ in range(50):
        gt = [("person", float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
              for _ in range(5)]
        preds = [(c, x + float(rng.normal(0, 0.4)), y + float(rng.normal(0, 0.4)))
                 for c, x, y in gt]
        scores.append(match_frame(preds, gt, gate))
    _, _, avg_de = aggregate(scores)
    assert avg_de <= gate


def test_aggregate_requires_frames():
    with pytest.raises(ValueError):
        aggregate([])
