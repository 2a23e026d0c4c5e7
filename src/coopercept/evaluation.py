"""Detection metrics.

Predictions are matched to ground truth per frame by minimum-distance
assignment inside a gate; pooled (micro-averaged) counts give precision,
recall, and the average distance error over true positives only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assignment import gated_assignment, gated_costs
from .camera import BED
from .tracking import class_compatible

DEFAULT_MATCH_GATE = 0.5  # m
# a bed position estimated from its visible surface sits up to a meter
# from the geometric center; its scoring gate allows for the extent
BED_MATCH_GATE = 1.2  # m
CLASS_MATCH_GATES = {BED: BED_MATCH_GATE}  # scoring gates wider than the default


@dataclass
class FrameScore:
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    sum_matched_distance: float = 0.0


def match_frame(predictions, ground_truth, d_match: float = DEFAULT_MATCH_GATE,
                class_gates=CLASS_MATCH_GATES) -> FrameScore:
    """Score one frame.

    ``predictions`` and ``ground_truth`` are sequences of
    ``(class_label, x, y)``. Matching is minimum-distance assignment with
    the gate ``d_match`` and ``class_compatible`` (an unlabeled detection
    matches any class; ground truth is never ``unknown``, which
    ``WorldObject`` rejects); matched pairs are true positives and
    contribute their distance, leftovers are false positives/negatives.

    ``class_gates`` widens the gate per ground-truth class: a position on
    the visible surface of a bed-sized object can sit most of a meter from
    the object center without being a miss.
    """
    cost = gated_costs(predictions, ground_truth, lambda p_cls, g_cls: class_gates.get(
        g_cls, d_match) if class_compatible(p_cls, g_cls) else -math.inf)
    pairs, un_pred, un_gt = gated_assignment(cost)
    return FrameScore(
        true_positives=len(pairs),
        false_positives=len(un_pred),
        false_negatives=len(un_gt),
        sum_matched_distance=float(sum(cost[i, j] for i, j in pairs)),
    )


def aggregate(scores: list[FrameScore]) -> tuple[float, float, float]:
    """Micro-averaged (precision, recall, average distance error).

    Pools counts over all frames. A metric with a zero denominator is
    undefined and reported as NaN, never as 0.
    """
    if not scores:
        raise ValueError("no frames to aggregate")
    tp = sum(s.true_positives for s in scores)
    fp = sum(s.false_positives for s in scores)
    fn = sum(s.false_negatives for s in scores)
    dist = sum(s.sum_matched_distance for s in scores)
    precision = tp / (tp + fp) if tp + fp > 0 else math.nan
    recall = tp / (tp + fn) if tp + fn > 0 else math.nan
    avg_de = dist / tp if tp > 0 else math.nan
    return precision, recall, avg_de
