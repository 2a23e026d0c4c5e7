"""Gated minimum-cost assignment and pairwise distances for association."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

_BIG = 1e12


def gated_assignment(cost: np.ndarray, gate: float):
    """Assignment where pairs with cost > gate (or inf) are infeasible.

    Infeasible entries are lifted to a large constant so the solver first
    maximizes the number of feasible pairs, then minimizes their total
    cost; lifted pairs are dropped afterwards.

    Returns ``(pairs, unmatched_rows, unmatched_cols)``.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return [], list(range(n_rows)), list(range(n_cols))
    feasible = np.isfinite(cost) & (cost <= gate)
    work = np.where(feasible, cost, _BIG)
    rows, cols = linear_sum_assignment(work)
    pairs = [(int(r), int(c)) for r, c in zip(rows, cols) if feasible[r, c]]
    matched_r = {r for r, _ in pairs}
    matched_c = {c for _, c in pairs}
    unmatched_rows = [r for r in range(n_rows) if r not in matched_r]
    unmatched_cols = [c for c in range(n_cols) if c not in matched_c]
    return pairs, unmatched_rows, unmatched_cols


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between every row of ``a`` (n, d) and every row
    of ``b`` (m, d), as an (n, m) array. vecdot runs numpy's dot loop, so
    each entry equals ``np.linalg.norm(a[i] - b[j])``."""
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.vecdot(d, d))
