"""Gated minimum-cost assignment and pairwise distances for association."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

_BIG = 1e12


def gated_assignment(cost: np.ndarray):
    """Assignment over the pairs whose cost is finite: each caller writes
    its gate into the cost as inf, so this is the one feasibility rule.

    Infeasible entries are lifted to a large constant so the solver first
    maximizes the number of feasible pairs, then minimizes their total
    cost; lifted pairs are dropped afterwards. This module is the only
    caller of scipy's solver.

    Returns ``(pairs, unmatched_rows, unmatched_cols)``.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return [], list(range(n_rows)), list(range(n_cols))
    feasible = np.isfinite(cost)
    rows, cols = linear_sum_assignment(np.where(feasible, cost, _BIG))
    keep = feasible[rows, cols]
    rows, cols = rows[keep].tolist(), cols[keep].tolist()
    matched_r, matched_c = set(rows), set(cols)
    return (list(zip(rows, cols)), [r for r in range(n_rows) if r not in matched_r],
            [c for c in range(n_cols) if c not in matched_c])


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between every row of ``a`` (n, d) and every row
    of ``b`` (m, d), as an (n, m) array. vecdot runs numpy's dot loop, so
    each entry equals ``np.linalg.norm(a[i] - b[j])``."""
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.vecdot(d, d))


def gated_costs(rows, columns, gate) -> np.ndarray:
    """Cost matrix of the distances from each ``(key, x, y)`` row to each
    ``(label, x, y)`` column, inf where a distance exceeds ``gate(key,
    label)``; ``gate`` runs once per distinct key and label, and ``-inf``
    bars the pair. Each entry is ``math.hypot`` of the differences, as in
    a loop over the pairs."""
    labels = {label for label, _, _ in columns}
    row_gates = {}
    flat = []
    for key, x, y in rows:
        gates = row_gates.get(key)
        if gates is None:
            gates = row_gates[key] = {label: gate(key, label) for label in labels}
        flat += [d if (d := math.hypot(x - cx, y - cy)) <= gates[label] else math.inf
                 for label, cx, cy in columns]
    return np.array(flat).reshape(len(rows), len(columns))
