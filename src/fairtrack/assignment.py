"""Minimum-cost bipartite assignment (Kuhn-Munkres).

Self-contained O(n^3) shortest-augmenting-path implementation with dual
potentials.  Forbidden (+inf) entries are handled by substituting a
finite sentinel large enough that the solver prefers any all-finite
assignment; matches that land on a forbidden or over-threshold entry are
dissolved afterwards.  Ascending scan order makes equal-cost ties
resolve toward lower row/column indices, so results are deterministic.
"""

from __future__ import annotations

import numpy as np


# Column count from which the column scan runs as numpy array operations.
# Below it the scalar loop wins on numpy's per-call overhead (1.4-2x at
# 2-5 columns); above it the array scan wins (1.4x at 20 columns, about 3x
# at 50, 8-13x at 200).  The two break even near 12 columns, measured on
# a 2-vCPU x86-64 host.
VECTOR_SCAN_MIN_COLS = 12


def _solve(cost: np.ndarray) -> list[int]:
    """Row -> column assignment minimizing total cost; requires rows <= cols.

    Classic potentials formulation: columns are assigned one row at a
    time along shortest augmenting paths in the reduced-cost graph.  The
    column scan of each path step runs as numpy array operations on wide
    matrices and as a scalar loop on narrow ones; both pick the first
    minimum, so they return the same assignment.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j] = row (1-based) on column j
    way = np.zeros(m + 1, dtype=np.int64)
    scan = _scan_vector if m >= VECTOR_SCAN_MIN_COLS else _scan_scalar

    for i in range(1, n + 1):
        p[0] = i
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        j0 = scan(cost, u, v, p, way, minv, used)
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    row_to_col = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            row_to_col[p[j] - 1] = j - 1
    return row_to_col


def _scan_scalar(cost, u, v, p, way, minv, used) -> int:
    """Grow the shortest-path tree from row p[0] to a free column; returns it."""
    m = cost.shape[1]
    j0 = 0
    while True:
        used[j0] = True
        i0 = p[j0]
        delta = np.inf
        j1 = 0
        for j in range(1, m + 1):
            if used[j]:
                continue
            cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
            if cur < minv[j]:
                minv[j] = cur
                way[j] = j0
            if minv[j] < delta:
                delta = minv[j]
                j1 = j
        for j in range(m + 1):
            if used[j]:
                u[p[j]] += delta
                v[j] -= delta
            else:
                minv[j] -= delta
        j0 = j1
        if p[j0] == 0:
            return j0


def _scan_vector(cost, u, v, p, way, minv, used) -> int:
    """``_scan_scalar`` with each column scan as array operations.

    A column's ``minv`` is never read once it is in the tree, so it is set
    to +inf there: the first minimum over all columns is then the first
    minimum over the free ones.
    """
    j0 = 0
    while True:
        used[j0] = True
        minv[j0] = np.inf
        i0 = p[j0]
        cur = cost[i0 - 1] - u[i0] - v[1:]
        cur[used[1:]] = np.inf
        better = cur < minv[1:]
        minv[1:][better] = cur[better]
        way[1:][better] = j0
        j1 = int(np.argmin(minv))
        delta = minv[j1]
        u[p[used]] += delta
        v[used] -= delta
        minv -= delta
        j0 = j1
        if p[j0] == 0:
            return j0


def hungarian(cost, max_cost: float = np.inf
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimal assignment with forbidden entries and a match threshold.

    Returns (matches, unmatched_rows, unmatched_cols).  Any assignment
    whose entry is +inf or exceeds max_cost is reported as unmatched
    rather than matched.  Empty matrices leave everything unmatched.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be a 2-d matrix, got shape {c.shape}")
    n, m = c.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if np.isnan(c).any() or np.isneginf(c).any():
        raise ValueError("cost entries must be finite or +inf")

    transposed = n > m
    work = c.T.copy() if transposed else c.copy()
    finite = np.isfinite(work)
    if not finite.all():
        max_abs = np.abs(work[finite]).max() if finite.any() else 0.0
        # One sentinel edge must outweigh swapping every finite edge, so
        # the solver uses as few forbidden entries as possible.
        large = 2.0 * max_abs * min(n, m) + 1.0
        work = np.where(finite, work, large)

    row_to_col = _solve(work)

    matches = []
    matched_rows = set()
    matched_cols = set()
    for r, col in enumerate(row_to_col):
        if col < 0:
            continue
        i, j = (col, r) if transposed else (r, col)
        if np.isinf(c[i, j]) or c[i, j] > max_cost:
            continue
        matches.append((i, j))
        matched_rows.add(i)
        matched_cols.add(j)
    matches.sort()
    unmatched_rows = [i for i in range(n) if i not in matched_rows]
    unmatched_cols = [j for j in range(m) if j not in matched_cols]
    return matches, unmatched_rows, unmatched_cols


def assignment_cost(cost, matches: list[tuple[int, int]]) -> float:
    """Total cost of a match set (helper for tests and reporting)."""
    c = np.asarray(cost, dtype=np.float64)
    return float(sum(c[i, j] for i, j in matches))
