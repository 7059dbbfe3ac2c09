"""Minimum-cost bipartite assignment under a match threshold.

Forbidden first.  An entry that is +inf or above ``max_cost`` is
forbidden before anything is solved: it is never matched, and it cannot
take a row or column away from an allowed pair.  Over the allowed entries
the result has maximum cardinality and, among matchings of that size,
minimum total cost; this is the rule of py-motmetrics' CLEAR MOT.  (lapjv's
``cost_limit`` rule, which can give up a match to lower the cost, is not
used.)

Components.  The allowed entries form a bipartite graph whose connected
components, labelled by a union-find, are independent, so each is solved
on its own.  Rows and columns without an allowed entry stay unmatched.
1x1 components all match in one array pass, a component with one row or
one column takes its first minimum, and larger components go to a
self-contained O(k^3) shortest-augmenting-path solver with dual
potentials.  In the larger components a finite sentinel stands in for the
forbidden entries; it is large enough that the solver uses as few of them
as it can, and pairs placed on them are dropped.  Costs near the float
maximum, where the sentinel or the potentials would overflow, are first
scaled down by a power of two, which is exact.  A matrix with every entry
allowed is one component and is solved whole.  Gated tracker costs split
into components of a few nodes each, so a crowded frame costs many tiny
solves instead of one large one.

Entry.  One comparison refuses NaN and -inf, and one forbids +inf and
entries above ``max_cost``.  When every allowed entry is alone in its row
and column, as in most frames of a sparse scene, every allowed entry is
matched and the call returns before the union-find.  The unmatched rows
and columns are read from masks.

Ties.  Ascending scan order resolves equal-cost ties toward lower row and
column indices within a component, so results are deterministic.
"""

from __future__ import annotations

import math
import sys

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


def _solve_component(cost: np.ndarray, allowed: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-cardinality, minimum-cost matching of one component.

    Solves on the orientation with no more rows than columns, with a
    sentinel on the forbidden entries, and drops the pairs placed there.
    """
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost, allowed = cost.T, allowed.T
    work = np.ascontiguousarray(cost)
    k = min(work.shape)
    every = allowed.all()
    top = np.abs(work if every else work[allowed]).max()
    # The solver's running sums reach about 2k sentinels, 4k^2 times the
    # largest cost.  Costs too large for that are scaled down by a power of
    # two, which is exact: they keep their order and their differences.
    limit = sys.float_info.max / (16.0 * k * (k + 1))
    if top > limit:
        shift = math.frexp(top / limit)[1]
        work, top = np.ldexp(work, -shift), math.ldexp(top, -shift)
    if not every:
        # One sentinel edge must outweigh swapping every allowed edge, so
        # the solver uses as few forbidden entries as possible.
        large = 2.0 * top * k + 1.0
        work = np.where(allowed, work, large)
    pairs = [(r, col) for r, col in enumerate(_solve(work))
             if col >= 0 and allowed[r, col]]
    return [(j, i) for i, j in pairs] if transposed else pairs


def _solve_components(cost: np.ndarray, allowed: np.ndarray) -> list[tuple[int, int]]:
    """Matches of every connected component of the allowed entries."""
    n, m = cost.shape
    rows, cols = np.nonzero(allowed)
    single = ((np.bincount(rows, minlength=n)[rows] == 1)
              & (np.bincount(cols, minlength=m)[cols] == 1))
    matches = list(zip(rows[single].tolist(), cols[single].tolist()))
    rows, cols = rows[~single], cols[~single]

    # union-find over rows 0..n-1 and columns n..n+m-1, all edges at once:
    # each edge hooks the larger of its two roots under the smaller, then
    # every node jumps to its root; repeat until each edge joins one root
    root = np.arange(n + m)
    a, b = rows, cols + n
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
    root = root.tolist()
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in sorted(set(rows.tolist())):
        groups.setdefault(root[i], ([], []))[0].append(i)
    for j in sorted(set(cols.tolist())):
        groups[root[j + n]][1].append(j)

    for rs, ks in groups.values():
        if len(rs) == 1:
            matches.append((rs[0], ks[int(np.argmin(cost[rs[0], ks]))]))
        elif len(ks) == 1:
            matches.append((rs[int(np.argmin(cost[rs, ks[0]]))], ks[0]))
        else:
            block = np.ix_(rs, ks)
            matches += [(rs[i], ks[j])
                        for i, j in _solve_component(cost[block], allowed[block])]
    return matches


def hungarian(cost, max_cost: float = np.inf
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimal assignment over the entries that are finite and <= max_cost.

    Returns (matches, unmatched_rows, unmatched_cols), matches sorted by
    row.  Other entries are forbidden before solving (see the module
    docstring for the rule).  Empty matrices leave everything unmatched.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be a 2-d matrix, got shape {c.shape}")
    n, m = c.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if not (c > -np.inf).all():  # False on NaN too
        raise ValueError("cost entries must be finite or +inf")

    allowed = c <= min(max_cost, sys.float_info.max)  # finite and within max_cost
    rows, cols = allowed.nonzero()
    per_row = np.bincount(rows, minlength=n)
    per_col = np.bincount(cols, minlength=m)
    if per_row.max() <= 1 and per_col.max() <= 1:  # all 1x1 components: all match
        return (list(zip(rows.tolist(), cols.tolist())),
                (per_row == 0).nonzero()[0].tolist(), (per_col == 0).nonzero()[0].tolist())
    if rows.size == n * m:
        matches = _solve_component(c, allowed)
    else:
        matches = _solve_components(c, allowed)
    matches.sort()
    free_rows, free_cols = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    i, j = np.array(matches, dtype=np.int64).reshape(-1, 2).T
    free_rows[i] = free_cols[j] = False
    return matches, free_rows.nonzero()[0].tolist(), free_cols.nonzero()[0].tolist()


def assignment_cost(cost, matches: list[tuple[int, int]]) -> float:
    """Total cost of a match set (helper for tests and reporting)."""
    c = np.asarray(cost, dtype=np.float64)
    return float(sum(c[i, j] for i, j in matches))
