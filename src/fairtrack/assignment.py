"""Minimum-cost bipartite assignment under a match threshold.

Two entries.  ``solve_pairs(n, m, rows, cols, cost)`` takes an n x m
problem as its candidate pairs, in row-major order, every listed pair
allowed.  ``hungarian(cost, max_cost)`` takes a dense matrix, forbids the
entries that are +inf or above ``max_cost`` and passes the rest to
``solve_pairs``.  The tracker, the CLEAR MOT rematch and IDF1 hold their
candidates as pairs already and call ``solve_pairs``, so no caller builds
a dense matrix only for the solver to scan it again (lap's ``lapmod`` is
the sparse form of FairMOT's ``lapjv`` in the same way).

Forbidden first.  By default a pair that is not listed is forbidden
before anything is solved: it is never matched, and it cannot take a row
or column away from a listed pair.  Over the listed pairs the result has
maximum cardinality and, among matchings of that size, minimum total
cost; this is the rule of py-motmetrics' CLEAR MOT and of the tracker.
(lapjv's ``cost_limit`` rule, which can give up a match to lower the
cost, is not used.)

Free.  With ``free=True`` the pairs of a component that are not listed
are allowed at cost 0 instead, and a pair placed on one is dropped from
the result.  For costs <= 0 that gives the matching of least total cost
over the listed pairs, however few pairs it takes: IDF1's rule, which
passes each (gt id, pred id) pair's frame count negated.  Cardinality
first can lose there: a gt id 5 frames with pred A and 1 with pred B,
beside a second gt id 1 frame with A, is matched by two pairs covering 2
frames under the default rule and by A alone, covering 5, under ``free``.

Components.  The listed pairs form a bipartite graph whose connected
components are independent, so each is solved on its own.  Rows and
columns without a listed pair stay unmatched.  Pairs alone in their row
and column all match in one array pass; when every pair is, as in most
frames of a sparse scene, the call returns there.  The rest are labelled
by ``_components``, a union-find.  A component with one row or one column
takes its first minimum, and a larger one is scattered into a dense block
of its own rows and columns for ``_solve_block``, a self-contained O(k^3)
shortest-augmenting-path solver with dual potentials.  Under the default
rule a finite sentinel stands in for the pairs not listed; it is large
enough that the solver uses as few of them as it can, and pairs placed on
them are dropped.  Costs near the float maximum, where the sentinel or
the potentials would overflow, are first scaled down by a power of two,
which is exact.  A problem with every pair listed is one component and is
solved whole, with no union-find.  Gated tracker costs split into
components of a few nodes each, so a crowded frame costs many tiny solves
instead of one large one.

Checks.  ``solve_pairs`` refuses a pair cost that is NaN or +-inf;
``hungarian`` refuses NaN and -inf anywhere in its matrix and a NaN
``max_cost``, and reads its unmatched rows and columns from masks.

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


def _solve_block(cost: np.ndarray, allowed: np.ndarray | None = None
                ) -> list[tuple[int, int]]:
    """Maximum-cardinality, minimum-cost matching of one dense block of
    finite costs, whose allowed entries (``None``: every entry) form one
    component; pairs as (row, column).

    Solves on the orientation with no more rows than columns, with a
    sentinel on the forbidden entries, and drops the pairs placed there.
    """
    every = allowed is None or allowed.all()
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost, allowed = cost.T, None if every else allowed.T
    work = np.ascontiguousarray(cost)
    k = min(work.shape)
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
             if col >= 0 and (every or allowed[r, col])]
    return [(j, i) for i, j in pairs] if transposed else pairs


def _components(n: int, m: int, rows: np.ndarray, cols: np.ndarray
               ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The connected components of the n x m bipartite graph whose edges
    are the pairs (rows[k], cols[k]), given in row-major order, in order
    of their lowest row: per component, the indices of its pairs, its rows
    and its columns, each ascending.

    A union-find with path halving over rows 0..n-1 and columns
    n..n+m-1, in Python: the pairs that reach it are the few that share a
    row or a column, 2-14 per call in a 200-target frame, where it ran
    4-7x faster than the same passes as numpy calls (2-vCPU x86-64 host).
    """
    rs, cs = rows.tolist(), (cols + n).tolist()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while (up := parent.get(x, x)) != x:
            parent[x] = x = parent.get(up, up)
        return x

    for a, b in zip(rs, cs):
        a, b = find(a), find(b)
        if a != b:  # the larger root hooks under the smaller
            parent[max(a, b)] = min(a, b)
    groups: dict[int, tuple[list[int], list[int], set[int]]] = {}
    for k, (a, b) in enumerate(zip(rs, cs)):
        pairs, at_rows, at_cols = groups.setdefault(find(a), ([], [], set()))
        pairs.append(k)
        if not at_rows or at_rows[-1] != a:  # rows arrive ascending
            at_rows.append(a)
        at_cols.add(b - n)
    return [(np.array(pairs), np.array(at_rows), np.array(sorted(at_cols)))
            for pairs, at_rows, at_cols in groups.values()]


def solve_pairs(n: int, m: int, rows, cols, cost, free: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment over the listed pairs of an n x m problem.

    Pair k is row ``rows[k]``, column ``cols[k]`` at cost ``cost[k]``;
    the pairs are distinct and in row-major order, and every listed pair
    is allowed.  The pairs not listed are forbidden or, with ``free``,
    allowed at cost 0 (see the module docstring for the two rules).
    Returns the matched listed pairs' rows and columns as int64 arrays,
    sorted by row.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite or +inf")
    if not rows.size:
        return rows, cols
    single = ((np.bincount(rows, minlength=n)[rows] == 1)
              & (np.bincount(cols, minlength=m)[cols] == 1))
    if single.all():  # all 1x1 components: all match
        return rows, cols
    if rows.size == n * m:  # every pair listed: one component, the whole matrix
        pairs = sorted(_solve_block(cost.reshape(n, m)))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    match_rows, match_cols = rows[single].tolist(), cols[single].tolist()
    rows, cols, cost = rows[~single], cols[~single], cost[~single]
    for k, r_at, c_at in _components(n, m, rows, cols):
        if len(r_at) == 1:  # its columns ascending
            match_rows.append(r_at[0])
            match_cols.append(cols[k[np.argmin(cost[k])]])
        elif len(c_at) == 1:  # its rows ascending
            match_rows.append(rows[k[np.argmin(cost[k])]])
            match_cols.append(c_at[0])
        else:
            i, j = np.searchsorted(r_at, rows[k]), np.searchsorted(c_at, cols[k])
            block = np.zeros((len(r_at), len(c_at)))
            allowed = np.zeros(block.shape, dtype=bool)
            block[i, j] = cost[k]
            allowed[i, j] = True
            for bi, bj in _solve_block(block, None if free else allowed):
                if allowed[bi, bj]:  # a free pair placed on a cell not listed is dropped
                    match_rows.append(r_at[bi])
                    match_cols.append(c_at[bj])
    match_rows = np.array(match_rows, dtype=np.int64)
    order = np.argsort(match_rows)
    return match_rows[order], np.array(match_cols, dtype=np.int64)[order]


def hungarian(cost, max_cost: float = np.inf
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimal assignment over the entries that are finite and <= max_cost.

    Returns (matches, unmatched_rows, unmatched_cols), matches sorted by
    row.  Other entries are forbidden before solving (see the module
    docstring for the rule); the allowed ones go to ``solve_pairs``.
    Empty matrices leave everything unmatched.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be a 2-d matrix, got shape {c.shape}")
    if math.isnan(max_cost):  # c <= nan would forbid every entry
        raise ValueError("max_cost must not be NaN")
    n, m = c.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if not (c > -np.inf).all():  # False on NaN too
        raise ValueError("cost entries must be finite or +inf")
    rows, cols = (c <= min(max_cost, sys.float_info.max)).nonzero()  # finite, within max_cost
    i, j = solve_pairs(n, m, rows, cols, c[rows, cols])
    free_rows, free_cols = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    free_rows[i] = free_cols[j] = False
    return (list(zip(i.tolist(), j.tolist())),
            free_rows.nonzero()[0].tolist(), free_cols.nonzero()[0].tolist())


def assignment_cost(cost, matches: list[tuple[int, int]]) -> float:
    """Total cost of a match set (helper for tests and reporting)."""
    c = np.asarray(cost, dtype=np.float64)
    return float(sum(c[i, j] for i, j in matches))
