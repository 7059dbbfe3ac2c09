import itertools
import math
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack.assignment import VECTOR_SCAN_MIN_COLS, assignment_cost, hungarian, \
    solve_pairs


def _brute_force(cost):
    """Minimum total cost over all maximal matchings, skipping inf edges.

    Exponential, so only usable for small matrices — that is the point:
    it shares no code with the solver under test.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    best = np.inf
    k = min(n, m)
    rows = range(n)
    for row_subset in itertools.combinations(rows, k):
        for col_perm in itertools.permutations(range(m), k):
            total = 0.0
            for i, j in zip(row_subset, col_perm):
                if np.isinf(c[i, j]):
                    break
                total += c[i, j]
            else:
                best = min(best, total)
    if np.isinf(best):
        # no full-size finite matching exists; try smaller ones
        for size in range(k - 1, 0, -1):
            for row_subset in itertools.combinations(rows, size):
                for col_perm in itertools.permutations(range(m), size):
                    total = 0.0
                    for i, j in zip(row_subset, col_perm):
                        if np.isinf(c[i, j]):
                            break
                        total += c[i, j]
                    else:
                        best = min(best, total)
            if np.isfinite(best):
                break
    return best


# --- worked examples -------------------------------------------------------

def test_two_by_two_example():
    matches, ur, uc = hungarian([[1.0, 2.0], [2.0, 1.0]])
    assert matches == [(0, 0), (1, 1)]
    assert ur == [] and uc == []


def test_tie_prefers_low_indices():
    matches, _, _ = hungarian([[1.0, 1.0], [1.0, 1.0]])
    assert matches == [(0, 0), (1, 1)]


def test_classic_three_by_three():
    cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]
    matches, _, _ = hungarian(cost)
    assert assignment_cost(cost, matches) == 5.0


def test_rectangular_more_cols():
    matches, ur, uc = hungarian([[10.0, 1.0, 10.0], [1.0, 10.0, 10.0]])
    assert matches == [(0, 1), (1, 0)]
    assert ur == [] and uc == [2]


def test_rectangular_more_rows():
    matches, ur, uc = hungarian([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
    assert matches == [(0, 1), (1, 0)]
    assert ur == [2] and uc == []


def test_empty_matrices():
    assert hungarian(np.zeros((0, 3))) == ([], [], [0, 1, 2])
    assert hungarian(np.zeros((2, 0))) == ([], [0, 1], [])


# --- forbidden entries and thresholds --------------------------------------

def test_inf_entry_never_matched():
    inf = np.inf
    matches, ur, uc = hungarian([[inf, inf], [inf, 1.0]])
    assert matches == [(1, 1)]
    assert ur == [0] and uc == [0]


def test_all_inf_leaves_everything_unmatched():
    matches, ur, uc = hungarian(np.full((2, 2), np.inf))
    assert matches == []
    assert ur == [0, 1] and uc == [0, 1]


def test_inf_forces_expensive_detour():
    # cheap diagonal is blocked; the solver must take the costly pairing
    inf = np.inf
    cost = [[inf, 2.0], [3.0, inf]]
    matches, _, _ = hungarian(cost)
    assert matches == [(0, 1), (1, 0)]


def test_max_cost_dissolves_matches():
    matches, ur, uc = hungarian([[0.2, 0.9], [0.9, 0.8]], max_cost=0.5)
    assert matches == [(0, 0)]
    assert ur == [1] and uc == [1]


def test_over_threshold_entry_cannot_take_a_row_from_a_valid_match():
    # (0, 1) is over the threshold.  Solved first and dissolved afterwards,
    # it would hold row 0 and leave (1, 0); forbidden first, row 0 keeps
    # its cheaper valid match.
    matches, ur, uc = hungarian([[0.3, 0.9], [0.35, np.inf]], max_cost=0.4)
    assert matches == [(0, 0)]
    assert ur == [1] and uc == [1]


def test_components_are_solved_independently():
    # two 2x2 blocks that share no allowed entry, plus a 1x1 and an
    # isolated row and column
    inf = np.inf
    cost = [[1.0, 2.0, inf, inf, inf, inf],
            [2.0, 9.0, inf, inf, inf, inf],
            [inf, inf, 5.0, 4.0, inf, inf],
            [inf, inf, 3.0, inf, inf, inf],
            [inf, inf, inf, inf, 0.5, inf],
            [inf, inf, inf, inf, inf, inf]]
    matches, ur, uc = hungarian(cost)
    assert matches == [(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)]
    assert ur == [5] and uc == [5]


def test_max_cost_boundary_is_inclusive():
    matches, _, _ = hungarian([[0.5]], max_cost=0.5)
    assert matches == [(0, 0)]
    matches, ur, uc = hungarian([[0.500001]], max_cost=0.5)
    assert matches == [] and ur == [0] and uc == [0]


def test_negative_costs_supported():
    cost = [[-5.0, 0.0], [0.0, -5.0]]
    matches, _, _ = hungarian(cost)
    assert matches == [(0, 0), (1, 1)]
    assert assignment_cost(cost, matches) == -10.0


# --- input validation ------------------------------------------------------

def test_rejects_nan_and_neg_inf():
    with pytest.raises(ValueError):
        hungarian([[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        hungarian([[-np.inf, 1.0], [1.0, 1.0]])


def test_rejects_a_nan_max_cost():
    # c <= nan is False everywhere, which would leave everything unmatched
    for cost in ([[0.1, 0.2], [0.3, 0.1]], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="^max_cost must not be NaN$"):
            hungarian(cost, max_cost=np.nan)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("max_cost", [np.inf, 0.5, sys.float_info.max])
def test_nan_and_neg_inf_are_refused_whatever_else_is_allowed(bad, max_cost):
    # beside entries that are each alone in their row and column, and
    # where max_cost would forbid the entry anyway
    for cost in ([[bad]], [[0.1, np.inf], [np.inf, bad]], [[0.1, bad], [np.inf, 0.2]]):
        with pytest.raises(ValueError, match=r"^cost entries must be finite or \+inf$"):
            hungarian(cost, max_cost=max_cost)


def test_max_cost_inf_still_forbids_inf_entries():
    assert hungarian([[np.inf, 1.0], [2.0, np.inf]], max_cost=np.inf) == \
        ([(0, 1), (1, 0)], [], [])
    assert hungarian([[np.inf]], max_cost=np.inf) == ([], [0], [0])
    assert hungarian([[np.inf, 3.0], [np.inf, 1.0]], max_cost=np.inf) == \
        ([(1, 1)], [0], [0])


def test_max_cost_at_the_largest_float():
    big = sys.float_info.max
    assert hungarian([[big, np.inf]], max_cost=big) == ([(0, 0)], [], [1])
    assert hungarian([[big, np.inf]], max_cost=np.nextafter(big, 0.0)) == ([], [0], [0, 1])
    assert hungarian([[np.inf, 0.5], [big, np.inf]], max_cost=big) == \
        ([(0, 1), (1, 0)], [], [])
    # costs this large would overflow the sentinel and the solver's potentials
    assert hungarian([[big, big], [big, np.inf]], max_cost=big) == ([(0, 1), (1, 0)], [], [])
    assert hungarian(np.full((3, 3), big)) == ([(0, 0), (1, 1), (2, 2)], [], [])


# Exact binary fractions, negative ones and +inf; few values, so ties are common.
_scaled_entry = st.sampled_from([-1.5, 0.0, 0.125, 0.5, 1.0, 1.5, 3.0, 7.0, np.inf])
_scalable = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_scaled_entry))


@settings(max_examples=200, deadline=None)
@given(_scalable, st.sampled_from([np.inf, 1.0, 3.0]), st.data())
def test_power_of_two_scaling_leaves_the_matches(cost, max_cost, data):
    # every scale up to the largest at which cost and max_cost stay finite
    finite = np.append(cost[np.isfinite(cost)], max_cost if np.isfinite(max_cost) else 0.0)
    top = np.abs(finite).max()
    s_max = 1024 - math.frexp(top)[1] if top else 0
    want = hungarian(cost, max_cost=max_cost)
    for s in {data.draw(st.integers(0, s_max)), s_max}:
        assert hungarian(np.ldexp(cost, s), max_cost=math.ldexp(max_cost, s)) == want, s


def test_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        hungarian(np.zeros(4))
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 2, 2)))


# --- randomized oracle comparison ------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_matches_brute_force_square(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    # integer-valued floats keep both solvers exact, so == comparison is fair
    cost = rng.integers(0, 50, (n, n)).astype(np.float64)
    matches, _, _ = hungarian(cost)
    assert len(matches) == n
    assert assignment_cost(cost, matches) == _brute_force(cost)


@pytest.mark.parametrize("seed", range(20))
def test_matches_brute_force_rectangular(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    cost = rng.integers(0, 50, (n, m)).astype(np.float64)
    matches, ur, uc = hungarian(cost)
    assert len(matches) == min(n, m)
    assert len(ur) == n - len(matches)
    assert len(uc) == m - len(matches)
    assert assignment_cost(cost, matches) == _brute_force(cost)


@pytest.mark.parametrize("seed", range(20))
def test_matches_brute_force_with_forbidden(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 6))
    cost = rng.integers(0, 50, (n, n)).astype(np.float64)
    mask = rng.random((n, n)) < 0.3
    cost[mask] = np.inf
    matches, _, _ = hungarian(cost)
    got = assignment_cost(cost, matches)
    want = _brute_force(cost)
    if np.isinf(want):
        assert matches == []
    else:
        # solver may legally match fewer pairs when forbidden edges block a
        # full matching, but the total over its matches must still be optimal
        # for that match count; at full rank they must agree exactly.
        if len(matches) == n:
            assert got == want


@st.composite
def _lone_entries(draw):
    """A cost matrix whose allowed entries are each alone in their row and
    column (all components 1x1), with its max_cost; the forbidden entries
    are +inf or, under a finite max_cost, just over it."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    max_cost = draw(st.sampled_from([np.inf, 25.0]))
    over = [np.inf] if np.isinf(max_cost) else [np.inf, 26.0, 50.0]
    cost = np.array(draw(st.lists(st.sampled_from(over), min_size=n * m, max_size=n * m)),
                    dtype=np.float64).reshape(n, m)
    k = draw(st.integers(0, min(n, m)))
    rows = draw(st.permutations(range(n)))[:k]
    cols = draw(st.permutations(range(m)))[:k]
    for i, j in zip(rows, cols):
        cost[i, j] = float(draw(st.integers(0, 25)))
    return cost, max_cost, sorted(zip(rows, cols))


@settings(max_examples=300, deadline=None)
@given(_lone_entries())
def test_lone_entries_all_match_at_the_brute_force_cost(case):
    cost, max_cost, lone = case
    matches, ur, uc = hungarian(cost, max_cost=max_cost)
    assert matches == lone
    assert ur == sorted(set(range(cost.shape[0])) - {i for i, _ in lone})
    assert uc == sorted(set(range(cost.shape[1])) - {j for _, j in lone})
    forbidden_first = np.where(cost <= max_cost, cost, np.inf)
    if lone:
        assert assignment_cost(cost, matches) == _brute_force(forbidden_first)
    else:
        assert np.isinf(_brute_force(forbidden_first))


def test_matching_is_valid_one_to_one():
    rng = np.random.default_rng(99)
    cost = rng.random((6, 6))
    matches, ur, uc = hungarian(cost)
    rows = [i for i, _ in matches]
    cols = [j for _, j in matches]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert sorted(rows + ur) == list(range(6))
    assert sorted(cols + uc) == list(range(6))


# --- the sparse entry --------------------------------------------------------

def test_solve_pairs_allows_every_listed_pair():
    big = sys.float_info.max
    rows, cols = solve_pairs(3, 4, [0, 0, 1, 2], [1, 3, 1, 0], [5.0, big, 1.0, -2.0])
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == [0, 1, 2] and cols.tolist() == [3, 1, 0]
    rows, cols = solve_pairs(2, 2, [], [], [])
    assert rows.dtype == cols.dtype == np.int64 and rows.size == cols.size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_pairs_refuses_a_cost_that_is_not_finite(bad):
    for rows, cols, cost in (([0], [0], [bad]), ([0, 1], [0, 1], [0.5, bad]),
                             ([0, 0, 1], [0, 1, 0], [0.5, 0.1, bad])):
        with pytest.raises(ValueError, match=r"^cost entries must be finite or \+inf$"):
            solve_pairs(2, 2, rows, cols, cost)


_THRESHOLD = 1.0
# Few values, so ties are common; some exactly on the threshold, some just
# over it, and +inf.
_pair_entry = st.sampled_from([-1.0, 0.0, 0.25, 0.5, _THRESHOLD, _THRESHOLD, 1.5, np.inf])
# Near the float maximum, where the solver scales costs by a power of two.
_huge_entry = st.sampled_from([sys.float_info.max, sys.float_info.max / 2,
                               sys.float_info.max / 3, np.inf])


@st.composite
def _pair_problem(draw):
    """(cost, max_cost): a mixed matrix, an all-allowed one, one whose
    allowed entries are each alone in their row and column, or one near
    the float maximum; up to VECTOR_SCAN_MIN_COLS + 2 columns, so that
    components are scanned both ways."""
    kind = draw(st.sampled_from(["mixed", "all-allowed", "all-1x1", "huge"]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, VECTOR_SCAN_MIN_COLS + 2))
    if kind == "all-1x1":
        cost = np.full((n, m), np.inf)
        k = draw(st.integers(0, min(n, m)))
        for i, j in zip(draw(st.permutations(range(n)))[:k],
                        draw(st.permutations(range(m)))[:k]):
            cost[i, j] = draw(_pair_entry.filter(np.isfinite))
        return cost, draw(st.sampled_from([np.inf, _THRESHOLD]))
    entry = {"mixed": _pair_entry, "huge": _huge_entry,
             "all-allowed": st.sampled_from([-1.0, 0.0, 0.25, 0.5, _THRESHOLD])}[kind]
    cost = draw(arrays(np.float64, (n, m), elements=entry))
    if kind == "huge":
        return cost, draw(st.sampled_from([np.inf, sys.float_info.max / 2]))
    return cost, draw(st.sampled_from([np.inf, _THRESHOLD]))


@settings(max_examples=400, deadline=None)
@given(_pair_problem())
def test_solve_pairs_equals_hungarian_on_the_allowed_entries(problem):
    """The allowed entries listed as pairs give hungarian's matches and
    leave its unmatched rows and columns."""
    cost, max_cost = problem
    n, m = cost.shape
    rows, cols = (cost <= min(max_cost, sys.float_info.max)).nonzero()
    got_rows, got_cols = solve_pairs(n, m, rows, cols, cost[rows, cols])
    matches, unmatched_rows, unmatched_cols = hungarian(cost, max_cost=max_cost)
    assert list(zip(got_rows.tolist(), got_cols.tolist())) == matches
    assert sorted(set(range(n)) - set(got_rows.tolist())) == unmatched_rows
    assert sorted(set(range(m)) - set(got_cols.tolist())) == unmatched_cols
    # forbidding by +inf instead of by max_cost forbids the same entries
    assert hungarian(np.where(cost <= max_cost, cost, np.inf)) == \
        (matches, unmatched_rows, unmatched_cols)


# --- the free rule -----------------------------------------------------------

def test_the_free_rule_covers_more_than_cardinality_first():
    """gt 1 has pred A for 5 frames and pred B for 1, gt 2 has A for 1:
    forbidding the pairs not listed matches two pairs covering 2 frames,
    allowing them at 0 matches A alone, covering 5."""
    rows, cols, frames = [0, 0, 1], [0, 1, 0], np.array([5, 1, 1])
    got_rows, got_cols = solve_pairs(2, 2, rows, cols, -frames)
    assert (got_rows.tolist(), got_cols.tolist()) == ([0, 1], [1, 0])
    got_rows, got_cols = solve_pairs(2, 2, rows, cols, -frames, free=True)
    assert (got_rows.tolist(), got_cols.tolist()) == ([0], [0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, VECTOR_SCAN_MIN_COLS + 2), st.data())
def test_free_pairs_reach_the_dense_maximum(n, m, data):
    """With ``free``, the listed pairs' weights negated as costs give the
    total of scipy's dense maximum with the pairs not listed at weight 0;
    every pair returned is a listed one, rows and columns distinct."""
    listed = data.draw(arrays(bool, (n, m)))
    weight = data.draw(arrays(np.float64, (n, m),
                              elements=st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0])))
    rows, cols = listed.nonzero()
    got_rows, got_cols = solve_pairs(n, m, rows, cols, -weight[rows, cols], free=True)
    dense = np.where(listed, weight, 0.0)
    want_rows, want_cols = scipy.optimize.linear_sum_assignment(dense, maximize=True)
    assert dense[got_rows, got_cols].sum() == dense[want_rows, want_cols].sum()
    assert listed[got_rows, got_cols].all()
    assert (np.diff(got_rows) > 0).all()  # sorted by row, each once
    assert len(set(got_cols.tolist())) == len(got_cols)
