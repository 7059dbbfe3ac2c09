"""Array kernels against their per-element or full-grid references.

The batched IoU, the Kalman predict/update on per-coordinate blocks and
the numpy column scan of the assignment solver do the same arithmetic as
the scalar code (for IoU, ``reference._ref_iou``), so they are compared
for exact equality.  The per-component assignment is compared to the
whole-matrix solver that preceded it, kept here as the reference and run
with the over-threshold entries set to +inf: exactly on continuous
costs, and in match count and total cost on tie-heavy ones, whose ties
may resolve differently.  The batched gate is compared to a triangular
solve to 1e-9 relative, and its pair form to ``reference._dense_gate``
for exact equality.  The threshold-first peak search is compared for
exact equality to scipy's 3x3 maximum filter, and on grids with NaN
cells to the dense whole-plane filter it replaced.  The windowed
Gaussian stamp is compared to a full-grid stamp in the float32 bytes the
maps are stored in.  The metrics' overlap pass is compared to the
positive entries of per-frame IoU matrices, value for value, and the
metrics that read it to the per-pair references in ``reference.py``,
exactly, on small and on crowded frames.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack import assignment, metrics
from fairtrack.assignment import hungarian
from fairtrack.decoding import Detection, _peaks
from fairtrack.encoding import MIN_SIGMA, stamp_gaussian
from fairtrack.geometry import BBox, corners, iou_matrix
from fairtrack.kalman import (
    STD_WEIGHT_POSITION,
    STD_WEIGHT_VELOCITY,
    KalmanState,
    box_corners,
    gate,
    kf_init,
    kf_predict,
    kf_update,
    measurements,
    predict,
    state_to_box,
    update,
)
from fairtrack.kalman import _blocks, _dense
from fairtrack.metrics import clear_mot, evaluate_tracking, idf1
from fairtrack.tracker import OnlineTracker
from reference import (_dense_gate, _dense_triples, _detection_ap, _ref_clear_mot,
                       _ref_detection_ap, _ref_idf1, _ref_iou, _tiny_box, table)


# Small integer corners make touching, nested, identical and zero-area
# boxes common; the float strategy covers general positions.
_coord = st.one_of(st.integers(0, 6).map(float),
                   st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))


@st.composite
def _boxes(draw, max_size=6):
    out = []
    for _ in range(draw(st.integers(1, max_size))):
        x, y, w, h = (draw(_coord) for _ in range(4))
        out.append(BBox(x, y, x + w, y + h))
    return out


@settings(max_examples=150, deadline=None)
@given(_boxes(), _boxes())
def test_iou_matrix_is_bit_equal_to_iou(a, b):
    got = iou_matrix(corners(a), corners(b))
    want = np.array([[_ref_iou(p, q) for q in b] for p in a])
    assert np.array_equal(got, want)


def test_iou_matrix_edge_cases():
    a = [BBox(0, 0, 2, 2)]
    b = [BBox(2, 0, 4, 2),   # touching edge
         BBox(0.5, 0.5, 1, 1),  # nested
         BBox(1, 1, 1, 1),   # zero area, inside
         BBox(0, 0, 2, 2)]   # identical
    got = iou_matrix(corners(a), corners(b))
    assert got.tolist() == [[0.0, 0.0625, 0.0, 1.0]]


def test_iou_matrix_of_integer_corners_is_float():
    got = iou_matrix(np.array([[0, 0, 4, 4]]), np.array([[1, 1, 3, 3], [4, 0, 8, 4]]))
    assert got.dtype == np.float64 and got.tolist() == [[0.25, 0.0]]


# --- Kalman ------------------------------------------------------------------

_F = np.eye(8) + np.eye(8, k=4)
_H = np.eye(4, 8)


def _reference_predict(mean, cov):
    h = mean[3]
    std = np.array([STD_WEIGHT_POSITION * h, STD_WEIGHT_POSITION * h, 1e-2,
                    STD_WEIGHT_POSITION * h, STD_WEIGHT_VELOCITY * h,
                    STD_WEIGHT_VELOCITY * h, 1e-5, STD_WEIGHT_VELOCITY * h])
    c = _F @ cov @ _F.T + np.diag(std ** 2)
    return _F @ mean, 0.5 * (c + c.T)


def _project(mean, cov):
    h = mean[3]
    std = np.array([STD_WEIGHT_POSITION * h, STD_WEIGHT_POSITION * h, 1e-1,
                    STD_WEIGHT_POSITION * h])
    return _H @ mean, _H @ cov @ _H.T + np.diag(std ** 2)


def _reference_update(mean, cov, z):
    proj_mean, proj_cov = _project(mean, cov)
    chol = scipy.linalg.cho_factor(proj_cov, lower=True, check_finite=False)
    gain = scipy.linalg.cho_solve(chol, (cov @ _H.T).T, check_finite=False).T
    new_mean = mean + gain @ (z - proj_mean)
    c = cov - gain @ proj_cov @ gain.T
    return new_mean, 0.5 * (c + c.T)


def _reference_gate(mean, cov, z):
    proj_mean, proj_cov = _project(mean, cov)
    chol = np.linalg.cholesky(proj_cov[:2, :2])
    d = z[:, :2] - proj_mean[:2]
    w = scipy.linalg.solve_triangular(chol, d.T, lower=True)
    return np.sum(w * w, axis=0)


def _states(seed, count):
    """Filters after a few noisy predict/update cycles, stacked."""
    rng = np.random.default_rng(seed)
    means, covs = [], []
    for _ in range(count):
        x, y = rng.uniform(0, 500, 2)
        w, h = rng.uniform(10, 80), rng.uniform(20, 160)
        s = kf_init(BBox(x, y, x + w, y + h))
        for _ in range(rng.integers(0, 6)):
            s = kf_predict(s)
            dx, dy = rng.normal(0, 3, 2)
            s = kf_update(s, BBox(x + dx, y + dy, x + dx + w, y + dy + h))
        means.append(s.mean)
        covs.append(s.covariance)
    return np.array(means), np.array(covs)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 8))
def test_batched_predict_and_update_equal_the_matrix_forms(seed, count):
    mean, cov = _states(seed, count)
    pm, pc = predict(mean, _blocks(cov))
    z = measurements([BBox(*c) for c in box_corners(mean + 1.5)])
    um, uc = update(pm, pc, z)
    pc, uc = _dense(pc), _dense(uc)
    for k in range(count):
        rm, rc = _reference_predict(mean[k], cov[k])
        assert np.array_equal(pm[k], rm) and np.array_equal(pc[k], rc)
        rm, rc = _reference_update(rm, rc, z[k])
        assert np.array_equal(um[k], rm) and np.array_equal(uc[k], rc)


def _measurable(boxes):
    """The boxes the filter takes as measurements (see ``check_measurements``)."""
    def ok(b):
        try:
            measurements([b])
        except ValueError:
            return False
        return True
    return [b for b in boxes if ok(b)] or [BBox(0, 0, 1, 1)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 8), _boxes(max_size=8))
def test_batched_gate_matches_per_state_gating(seed, count, boxes):
    boxes = _measurable(boxes)
    mean, cov = _states(seed, count)
    z = measurements(boxes)
    rows, cols = np.indices((count, len(boxes))).reshape(2, -1)
    got = gate(mean[rows], _blocks(cov)[rows], z[cols]).reshape(count, len(boxes))
    assert np.array_equal(got, _dense_gate(mean, _blocks(cov), z))
    for k in range(count):
        want = _reference_gate(mean[k], cov[k], z)
        np.testing.assert_allclose(got[k], want, rtol=1e-9, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 8), _boxes(max_size=8), st.data())
def test_pair_gate_equals_dense_gate_on_every_pair(seed, count, boxes, data):
    boxes = _measurable(boxes)
    mean, cov = _states(seed, count)
    blocks, z = _blocks(cov), measurements(boxes)
    dense = _dense_gate(mean, blocks, z)
    rows, cols = np.indices(dense.shape).reshape(2, -1)
    assert np.array_equal(gate(mean[rows], blocks[rows], z[cols]), dense.ravel())
    # any subset, in any order, gives the same bits pair for pair
    pick = np.array(data.draw(st.lists(st.integers(0, rows.size - 1), max_size=20)),
                    dtype=np.int64)
    assert np.array_equal(gate(mean[rows[pick]], blocks[rows[pick]], z[cols[pick]]),
                          dense[rows[pick], cols[pick]])


def test_box_corners_match_state_to_box():
    mean, cov = _states(7, 5)
    got = box_corners(mean)
    for k in range(5):
        assert tuple(got[k]) == state_to_box(KalmanState(mean[k], cov[k])).as_tuple()


@pytest.mark.parametrize("box", [
    BBox(0, 0, 4, 2.2250738585072014e-308),  # the aspect overflows
    BBox(0, 0, 20, 1e-200),  # the variances underflow to zero
    BBox(0, 0, 1e-300, 1e-300),
    BBox(1e300, 0, 1e300, 10),
    BBox(0, 0, 20, 1e300),
])
def test_measurement_outside_float32_range_is_rejected(box):
    with pytest.raises(ValueError, match="outside float32's normal range"):
        measurements([BBox(0, 0, 5, 10), box])
    tr = OnlineTracker()
    tr.step(1, [Detection(BBox(0, 0, 30, 60), 0.9, embedding=np.array([1.0, 0.0]))])
    with pytest.raises(ValueError, match="outside float32's normal range"):
        tr.step(2, [Detection(box, 0.9, embedding=np.array([1.0, 0.0]))])


def test_zero_height_detection_raises_the_measurement_error():
    with pytest.raises(ValueError, match="box height must be positive, got 0"):
        measurements([BBox(0, 0, 5, 10), BBox(0, 3, 5, 3)])
    tr = OnlineTracker()
    tr.step(1, [Detection(BBox(0, 0, 30, 60), 0.9, embedding=np.array([1.0, 0.0]))])
    flat = Detection(BBox(0, 20, 30, 20), 0.9, embedding=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="box height must be positive, got 0"):
        tr.step(2, [flat])


# --- peak filter -------------------------------------------------------------

def _ref_peak_nms(h, threshold, top_k):
    local_max = scipy.ndimage.maximum_filter(h, size=3, mode="constant", cval=-np.inf)
    ys, xs = np.nonzero((h == local_max) & (h > threshold))
    scores = h[ys, xs]
    order = np.lexsort((xs, ys, -scores))[:top_k]
    return ys[order], xs[order], scores[order]


def _dense_peak_nms(heatmap, threshold, top_k):
    """The dense 3x3 maximum filter over the whole plane that preceded the
    threshold-first search: a NaN anywhere in a window makes its maximum NaN."""
    h = np.asarray(heatmap, dtype=np.float64)
    pad = np.pad(h, 1, constant_values=-np.inf)
    rows = np.maximum(pad[:-2], pad[1:-1])
    np.maximum(rows, pad[2:], out=rows)
    local_max = np.maximum(rows[:, :-2], rows[:, 1:-1])
    np.maximum(local_max, rows[:, 2:], out=local_max)
    ys, xs = np.nonzero((h == local_max) & (h > threshold))
    scores = h[ys, xs]
    order = np.lexsort((xs, ys, -scores))[:top_k]
    return ys[order], xs[order], scores[order]


# Few distinct levels make plateaus and ties between neighbours the common
# case, +inf plateaus and -inf cells included; single rows and columns
# exercise the -inf border on both sides.
_side = st.one_of(st.just(1), st.integers(1, 12))
_level = st.one_of(st.integers(-2, 3).map(float), st.sampled_from([np.inf, -np.inf]))
_tie_grid = st.tuples(_side, _side).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_level))
_nan_grid = st.tuples(_side, _side).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(_level, st.just(np.nan))))


@settings(max_examples=300, deadline=None)
@given(_tie_grid, st.sampled_from([0.5, 0.99, 1e-9]), st.sampled_from([1, 3, 10**6]))
def test_peak_nms_equals_the_maximum_filter_reference(h, threshold, top_k):
    got, want = _peaks(h, threshold, top_k), _ref_peak_nms(h, threshold, top_k)
    assert all(map(np.array_equal, got, want))


@settings(max_examples=300, deadline=None)
@given(_nan_grid, st.sampled_from([0.5, 0.99, 1e-9]), st.sampled_from([1, 3, 10**6]))
def test_peak_nms_beside_nan_cells_equals_the_dense_filter(h, threshold, top_k):
    got, want = _peaks(h, threshold, top_k), _dense_peak_nms(h, threshold, top_k)
    assert all(map(np.array_equal, got, want))


# --- Gaussian stamp ----------------------------------------------------------

def _full_grid_stamp(heatmap, cx, cy, sigma):
    h, w = heatmap.shape
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    np.maximum(heatmap, g, out=heatmap)


@st.composite
def _stamps(draw):
    h, w = draw(st.integers(1, 128)), draw(st.integers(1, 128))
    stamps = []
    for _ in range(draw(st.integers(1, 5))):
        # edges and corners, anywhere on the grid, or off it by up to 15
        # cells, beyond the smallest window's radius of 11
        cx = draw(st.one_of(st.sampled_from([0, w - 1]), st.integers(-15, w + 14)))
        cy = draw(st.one_of(st.sampled_from([0, h - 1]), st.integers(-15, h + 14)))
        sigma = draw(st.one_of(st.just(MIN_SIGMA), st.floats(MIN_SIGMA, 8.0),
                               st.floats(MIN_SIGMA, 3.0 * max(h, w))))
        stamps.append((cx, cy, sigma))
    return (h, w), stamps


@settings(max_examples=300, deadline=None)
@given(_stamps())
def test_windowed_stamp_stores_the_full_grid_bytes(case):
    shape, stamps = case
    got, want = np.zeros(shape), np.zeros(shape)
    for cx, cy, sigma in stamps:
        stamp_gaussian(got, cx, cy, sigma)
        _full_grid_stamp(want, cx, cy, sigma)
    assert got.astype("<f4").tobytes() == want.astype("<f4").tobytes()
    assert np.abs(got - want).max() < np.exp(-104.0)


# --- assignment --------------------------------------------------------------

def _hungarian_with_scan(cost, max_cost, min_cols):
    saved = assignment.VECTOR_SCAN_MIN_COLS
    assignment.VECTOR_SCAN_MIN_COLS = min_cols
    try:
        return assignment.hungarian(cost, max_cost=max_cost)
    finally:
        assignment.VECTOR_SCAN_MIN_COLS = saved


_tie_heavy = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.0, 3.0,
                                                   np.inf])))


@settings(max_examples=300, deadline=None)
@given(_tie_heavy, st.sampled_from([np.inf, 1.0, 2.5]))
def test_vector_and_scalar_scans_agree(cost, max_cost):
    vector = _hungarian_with_scan(cost, max_cost, 0)
    scalar = _hungarian_with_scan(cost, max_cost, 10**9)
    assert vector == scalar


# The whole-matrix solver that preceded the per-component one, kept verbatim
# (less its docstring) as the reference: it solves every entry at once, then
# dissolves matches above max_cost.

def _ref_hungarian(cost, max_cost: float = np.inf):
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

    row_to_col = assignment._solve(work)

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


def _forbidden_first(cost, max_cost):
    """The reference on the matrix with every over-threshold entry forbidden."""
    c = np.asarray(cost, dtype=np.float64)
    return _ref_hungarian(np.where(c <= max_cost, c, np.inf), max_cost=max_cost)


# Seeded uniform draws, so that no two matchings tie in total cost; up to
# 16 columns, so that whole components reach the numpy column scan.
@settings(max_examples=400, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1), st.sampled_from([np.inf, 0.3, 0.5]))
def test_components_equal_the_whole_matrix_solve(n, m, forbid, seed, max_cost):
    rng = np.random.default_rng(seed)
    cost = rng.random((n, m))
    cost[rng.random((n, m)) < forbid] = np.inf
    assert hungarian(cost, max_cost=max_cost) == _forbidden_first(cost, max_cost)


@pytest.mark.parametrize("cost", [
    [[0.2, 0.1, 0.4]],                          # 1 x N
    [[0.2], [0.1], [0.4]],                      # N x 1
    np.full((3, 4), np.inf),                    # all forbidden
    [[np.inf, 0.9], [0.1, 0.2], [0.3, 0.4]],    # a row with no allowed entry
    [[0.1, 0.2, 0.9], [0.9, 0.2, 0.9]],         # a column with no allowed entry
], ids=["1xN", "Nx1", "all-forbidden", "no-allowed-row", "no-allowed-col"])
@pytest.mark.parametrize("max_cost", [np.inf, 0.3, 0.5])
def test_component_edge_cases_equal_the_whole_matrix_solve(cost, max_cost):
    assert hungarian(cost, max_cost=max_cost) == _forbidden_first(cost, max_cost)


@settings(max_examples=400, deadline=None)
@given(_tie_heavy, st.sampled_from([np.inf, 0.3, 0.5, 1.0, 2.5]))
def test_tied_components_keep_count_and_cost(cost, max_cost):
    matches, unmatched_rows, unmatched_cols = hungarian(cost, max_cost=max_cost)
    want, _, _ = _forbidden_first(cost, max_cost)
    assert len(matches) == len(want)
    assert sum(cost[i, j] for i, j in matches) == sum(cost[i, j] for i, j in want)
    assert all(np.isfinite(cost[i, j]) and cost[i, j] <= max_cost for i, j in matches)
    assert sorted(unmatched_rows + [i for i, _ in matches]) == list(range(cost.shape[0]))
    assert sorted(unmatched_cols + [j for _, j in matches]) == list(range(cost.shape[1]))


# --- metrics -----------------------------------------------------------------

@st.composite
def _sequence(draw):
    """Frames 1-5 of (id, box), some frames absent, ids unique per frame."""
    frames = {}
    for f in draw(st.lists(st.integers(1, 5), unique=True, max_size=5)):
        ids = draw(st.lists(st.integers(1, 6), unique=True, max_size=6))
        frames[f] = [(i, draw(_tiny_box)) for i in ids]
    return frames


@settings(max_examples=300, deadline=None)
@given(_sequence(), _sequence(), st.sampled_from([0.5, 0.3, 1.0, 1e-9]), st.data())
# gt 6 keeps pred 6 across frame 2, empty on both sides, into a tie at IoU
# 0.5 with pred 2; walking frame 2 cleared the correspondence and switched
@example(gt={1: [(6, BBox(0, 0, 1, 1))], 2: [], 3: [(6, BBox(1, 0, 2, 1))]},
         pred={1: [(6, BBox(0, 0, 1, 1))], 2: [],
               3: [(2, BBox(0, 0, 2, 1)), (6, BBox(1, 0, 2, 2))]},
         thresh=0.5, data=None)
def test_metrics_equal_the_per_pair_reference(gt, pred, thresh, data):
    assert clear_mot(gt, pred, thresh) == _ref_clear_mot(gt, pred, thresh)
    assert idf1(gt, pred, thresh) == _ref_idf1(gt, pred, thresh)
    boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
    draw = data.draw if data else lambda strategy: 0.5  # an explicit example draws no data
    scored = {f: [(draw(st.sampled_from([0.2, 0.5, 0.9])), b) for _, b in pairs]
              for f, pairs in pred.items()}
    assert (_detection_ap(boxes, scored, thresh)
            == _ref_detection_ap(boxes, scored, thresh))


# --- the overlap pass --------------------------------------------------------

def _pass_triples(a_frames, b_frames, cells=None):
    a, b = (table({f: [(0, box) for box in boxes] for f, boxes in side.items()})
            for side in (a_frames, b_frames))
    _, a_start, b_start = metrics._aligned(a, b)
    with mock.patch.object(metrics, "_CHUNK_CELLS", cells or metrics._CHUNK_CELLS):
        ra, rb, v = metrics._overlaps(a_start, a.boxes, b_start, b.boxes)
    return list(zip(ra.tolist(), rb.tolist(), v.tolist()))


def _assert_pass_is_dense(a_frames, b_frames, cells=None):
    got = _pass_triples(a_frames, b_frames, cells)
    want = _dense_triples(a_frames, b_frames)
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]  # once each, in order
    assert np.array_equal(np.array([v for *_, v in got]), np.array([v for *_, v in want]))
    return got


_box_frames = st.dictionaries(st.integers(1, 8), _boxes(max_size=7), max_size=6)


@settings(max_examples=150, deadline=None)
@given(_box_frames, _box_frames, st.sampled_from([1, 5, 40, None]))
def test_overlap_pass_yields_each_positive_iou_matrix_entry_once(a, b, cells):
    _assert_pass_is_dense(a, b, cells)


def test_overlap_pass_edge_frames():
    sq = BBox(0, 0, 4, 4)
    a = {1: [sq], 3: [BBox(0, 0, 4, 4), BBox(10, 10, 12, 12)], 4: [sq] * 3, 6: [sq]}
    b = {2: [sq],                                     # pred-only frame
         3: [BBox(4, 0, 8, 4),                        # touching: IoU 0
             BBox(1, 1, 3, 3),                        # nested: IoU 4 / 16
             BBox(2, 2, 2, 5),                        # zero width
             BBox(10, 11, 12, 11)],                   # zero height
         4: [BBox(2, 0, 6, 4)] * 3,
         5: [sq]}                                     # frame 1 gt-only, 6 gt-only
    # 4 cells: frame 3 (2 x 4) and frame 4 (3 x 3) each pass the budget alone;
    # 12 cells: frames split mid-sequence; None: one chunk
    for cells in (4, 12, None):
        got = _assert_pass_is_dense(a, b, cells)
        assert got == [(1, 2, 0.25)] + [(3 + i, 5 + j, 1 / 3) for i in range(3) for j in range(3)]


_crowd_box = st.tuples(*[st.integers(0, 30)] * 2, *[st.integers(0, 8)] * 2).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


@st.composite
def _crowd_sequence(draw):
    """Frames 1-4 of up to 60 ids on a 38 x 38 grid."""
    frames = {}
    for f in draw(st.lists(st.integers(1, 4), unique=True, min_size=1, max_size=4)):
        ids = draw(st.lists(st.integers(1, 80), unique=True, max_size=60))
        frames[f] = [(i, draw(_crowd_box)) for i in ids]
    return frames


@settings(max_examples=25, deadline=None)
@given(_crowd_sequence(), _crowd_sequence(), st.sampled_from([0.5, 0.3, 1.0, 1e-9]),
       st.sampled_from([700, 4000, None]), st.data())
def test_metrics_equal_the_per_pair_reference_on_crowded_frames(gt, pred, thresh, cells, data):
    """Up to 60 x 60 pairs a frame, with chunks of one frame or of several."""
    with mock.patch.object(metrics, "_CHUNK_CELLS", cells or metrics._CHUNK_CELLS):
        assert clear_mot(gt, pred, thresh) == _ref_clear_mot(gt, pred, thresh)
        assert idf1(gt, pred, thresh) == _ref_idf1(gt, pred, thresh)
        boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
        scored = {f: [(data.draw(st.sampled_from([0.2, 0.5, 0.9])), b) for _, b in pairs]
                  for f, pairs in pred.items()}
        assert (_detection_ap(boxes, scored, thresh)
                == _ref_detection_ap(boxes, scored, thresh))


# --- contested frames and predictions -----------------------------------------
# CLEAR MOT walks only the frames where two candidate pairs share a gt or a
# pred row, and detection AP only the predictions touching a shared gt box;
# the rest match in one array pass.

def _moved(box: BBox, d) -> BBox:
    return BBox(box.x1 + d[0], box.y1 + d[1], box.x2 + d[2], box.y2 + d[3])


@st.composite
def _long_sequences(draw):
    """30-120 frames of 2-8 gt ids moving on a 100 x 100 grid, each mostly
    tracked by one pred id on a box jittered by a pixel.  Some frames are
    absent, some empty on one side or both; with the drawn rate a frame
    gets a duplicated pred box or two gt boxes crossing, so most frames are
    uncontested and a few are.  Pred ids change now and then."""
    n, k = draw(st.integers(30, 120)), draw(st.integers(2, 8))
    contest = draw(st.sampled_from([0.0, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.integers(0, 90, size=(k, 2))
    vel = rng.integers(-2, 3, size=(k, 2))
    size = rng.integers(7, 12, size=(k, 2))  # three one-pixel jitters leave it positive
    pid = list(range(101, 101 + k))
    gt, pred, scores = {}, {}, {}
    for f in range(1, n + 1):
        pos = np.clip(pos + vel, 0, 90)
        r = rng.random()
        if r < 0.05:
            continue  # absent
        boxes = [BBox(x, y, x + w, y + h) for (x, y), (w, h) in zip(pos.tolist(), size.tolist())]
        if rng.random() < contest:  # two gt boxes cross
            i, j = rng.choice(k, size=2, replace=False).tolist()
            boxes[j] = _moved(boxes[i], rng.integers(-1, 2, size=4).tolist())
        present = (rng.random(k) < 0.9).tolist()
        g = [(i + 1, boxes[i]) for i in range(k) if present[i]]
        p = []
        for i in range(k):
            if rng.random() < 0.03:
                pid[i] = max(pid) + 1  # a new pred id: a switch where it matches
            if present[i] and rng.random() < 0.9:
                p.append((pid[i], _moved(boxes[i], rng.integers(-1, 2, size=4).tolist())))
        if p and rng.random() < contest:  # a duplicated pred box
            p.append((1000 + f, _moved(p[rng.integers(len(p))][1],
                                       rng.integers(-1, 2, size=4).tolist())))
        if r < 0.1:  # empty on the gt side, on both from 0.075
            g = []
        if 0.075 <= r < 0.15:  # empty on the pred side
            p = []
        gt[f], pred[f] = g, p
        scores[f] = rng.choice([0.2, 0.5, 0.9], size=len(p)).tolist()
    return gt, pred, scores


def _assert_metrics_equal_the_references(gt, pred, scores, thresh):
    want = _ref_clear_mot(gt, pred, thresh)
    both = replace(want, idf1=_ref_idf1(gt, pred, thresh))
    for g, p in ((gt, pred), (table(gt), table(pred))):
        assert clear_mot(g, p, thresh) == want
        assert evaluate_tracking(g, p, thresh) == both
    boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
    scored = {f: list(zip(scores[f], [b for _, b in pairs])) for f, pairs in pred.items()}
    assert _detection_ap(boxes, scored, thresh) == _ref_detection_ap(boxes, scored, thresh)


@settings(max_examples=200, deadline=None)
@given(_long_sequences(), st.sampled_from([0.5, 0.3, 0.7]))
def test_metrics_on_long_sparse_sequences_equal_the_references(seq, thresh):
    _assert_metrics_equal_the_references(*seq, thresh)


def test_an_uncontested_match_seeds_the_next_contested_frame():
    # gt 1 <-> pred 7 alone in frame 1; in frame 2 pred 7 still overlaps at
    # IoU 0.6 and pred 8 at 0.9: 7 is kept, no switch
    box = BBox(0, 0, 10, 10)
    gt = {1: [(1, box)], 2: [(1, box)]}
    pred = {1: [(7, box)], 2: [(7, BBox(0, 0, 10, 6)), (8, BBox(0, 0, 10, 9))]}
    for g, p in ((gt, pred), (table(gt), table(pred))):
        r = clear_mot(g, p)
        assert (r.id_switches, r.fp, r.fn) == (0, 1, 0)
    assert clear_mot(gt, pred) == _ref_clear_mot(gt, pred)


def test_contested_first_frame_and_after_an_empty_frame():
    # frame 1 is contested: each gt box overlaps both pred boxes at IoU 2/3;
    # frame 2 is empty on both sides, so it reads as absent and frame 1's
    # correspondences (1 <-> 5, 2 <-> 6) carry into frame 3, where the boxes
    # trade places: both are kept at IoU 2/3, although the swap scores 1
    a, b = BBox(0, 0, 10, 10), BBox(2, 0, 12, 10)
    gt = {1: [(1, a), (2, b)], 2: [], 3: [(1, a), (2, b)]}
    pred = {1: [(5, a), (6, b)], 2: [], 3: [(5, b), (6, a)]}
    for g, p in ((gt, pred), (table(gt), table(pred))):
        r = clear_mot(g, p)
        assert (r.id_switches, r.fp, r.fn, r.mota) == (0, 0, 0, 1.0)
    assert clear_mot(gt, pred) == _ref_clear_mot(gt, pred)


def test_ap_walks_a_shared_box_in_rank_order():
    # predictions 0.9 and 0.7 share gt box A, the lower-ranked one at the
    # higher IoU; 0.8, ranked between them, is alone on gt box B.  In rank
    # order 0.9 claims A and 0.7 is a false positive: AP 1
    a, b = BBox(0, 0, 10, 10), BBox(50, 50, 60, 60)
    boxes = {1: [a, b]}
    scored = {1: [(0.9, BBox(0, 0, 10, 6)), (0.8, b), (0.7, BBox(0, 0, 10, 9))]}
    assert _detection_ap(boxes, scored, 0.5) == 1.0 == _ref_detection_ap(boxes, scored)
    # had 0.7 claimed A by its IoU, 0.9 would be the false positive: AP 2/3
