"""Array kernels against their per-element or full-grid references.

The batched IoU, the Kalman predict/update on per-coordinate blocks and
the numpy column scan of the assignment solver do the same arithmetic as
the scalar code, so they are compared for exact equality.  The
per-component assignment is compared to the whole-matrix solver that
preceded it, kept here as the reference and run with the over-threshold
entries set to +inf: exactly on continuous costs, and in match count and
total cost on tie-heavy ones, whose ties may resolve differently.  The batched
gate is compared to a triangular solve to 1e-9 relative, and its pair form
to the dense (T, N) form for exact equality.  The peak filter
is compared for exact equality to scipy's 3x3 maximum filter.  The
windowed Gaussian stamp is compared to a full-grid stamp in the float32
bytes the maps are stored in.  The metrics, which read one IoU matrix per frame, are compared
for exact equality to per-pair reference implementations kept here.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack import assignment
from fairtrack.assignment import hungarian
from fairtrack.decoding import Detection, peak_nms
from fairtrack.encoding import MIN_SIGMA, stamp_gaussian
from fairtrack.geometry import BBox, iou, iou_matrix
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
from fairtrack.metrics import MetricsReport, clear_mot, detection_ap, idf1
from fairtrack.tracker import OnlineTracker

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


def _corners(boxes):
    return np.array([b.as_tuple() for b in boxes])


@settings(max_examples=150, deadline=None)
@given(_boxes(), _boxes())
def test_iou_matrix_is_bit_equal_to_iou(a, b):
    got = iou_matrix(_corners(a), _corners(b))
    want = np.array([[iou(p, q) for q in b] for p in a])
    assert np.array_equal(got, want)


def test_iou_matrix_edge_cases():
    a = [BBox(0, 0, 2, 2)]
    b = [BBox(2, 0, 4, 2),   # touching edge
         BBox(0.5, 0.5, 1, 1),  # nested
         BBox(1, 1, 1, 1),   # zero area, inside
         BBox(0, 0, 2, 2)]   # identical
    got = iou_matrix(_corners(a), _corners(b))
    assert got.tolist() == [[0.0, 0.0625, 0.0, 1.0]]


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


def _dense_gate(mean, cov, z):
    """The (T, N) gate of every state against every measurement, as the
    tracker computed it before it gated only the appearance-admissible pairs."""
    s = cov[:, 0, :2] + (STD_WEIGHT_POSITION * mean[:, 3, None]) ** 2
    w = (z[None, :, :2] - mean[:, None, :2]) / np.sqrt(s)[:, None, :]
    return w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1]


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
    order = np.lexsort((xs, ys, -scores))
    return [(int(xs[i]), int(ys[i]), float(scores[i])) for i in order[:top_k]]


# Few distinct integer levels make plateaus and ties between neighbours the
# common case; single rows and columns exercise the -inf border on both sides.
_side = st.one_of(st.just(1), st.integers(1, 12))
_tie_grid = st.tuples(_side, _side).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(-2, 3).map(float)))


@settings(max_examples=300, deadline=None)
@given(_tie_grid, st.sampled_from([0.5, 0.99, 1e-9]), st.sampled_from([1, 3, 10**6]))
def test_peak_nms_equals_the_maximum_filter_reference(h, threshold, top_k):
    assert peak_nms(h, threshold, top_k) == _ref_peak_nms(h, threshold, top_k)


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
# The per-pair metrics that preceded the per-frame IoU matrices, kept verbatim
# (less their docstrings) as references.

def _frame_dict(frame, pairs, kind):
    out = {}
    for oid, box in pairs:
        if oid in out:
            raise ValueError(f"duplicate {kind} id {oid} in frame {frame}")
        out[oid] = box
    return out


def _ref_clear_mot(gt, pred, iou_thresh=0.5):
    fp = fn = idsw = 0
    total_gt = 0
    corr = {}
    last_match = {}
    gt_frames_seen = {}
    gt_frames_matched = {}

    for frame in sorted(set(gt) | set(pred)):
        g = _frame_dict(frame, gt.get(frame, []), "gt")
        p = _frame_dict(frame, pred.get(frame, []), "pred")
        total_gt += len(g)
        for gid in g:
            gt_frames_seen[gid] = gt_frames_seen.get(gid, 0) + 1

        kept = {}
        for gid, pid in corr.items():
            if gid in g and pid in p and iou(g[gid], p[pid]) >= iou_thresh:
                kept[gid] = pid

        free_g = [gid for gid in g if gid not in kept]
        free_p = [pid for pid in p if pid not in kept.values()]
        if free_g and free_p:
            cost = np.array([[1.0 - iou(g[a], p[b]) for b in free_p]
                             for a in free_g])
            pairs, _, _ = hungarian(cost, max_cost=1.0 - iou_thresh)
            for i, j in pairs:
                kept[free_g[i]] = free_p[j]

        for gid, pid in kept.items():
            gt_frames_matched[gid] = gt_frames_matched.get(gid, 0) + 1
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid

        fn += len(g) - len(kept)
        fp += len(p) - len(kept)
        corr = kept

    mota = 1.0 - (fp + fn + idsw) / total_gt if total_gt > 0 else 1.0
    n_traj = len(gt_frames_seen)
    mt = ml = 0
    for gid, seen in gt_frames_seen.items():
        cov = gt_frames_matched.get(gid, 0) / seen
        if cov >= 0.8:
            mt += 1
        elif cov <= 0.2:
            ml += 1
    return MetricsReport(
        mota=mota, fp=fp, fn=fn, id_switches=idsw,
        mt_ratio=mt / n_traj if n_traj else 0.0,
        ml_ratio=ml / n_traj if n_traj else 0.0,
        num_gt=total_gt,
    )


def _ref_idf1(gt, pred, iou_thresh=0.5):
    gt_ids = []
    pred_ids = []
    counts = {}
    total_gt = total_pred = 0

    for frame in sorted(set(gt) | set(pred)):
        g = _frame_dict(frame, gt.get(frame, []), "gt")
        p = _frame_dict(frame, pred.get(frame, []), "pred")
        total_gt += len(g)
        total_pred += len(p)
        for gid, gb in g.items():
            if gid not in gt_ids:
                gt_ids.append(gid)
            for pid, pb in p.items():
                if pid not in pred_ids:
                    pred_ids.append(pid)
                if iou(gb, pb) >= iou_thresh:
                    counts[(gid, pid)] = counts.get((gid, pid), 0) + 1

    if total_gt + total_pred == 0:
        return 1.0
    if not counts:
        return 0.0
    cost = np.zeros((len(gt_ids), len(pred_ids)))
    for (gid, pid), c in counts.items():
        cost[gt_ids.index(gid), pred_ids.index(pid)] = -c
    pairs, _, _ = hungarian(cost)
    idtp = sum(-cost[i, j] for i, j in pairs)
    return 2.0 * idtp / (total_gt + total_pred)


def _ref_detection_ap(gt_boxes, preds, iou_thresh=0.5):
    total_gt = sum(len(v) for v in gt_boxes.values())
    flat = [(score, frame, i, box)
            for frame in sorted(preds)
            for i, (score, box) in enumerate(preds[frame])]
    if not flat or total_gt == 0:
        return 0.0
    flat.sort(key=lambda r: (-r[0], r[1], r[2]))

    claimed = {f: set() for f in gt_boxes}
    tp = np.zeros(len(flat))
    for k, (_, frame, _, box) in enumerate(flat):
        best, best_i = iou_thresh, -1
        for gi, gb in enumerate(gt_boxes.get(frame, [])):
            if gi in claimed.get(frame, set()):
                continue
            v = iou(box, gb)
            if v >= best:
                best, best_i = v, gi
        if best_i >= 0:
            claimed[frame].add(best_i)
            tp[k] = 1.0

    tp_cum = np.cumsum(tp)
    recall = tp_cum / total_gt
    precision = tp_cum / np.arange(1, len(flat) + 1)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, pr in zip(recall, env):
        ap += (r - prev_r) * pr
        prev_r = r
    return float(ap)


# Tiny integer boxes on a 4x4 patch: ties, duplicates, nested, touching and
# zero-area boxes are the common case.
_tiny_box = st.tuples(*[st.integers(0, 4)] * 2, *[st.integers(0, 3)] * 2).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


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
def test_metrics_equal_the_per_pair_reference(gt, pred, thresh, data):
    assert clear_mot(gt, pred, thresh) == _ref_clear_mot(gt, pred, thresh)
    assert idf1(gt, pred, thresh) == _ref_idf1(gt, pred, thresh)
    boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
    scored = {f: [(data.draw(st.sampled_from([0.2, 0.5, 0.9])), b) for _, b in pairs]
              for f, pairs in pred.items()}
    assert (detection_ap(boxes, scored, thresh)
            == _ref_detection_ap(boxes, scored, thresh))
