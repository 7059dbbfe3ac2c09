"""Array kernels against their per-element or full-grid references.

The batched IoU, Kalman predict/update and the numpy column scan of the
assignment solver do the same arithmetic as the scalar code, so they are
compared for exact equality; the batched gate solves its triangular
system by hand and is compared to 1e-9 relative.  The windowed Gaussian
stamp is compared to a full-grid stamp in the float32 bytes the maps are
stored in.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack import assignment
from fairtrack.decoding import Detection
from fairtrack.encoding import MIN_SIGMA, stamp_gaussian
from fairtrack.geometry import BBox, iou, iou_matrix
from fairtrack.kalman import (
    STD_WEIGHT_POSITION,
    STD_WEIGHT_VELOCITY,
    KalmanState,
    box_corners,
    gate,
    gating_distance,
    kf_init,
    kf_predict,
    kf_update,
    measurements,
    predict,
    state_to_box,
    update,
)
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
    pm, pc = predict(mean, cov)
    z = measurements([BBox(*c) for c in box_corners(mean + 1.5)])
    um, uc = update(pm, pc, z)
    for k in range(count):
        rm, rc = _reference_predict(mean[k], cov[k])
        assert np.array_equal(pm[k], rm) and np.array_equal(pc[k], rc)
        rm, rc = _reference_update(rm, rc, z[k])
        assert np.array_equal(um[k], rm) and np.array_equal(uc[k], rc)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 8), _boxes(max_size=8))
def test_batched_gate_matches_per_state_gating(seed, count, boxes):
    boxes = [b for b in boxes if b.height > 0] or [BBox(0, 0, 1, 1)]
    mean, cov = _states(seed, count)
    got = gate(mean, cov, measurements(boxes))
    assert got.shape == (count, len(boxes))
    for k in range(count):
        want = _reference_gate(mean[k], cov[k], measurements(boxes))
        np.testing.assert_allclose(got[k], want, rtol=1e-9, atol=0)
        single = gating_distance(KalmanState(mean[k], cov[k]), boxes)
        np.testing.assert_allclose(got[k], single, rtol=1e-9, atol=0)


def test_box_corners_match_state_to_box():
    mean, cov = _states(7, 5)
    got = box_corners(mean)
    for k in range(5):
        assert tuple(got[k]) == state_to_box(KalmanState(mean[k], cov[k])).as_tuple()


def test_zero_height_detection_raises_the_measurement_error():
    with pytest.raises(ValueError, match="box height must be positive, got 0"):
        measurements([BBox(0, 0, 5, 10), BBox(0, 3, 5, 3)])
    tr = OnlineTracker()
    tr.step(1, [Detection(BBox(0, 0, 30, 60), 0.9, embedding=np.array([1.0, 0.0]))])
    flat = Detection(BBox(0, 20, 30, 20), 0.9, embedding=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="box height must be positive, got 0"):
        tr.step(2, [flat])


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
