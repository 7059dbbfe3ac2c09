"""Constant-velocity Kalman filter over (cx, cy, aspect, height).

Noise scales with the current box height, the usual convention for
pedestrian tracking filters.  Nothing here is stateful.

The filter works on stacks of states: means ``(T, 8)`` and covariances
``(T, 3, 4)``, one row per tracklet.  F, H, Q and R act on each
coordinate alone and ``initiate`` starts diagonal, so a covariance is
exactly four 2x2 (position, velocity) blocks, stored as rows var_p,
cov_pv and var_v by columns cx, cy, a and h; every step is elementwise.
``predict`` advances every state in one pass.  ``gate`` is row-aligned:
it returns the ``(K,)`` squared Mahalanobis distances of ``K`` (state,
measurement) pairs, so a caller computes it only on the pairs it still
needs (the tracker: those its appearance cost admits), or on one state
broadcast against many measurements.  ``measure`` turns ``(N, 4)`` box
corners into measurements without checking them; ``measurable`` marks
the rows whose height is positive, whose width is not negative and whose
values stay within float32's normal range, and ``check_measurements``
raises on the first row that is not; ``measurements`` measures and
checks.  The single-state functions (``kf_*``, ``state_to_box``) wrap
the same code, taking and returning a validated ``KalmanState`` with its
8x8 covariance.

Each kernel builds its result in one preallocated ``np.empty`` or
``np.zeros`` block, writing slices of it, never joining per-column arrays
with ``np.stack`` or ``np.concatenate``; a tracker frame calls each one
once, so numpy's per-call cost, not the arithmetic, is what it spends.
The sums keep the grouping of the dense matrix products they stand for
(``((p + pv) + (pv + v)) + Q`` in ``predict``), so they match them bit
for bit.  ``all_measurable`` tests a whole measurement array in three
reductions, so ``check_measurements``, which the tracker runs on every
box of a frame as it enters, looks for the bad row only when one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BBox, corners

# Motion / observation noise relative to box height.
STD_WEIGHT_POSITION = 1.0 / 20.0
STD_WEIGHT_VELOCITY = 1.0 / 160.0

# 0.95 quantile of the chi-square distribution with 4 degrees of freedom;
# the customary gate for box-measurement association.
GATE_CHI2 = 9.4877

# Measurements are kept within float32's normal range.
_TINY = float(np.finfo(np.float32).tiny)
_HUGE = float(np.finfo(np.float32).max)

# (row, column) in the 8x8 covariance of each var_p, cov_pv and var_v entry.
_ROW = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [4, 5, 6, 7]])
_COL = _ROW[[0, 2, 2]]
_ON_BLOCK = np.tile(np.eye(4, dtype=bool), (2, 2))

# Noise std per (cx, cy, a, h) column: the height times a weight, but a
# fixed std for the aspect a.  Initiate's and predict's noise has one row
# of weights per covariance row it adds to (var_p, then var_v), with these
# aspect stds; update's has one row, for var_p, with aspect std 1e-1.
_INITIATE_WEIGHT = np.repeat([[2 * STD_WEIGHT_POSITION], [10 * STD_WEIGHT_VELOCITY]], 4, axis=1)
_PREDICT_WEIGHT = np.repeat([[STD_WEIGHT_POSITION], [STD_WEIGHT_VELOCITY]], 4, axis=1)
_UPDATE_WEIGHT = np.full(4, STD_WEIGHT_POSITION)
_ASPECT_STD = np.array([1e-2, 1e-5])


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Mean (cx, cy, a, h, and velocities) with its 8x8 block covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.shape != (8,) or cov.shape != (8, 8):
            raise ValueError("state must be an 8-vector with an 8x8 covariance")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("covariance is not symmetric")
        if cov.diagonal().min() < 0:
            raise ValueError("covariance has a negative diagonal entry")
        if (cov[~_ON_BLOCK] != 0).any():
            raise ValueError("covariance couples two coordinates")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def _blocks(cov: np.ndarray) -> np.ndarray:
    """(T, 8, 8) covariances as (T, 3, 4) per-coordinate blocks."""
    return cov[:, _ROW, _COL]


def _dense(blocks: np.ndarray) -> np.ndarray:
    """(T, 3, 4) per-coordinate blocks as (T, 8, 8) covariances."""
    cov = np.zeros((len(blocks), 8, 8))
    cov[:, _ROW, _COL] = cov[:, _COL, _ROW] = blocks
    return cov


def _variances(h: np.ndarray, weight: np.ndarray, aspect_std) -> np.ndarray:
    """Noise variances over a last axis (cx, cy, a, h): the square of
    ``h * weight``, but of ``aspect_std`` in the aspect column."""
    var = h * weight
    var[..., 2] = aspect_std
    var *= var
    return var


def measure(c: np.ndarray) -> np.ndarray:
    """(N, 4) measurements (cx, cy, w / h, h) of (N, 4) box corners, unchecked.

    A degenerate row (a height that is not positive, an aspect that
    overflows) comes out non-finite or out of range without a numpy
    warning; ``check_measurements`` rejects it before a filter uses it.
    """
    z = np.empty((len(c), 4))
    lo, hi = c[:, :2], c[:, 2:]
    with np.errstate(all="ignore"):
        z[:, :2] = (lo + hi) / 2.0
        wh = hi - lo
        z[:, 2] = wh[:, 0] / wh[:, 1]
        z[:, 3] = wh[:, 1]
    return z


def measurable(z: np.ndarray) -> np.ndarray:
    """(N,) mask of the measurement rows the filter accepts.

    A row fails on a negative aspect w / h (a negative width), on a height
    under float32's smallest normal number (so also one that is not
    positive) or on any magnitude over its largest: there the filter's
    variances would underflow to zero or its distances overflow.  A NaN
    fails too.
    """
    return (z[:, 3] >= _TINY) & (z[:, 2] >= 0.0) & (np.abs(z) <= _HUGE).all(axis=1)


def all_measurable(z: np.ndarray) -> bool:
    """Whether every row of ``z`` is ``measurable``, in three reductions."""
    # min and max carry a NaN through, and every comparison with it is False
    return (np.minimum.reduce(z[:, 3], initial=np.inf) >= _TINY
            and np.minimum.reduce(z[:, 2], initial=np.inf) >= 0.0
            and np.maximum.reduce(np.abs(z), axis=None, initial=0.0) <= _HUGE)


def check_measurements(z: np.ndarray) -> None:
    """Raise ValueError on the first bad measurement row (see ``measurable``).

    A height that is not positive is reported first, wherever it is, then
    a negative width; a NaN aspect is out of range.
    """
    if all_measurable(z):
        return
    h, a = z[:, 3], z[:, 2]
    if not (h > 0).all():
        raise ValueError(f"box height must be positive, got {h[~(h > 0)][0]}")
    if (a < 0).any():
        raise ValueError(f"box width must be non-negative, got w / h = {a[a < 0][0]}")
    raise ValueError(f"box measurement (cx, cy, w / h, h) = "
                     f"{tuple(z[~measurable(z)][0].tolist())} is outside "
                     "float32's normal range")


def measurements(boxes: list[BBox]) -> np.ndarray:
    """(N, 4) measurements (cx, cy, w / h, h) of image boxes, checked."""
    z = measure(corners(boxes))
    check_measurements(z)
    return z


def box_corners(mean: np.ndarray) -> np.ndarray:
    """(T, 4) image-box corners of the means (extents floored at a tiny positive value)."""
    h = np.maximum(mean[:, 3], 1e-6)
    half = np.empty((len(mean), 2))  # (w, h) / 2
    half[:, 0] = np.maximum(mean[:, 2] * h, 1e-6)
    half[:, 1] = h
    half /= 2.0
    center = mean[:, :2]
    out = np.empty((len(mean), 4))
    out[:, :2] = center - half
    out[:, 2:] = center + half
    return out


def initiate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start one filter per (K, 4) measurement row, with zero velocity."""
    mean = np.zeros((len(z), 8))
    mean[:, :4] = z
    cov = np.zeros((len(z), 3, 4))
    cov[:, ::2] = _variances(z[:, 3, None, None], _INITIATE_WEIGHT, _ASPECT_STD)
    return mean, cov


def predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance (T, 8) means and (T, 3, 4) covariances by one frame: P <- F P F^T + Q."""
    new_mean = mean.copy()
    new_mean[:, :4] += mean[:, 4:]
    # summed in F P F^T's grouping, ((p + pv) + (pv + v)) + Q, so the
    # result matches it bit for bit
    new_cov = np.empty_like(cov)
    np.add(cov[:, :2], cov[:, 1:], out=new_cov[:, :2])  # p + pv, pv + v
    np.add(new_cov[:, 0], new_cov[:, 1], out=new_cov[:, 0])
    new_cov[:, 2] = cov[:, 2]
    np.add(new_cov[:, ::2], _variances(mean[:, 3, None, None], _PREDICT_WEIGHT, _ASPECT_STD),
           out=new_cov[:, ::2])
    return new_mean, new_cov


def update(mean: np.ndarray, cov: np.ndarray,
           z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correct (K, 8) means and (K, 3, 4) covariances with (K, 4) measurements."""
    s = cov[:, 0] + _variances(mean[:, 3, None], _UPDATE_WEIGHT, 1e-1)
    # b * (1/sqrt(s)) * (1/sqrt(s)) is how OpenBLAS's Cholesky solve divides by
    # s; b / s or b / sqrt(s) / sqrt(s) would differ from it in the last bit.
    inv = 1.0 / np.sqrt(s)[:, None]
    gain = cov[:, :2] * inv  # (gp, gv): the position and velocity gains
    np.multiply(gain, inv, out=gain)
    innovation = z - mean[:, :4]
    new_mean = mean + (gain * innovation[:, None]).reshape(-1, 8)
    gs = gain * s[:, None]
    new_cov = np.empty_like(cov)
    # p - (gp s) gp and v - (gv s) gv, then the mean of the two cross terms
    # pv - (gp s) gv and pv - (gv s) gp
    np.subtract(cov[:, ::2], gs * gain, out=new_cov[:, ::2])
    cross = cov[:, 1, None] - gs * gain[:, ::-1]
    np.add(cross[:, 0], cross[:, 1], out=new_cov[:, 1])
    np.multiply(new_cov[:, 1], 0.5, out=new_cov[:, 1])
    return new_mean, new_cov


def gate(mean: np.ndarray, cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(K,) squared Mahalanobis distances of measurement centers from the states.

    Row k pairs state ``mean[k]``, ``cov[k]`` with measurement ``z[k]``; one
    state (K = 1) broadcasts against every measurement.  Computed on the
    position components only, under the projected (innovation) covariance,
    whose (cx, cy) block is diagonal.  Each pair's arithmetic is the same
    whatever else is in the batch, so a distance is bit-equal however the
    pairs are grouped.
    """
    s = cov[:, 0, :2] + (STD_WEIGHT_POSITION * mean[:, 3, None]) ** 2
    w = (z[:, :2] - mean[:, :2]) / np.sqrt(s)
    return w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]


def _state(mean: np.ndarray, cov: np.ndarray) -> KalmanState:
    return KalmanState(mean[0], _dense(cov)[0])


def kf_init(measurement: BBox) -> KalmanState:
    """Start a filter at a measured box with zero velocity."""
    return _state(*initiate(measurements([measurement])))


def kf_predict(s: KalmanState) -> KalmanState:
    return _state(*predict(s.mean[None], _blocks(s.covariance[None])))


def kf_update(s: KalmanState, measurement: BBox) -> KalmanState:
    return _state(*update(s.mean[None], _blocks(s.covariance[None]),
                          measurements([measurement])))


def state_to_box(s: KalmanState) -> BBox:
    """Current mean as an image box (extents floored at a tiny positive value)."""
    return BBox(*(float(v) for v in box_corners(s.mean[None])[0]))
