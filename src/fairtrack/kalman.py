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
the rows whose height is positive and whose values stay within
float32's normal range, and ``check_measurements`` raises on the first
row that is not; ``measurements`` measures and checks.  The
single-state functions (``kf_*``, ``state_to_box``) wrap the same code,
taking and returning a validated ``KalmanState`` with its 8x8
covariance.
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


def _variances(std: np.ndarray, aspect_std: float) -> np.ndarray:
    """(T, 4) noise variances: std for cx, cy and h, aspect_std for a."""
    return np.stack([std, std, np.full_like(std, aspect_std), std], axis=1) ** 2


def measure(c: np.ndarray) -> np.ndarray:
    """(N, 4) measurements (cx, cy, w / h, h) of (N, 4) box corners, unchecked.

    A degenerate row (a height that is not positive, an aspect that
    overflows) comes out non-finite or out of range without a numpy
    warning; ``check_measurements`` rejects it before a filter uses it.
    """
    h = c[:, 3] - c[:, 1]
    with np.errstate(all="ignore"):
        return np.stack([(c[:, 0] + c[:, 2]) / 2.0, (c[:, 1] + c[:, 3]) / 2.0,
                         (c[:, 2] - c[:, 0]) / h, h], axis=1)


def measurable(z: np.ndarray) -> np.ndarray:
    """(N,) mask of the measurement rows within float32's normal range.

    A row fails on a height under float32's smallest normal number (so
    also one that is not positive) or on any magnitude over its largest:
    there the filter's variances would underflow to zero or its distances
    overflow.  A NaN fails too.
    """
    return (z[:, 3] >= _TINY) & (np.abs(z) <= _HUGE).all(axis=1)


def check_measurements(z: np.ndarray) -> None:
    """Raise ValueError on the first bad measurement row (see ``measurable``).

    A height that is not positive is reported first, wherever it is.
    """
    h = z[:, 3]
    if (h >= _TINY).all() and (np.abs(z) <= _HUGE).all():  # False on NaN
        return
    if not (h > 0).all():
        raise ValueError(f"box height must be positive, got {h[~(h > 0)][0]}")
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
    cx, cy = mean[:, 0], mean[:, 1]
    h = np.maximum(mean[:, 3], 1e-6)
    w = np.maximum(mean[:, 2] * h, 1e-6)
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)


def initiate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start one filter per (K, 4) measurement row, with zero velocity."""
    cov = np.stack([_variances(2 * STD_WEIGHT_POSITION * z[:, 3], 1e-2),
                    np.zeros_like(z),
                    _variances(10 * STD_WEIGHT_VELOCITY * z[:, 3], 1e-5)], axis=1)
    return np.concatenate([z, np.zeros_like(z)], axis=1), cov


def predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance (T, 8) means and (T, 3, 4) covariances by one frame: P <- F P F^T + Q."""
    p, pv, v = cov.swapaxes(0, 1)
    new_mean = mean.copy()
    new_mean[:, :4] += mean[:, 4:]
    # summed in F P F^T's grouping, so the result matches it bit for bit
    return new_mean, np.stack([
        ((p + pv) + (pv + v)) + _variances(STD_WEIGHT_POSITION * mean[:, 3], 1e-2),
        pv + v,
        v + _variances(STD_WEIGHT_VELOCITY * mean[:, 3], 1e-5)], axis=1)


def update(mean: np.ndarray, cov: np.ndarray,
           z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correct (K, 8) means and (K, 3, 4) covariances with (K, 4) measurements."""
    p, pv, v = cov.swapaxes(0, 1)
    s = p + _variances(STD_WEIGHT_POSITION * mean[:, 3], 1e-1)
    # b * (1/sqrt(s)) * (1/sqrt(s)) is how OpenBLAS's Cholesky solve divides by
    # s; b / s or b / sqrt(s) / sqrt(s) would differ from it in the last bit.
    inv = 1.0 / np.sqrt(s)
    gp = (p * inv) * inv
    gv = (pv * inv) * inv
    innovation = z - mean[:, :4]
    new_mean = mean + np.concatenate([gp * innovation, gv * innovation], axis=1)
    return new_mean, np.stack([
        p - (gp * s) * gp,
        0.5 * ((pv - (gp * s) * gv) + (pv - (gv * s) * gp)),
        v - (gv * s) * gv], axis=1)


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
