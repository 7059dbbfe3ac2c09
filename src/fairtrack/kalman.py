"""Constant-velocity Kalman filter over (cx, cy, aspect, height).

Noise scales with the current box height, the usual convention for
pedestrian tracking filters.  Nothing here is stateful.

The filter works on stacks of states: means ``(T, 8)`` and covariances
``(T, 3, 4)``, one row per tracklet.  F, H, Q and R act on each
coordinate alone and ``initiate`` starts diagonal, so a covariance is
exactly four 2x2 (position, velocity) blocks, stored as rows var_p,
cov_pv and var_v by columns cx, cy, a and h; every step is elementwise.
``predict`` advances every state in one pass and ``gate`` returns the
``(T, N)`` squared Mahalanobis distances to the frame's ``(N, 4)``
``measurements``.  The single-state functions (``kf_*``,
``gating_distance``, ``state_to_box``) wrap the same code, taking and
returning a validated ``KalmanState`` with its 8x8 covariance.
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


def measurements(boxes: list[BBox]) -> np.ndarray:
    """(N, 4) measurements (cx, cy, w / h, h) of image boxes."""
    c = corners(boxes)
    h = c[:, 3] - c[:, 1]
    if not (h > 0).all():  # NaN too
        raise ValueError(f"box height must be positive, got {h[~(h > 0)][0]}")
    return np.stack([(c[:, 0] + c[:, 2]) / 2.0, (c[:, 1] + c[:, 3]) / 2.0,
                     (c[:, 2] - c[:, 0]) / h, h], axis=1)


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
    """(T, N) squared Mahalanobis distances of measurement centers from the states.

    Computed on the position components only, under the projected
    (innovation) covariance, whose (cx, cy) block is diagonal.
    """
    s = cov[:, 0, :2] + (STD_WEIGHT_POSITION * mean[:, 3, None]) ** 2
    w = (z[None, :, :2] - mean[:, None, :2]) / np.sqrt(s)[:, None, :]
    return w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1]


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


def gating_distance(s: KalmanState, boxes: list[BBox]) -> list[float]:
    """Squared Mahalanobis distance of each box center from the state (see ``gate``)."""
    if not boxes:
        return []
    d = gate(s.mean[None], _blocks(s.covariance[None]), measurements(boxes))
    return [float(v) for v in d[0]]
