"""Constant-velocity Kalman filter over (cx, cy, aspect, height).

Noise scales with the current box height, the usual convention for
pedestrian tracking filters.  Nothing here is stateful.

The filter works on stacks of states: means ``(T, 8)`` and covariances
``(T, 8, 8)``, one row per tracklet, with measurements ``(N, 4)`` built
once per frame by ``measurements``.  ``predict`` advances every state in
one pass and ``gate`` returns the ``(T, N)`` matrix of squared
Mahalanobis distances from each state to each measurement.  The
single-state functions (``kf_init``, ``kf_predict``, ``kf_update``,
``gating_distance``, ``state_to_box``) are thin wrappers over the same
code, taking and returning a validated ``KalmanState``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs

from .geometry import BBox, corners

# Motion / observation noise relative to box height.
STD_WEIGHT_POSITION = 1.0 / 20.0
STD_WEIGHT_VELOCITY = 1.0 / 160.0

# 0.95 quantile of the chi-square distribution with 4 degrees of freedom;
# the customary gate for box-measurement association.
GATE_CHI2 = 9.4877

_NDIM = 4


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Mean (cx, cy, a, h, and velocities) with its 8x8 covariance."""

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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def _diag(*std) -> np.ndarray:
    """(T, d, d) diagonal covariances from d standard deviations, each (T,) or scalar."""
    var = np.stack(np.broadcast_arrays(*std), axis=1) ** 2
    out = np.zeros(var.shape + var.shape[-1:])
    i = np.arange(var.shape[-1])
    out[:, i, i] = var
    return out


def measurements(boxes: list[BBox]) -> np.ndarray:
    """(N, 4) measurements (cx, cy, w / h, h) of image boxes."""
    c = corners(boxes)
    h = c[:, 3] - c[:, 1]
    if (h <= 0).any():
        raise ValueError(f"box height must be positive, got {h[h <= 0][0]}")
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
    pos = 2 * STD_WEIGHT_POSITION * z[:, 3]
    vel = 10 * STD_WEIGHT_VELOCITY * z[:, 3]
    return (np.concatenate([z, np.zeros_like(z)], axis=1),
            _diag(pos, pos, 1e-2, pos, vel, vel, 1e-5, vel))


def predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance (T, 8) means and (T, 8, 8) covariances by one frame.

    The transition F adds each velocity to its position, so F x and
    F P F^T are sums of two entries: exactly what a matrix product with
    F's ones and zeros computes.
    """
    pos = STD_WEIGHT_POSITION * mean[:, 3]
    vel = STD_WEIGHT_VELOCITY * mean[:, 3]
    new_mean = mean.copy()
    new_mean[:, :_NDIM] += mean[:, _NDIM:]
    fp = cov.copy()
    fp[:, :_NDIM, :] += cov[:, _NDIM:, :]
    fpf = fp.copy()
    fpf[:, :, :_NDIM] += fp[:, :, _NDIM:]
    new_cov = fpf + _diag(pos, pos, 1e-2, pos, vel, vel, 1e-5, vel)
    return new_mean, 0.5 * (new_cov + new_cov.transpose(0, 2, 1))


def update(mean: np.ndarray, cov: np.ndarray,
           z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correct (K, 8) means and (K, 8, 8) covariances with (K, 4) measurements.

    The gain is solved per state through LAPACK's Cholesky routines; the
    rest is batched.  H selects the position block, so H P H^T and P H^T
    are slices.
    """
    pos = STD_WEIGHT_POSITION * mean[:, 3]
    proj_cov = cov[:, :_NDIM, :_NDIM] + _diag(pos, pos, 1e-1, pos)
    innovation = z - mean[:, :_NDIM]
    correction = np.empty_like(mean)
    reduction = np.empty_like(cov)
    for k in range(len(mean)):
        chol, info = _potrf(proj_cov[k], lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError("projected covariance is not positive definite")
        gain = _potrs(chol, cov[k, :, :_NDIM].T, lower=1)[0].T
        correction[k] = gain @ innovation[k]
        reduction[k] = gain @ proj_cov[k] @ gain.T
    new_cov = cov - reduction
    return mean + correction, 0.5 * (new_cov + new_cov.transpose(0, 2, 1))


def gate(mean: np.ndarray, cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(T, N) squared Mahalanobis distances of measurement centers from the states.

    Computed on the position components only, under the projected
    (innovation) covariance, through a Cholesky factor of each state's
    2x2 position block.
    """
    pos = STD_WEIGHT_POSITION * mean[:, 3]
    block = cov[:, :2, :2] + _diag(pos, pos)
    chol = np.linalg.cholesky(block)
    d = z[None, :, :2] - mean[:, None, :2]
    z0 = d[..., 0] / chol[:, 0, 0, None]
    z1 = (d[..., 1] - chol[:, 1, 0, None] * z0) / chol[:, 1, 1, None]
    return z0 * z0 + z1 * z1


def _state(mean: np.ndarray, cov: np.ndarray) -> KalmanState:
    return KalmanState(mean[0], cov[0])


def kf_init(measurement: BBox) -> KalmanState:
    """Start a filter at a measured box with zero velocity."""
    return _state(*initiate(measurements([measurement])))


def kf_predict(s: KalmanState) -> KalmanState:
    return _state(*predict(s.mean[None], s.covariance[None]))


def kf_update(s: KalmanState, measurement: BBox) -> KalmanState:
    return _state(*update(s.mean[None], s.covariance[None],
                          measurements([measurement])))


def state_to_box(s: KalmanState) -> BBox:
    """Current mean as an image box (extents floored at a tiny positive value)."""
    return BBox(*(float(v) for v in box_corners(s.mean[None])[0]))


def gating_distance(s: KalmanState, boxes: list[BBox]) -> list[float]:
    """Squared Mahalanobis distance of each box center from the state (see ``gate``)."""
    if not boxes:
        return []
    d = gate(s.mean[None], s.covariance[None], measurements(boxes))
    return [float(v) for v in d[0]]
