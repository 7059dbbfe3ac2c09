"""Axis-aligned boxes and the image/feature-grid relationship."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in image pixels, corners (x1, y1) top-left and (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"inverted box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class GridSpec:
    """Image size plus the stride that maps it onto the feature grid."""

    image_w: int
    image_h: int
    stride: int = 4

    def __post_init__(self):
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError(f"image size must be positive, got {self.image_w}x{self.image_h}")
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")

    @property
    def feat_w(self) -> int:
        return self.image_w // self.stride

    @property
    def feat_h(self) -> int:
        return self.image_h // self.stride


_box_corners = attrgetter("x1", "y1", "x2", "y2")


def corners(boxes: list[BBox]) -> np.ndarray:
    """(N, 4) float64 array of the boxes' (x1, y1, x2, y2) corners."""
    flat = chain.from_iterable(map(_box_corners, boxes))
    return np.fromiter(flat, np.float64, 4 * len(boxes)).reshape(-1, 4)


def _iou_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of broadcastable (..., 4) corner arrays; float64 for integer corners.

    A pair is 0.0 unless its overlap has positive width and height and
    its union positive area."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    ok = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
    out = np.zeros(inter.shape, np.result_type(inter, 0.0))
    return np.divide(inter, union, out=out, where=ok)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(T, N) IoU between (T, 4) and (N, 4) corner arrays."""
    return _iou_kernel(a[:, None, :], b[None, :, :])


def best_match(ious: np.ndarray, thresh: float) -> np.ndarray:
    """Per row, the column of the last highest IoU at or above ``thresh``, else -1."""
    ok = ious >= thresh
    best = np.where(ok, ious, -np.inf).max(axis=1, keepdims=True, initial=-np.inf)
    hits = (ok & (ious == best)) * np.arange(1, ious.shape[1] + 1)  # 1-based columns
    return hits.max(axis=1, initial=0) - 1
