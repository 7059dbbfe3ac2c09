"""Ground-truth frames to supervision maps.

Each annotated object contributes:
  - a Gaussian peak on the center heatmap (value exactly 1 at the
    quantized center cell),
  - the sub-cell center offset and the box size (image pixels) at that
    cell,
  - its identity class index at that cell.

Overlapping Gaussians combine with an element-wise max so the heatmap
stays in [0, 1] and is exactly 1 at every retained center.

`TargetMaps` holds a frame as the dense float64 heatmap plus one sparse
center table: the cell, identity index, offset and size of each retained
object, one row per center in row-major cell order.  That table is the
representation; the dense offset, size and mask planes that the losses
and `decoding.decode` take are scattered from it on first use.  The
`encode` CLI writes the heatmap densely and the table as it is, one
``centers.txt`` row per center, the sparse per-object form CenterNet and
FairMOT train from.  Each object's Gaussian window is evaluated once
per sigma and kept in a small read-only cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import BBox, GridSpec, corners

MIN_SIGMA = 2.0 / 3.0
MIN_OVERLAP = 0.7


@dataclass(frozen=True)
class GtObject:
    """Ground-truth box with a dense identity class index in [0, K)."""

    box: BBox
    identity: int

    def __post_init__(self):
        if self.identity < 0:
            raise ValueError(f"identity must be non-negative, got {self.identity}")


@dataclass(frozen=True, eq=False)
class TargetMaps:
    """Supervision bundle for one frame: the heatmap and the center table.

    Row k of the table is one retained object: its feature-grid cell
    ``cells[k]`` (x, y), its identity index ``identities[k]`` and
    ``values[k]`` (off_x, off_y, w, h), the sub-cell center offset and the
    box size in image pixels.  Rows are in the row-major cell order that
    ``np.nonzero`` gives.  ``offsets``, ``sizes`` and ``center_mask`` are
    the dense (2, H, W) and (H, W) planes the losses and
    ``decoding.decode`` take, scattered from the table on first use: zero
    or false off the centers.  The identities stay in the table; the
    identity loss takes one label per center.  ``collisions`` counts objects
    dropped because another (larger) object claimed the same cell,
    ``rejected`` counts objects whose quantized center fell outside the
    grid.
    """

    heatmap: np.ndarray     # (H, W) float64
    cells: np.ndarray       # (K, 2) int64
    identities: np.ndarray  # (K,) int64
    values: np.ndarray      # (K, 4) float64
    collisions: int = 0
    rejected: int = 0

    @property
    def num_objects(self) -> int:
        return len(self.cells)

    def _dense(self, column: np.ndarray, fill, dtype) -> np.ndarray:
        """A (K,) or (K, C) table column on the grid, as (H, W) or (C, H, W)."""
        plane = np.full(column.shape[1:] + self.heatmap.shape, fill, dtype=dtype)
        x, y = self.cells.T
        plane[..., y, x] = column.T
        return plane

    @cached_property
    def offsets(self) -> np.ndarray:
        return self._dense(self.values[:, :2], 0.0, np.float64)

    @cached_property
    def sizes(self) -> np.ndarray:
        return self._dense(self.values[:, 2:], 0.0, np.float64)

    @cached_property
    def center_mask(self) -> np.ndarray:
        return self._dense(np.ones(len(self.cells), dtype=bool), False, bool)


def quantize_center(box: BBox, grid: GridSpec) -> tuple[int, int, tuple[float, float]]:
    """Quantize a box center onto the feature grid.

    Returns the integer cell (cx, cy) and the fractional offset
    (center/stride - cell), each component in [0, 1).  Raises ValueError
    when the quantized center falls outside the grid.
    """
    cx, cy = box.center
    qx = math.floor(cx / grid.stride)
    qy = math.floor(cy / grid.stride)
    if not (0 <= qx < grid.feat_w and 0 <= qy < grid.feat_h):
        raise ValueError(
            f"center ({cx}, {cy}) quantizes to ({qx}, {qy}), outside "
            f"{grid.feat_w}x{grid.feat_h} grid"
        )
    return qx, qy, (cx / grid.stride - qx, cy / grid.stride - qy)


def _min_overlap_radius(w: float, h: float) -> float:
    """Largest corner displacement (feature cells) keeping IoU >= MIN_OVERLAP.

    Three displacement cases, each a quadratic ``a r^2 - b r + c = 0`` in the
    radius; the meaningful root is taken per case and the tightest case wins.
    """
    # both corners shift inward
    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1.0 - MIN_OVERLAP) / (1.0 + MIN_OVERLAP)
    r1 = (b1 - math.sqrt(b1 * b1 - 4.0 * a1 * c1)) / (2.0 * a1)

    # both corners shift outward
    a2 = 4.0
    b2 = 2.0 * (h + w)
    c2 = (1.0 - MIN_OVERLAP) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4.0 * a2 * c2)) / (2.0 * a2)

    # one inward, one outward; c3 < 0 so the roots straddle zero
    a3 = 4.0 * MIN_OVERLAP
    b3 = -2.0 * MIN_OVERLAP * (h + w)
    c3 = (MIN_OVERLAP - 1.0) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4.0 * a3 * c3)) / (2.0 * a3)

    return min(r1, r2, r3)


def gaussian_radius_sigma(size: tuple[float, float], grid: GridSpec) -> float:
    """Size-adaptive Gaussian standard deviation on the feature grid.

    The radius comes from the ``MIN_OVERLAP`` corner-displacement bound on
    the stride-scaled box, floored at 0; sigma is radius/3, clamped below
    by ``MIN_SIGMA``.
    """
    w, h = size
    if w <= 0 or h <= 0:
        raise ValueError(f"object size must be positive, got {w:g}x{h:g}")
    r = _min_overlap_radius(w / grid.stride, h / grid.stride)
    return max(max(r, 0.0) / 3.0, MIN_SIGMA)


_KERNEL_CACHE_SIZE = 64  # sigmas whose windows are kept
# a wider window is evaluated over its on-grid part only, so a cached one
# holds at most 129 x 129 float64 (133 kB) and the cache at most 8.5 MB
_MAX_KERNEL_RADIUS = 64


def _window_radius(sigma: float) -> int:
    return math.ceil(math.sqrt(208.0) * sigma) + 1


def _gaussian(xs: range, ys: range, sigma: float) -> np.ndarray:
    """exp(-(dx^2 + dy^2) / (2 sigma^2)) at the integer offsets ``xs`` (columns)
    and ``ys`` (rows) from the center."""
    dx = np.arange(xs.start, xs.stop, dtype=np.float64)[None, :]
    dy = np.arange(ys.start, ys.stop, dtype=np.float64)[:, None]
    return np.exp(-(dx ** 2 + dy ** 2) / (2.0 * sigma * sigma))


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel(sigma: float) -> np.ndarray:
    """The whole read-only window of ``sigma``, centered: (2r + 1, 2r + 1)."""
    r = _window_radius(sigma)
    kernel = _gaussian(range(-r, r + 1), range(-r, r + 1), sigma)
    kernel.flags.writeable = False
    return kernel


def stamp_gaussian(heatmap: np.ndarray, cx: int, cy: int, sigma: float) -> None:
    """Max a unit-peak Gaussian centered on cell (cx, cy) into ``heatmap`` in place.

    Only the window of radius ``ceil(sqrt(208) * sigma) + 1`` cells around
    the center is stamped.  Beyond it the exponent is below -104 and the
    value below exp(-104) ~ 6.8e-46, which rounds to 0 in float32 (half
    the smallest subnormal is 7.0e-46), so the stored maps are the same as
    for a full-grid stamp; cells outside the window keep their old value.
    A window of radius up to 64 is evaluated once per sigma and cached;
    the values are the same float expression on the same integer offsets,
    so they equal a fresh evaluation bit for bit.
    """
    h, w = heatmap.shape
    r = _window_radius(sigma)
    y0, y1 = max(cy - r, 0), min(cy + r + 1, h)
    x0, x1 = max(cx - r, 0), min(cx + r + 1, w)
    if y0 >= y1 or x0 >= x1:  # window off the grid; a negative stop would wrap
        return
    if r <= _MAX_KERNEL_RADIUS:
        g = _kernel(sigma)[y0 - cy + r:y1 - cy + r, x0 - cx + r:x1 - cx + r]
    else:
        g = _gaussian(range(x0 - cx, x1 - cx), range(y0 - cy, y1 - cy), sigma)
    window = heatmap[y0:y1, x0:x1]
    np.maximum(window, g, out=window)


def encode_targets(objects: list[GtObject] | tuple[np.ndarray, np.ndarray], grid: GridSpec,
                   num_identities: int) -> TargetMaps:
    """Build the supervision bundle for one frame.

    ``objects`` is a list of ``GtObject``, or the same objects as a pair
    of columns: (N, 4) box corners (x1, y1, x2, y2) and (N,) identity
    indices.  Objects whose quantized center falls outside the grid (or
    is not a number) are dropped and counted in ``rejected``.  When
    several objects claim one cell the largest-area one is kept, the
    earliest of equals, and the others are counted in ``collisions``.
    Centers are quantized as ``quantize_center`` does, on whole columns.
    """
    if isinstance(objects, tuple):
        boxes, identity = objects
    else:
        boxes = corners([obj.box for obj in objects])
        identity = np.fromiter((obj.identity for obj in objects), np.int64, len(objects))
    n = len(boxes)
    over = np.flatnonzero((identity < 0) | (identity >= num_identities))
    if over.size:
        raise ValueError(f"identity {identity[over[0]]} out of range for "
                         f"{num_identities} identities")

    x1, y1, x2, y2 = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):  # absurd boxes land off the grid
        fx, fy = (x1 + x2) / 2.0 / grid.stride, (y1 + y2) / 2.0 / grid.stride
        w, h = x2 - x1, y2 - y1
        area = w * h
    qx, qy = np.floor(fx), np.floor(fy)
    k = np.flatnonzero((qx >= 0) & (qx < grid.feat_w) & (qy >= 0) & (qy < grid.feat_h))
    cell = qy[k].astype(np.int64) * grid.feat_w + qx[k].astype(np.int64)
    order = np.lexsort((k, -area[k], cell))  # by cell, largest area first, then input order
    starts = np.flatnonzero(np.diff(cell[order], prepend=-1))
    win = k[order[starts]]  # one object per cell, in row-major cell order

    heat = np.zeros((grid.feat_h, grid.feat_w), dtype=np.float64)
    cells = np.stack([qx[win], qy[win]], axis=1).astype(np.int64)
    # stamped in the order the cells were first claimed, so a zero-size
    # winner raises where an object-by-object encoder would
    claimed = np.argsort(np.minimum.reduceat(k[order], starts))
    for (x, y), size in zip(cells[claimed].tolist(),
                            np.stack([w, h], axis=1)[win[claimed]].tolist()):
        stamp_gaussian(heat, x, y, gaussian_radius_sigma(size, grid))

    return TargetMaps(
        heatmap=heat,
        cells=cells,
        identities=identity[win],
        values=np.stack([fx[win] - qx[win], fy[win] - qy[win], w[win], h[win]], axis=1),
        collisions=k.size - win.size,
        rejected=n - k.size,
    )
