"""Ground-truth frames to supervision maps.

Each annotated object contributes:
  - a Gaussian peak on the center heatmap (value exactly 1 at the
    quantized center cell),
  - the sub-cell center offset and the box size (image pixels) at that
    cell,
  - its identity class index at that cell.

Overlapping Gaussians combine with an element-wise max so the heatmap
stays in [0, 1] and is exactly 1 at every retained center.

`TargetMaps` holds the heatmap, offset and size heads as plain float64
numpy arrays, the maps the losses and `decoding.decode` take, beside a
dense identity grid.  Only the retained centers carry offset, size and
identity values, so the `encode` CLI writes just the heatmap densely and
the rest as one ``centers.txt`` row per center (cell, identity, offset,
size), the sparse per-object form CenterNet and FairMOT train from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, GridSpec

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
    """Supervision bundle for one frame.

    ``center_mask`` has exactly one true cell per retained object;
    ``identity_index`` is -1 everywhere the mask is false.  ``collisions``
    counts objects dropped because another (larger) object claimed the
    same cell, ``rejected`` counts objects whose quantized center fell
    outside the grid.
    """

    heatmap: np.ndarray         # (H, W) float64
    offsets: np.ndarray         # (2, H, W) float64
    sizes: np.ndarray           # (2, H, W) float64
    center_mask: np.ndarray     # (H, W) bool
    identity_index: np.ndarray  # (H, W) int64
    num_objects: int
    collisions: int = 0
    rejected: int = 0


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


def _min_overlap_radius(w: float, h: float, min_overlap: float) -> float:
    """Largest corner displacement (feature cells) keeping IoU >= min_overlap.

    Three displacement cases, each a quadratic ``a r^2 - b r + c = 0`` in the
    radius; the meaningful root is taken per case and the tightest case wins.
    """
    # both corners shift inward
    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1.0 - min_overlap) / (1.0 + min_overlap)
    r1 = (b1 - math.sqrt(b1 * b1 - 4.0 * a1 * c1)) / (2.0 * a1)

    # both corners shift outward
    a2 = 4.0
    b2 = 2.0 * (h + w)
    c2 = (1.0 - min_overlap) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4.0 * a2 * c2)) / (2.0 * a2)

    # one inward, one outward; c3 < 0 so the roots straddle zero
    a3 = 4.0 * min_overlap
    b3 = -2.0 * min_overlap * (h + w)
    c3 = (min_overlap - 1.0) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4.0 * a3 * c3)) / (2.0 * a3)

    return min(r1, r2, r3)


def gaussian_radius_sigma(size: tuple[float, float], grid: GridSpec,
                          min_overlap: float = MIN_OVERLAP,
                          min_sigma: float = MIN_SIGMA) -> float:
    """Size-adaptive Gaussian standard deviation on the feature grid.

    The radius comes from the min-overlap corner-displacement bound on the
    stride-scaled box, floored at 0; sigma is radius/3, clamped below by
    ``min_sigma``.
    """
    w, h = size
    if w <= 0 or h <= 0:
        raise ValueError(f"object size must be positive, got {w}x{h}")
    r = _min_overlap_radius(w / grid.stride, h / grid.stride, min_overlap)
    return max(max(r, 0.0) / 3.0, min_sigma)


def stamp_gaussian(heatmap: np.ndarray, cx: int, cy: int, sigma: float) -> None:
    """Max a unit-peak Gaussian centered on cell (cx, cy) into ``heatmap`` in place.

    Only the window of radius ``ceil(sqrt(208) * sigma) + 1`` cells around
    the center is stamped.  Beyond it the exponent is below -104 and the
    value below exp(-104) ~ 6.8e-46, which rounds to 0 in float32 (half
    the smallest subnormal is 7.0e-46), so the stored maps are the same as
    for a full-grid stamp; cells outside the window keep their old value.
    """
    h, w = heatmap.shape
    r = math.ceil(math.sqrt(208.0) * sigma) + 1
    y0, y1 = max(cy - r, 0), min(cy + r + 1, h)
    x0, x1 = max(cx - r, 0), min(cx + r + 1, w)
    if y0 >= y1 or x0 >= x1:  # window off the grid; a negative stop would wrap
        return
    ys = np.arange(y0, y1, dtype=np.float64)[:, None]
    xs = np.arange(x0, x1, dtype=np.float64)[None, :]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    window = heatmap[y0:y1, x0:x1]
    np.maximum(window, g, out=window)


def encode_targets(objects: list[GtObject], grid: GridSpec, num_identities: int) -> TargetMaps:
    """Build the full supervision bundle for one frame.

    Objects whose quantized center falls outside the grid are dropped and
    counted in ``rejected``.  When two objects claim the same cell the
    larger-area one is kept and the loser counted in ``collisions``.
    """
    fh, fw = grid.feat_h, grid.feat_w
    heat = np.zeros((fh, fw), dtype=np.float64)
    offsets = np.zeros((2, fh, fw), dtype=np.float64)
    sizes = np.zeros((2, fh, fw), dtype=np.float64)
    mask = np.zeros((fh, fw), dtype=bool)
    identity = np.full((fh, fw), -1, dtype=np.int64)

    rejected = 0
    collisions = 0
    by_cell: dict[tuple[int, int], tuple[GtObject, tuple[float, float]]] = {}
    for obj in objects:
        if obj.identity >= num_identities:
            raise ValueError(
                f"identity {obj.identity} out of range for {num_identities} identities"
            )
        try:
            qx, qy, off = quantize_center(obj.box, grid)
        except ValueError:
            rejected += 1
            continue
        prev = by_cell.get((qx, qy))
        if prev is not None:
            collisions += 1
            if obj.box.area <= prev[0].box.area:
                continue
        by_cell[(qx, qy)] = (obj, off)

    for (qx, qy), (obj, off) in by_cell.items():
        sigma = gaussian_radius_sigma((obj.box.width, obj.box.height), grid)
        stamp_gaussian(heat, qx, qy, sigma)
        mask[qy, qx] = True
        offsets[0, qy, qx] = off[0]
        offsets[1, qy, qx] = off[1]
        sizes[0, qy, qx] = obj.box.width
        sizes[1, qy, qx] = obj.box.height
        identity[qy, qx] = obj.identity

    return TargetMaps(
        heatmap=heat,
        offsets=offsets,
        sizes=sizes,
        center_mask=mask,
        identity_index=identity,
        num_objects=len(by_cell),
        collisions=collisions,
        rejected=rejected,
    )
