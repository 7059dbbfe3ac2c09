"""Predicted maps to scored detections.

Peaks on the center heatmap (3x3 local maxima above a score threshold)
become boxes via the offset and size heads; the embedding map is sampled
at each center, either at the integer cell or bilinearly at the
sub-cell position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, GridSpec

DEFAULT_THRESHOLD = 0.4
DEFAULT_TOP_K = 128


class Sampling(enum.Enum):
    CENTER = "center"
    CENTER_BI = "center-bi"


@dataclass(frozen=True)
class Detection:
    """One decoded object: image-pixel box, confidence, optional unit embedding."""

    box: BBox
    score: float
    embedding: np.ndarray | None = None
    center_feat: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=np.float64).ravel()
            if not np.isfinite(emb).all():
                raise ValueError("embedding has a non-finite entry")
            n = np.linalg.norm(emb)
            if abs(n - 1.0) > 1e-6:
                raise ValueError(f"embedding norm {n} is not 1")
            object.__setattr__(self, "embedding", emb)


def peak_nms(heatmap, threshold: float = DEFAULT_THRESHOLD,
             top_k: int = DEFAULT_TOP_K) -> list[tuple[int, int, float]]:
    """Cells of an (H, W) heatmap equal to their 3x3 neighborhood max and above threshold.

    Plateau ties are all kept.  Returns (x, y, score) sorted by
    descending score (then row, column for equal scores), at most top_k.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    h = np.asarray(heatmap, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"heatmap must be 2-d, got shape {h.shape}")
    # The second max of each pass is taken in place: two scratch planes
    # instead of four.  Decoding a sequence frees this scratch every frame,
    # and a larger scratch is handed back to the OS and faulted in again.
    pad = np.pad(h, 1, constant_values=-np.inf)
    rows = np.maximum(pad[:-2], pad[1:-1])
    np.maximum(rows, pad[2:], out=rows)
    local_max = np.maximum(rows[:, :-2], rows[:, 1:-1])
    np.maximum(local_max, rows[:, 2:], out=local_max)
    ys, xs = np.nonzero((h == local_max) & (h > threshold))
    scores = h[ys, xs]
    order = np.lexsort((xs, ys, -scores))
    return [(int(xs[i]), int(ys[i]), float(scores[i])) for i in order[:top_k]]


def bilinear_sample(emb, x: float, y: float) -> np.ndarray:
    """4-neighbor bilinear blend of each channel of a (C, H, W) map at (x, y), border-clamped."""
    m = np.asarray(emb, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"embedding map must be 3-d, got shape {m.shape}")
    _, h, w = m.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        raise ValueError(f"sample point ({x}, {y}) outside {w}x{h} map")
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = (1.0 - fx) * m[:, y0, x0] + fx * m[:, y0, x1]
    bot = (1.0 - fx) * m[:, y1, x0] + fx * m[:, y1, x1]
    return (1.0 - fy) * top + fy * bot


def decode(heat, offsets, sizes, emb, grid: GridSpec,
           threshold: float = DEFAULT_THRESHOLD, top_k: int = DEFAULT_TOP_K,
           sampling: Sampling = Sampling.CENTER) -> list[Detection]:
    """Decode one frame of maps into detections.

    ``heat`` is an (H, W) map, ``offsets`` and ``sizes`` (2, H, W) and
    ``emb``, if given, (C, H, W), with (H, W) the grid's feature size.
    Box centers are (cell + offset) * stride, extents are the size head's
    image-pixel values, clipped to image bounds.  Candidates whose box
    degenerates after clipping (non-positive extent) are dropped.
    Embeddings are L2-normalized after sampling.
    """
    fh, fw = grid.feat_h, grid.feat_w
    heat, off, size = (np.asarray(m, dtype=np.float64) for m in (heat, offsets, sizes))
    if heat.shape != (fh, fw):
        raise ValueError(f"heatmap shape {heat.shape} does not match grid {fh}x{fw}")
    for name, m in (("offsets", off), ("sizes", size)):
        if m.shape != (2, fh, fw):
            raise ValueError(f"{name} map shape mismatch")
    if emb is not None:
        emb = np.asarray(emb, dtype=np.float64)
        if emb.ndim != 3 or emb.shape[1:] != (fh, fw):
            raise ValueError("embedding map shape mismatch")

    out = []
    for x, y, score in peak_nms(heat, threshold, top_k):
        ox, oy = off[0, y, x], off[1, y, x]
        sw, sh = size[0, y, x], size[1, y, x]
        cx = (x + ox) * grid.stride
        cy = (y + oy) * grid.stride
        x1 = max(cx - sw / 2.0, 0.0)
        y1 = max(cy - sh / 2.0, 0.0)
        x2 = min(cx + sw / 2.0, float(grid.image_w))
        y2 = min(cy + sh / 2.0, float(grid.image_h))
        if x2 <= x1 or y2 <= y1:
            continue
        e = None
        if emb is not None:
            if sampling is Sampling.CENTER_BI:
                fx = min(max(x + ox, 0.0), fw - 1.0)
                fy = min(max(y + oy, 0.0), fh - 1.0)
                v = bilinear_sample(emb, fx, fy)
            else:
                v = emb[:, y, x]
            n = np.linalg.norm(v)
            if n < 1e-12:
                continue
            e = v / n
        out.append(Detection(box=BBox(x1, y1, x2, y2), score=min(score, 1.0),
                             embedding=e, center_feat=(x + ox, y + oy)))
    return out
