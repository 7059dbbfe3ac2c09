"""Predicted maps to scored detections.

Peaks on the center heatmap become boxes via the offset and size heads;
the embedding map is sampled at each center, either at the integer cell
or bilinearly at the sub-cell position.  A peak is CenterNet's 3x3 local
maximum above the score threshold.  The search runs threshold-first: the
candidates are the cells above the threshold, and a candidate is a peak
when it is >= each of its 8 neighbours (a neighbour off the grid counts
as -inf), which is the dense 3x3 maximum filter's rule on those cells.
``decode`` gathers the peaks' offsets, sizes and embeddings in one pass
per frame and clips, filters and normalizes them as columns before it
builds the ``Detection`` list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, GridSpec

DEFAULT_THRESHOLD = 0.4
DEFAULT_TOP_K = 128

# Row and column steps to the 8 neighbours of a cell.
_DY = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_DX = np.array([-1, 0, 1, -1, 1, -1, 0, 1])


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


def check_peak_args(threshold: float, top_k: int) -> None:
    """Raise ValueError unless 0 < threshold < 1 and top_k >= 1."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")


def _peaks(heatmap, threshold: float, top_k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and scores of the peaks of an (H, W) heatmap, at most top_k.

    A peak is a cell above ``threshold`` and equal to its 3x3
    neighborhood max; plateau ties are all kept.  Peaks come by
    descending score, then row, then column.
    """
    check_peak_args(threshold, top_k)
    h = np.asarray(heatmap, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"heatmap must be 2-d, got shape {h.shape}")
    fh, fw = h.shape
    cells = np.flatnonzero(h > threshold)  # a 2-d nonzero costs several times more
    ys, xs = np.divmod(cells, fw)
    scores = h.ravel()[cells]
    ny, nx = ys[:, None] + _DY, xs[:, None] + _DX  # (K, 8)
    on = (ny >= 0) & (ny < fh) & (nx >= 0) & (nx < fw)
    around = np.where(on, h[np.clip(ny, 0, fh - 1), np.clip(nx, 0, fw - 1)], -np.inf)
    peak = (scores[:, None] >= around).all(axis=1)  # False beside a NaN, as the dense max
    ys, xs, scores = ys[peak], xs[peak], scores[peak]
    order = np.lexsort((xs, ys, -scores))[:top_k]
    return ys[order], xs[order], scores[order]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Per-row L2 norms of a (K, C) array, bit-equal to ``np.linalg.norm`` of each row.

    Each norm is one dot of the row with itself, as ``np.linalg.norm``
    takes it for a vector.
    """
    v = np.ascontiguousarray(v)  # a strided row would take another BLAS kernel
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _bilinear(emb: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """4-neighbor blend of each channel of a (C, H, W) map at K points inside it, as (K, C)."""
    _, h, w = emb.shape
    outside = np.flatnonzero(~((0.0 <= px) & (px <= w - 1) & (0.0 <= py) & (py <= h - 1)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"sample point ({px[i]}, {py[i]}) outside {w}x{h} map")
    x0, y0 = np.floor(px).astype(np.int64), np.floor(py).astype(np.int64)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (px - x0)[:, None], (py - y0)[:, None]
    top = (1.0 - fx) * emb[:, y0, x0].T + fx * emb[:, y0, x1].T
    bot = (1.0 - fx) * emb[:, y1, x0].T + fx * emb[:, y1, x1].T
    return (1.0 - fy) * top + fy * bot


def decode(heat, offsets, sizes, emb, grid: GridSpec,
           threshold: float = DEFAULT_THRESHOLD, top_k: int = DEFAULT_TOP_K,
           sampling: Sampling = Sampling.CENTER) -> list[Detection]:
    """Decode one frame of maps into detections.

    ``heat`` is an (H, W) map, ``offsets`` and ``sizes`` (2, H, W) and
    ``emb``, if given, (C, H, W), with (H, W) the grid's feature size.
    Box centers are (cell + offset) * stride, extents are the size head's
    image-pixel values, clipped to image bounds.  Candidates whose box
    degenerates after clipping (non-positive extent) are dropped, then
    those whose sampled embedding has a norm under 1e-12.  Embeddings are
    L2-normalized after sampling.
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

    ys, xs, score = _peaks(heat, threshold, top_k)
    fx, fy = xs + off[0, ys, xs], ys + off[1, ys, xs]  # the centers on the feature grid
    cx, cy = fx * grid.stride, fy * grid.stride
    sw, sh = size[0, ys, xs] / 2.0, size[1, ys, xs] / 2.0
    # np.where in the argument order of max(a, lo) and min(a, hi), which keep a on ties
    x1, y1 = (np.where(0.0 > a, 0.0, a) for a in (cx - sw, cy - sh))
    x2, y2 = (np.where(hi < a, hi, a) for a, hi in ((cx + sw, float(grid.image_w)),
                                                    (cy + sh, float(grid.image_h))))
    keep = np.flatnonzero(~((x2 <= x1) | (y2 <= y1)))
    unit = None
    if emb is not None:
        if sampling is Sampling.CENTER_BI:
            px, py = (np.where(0.0 > a, 0.0, a) for a in (fx[keep], fy[keep]))
            px, py = (np.where(hi < a, hi, a) for a, hi in ((px, fw - 1.0), (py, fh - 1.0)))
            v = _bilinear(emb, px, py)
        else:
            v = emb[:, ys[keep], xs[keep]].T
        n = row_norms(v)
        ok = ~(n < 1e-12)  # a NaN norm is kept, and its Detection refuses it
        keep = keep[ok]
        unit = v[ok] / n[ok, None]

    boxes = np.stack([x1, y1, x2, y2], axis=1)[keep].tolist()
    scores = np.where(1.0 < score, 1.0, score)[keep].tolist()
    centers = zip(fx[keep].tolist(), fy[keep].tolist())
    embeddings = [None] * len(boxes) if unit is None else unit
    return [Detection(BBox(*b), s, e, c)
            for b, s, e, c in zip(boxes, scores, embeddings, centers)]
