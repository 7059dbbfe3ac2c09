"""Tracking and verification metrics.

Each side of a call is a ``geometry.MotTable`` (the tracking metrics read
its ids, detection AP the predictions' conf as scores), as ``read_mot``
returns a MOT file and ``sim.generate`` its ground truth, or a dict of
frames: ``{frame: [(id, BBox), ...]}`` for tracking metrics,
``{frame: [BBox, ...]}`` and ``{frame: [(score, BBox), ...]}`` for
detection AP, which becomes the same columns on entry.  Correspondence
uses IoU >= 0.5 unless stated; the threshold must lie in (0, 1].

Every call makes one overlap pass.  Both sides' frame-ordered columns
(row offsets per frame, ids and an ``(N, 4)`` corner array) are aligned
on the union of their frames.  Same-frame pairs are tested for
overlapping x and y extents in chunks of consecutive frames, one
broadcast over a chunk's padded frames x rows x columns cells, and IoU
is computed for the pairs that pass by the elementwise kernel behind
``iou_matrix``, so each value is bit-equal to the dense entry.  The metrics read the resulting
(row, column, IoU) triples with IoU > 0; a pair left out has IoU 0,
which no threshold in (0, 1] admits.

Matching.  CLEAR MOT keeps a frame's correspondences from the previous
frame on the union of the sides' frames, where a dict's empty frame reads
as absent, as in the table of the same rows.  It passes the frame's free
triples, as (gt row, pred row, 1 - IoU) pairs, to
``assignment.solve_pairs``: maximum cardinality first, then the most IoU.
IDF1 maximises the frames covered instead, which cardinality first can
lose (a gt id 5 frames with pred A and 1 with pred B, beside a second gt
id 1 frame with A: two pairs cover 2 frames, A alone covers 5).
It labels the components of its counted (gt id, pred id) cells with
``assignment.components`` and solves each on its own, absent cells at 0,
so no ids x ids matrix is built; a block with more than one row and
column is one component with every cell allowed, so it goes straight to
``assignment.solve_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .assignment import components, solve_block, solve_pairs
from .geometry import BBox, MotTable, _iou_kernel, corners

Frames = dict[int, list[tuple[int, BBox]]]
Side = Frames | MotTable  # a tracking metric's input: (id, box) pairs per frame, or a table

# Most padded (frames x rows x columns) cells that one chunk of the overlap
# pass tests at once; a frame larger than this is a chunk of its own.
# Measured on a 2-vCPU x86-64 host: at 2^16 the pass takes 2.4 ms over 500
# frames of 10 x 12 boxes and 4.5 ms over 10 frames of 200 x 210, with
# 0.7 and 1.4 MB traced at its peak; 2^12 pays per-chunk overhead on small
# frames (3.6 ms on the first), and 2^18 is at most 11% faster while its
# peak grows to 1.2 and 1.6 MB.
_CHUNK_CELLS = 1 << 16

@dataclass(frozen=True)
class MetricsReport:
    mota: float
    fp: int
    fn: int
    id_switches: int
    mt_ratio: float
    ml_ratio: float
    num_gt: int
    idf1: float | None = None


def _check_thresh(iou_thresh: float) -> None:
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_thresh}")


def _table(side: dict | MotTable, kind: str) -> MotTable:
    """A metric input as a table: a ``MotTable`` as it is, or a dict of
    frames, whose entries are (id, box) pairs (``kind`` "ids"), (score,
    box) pairs ("scores") or boxes ("boxes").  A dict's empty frame is
    left out, as no table can hold one."""
    if not isinstance(side, dict):
        return side
    frames = sorted(f for f in side if side[f])
    start = np.zeros(len(frames) + 1, dtype=np.int64)
    np.cumsum([len(side[f]) for f in frames], out=start[1:])
    rows = list(chain.from_iterable(side[f] for f in frames))
    unread = np.broadcast_to(0.0, len(rows))  # a column the metric does not read, not stored
    if kind == "boxes":
        values, boxes = unread, rows
    else:
        values, boxes = np.array([v for v, _ in rows]), [box for _, box in rows]
    return MotTable(np.array(frames, dtype=np.int64), start, values if kind == "ids" else unread,
                    corners(boxes), values if kind == "scores" else unread)


def _aligned(a: MotTable, b: MotTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of two tables' frames, and each table's row offsets over it."""
    # not np.union1d: its plain np.unique imports numpy.ma (about 1 MB) on first use
    frames = np.sort(np.concatenate([a.frames, b.frames]))
    first = np.ones(len(frames), dtype=bool)
    first[1:] = frames[1:] != frames[:-1]
    frames = frames[first]
    starts = []
    for side in (a, b):
        counts = np.zeros(len(frames), dtype=np.int64)
        counts[np.searchsorted(frames, side.frames)] = np.diff(side.start)
        starts.append(np.concatenate([[0], np.cumsum(counts)]))
    return frames, *starts


def _padded(start: np.ndarray, box: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and corners of consecutive frames, each padded to ``width`` rows,
    as (frame, row) and (corner, frame, row) arrays.

    Pads, and boxes of zero width or height, which overlap nothing, get
    the corners (inf, inf, -inf, -inf): no extent test passes on them.
    """
    rows = start[:-1, None] + np.arange(width)
    padded = box[np.minimum(rows, len(box) - 1)]
    x1, y1, x2, y2 = padded.transpose(2, 0, 1)
    padded[(rows >= start[1:, None]) | ~(x1 < x2) | ~(y1 < y2)] = (
        np.inf, np.inf, -np.inf, -np.inf)
    return rows, padded.transpose(2, 0, 1)


def _overlaps(a_start: np.ndarray, a_box: np.ndarray,
              b_start: np.ndarray, b_box: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-frame (a row, b row, IoU) triples with IoU > 0, by a row then b row.

    Both sides' rows are in frame order, ``*_start`` their row offsets
    over the same frames.
    """
    na, nb = np.diff(a_start).tolist(), np.diff(b_start).tolist()
    found_a, found_b = [], []
    first, frames = 0, len(na)
    while first < frames:
        g = p = 0
        end = first
        while end < frames:
            g2, p2 = max(g, na[end]), max(p, nb[end])
            if end > first and (end + 1 - first) * g2 * p2 > _CHUNK_CELLS:
                break
            g, p, end = g2, p2, end + 1
        if g and p:
            ra, (ax1, ay1, ax2, ay2) = _padded(a_start[first:end + 1], a_box, g)
            rb, (bx1, by1, bx2, by2) = _padded(b_start[first:end + 1], b_box, p)
            # extents overlap: x1 < the other's x2 both ways, and so in y;
            # with x1 < x2 and y1 < y2 per box, that is ix > 0 and iy > 0
            hit = ax1[:, :, None] < bx2[:, None, :]
            hit &= bx1[:, None, :] < ax2[:, :, None]
            hit &= ay1[:, :, None] < by2[:, None, :]
            hit &= by1[:, None, :] < ay2[:, :, None]
            fi, j = np.divmod(np.flatnonzero(hit), p)  # fi = frame * g + row
            found_a.append(ra.reshape(-1)[fi])
            found_b.append(rb[fi // g, j])
        first = end
    ra = np.concatenate(found_a) if found_a else np.zeros(0, dtype=np.int64)
    rb = np.concatenate(found_b) if found_b else np.zeros(0, dtype=np.int64)
    iou = _iou_kernel(a_box[ra], b_box[rb])
    keep = iou > 0.0
    return ra[keep], rb[keep], iou[keep]


@dataclass(frozen=True)
class _Pass:
    """A tracking evaluation's rows and overlapping pairs, frames in order.

    Ids are dense codes, one per distinct id of a side.  The pairs are
    sorted by gt row, then pred row.
    """

    g_start: np.ndarray  # (F + 1,) gt row offsets per frame
    p_start: np.ndarray  # (F + 1,) pred row offsets per frame
    g_id: np.ndarray     # (G,) gt id code of each gt row
    p_id: np.ndarray     # (P,) pred id code of each pred row
    n_gid: int           # distinct gt ids
    n_pid: int           # distinct pred ids
    g: np.ndarray        # (K,) gt row of each overlapping pair
    p: np.ndarray        # (K,) pred row
    iou: np.ndarray      # (K,) their IoU, > 0


def _first_repeat(start: np.ndarray, code: np.ndarray) -> tuple[int, int] | None:
    """(frame position, row) of the earliest row whose id its frame already had."""
    frame = np.repeat(np.arange(len(start) - 1), np.diff(start))
    order = np.lexsort((code, frame))  # stable: a repeat sorts after its first
    f, c = frame[order], code[order]
    repeats = order[1:][(f[1:] == f[:-1]) & (c[1:] == c[:-1])]
    if not repeats.size:
        return None
    row = int(repeats.min())
    return int(frame[row]), row


def _tracking_pass(gt: Side, pred: Side) -> _Pass:
    """Align both sides on their frames, refuse a repeated id within a
    frame, find the overlaps."""
    gt, pred = _table(gt, "ids"), _table(pred, "ids")
    frames, g_start, p_start = _aligned(gt, pred)
    sides, offences = [], []
    for rank, (kind, side, start) in enumerate((("gt", gt, g_start), ("pred", pred, p_start))):
        unique, code = np.unique(side.ids, return_inverse=True)
        code = code.reshape(-1)
        repeat = _first_repeat(start, code)
        if repeat is not None:  # frames in order, gt before pred within one
            f, row = repeat
            offences.append((f, rank, f"duplicate {kind} id {side.ids[row]} "
                                      f"in frame {frames[f]}"))
        sides.append((start, code, len(unique), side.boxes))
    if offences:
        raise ValueError(min(offences)[2])
    (g_start, g_id, n_gid, g_box), (p_start, p_id, n_pid, p_box) = sides
    g, p, iou = _overlaps(g_start, g_box, p_start, p_box)
    return _Pass(g_start, p_start, g_id, p_id, n_gid, n_pid, g, p, iou)


def _rematch(ov: _Pass, f: int, free: list[int], g: np.ndarray, p: np.ndarray,
             iou: np.ndarray) -> list[int]:
    """The free pairs ``solve_pairs`` matches by maximum IoU in frame f."""
    lo_g, lo_p = ov.g_start[f], ov.p_start[f]
    n, m = ov.g_start[f + 1] - lo_g, ov.p_start[f + 1] - lo_p
    i, j = g[free] - lo_g, p[free] - lo_p  # rows within the frame, in row-major order
    mi, mj = solve_pairs(n, m, i, j, 1.0 - iou[free])
    return np.asarray(free)[np.searchsorted(i * m + j, mi * m + mj)].tolist()


def _clear_mot(ov: _Pass, iou_thresh: float) -> MetricsReport:
    hit = ov.iou >= iou_thresh
    g, p, iou = ov.g[hit], ov.p[hit], ov.iou[hit]
    gid, pid = ov.g_id[g], ov.p_id[p]
    at = np.searchsorted(g, ov.g_start).tolist()  # each frame's pairs
    key = (gid * ov.n_pid + pid).tolist()
    gid_l, pid_l = gid.tolist(), pid.tolist()

    prev: set[int] = set()  # keys of the previous frame's correspondences
    matched: list[int] = []  # pairs matched, frame by frame
    for f in range(len(at) - 1):
        lo, hi = at[f], at[f + 1]
        kept = [k for k in range(lo, hi) if key[k] in prev]
        if len(kept) < hi - lo:
            kg = {gid_l[k] for k in kept}
            kp = {pid_l[k] for k in kept}
            free = [k for k in range(lo, hi) if gid_l[k] not in kg and pid_l[k] not in kp]
            if len({gid_l[k] for k in free}) == len(free) == len({pid_l[k] for k in free}):
                kept += free  # no two share a row or a column: all would match
            else:
                kept += _rematch(ov, f, free, g, p, iou)
        prev = {key[k] for k in kept}
        matched += kept

    matched_gid, matched_pid = gid[matched], pid[matched]
    total_gt, total_pred = len(ov.g_id), len(ov.p_id)
    fn = total_gt - len(matched)
    fp = total_pred - len(matched)
    # a switch: a gt id's match differs from its previous one, gaps included
    order = np.argsort(matched_gid, kind="stable")
    sg, sp = matched_gid[order], matched_pid[order]
    idsw = int(np.count_nonzero((sg[1:] == sg[:-1]) & (sp[1:] != sp[:-1])))

    mota = 1.0 - (fp + fn + idsw) / total_gt if total_gt > 0 else 1.0
    n_traj = ov.n_gid
    cov = (np.bincount(matched_gid, minlength=n_traj)
           / np.bincount(ov.g_id, minlength=n_traj))
    mt = int(np.count_nonzero(cov >= 0.8))
    ml = int(np.count_nonzero(cov <= 0.2))
    return MetricsReport(
        mota=mota, fp=fp, fn=fn, id_switches=idsw,
        mt_ratio=mt / n_traj if n_traj else 0.0,
        ml_ratio=ml / n_traj if n_traj else 0.0,
        num_gt=total_gt,
    )


def _idf1(ov: _Pass, iou_thresh: float) -> float:
    """IDF1 from the pass; IDTP is the most frames that one-to-one pairs of
    gt and pred ids cover, however few pairs that takes."""
    total_gt, total_pred = len(ov.g_id), len(ov.p_id)
    if total_gt + total_pred == 0:
        return 1.0
    hit = ov.iou >= iou_thresh
    if not hit.any():
        return 0.0
    # the frames each (gt id, pred id) cell counts, cells in row-major order
    cell, count = np.unique(ov.g_id[ov.g[hit]] * ov.n_pid + ov.p_id[ov.p[hit]],
                            return_counts=True)
    row, col = np.divmod(cell, ov.n_pid)
    # A pair with no frame counts 0, so each component of the counted cells
    # is solved on its own: a lone cell counts whole, a component with one
    # row or one column its largest cell, and any other is a dense block of
    # its own ids with its absent cells at 0, all allowed.
    single = ((np.bincount(row, minlength=ov.n_gid)[row] == 1)
              & (np.bincount(col, minlength=ov.n_pid)[col] == 1))
    idtp = int(count[single].sum())
    row, col, count = row[~single], col[~single], count[~single]
    for k, r_at, c_at in components(ov.n_gid, ov.n_pid, row, col):
        if len(r_at) == 1 or len(c_at) == 1:
            idtp += int(count[k].max())
            continue
        block = np.zeros((len(r_at), len(c_at)))
        block[np.searchsorted(r_at, row[k]), np.searchsorted(c_at, col[k])] = -count[k]
        pairs = solve_block(block)
        idtp -= int(sum(block[i, j] for i, j in pairs))
    return 2.0 * np.float64(idtp) / (total_gt + total_pred)


def clear_mot(gt: Side, pred: Side, iou_thresh: float = 0.5) -> MetricsReport:
    """MOTA and its event counts, with MT/ML trajectory coverage.

    Correspondences persist frame to frame while their IoU stays at or
    above the threshold; everything left is rematched by maximum IoU
    among the pairs at or above it.  An identity switch is counted when a
    ground-truth object's matched prediction id differs from the one it
    last had, gaps included.
    """
    _check_thresh(iou_thresh)
    return _clear_mot(_tracking_pass(gt, pred), iou_thresh)


def idf1(gt: Side, pred: Side, iou_thresh: float = 0.5) -> float:
    """Identity F1: global trajectory-to-trajectory matching.

    Each (gt trajectory, pred trajectory) pair scores the number of
    frames where their boxes overlap above threshold; a single bipartite
    matching maximizes the total, and IDF1 = 2*IDTP / (gt boxes + pred boxes).
    """
    _check_thresh(iou_thresh)
    return _idf1(_tracking_pass(gt, pred), iou_thresh)


def detection_ap(gt_boxes: dict[int, list[BBox]] | MotTable,
                 preds: dict[int, list[tuple[float, BBox]]] | MotTable,
                 iou_thresh: float = 0.5) -> float:
    """All-point interpolated average precision at one IoU threshold.

    Predictions are ranked globally by score (a table's ``conf``); each
    claims at most one unclaimed ground-truth box (best IoU above
    threshold) in its frame.
    """
    _check_thresh(iou_thresh)
    gt, pred = _table(gt_boxes, "boxes"), _table(preds, "scores")
    if not len(pred.conf) or not len(gt.boxes):
        return 0.0
    _, p_start, g_start = _aligned(pred, gt)
    # by score, ties in frame and row order
    ranked = np.argsort(-pred.conf, kind="stable").tolist()

    p, g, iou = _overlaps(p_start, pred.boxes, g_start, gt.boxes)
    hit = iou >= iou_thresh
    at = np.searchsorted(p[hit], np.arange(len(ranked) + 1)).tolist()  # per prediction
    g, iou = g[hit].tolist(), iou[hit].tolist()
    claimed: set[int] = set()
    tp = np.zeros(len(ranked))
    for k, r in enumerate(ranked):
        best, gi = 0.0, -1  # the last highest unclaimed IoU
        for t in range(at[r], at[r + 1]):
            if iou[t] >= best and g[t] not in claimed:
                best, gi = iou[t], g[t]
        if gi >= 0:
            claimed.add(gi)
            tp[k] = 1.0

    tp_cum = np.cumsum(tp)
    recall = tp_cum / len(gt.boxes)
    precision = tp_cum / np.arange(1, len(ranked) + 1)
    # precision envelope, then area under the stepwise curve
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, pr in zip(recall, env):
        ap += (r - prev_r) * pr
        prev_r = r
    return float(ap)


def tpr_at_far(genuine: list[float], impostor: list[float], far: float = 0.1) -> float:
    """Verification true-positive rate at a fixed false-accept rate.

    The decision threshold is the lowest value admitting at most
    floor(far * len(impostor)) impostor scores; TPR is the fraction of
    genuine scores strictly above the next impostor down.
    """
    if not genuine or not impostor:
        raise ValueError("genuine and impostor score lists must be nonempty")
    if not 0.0 < far < 1.0:
        raise ValueError(f"far must be in (0, 1), got {far}")
    imp = sorted(impostor, reverse=True)
    k = math.floor(far * len(imp))
    if k >= len(imp):
        return 1.0
    cutoff = imp[k]  # (k+1)-th largest impostor must stay below threshold
    return sum(1 for s in genuine if s > cutoff) / len(genuine)


def evaluate_tracking(gt: Side, pred: Side, iou_thresh: float = 0.5) -> MetricsReport:
    """CLEAR counts plus IDF1 in one report, from one overlap pass."""
    _check_thresh(iou_thresh)
    ov = _tracking_pass(gt, pred)
    return replace(_clear_mot(ov, iou_thresh), idf1=_idf1(ov, iou_thresh))
