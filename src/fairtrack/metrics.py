"""Tracking and verification metrics.

Each side of a call is a ``geometry.MotTable``, as ``read_mot`` returns a
MOT file and ``sim.generate`` its ground truth: the tracking metrics read
its ids, detection AP the predictions' conf as scores.  The tracking
metrics also take a dict of frames, ``{frame: [(id, BBox), ...]}``, which
becomes the same columns on entry.  A box with a corner that is not
finite is refused, and so is a prediction score that detection AP reads.
Correspondence uses IoU >= 0.5 unless stated; the threshold must lie in
(0, 1].

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
A triple at or above the threshold that shares its gt or its pred row
with no other one matches whatever the previous frame kept, so one array
pass marks the contested triples, every triple of a frame with none
matches, and only the frames holding one are walked, in order, each
seeded with the previous frame's matches.  Detection AP likewise counts
a prediction whose candidate gt boxes no other prediction has as a true
positive if it has any, and walks only the predictions touching a shared
box.  IDF1 maximises the frames covered instead: it passes its counted
(gt id, pred id) cells, each frame count negated, to ``solve_pairs`` with
``free=True``, so no ids x ids matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .assignment import solve_pairs
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


def check_iou_thresh(iou_thresh: float) -> None:
    """Raise ValueError unless 0 < iou_thresh <= 1."""
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_thresh}")


def _table(side: Side) -> MotTable:
    """A tracking metric's input as a table: a ``MotTable`` as it is, or a
    dict of frames of (id, box) pairs, whose empty frames are left out, as
    no table can hold one."""
    if not isinstance(side, dict):
        return side
    frames = sorted(f for f in side if side[f])
    start = np.zeros(len(frames) + 1, dtype=np.int64)
    np.cumsum([len(side[f]) for f in frames], out=start[1:])
    rows = list(chain.from_iterable(side[f] for f in frames))
    return MotTable(np.array(frames, dtype=np.int64), start, np.array([i for i, _ in rows]),
                    corners([box for _, box in rows]),
                    np.broadcast_to(0.0, len(rows)))  # conf, which no tracking metric reads


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


def _first_repeat(start: np.ndarray, code: np.ndarray) -> int | None:
    """The earliest row whose id its frame already had."""
    frame = np.repeat(np.arange(len(start) - 1), np.diff(start))
    order = np.lexsort((code, frame))  # stable: a repeat sorts after its first
    f, c = frame[order], code[order]
    repeats = order[1:][(f[1:] == f[:-1]) & (c[1:] == c[:-1])]
    return int(repeats.min()) if repeats.size else None


def _frame_of(side: MotTable, row: int) -> int:
    return int(side.frames[np.searchsorted(side.start, row, "right") - 1])


def _refuse(sides: list[tuple[str, MotTable, np.ndarray | None, bool]]) -> None:
    """Raise ValueError on the earliest offending row of the (name, table,
    id codes or None, conf read) sides: for a side with codes, an id its
    frame already had; a box with a corner that is not finite; for a side
    whose conf is read, a conf that is not finite.  Frames in order, sides
    in the order given within one, rows in order within a side, and one
    row's offences in that order."""
    offences = []
    for rank, (kind, side, code, scored) in enumerate(sides):
        if not np.isfinite(side.boxes).all():
            row = int(np.isfinite(side.boxes).all(axis=1).argmin())
            f = _frame_of(side, row)
            offences.append((f, rank, row, 1, f"{kind} box corners "
                             f"{tuple(side.boxes[row].tolist())} in frame {f} are not finite"))
        row = None if code is None else _first_repeat(side.start, code)
        if row is not None:
            f = _frame_of(side, row)
            offences.append((f, rank, row, 0, f"duplicate {kind} id {side.ids[row]} in frame {f}"))
        if scored and not np.isfinite(side.conf).all():
            row = int(np.isfinite(side.conf).argmin())
            f = _frame_of(side, row)
            offences.append((f, rank, row, 2, f"{kind} conf {side.conf[row]} in frame {f} "
                                              "is not finite"))
    if offences:
        raise ValueError(min(offences)[4])


def _tracking_pass(gt: Side, pred: Side) -> _Pass:
    """Align both sides on their frames, refuse a box that is not finite or
    a repeated id within a frame, find the overlaps."""
    gt, pred = _table(gt), _table(pred)
    g_unique, g_id = np.unique(gt.ids, return_inverse=True)
    p_unique, p_id = np.unique(pred.ids, return_inverse=True)
    g_id, p_id = g_id.reshape(-1), p_id.reshape(-1)
    _refuse([("gt", gt, g_id, False), ("pred", pred, p_id, False)])
    _, g_start, p_start = _aligned(gt, pred)
    g, p, iou = _overlaps(g_start, gt.boxes, p_start, pred.boxes)
    return _Pass(g_start, p_start, g_id, p_id, len(g_unique), len(p_unique), g, p, iou)


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
    # a pair is contested when it shares its gt row (adjacent: pairs are
    # sorted by gt row) or its pred row with another; a frame of no
    # contested pair matches all its pairs, whatever the previous frame kept
    same_g = g[1:] == g[:-1]
    contested = np.bincount(p)[p] > 1
    contested[1:] |= same_g
    contested[:-1] |= same_g
    frame = np.searchsorted(ov.g_start, g, "right") - 1
    walk = np.zeros(len(ov.g_start) - 1, dtype=bool)
    walk[frame[contested]] = True
    matched = ~walk[frame]

    at = np.searchsorted(g, ov.g_start).tolist()  # each frame's pairs
    key = gid * ov.n_pid + pid
    for f in np.flatnonzero(walk).tolist():
        lo, hi = at[f], at[f + 1]
        # keys of the previous frame's correspondences
        prev = set(key[at[f - 1]:lo][matched[at[f - 1]:lo]].tolist()) if f else set()
        keys, gids, pids = key[lo:hi].tolist(), gid[lo:hi].tolist(), pid[lo:hi].tolist()
        kept = [k for k in range(hi - lo) if keys[k] in prev]
        kg = {gids[k] for k in kept}
        kp = {pids[k] for k in kept}
        free = [lo + k for k in range(hi - lo) if gids[k] not in kg and pids[k] not in kp]
        matched[[lo + k for k in kept]] = True
        if free:
            matched[_rematch(ov, f, free, g, p, iou)] = True

    matched_gid, matched_pid = gid[matched], pid[matched]
    total_gt, total_pred = len(ov.g_id), len(ov.p_id)
    fn = total_gt - len(matched_gid)
    fp = total_pred - len(matched_gid)
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
    mi, mj = solve_pairs(ov.n_gid, ov.n_pid, row, col, -count, free=True)
    idtp = int(count[np.searchsorted(cell, mi * ov.n_pid + mj)].sum())
    return 2.0 * np.float64(idtp) / (total_gt + total_pred)


def clear_mot(gt: Side, pred: Side, iou_thresh: float = 0.5) -> MetricsReport:
    """MOTA and its event counts, with MT/ML trajectory coverage.

    Correspondences persist frame to frame while their IoU stays at or
    above the threshold; everything left is rematched by maximum IoU
    among the pairs at or above it.  A frame where no two such pairs share
    a box matches them all, and only the other frames are walked.  An
    identity switch is counted when a ground-truth object's matched
    prediction id differs from the one it last had, gaps included.
    """
    check_iou_thresh(iou_thresh)
    return _clear_mot(_tracking_pass(gt, pred), iou_thresh)


def idf1(gt: Side, pred: Side, iou_thresh: float = 0.5) -> float:
    """Identity F1: global trajectory-to-trajectory matching.

    Each (gt trajectory, pred trajectory) pair scores the number of
    frames where their boxes overlap above threshold; a single bipartite
    matching maximizes the total, and IDF1 = 2*IDTP / (gt boxes + pred boxes).
    """
    check_iou_thresh(iou_thresh)
    return _idf1(_tracking_pass(gt, pred), iou_thresh)


def detection_ap(gt: MotTable, pred: MotTable, iou_thresh: float = 0.5) -> float:
    """All-point interpolated average precision at one IoU threshold.

    Predictions are ranked globally by score (``pred.conf``); each claims
    at most one unclaimed ground-truth box (best IoU above threshold) in
    its frame.  A prediction whose candidate boxes no other one has claims
    one if it has any; only those touching a shared box are walked, in
    rank order, each taking the last highest unclaimed IoU.  A score that
    is not finite is refused, as a box is.
    """
    check_iou_thresh(iou_thresh)
    _refuse([("gt", gt, None, False), ("pred", pred, None, True)])
    if not len(pred.conf) or not len(gt.boxes):
        return 0.0
    _, p_start, g_start = _aligned(pred, gt)
    # by score, ties in frame and row order
    ranked = np.argsort(-pred.conf, kind="stable")

    p, g, iou = _overlaps(p_start, pred.boxes, g_start, gt.boxes)
    hit = iou >= iou_thresh
    p, g, iou = p[hit], g[hit], iou[hit]
    # a prediction that shares no candidate gt box with another is a true
    # positive if it has one; those touching a shared box are walked in rank order
    tp = np.zeros(len(ranked))  # by pred row: 1.0 where it claims a gt box
    tp[p] = 1.0
    walk = np.zeros(len(ranked), dtype=bool)
    walk[p[np.bincount(g)[g] > 1]] = True
    tp[walk] = 0.0
    keep = walk[p]
    p, g, iou = p[keep], g[keep].tolist(), iou[keep].tolist()
    order = ranked[walk[ranked]]
    lo = np.searchsorted(p, order).tolist()
    hi = np.searchsorted(p, order, "right").tolist()
    claimed: set[int] = set()
    for r, a, b in zip(order.tolist(), lo, hi):
        best, gi = 0.0, -1  # the last highest unclaimed IoU
        for t in range(a, b):
            if iou[t] >= best and g[t] not in claimed:
                best, gi = iou[t], g[t]
        if gi >= 0:
            claimed.add(gi)
            tp[r] = 1.0

    tp_cum = np.cumsum(tp[ranked])
    recall = tp_cum / len(gt.boxes)
    precision = tp_cum / np.arange(1, len(ranked) + 1)
    # precision envelope, then area under the stepwise curve
    env = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.cumsum(np.diff(recall, prepend=0.0) * env)[-1])  # summed in rank order


def check_far(far: float) -> None:
    """Raise ValueError unless 0 < far < 1."""
    if not 0.0 < far < 1.0:
        raise ValueError(f"far must be in (0, 1), got {far}")


def tpr_at_far(genuine, impostor, far: float = 0.1) -> float:
    """Verification true-positive rate at a fixed false-accept rate.

    ``genuine`` and ``impostor`` are sequences or 1-d arrays of scores,
    read as float64.  The decision threshold is the lowest value admitting
    at most floor(far * len(impostor)) impostor scores; TPR is the
    fraction of genuine scores strictly above the next impostor down.
    """
    genuine, impostor = (np.asarray(x, dtype=np.float64) for x in (genuine, impostor))
    if not genuine.size or not impostor.size:
        raise ValueError("genuine and impostor score lists must be nonempty")
    check_far(far)
    if not (np.isfinite(genuine).all() and np.isfinite(impostor).all()):
        raise ValueError("genuine and impostor scores must be finite")
    k = math.floor(far * impostor.size)
    if k >= impostor.size:
        return 1.0
    cutoff = np.sort(impostor)[-1 - k]  # (k+1)-th largest impostor must stay below threshold
    return int(np.count_nonzero(genuine > cutoff)) / genuine.size


def evaluate_tracking(gt: Side, pred: Side, iou_thresh: float = 0.5) -> MetricsReport:
    """CLEAR counts plus IDF1 in one report, from one overlap pass."""
    check_iou_thresh(iou_thresh)
    ov = _tracking_pass(gt, pred)
    return replace(_clear_mot(ov, iou_thresh), idf1=_idf1(ov, iou_thresh))
