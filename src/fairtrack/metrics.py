"""Tracking and verification metrics.

Frame data is exchanged as ``{frame: [(id, BBox), ...]}`` for tracking
metrics, ``{frame: [BBox, ...]}`` and ``{frame: [(score, BBox), ...]}``
for detection AP.  Correspondence uses IoU >= 0.5 unless stated; the
threshold must lie in (0, 1].

Each frame's boxes become ``(N, 4)`` corner arrays, and every overlap is
read from that frame's one ``iou_matrix`` (ground truth x predictions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian
from .geometry import BBox, best_match, corners, iou_matrix

Frames = dict[int, list[tuple[int, BBox]]]


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
    ap: float | None = None
    tpr_at_far: float | None = None


def _check_thresh(iou_thresh: float) -> None:
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_thresh}")


def _frames(gt: Frames, pred: Frames):
    """Per frame in order: gt ids, pred ids and their (G, P) IoU matrix."""
    for frame in sorted(set(gt) | set(pred)):
        sides = []
        for kind, pairs in (("gt", gt.get(frame, [])), ("pred", pred.get(frame, []))):
            ids = [oid for oid, _ in pairs]
            if len(set(ids)) < len(ids):
                dup = next(oid for k, oid in enumerate(ids) if oid in ids[:k])
                raise ValueError(f"duplicate {kind} id {dup} in frame {frame}")
            sides.append((ids, corners([box for _, box in pairs])))
        (g_ids, g_box), (p_ids, p_box) = sides
        yield g_ids, p_ids, iou_matrix(g_box, p_box)


def clear_mot(gt: Frames, pred: Frames, iou_thresh: float = 0.5) -> MetricsReport:
    """MOTA and its event counts, with MT/ML trajectory coverage.

    Correspondences persist frame to frame while their IoU stays above
    the threshold; everything left is rematched by maximum IoU.  An
    identity switch is counted when a ground-truth object's matched
    prediction id differs from the one it last had, gaps included.
    """
    _check_thresh(iou_thresh)
    fp = fn = idsw = 0
    total_gt = 0
    corr: dict[int, int] = {}        # previous-frame gt id -> pred id
    last_match: dict[int, int] = {}  # whole-sequence memory for switches
    gt_frames_seen: dict[int, int] = {}
    gt_frames_matched: dict[int, int] = {}

    for g_ids, p_ids, ious in _frames(gt, pred):
        total_gt += len(g_ids)
        for gid in g_ids:
            gt_frames_seen[gid] = gt_frames_seen.get(gid, 0) + 1

        row = {gid: i for i, gid in enumerate(g_ids)}
        col = {pid: j for j, pid in enumerate(p_ids)}
        kept = {gid: pid for gid, pid in corr.items()
                if gid in row and pid in col and ious[row[gid], col[pid]] >= iou_thresh}

        taken = set(kept.values())
        free_g = [i for i, gid in enumerate(g_ids) if gid not in kept]
        free_p = [j for j, pid in enumerate(p_ids) if pid not in taken]
        if free_g and free_p:
            pairs, _, _ = hungarian(1.0 - ious[np.ix_(free_g, free_p)], max_cost=1.0 - iou_thresh)
            for i, j in pairs:
                kept[g_ids[free_g[i]]] = p_ids[free_p[j]]

        for gid, pid in kept.items():
            gt_frames_matched[gid] = gt_frames_matched.get(gid, 0) + 1
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid

        fn += len(g_ids) - len(kept)
        fp += len(p_ids) - len(kept)
        corr = kept

    mota = 1.0 - (fp + fn + idsw) / total_gt if total_gt > 0 else 1.0
    n_traj = len(gt_frames_seen)
    mt = ml = 0
    for gid, seen in gt_frames_seen.items():
        cov = gt_frames_matched.get(gid, 0) / seen
        if cov >= 0.8:
            mt += 1
        elif cov <= 0.2:
            ml += 1
    return MetricsReport(
        mota=mota, fp=fp, fn=fn, id_switches=idsw,
        mt_ratio=mt / n_traj if n_traj else 0.0,
        ml_ratio=ml / n_traj if n_traj else 0.0,
        num_gt=total_gt,
    )


def idf1(gt: Frames, pred: Frames, iou_thresh: float = 0.5) -> float:
    """Identity F1: global trajectory-to-trajectory matching.

    Each (gt trajectory, pred trajectory) pair scores the number of
    frames where their boxes overlap above threshold; a single bipartite
    matching maximizes the total, and IDF1 = 2*IDTP / (gt boxes + pred boxes).
    """
    _check_thresh(iou_thresh)
    counts: dict[tuple[int, int], int] = {}
    total_gt = total_pred = 0
    for g_ids, p_ids, ious in _frames(gt, pred):
        total_gt += len(g_ids)
        total_pred += len(p_ids)
        for i, j in zip(*np.nonzero(ious >= iou_thresh)):
            key = (g_ids[i], p_ids[j])
            counts[key] = counts.get(key, 0) + 1

    if total_gt + total_pred == 0:
        return 1.0
    if not counts:
        return 0.0
    # rows and columns only for ids with a count: the optimum is unchanged
    rows = {gid: k for k, gid in enumerate(dict.fromkeys(g for g, _ in counts))}
    cols = {pid: k for k, pid in enumerate(dict.fromkeys(p for _, p in counts))}
    cost = np.zeros((len(rows), len(cols)))
    for (gid, pid), c in counts.items():
        cost[rows[gid], cols[pid]] = -c
    pairs, _, _ = hungarian(cost)
    idtp = sum(-cost[i, j] for i, j in pairs)
    return 2.0 * idtp / (total_gt + total_pred)


def detection_ap(gt_boxes: dict[int, list[BBox]],
                 preds: dict[int, list[tuple[float, BBox]]],
                 iou_thresh: float = 0.5) -> float:
    """All-point interpolated average precision at one IoU threshold.

    Predictions are ranked globally by score; each claims at most one
    unclaimed ground-truth box (best IoU above threshold) in its frame.
    """
    _check_thresh(iou_thresh)
    total_gt = sum(len(v) for v in gt_boxes.values())
    flat = [(score, frame, i)
            for frame in sorted(preds)
            for i, (score, _) in enumerate(preds[frame])]
    if not flat or total_gt == 0:
        return 0.0
    flat.sort(key=lambda r: (-r[0], r[1], r[2]))

    # (preds, gts) per frame; a claimed gt's column is set to -inf
    ious = {f: iou_matrix(corners([box for _, box in preds[f]]),
                          corners(gt_boxes.get(f, [])))
            for f in preds}
    tp = np.zeros(len(flat))
    for k, (_, frame, i) in enumerate(flat):
        gi = best_match(ious[frame][i:i + 1], iou_thresh)[0]
        if gi >= 0:
            ious[frame][:, gi] = -np.inf
            tp[k] = 1.0

    tp_cum = np.cumsum(tp)
    recall = tp_cum / total_gt
    precision = tp_cum / np.arange(1, len(flat) + 1)
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


def evaluate_tracking(gt: Frames, pred: Frames, iou_thresh: float = 0.5) -> MetricsReport:
    """CLEAR counts plus IDF1 in one report."""
    report = clear_mot(gt, pred, iou_thresh)
    return replace(report, idf1=idf1(gt, pred, iou_thresh))
