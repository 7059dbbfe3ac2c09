"""Slow, obviously correct references the metric tests compare against,
one per quantity, each citing the definition it follows.  Most are the
per-pair Python loops that preceded ``fairtrack``'s array code, kept as
they ran, so the tests can assert exact equality with them.  ``table``
and ``_outcome`` run one case on dicts and tables, refusals included.
"""

import math

import numpy as np
from hypothesis import strategies as st

from fairtrack.assignment import hungarian
from fairtrack.geometry import BBox, MotTable, best_match, corners, iou_matrix
from fairtrack.kalman import STD_WEIGHT_POSITION
from fairtrack.metrics import MetricsReport, detection_ap

# Tiny integer boxes on a 4x4 patch: ties, duplicates, nested, touching and
# zero-area boxes are the common case.
_tiny_box = st.tuples(*[st.integers(0, 4)] * 2, *[st.integers(0, 3)] * 2).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


def table(frames: dict, scores: dict | None = None) -> MotTable:
    """{frame: [(id, BBox)]} as the table ``read_mot`` returns, less its
    empty frames; conf from {frame: [score]} ``scores``, else 1."""
    keys = sorted(f for f in frames if frames[f])
    rows = [r for f in keys for r in frames[f]]
    conf = [s for f in keys for s in scores[f]] if scores else [1.0] * len(rows)
    return MotTable(np.array(keys, dtype=np.int64),
                    np.cumsum([0] + [len(frames[f]) for f in keys]),
                    np.array([i for i, _ in rows], dtype=np.int64),
                    corners([b for _, b in rows]), np.array(conf, dtype=np.float64))


def _outcome(fn, *args):
    """fn(*args), or its ValueError's text, to compare refusals too."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _frame_dict(frame, pairs, kind):
    """One frame's (id, box) pairs as {id: box}, refusing a repeated id."""
    out = {}
    for oid, box in pairs:
        if oid in out:
            raise ValueError(f"duplicate {kind} id {oid} in frame {frame}")
        out[oid] = box
    return out


def _ref_iou(a: BBox, b: BBox) -> float:
    """Intersection over union, the overlap of PASCAL VOC's detection
    criterion (Everingham et al., IJCV 2010, detection evaluation); 0.0
    unless both the overlap's sides and the union are positive."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _dense_triples(a_frames, b_frames):
    """The positive entries of each frame's iou_matrix (``_ref_iou``'s VOC
    overlap) as (a row, b row, IoU), rows numbered across frames in order."""
    frames = sorted(set(a_frames) | set(b_frames))
    out, ra, rb = [], 0, 0
    for f in frames:
        a, b = a_frames.get(f, []), b_frames.get(f, [])
        if a and b:
            m = iou_matrix(corners(a), corners(b))
            out += [(ra + i, rb + j, m[i, j]) for i, j in zip(*np.nonzero(m > 0.0))]
        ra, rb = ra + len(a), rb + len(b)
    return out


def _ref_clear_mot(gt, pred, iou_thresh=0.5):
    """CLEAR MOT (Bernardin & Stiefelhagen, EURASIP JIVP 2008, section 2):
    each frame keeps the previous frame's correspondences still at IoU >=
    thresh, matches the rest by ``hungarian`` on 1 - IoU, and counts a
    switch against a gt id's last match, gaps included.  Unlike the paper,
    a frame without the gt id or its prediction breaks its correspondence.
    MT/ML at >= 80% / <= 20% of a gt id's frames (Li et al., CVPR 2009)."""
    fp = fn = idsw = 0
    total_gt = 0
    corr = {}
    last_match = {}
    gt_frames_seen = {}
    gt_frames_matched = {}

    # a frame empty on both sides is absent, as in the table of the same rows
    for frame in sorted(f for f in set(gt) | set(pred) if gt.get(f) or pred.get(f)):
        g = _frame_dict(frame, gt.get(frame, []), "gt")
        p = _frame_dict(frame, pred.get(frame, []), "pred")
        total_gt += len(g)
        for gid in g:
            gt_frames_seen[gid] = gt_frames_seen.get(gid, 0) + 1

        kept = {}
        for gid, pid in corr.items():
            if gid in g and pid in p and _ref_iou(g[gid], p[pid]) >= iou_thresh:
                kept[gid] = pid

        free_g = [gid for gid in g if gid not in kept]
        free_p = [pid for pid in p if pid not in kept.values()]
        if free_g and free_p:
            cost = np.array([[1.0 - _ref_iou(g[a], p[b]) for b in free_p]
                             for a in free_g])
            pairs, _, _ = hungarian(cost, max_cost=1.0 - iou_thresh)
            for i, j in pairs:
                kept[free_g[i]] = free_p[j]

        for gid, pid in kept.items():
            gt_frames_matched[gid] = gt_frames_matched.get(gid, 0) + 1
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid

        fn += len(g) - len(kept)
        fp += len(p) - len(kept)
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


def _ref_idf1(gt, pred, iou_thresh=0.5):
    """IDF1 = 2 IDTP / (gt rows + pred rows), IDTP the rows at IoU >= thresh
    under the one-to-one id matching that covers the most (Ristani et al.,
    ECCV Workshops 2016, identity measures); one count matrix, solved whole."""
    gt_ids = []
    pred_ids = []
    counts = {}
    total_gt = total_pred = 0

    for frame in sorted(set(gt) | set(pred)):
        g = _frame_dict(frame, gt.get(frame, []), "gt")
        p = _frame_dict(frame, pred.get(frame, []), "pred")
        total_gt += len(g)
        total_pred += len(p)
        for gid, gb in g.items():
            if gid not in gt_ids:
                gt_ids.append(gid)
            for pid, pb in p.items():
                if pid not in pred_ids:
                    pred_ids.append(pid)
                if _ref_iou(gb, pb) >= iou_thresh:
                    counts[(gid, pid)] = counts.get((gid, pid), 0) + 1

    if total_gt + total_pred == 0:
        return 1.0
    if not counts:
        return 0.0
    cost = np.zeros((len(gt_ids), len(pred_ids)))
    for (gid, pid), c in counts.items():
        cost[gt_ids.index(gid), pred_ids.index(pid)] = -c
    pairs, _, _ = hungarian(cost)
    idtp = sum(-cost[i, j] for i, j in pairs)
    return 2.0 * idtp / (total_gt + total_pred)


def _ref_detection_ap(gt_boxes, preds, iou_thresh=0.5):
    """AP of {frame: [(score, BBox)]} against {frame: [BBox]}: PASCAL VOC's
    interpolated AP (Everingham et al., IJCV 2010, detection evaluation) at
    every recall step, as VOC's devkit takes it from 2010.  By descending
    score, each prediction claims its frame's unclaimed gt box of highest
    IoU >= thresh, or counts false."""
    total_gt = sum(len(v) for v in gt_boxes.values())
    flat = [(score, frame, i, box)
            for frame in sorted(preds)
            for i, (score, box) in enumerate(preds[frame])]
    if not flat or total_gt == 0:
        return 0.0
    flat.sort(key=lambda r: (-r[0], r[1], r[2]))

    claimed = {f: set() for f in gt_boxes}
    tp = np.zeros(len(flat))
    for k, (_, frame, _, box) in enumerate(flat):
        best, best_i = iou_thresh, -1
        for gi, gb in enumerate(gt_boxes.get(frame, [])):
            if gi in claimed.get(frame, set()):
                continue
            v = _ref_iou(box, gb)
            if v >= best:
                best, best_i = v, gi
        if best_i >= 0:
            claimed[frame].add(best_i)
            tp[k] = 1.0

    tp_cum = np.cumsum(tp)
    recall = tp_cum / total_gt
    precision = tp_cum / np.arange(1, len(flat) + 1)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, pr in zip(recall, env):
        ap += (r - prev_r) * pr
        prev_r = r
    return float(ap)


def _detection_ap(gt_boxes, preds, iou_thresh=0.5):
    """``detection_ap`` on the tables of ``_ref_detection_ap``'s inputs."""
    gt = table({f: [(0, b) for b in boxes] for f, boxes in gt_boxes.items()})
    pred = table({f: [(0, b) for _, b in scored] for f, scored in preds.items()},
                 {f: [s for s, _ in scored] for f, scored in preds.items()})
    return detection_ap(gt, pred, iou_thresh)


def _ref_tpr_at_far(genuine, impostor, far):
    """TPR at a fixed FAR, the re-ID measure of JDE (Wang et al., arXiv
    1909.12605, experiments) and FairMOT (arXiv 2004.01888, ablations): the
    share of genuine scores above impostor[floor(far * n)], sorted high to
    low; one sorted() and one counting loop."""
    imp = sorted(impostor, reverse=True)
    k = math.floor(far * len(imp))
    if k >= len(imp):
        return 1.0
    return sum(1 for s in genuine if s > imp[k]) / len(genuine)


def _ref_reid_scores(dets, gt, iou):
    """The genuine and impostor cosines ``_ref_tpr_at_far`` takes (JDE, as
    above), one np.dot per pair: each detection takes its best gt id at IoU
    >= ``iou``; impostors pair two ids in a frame, genuines one id's rows."""
    genuine, impostor = [], []
    labeled, by_id = {}, {}
    for frame in sorted(dets):
        g = gt.get(frame, [])
        ious = iou_matrix(corners([d.box for d in dets[frame]]),
                          corners([box for _, box in g]))
        labeled[frame] = [(g[k][0], d.embedding)
                          for d, k in zip(dets[frame], best_match(ious, iou)) if k >= 0]
        for gid, emb in labeled[frame]:
            by_id.setdefault(gid, []).append(emb)
    for frame, rows in labeled.items():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i][0] != rows[j][0]:
                    impostor.append(float(np.dot(rows[i][1], rows[j][1])))
    for gid, embs in sorted(by_id.items()):
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                genuine.append(float(np.dot(embs[i], embs[j])))
    return genuine, impostor


def _dense_gate(mean, cov, z):
    """The (T, N) squared Mahalanobis distance of each measured centre from
    each projected state, DeepSORT's motion gate (Wojke et al., arXiv
    1703.07402, section 2.2), as the tracker took it for every pair."""
    s = cov[:, 0, :2] + (STD_WEIGHT_POSITION * mean[:, 3, None]) ** 2
    w = (z[None, :, :2] - mean[:, None, :2]) / np.sqrt(s)[:, None, :]
    return w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1]
