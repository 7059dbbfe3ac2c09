"""Frame-by-frame association of detections to tracklets.

Two-stage cascade per frame: appearance first (cosine distance between
smoothed track embeddings and detection embeddings, motion-gated), then
box overlap (1 - IoU) for whatever is left.  Lost tracks may only be
recovered through appearance; the overlap stage sees active tracks only.
Each ingredient (re-ID, IoU, Kalman) can be toggled off to measure its
contribution.

The pool is a set of arrays aligned by row, one row per tracklet in id
order, holding only what association reads: ids, frames since the last
update (zero exactly on the active tracks) and the detection each row
matched or was born from in this step (``step`` returns its row, or that
detection's own ``BBox``); with re-ID on, the smoothed embeddings as one
``(T, D)`` array; with Kalman on, the states as a ``(T, 8)`` mean and a
``(T, 3, 4)`` stack of per-coordinate (position, velocity) covariance
blocks (see ``kalman``), and with it off, the ``(T, 4)`` corners of the
last matched boxes, which the overlap stage reads in their place.  Each
frame works on whole arrays, never on track x detection pairs in Python.
``step`` takes the frame as ``DetectionColumns`` (``(N, 4)`` corners,
``(N,)`` scores and an ``(N, D)`` embedding array), whose shapes, scores
in [0, 1] and, with re-ID on, unit embedding rows (``Detection``'s rules)
it checks on entry, or as ``Detection`` objects whose columns it builds on entry.  The
boxes become one ``(N, 4)`` measurement array, and every box is checked
on entry by the rule ``read_mot`` applies to ``det.txt``, whatever the
configuration: a positive height, a width that is not negative, and a
measurement within float32's normal range (``kalman.measurable``), so
every corner that reaches a stage is finite.  One call predicts every
state.  Appearance cost is one product of the pool's and the frame's
embedding stacks, turned into the distance in place: the stage's only
``(T, N)`` float array, where a second one (330 KB at 200 targets) made
most crowded steps fault their heap pages back in.  Its pairs within
``emb_match_threshold`` are read by flat index (``_pairs_within``), in 15
microseconds at 200 targets, where a 2-D ``nonzero`` and its
``cost[r, c]`` gather take 98.  The motion gate is evaluated only on those
pairs, and the pairs it passes go to ``assignment.solve_pairs`` as they are: no other
pair could be matched, so the matches are those of a full ``(T, N)``
gate, at a cost that grows with the admissible pairs, not with T x N.
Every embedding admitted is a unit row, so every cost is finite.
Overlap cost is one broadcast over ``(T, 4)`` and ``(N, 4)`` box
corners, and its pairs within ``iou_match_threshold``, read the same
way, go to ``solve_pairs`` as they are.  So each stage forbids the pairs
above its threshold (and the gated ones) before solving, and a pair over
the threshold never takes a track or detection from a valid match; the
allowed pairs of a crowded frame split into components of a few nodes,
each solved on its own.  The detections left unmatched, smoothing,
aging, loss, removal and birth are masks,
fancy-indexed writes and concatenations.  ``tracks`` lists the pool's
ids, active and lost.  A frame makes about the same numpy calls
however few its targets, and at ten targets their fixed cost is most of
its time, so the frame avoids the Python-level helpers (``np.stack``,
``np.clip``) where a plain call does the same, and takes flat indices
as ``mask.ravel().nonzero()[0]`` with ``k // n`` and ``k - r * n``, not
``np.flatnonzero`` and ``np.divmod``, which cost a fifth more on a
small frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import solve_pairs
from .decoding import Detection, row_norms
from .geometry import BBox, corners, iou_matrix
from .kalman import GATE_CHI2, box_corners, check_measurements, gate, initiate, measure, \
    predict, update


class DetectionColumns(NamedTuple):
    """One frame's detections as columns, row k being detection k."""

    boxes: np.ndarray              # (N, 4) float64 corners (x1, y1, x2, y2)
    scores: np.ndarray             # (N,) float64
    embeddings: np.ndarray | None  # (N, D) unit rows, or None


@dataclass(frozen=True)
class TrackerConfig:
    det_threshold: float = 0.4
    emb_match_threshold: float = 0.4
    iou_match_threshold: float = 0.5
    track_buffer: int = 30
    ema_momentum: float = 0.9
    gate_chi2: float = GATE_CHI2
    use_reid: bool = True
    use_iou: bool = True
    use_kalman: bool = True

    def __post_init__(self):
        if not 0.0 <= self.det_threshold <= 1.0:
            raise ValueError("det_threshold must be in [0, 1]")
        if not 0.0 <= self.emb_match_threshold <= 2.0:
            raise ValueError("emb_match_threshold must be in [0, 2]")
        if not 0.0 <= self.iou_match_threshold <= 1.0:
            raise ValueError("iou_match_threshold must be in [0, 1]")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must be in [0, 1]")
        if self.track_buffer < 1:
            raise ValueError("track_buffer must be >= 1")
        if not self.gate_chi2 > 0:  # NaN would silently switch the gate off
            raise ValueError("gate_chi2 must be > 0 (inf: no gate)")
        if not (self.use_reid or self.use_iou):
            raise ValueError("at least one of use_reid/use_iou must be enabled")


def cosine_distance_matrix(track_embs: np.ndarray, det_embs: np.ndarray) -> np.ndarray:
    """1 - cosine similarity between (T, D) and (N, D) unit embeddings, in [0, 2].

    The distance is written in place over the product, so a frame makes one
    (T, N) array, not two; an integer or bool product, which has no float to
    hold it, takes a new float64 array, as ``1.0 - product`` gives it.
    """
    d = track_embs @ det_embs.T
    d = np.subtract(1.0, d, out=None if d.dtype.kind in "biu" else d)
    return np.minimum(np.maximum(d, 0.0, out=d), 2.0, out=d)  # np.clip without its wrapper


def _pairs_within(cost: np.ndarray, thr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and costs of the entries of a 2-D ``cost`` at or
    under ``thr`` (NaN is not), in row-major order: ``(cost <= thr).nonzero()``
    and ``cost[r, c]``, taken by flat index, which costs a fraction of the
    2-D ``nonzero`` on a crowded frame and about the same on a small one."""
    n = cost.shape[1]
    flat = cost.ravel()
    k = (flat <= thr).nonzero()[0]
    r = k // n
    return r, k - r * n, flat[k]


def _embedding_rows(embeddings: list) -> np.ndarray:
    """The detections' embeddings as one (N, D) array; ValueError names the
    first detection with none, else the first whose width is not detection 0's."""
    try:
        emb = np.array(embeddings)
    except ValueError:  # rows of two widths, or rows beside a None
        emb = None
    if emb is not None and emb.ndim == 2:
        return emb
    for j, e in enumerate(embeddings):
        if e is None:
            raise ValueError(f"detection {j} has no embedding")
    w0 = embeddings[0].size
    for j, e in enumerate(embeddings):
        if e.size != w0:
            raise ValueError(f"detection {j} has embedding width {e.size}, "
                             f"detection 0 has {w0}")
    raise ValueError("embeddings do not stack into one (N, D) array")


def _check_columns(boxes: np.ndarray, scores: np.ndarray, emb: np.ndarray | None,
                   use_reid: bool) -> None:
    """Raise ValueError unless a frame's columns are (N, 4) boxes, (N,) scores
    in [0, 1] and, where re-ID reads them, (N, D) embeddings whose rows are
    unit: ``Detection``'s rules, the norm within 1e-6 of 1, which no row
    holding a value that is not finite has."""
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be (N, 4), got shape {boxes.shape}")
    n = len(boxes)
    if scores.shape != (n,):
        raise ValueError(f"scores must be ({n},) for {n} boxes, got shape {scores.shape}")
    score_ok = (scores >= 0.0) & (scores <= 1.0)  # False on NaN
    if not score_ok.all():
        j = int(score_ok.argmin())
        raise ValueError(f"detection {j} score must be in [0, 1], got {scores[j]}")
    if use_reid and n and emb is not None:
        if emb.ndim != 2 or len(emb) != n:
            raise ValueError(f"embeddings must be ({n}, D) for {n} boxes, "
                             f"got shape {emb.shape}")
        with np.errstate(over="ignore"):  # a row too long to square has norm inf
            norm = row_norms(emb)
        unit = np.abs(norm - 1.0) <= 1e-6  # Detection's rule; False on a NaN or inf norm
        if not unit.all():
            j = int(unit.argmin())
            if not np.isfinite(emb[j]).all():
                raise ValueError(f"detection {j} has a non-finite embedding")
            raise ValueError(f"detection {j} has embedding norm {norm[j]}, not 1")


class OnlineTracker:
    """Owns the tracklet pool; step() is called once per frame, in order."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        # the pool, row k of every array being one tracklet, rows in id order
        self._ids = np.zeros(0, dtype=np.int64)
        self._misses = np.zeros(0, dtype=np.int64)  # frames since the last update; 0: active
        self._det = np.zeros(0, dtype=np.int64)  # the detection it took in this step
        self._box = np.zeros((0, 4))  # corners of the last matched box (use_kalman off only)
        self._emb = np.zeros((0, 0))  # smoothed embeddings (use_reid only)
        # Kalman states (use_kalman only)
        self._mean = np.zeros((0, 8))
        self._cov = np.zeros((0, 3, 4))
        self._arrays = ("_ids", "_misses", "_det") \
            + (("_emb",) if cfg.use_reid else ()) \
            + (("_mean", "_cov") if cfg.use_kalman else ("_box",))
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[int]:
        """The ids of the pool's tracklets, active and lost, in id order."""
        return self._ids.tolist()

    def step(self, frame_index: int, dets: list[Detection] | DetectionColumns) -> list[tuple]:
        """Associate one frame of detections; returns (id, detection) per active track.

        ``dets`` is one frame's ``DetectionColumns`` or a list of
        ``Detection`` objects, whose columns are built on entry.  Each
        active track is paired with the detection it matched or was born
        from: its row in the columns, or its ``BBox`` in the list.  A frame
        refused with ValueError (a frame index not after the last one,
        columns whose shapes disagree, a missing or resized embedding or,
        in the columns, a score outside [0, 1] or an embedding that is not
        a unit row, or a box ``read_mot`` would refuse in ``det.txt``)
        leaves the tracker as it was, so the frame can be retried.  Every
        box is checked, in every configuration, whether or not it matches
        a track or starts one.
        """
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index {frame_index} not after {self._last_frame}")
        if isinstance(dets, DetectionColumns):
            _check_columns(*dets, self.cfg.use_reid)
            return list(zip(*self._associate(frame_index, *dets)))
        emb = None
        if self.cfg.use_reid and dets:
            emb = _embedding_rows([d.embedding for d in dets])
        ids, rows = self._associate(frame_index, corners([d.box for d in dets]),
                                    np.array([d.score for d in dets], dtype=np.float64), emb)
        return [(tid, dets[j].box) for tid, j in zip(ids, rows)]

    def _associate(self, frame_index: int, boxes: np.ndarray, scores: np.ndarray,
                   emb: np.ndarray | None) -> tuple[list[int], list[int]]:
        """``step`` on columns: the active tracks' ids, and the detection row
        each matched or was born from."""
        cfg = self.cfg
        n, pool = len(boxes), len(self._ids)
        if cfg.use_reid and n:
            if emb is None:
                raise ValueError("detection 0 has no embedding")
            if pool and emb.shape[1] != self._emb.shape[1]:
                raise ValueError(f"embedding width {emb.shape[1]} differs from "
                                 f"the pool's {self._emb.shape[1]}")
        # every box, in every configuration, by read_mot's det.txt rule; after
        # the embeddings, so both input forms name the same first fault
        z = measure(boxes)
        check_measurements(z)
        kalman = cfg.use_kalman
        # Everything up to the commit below works on locals, so a refused
        # frame leaves the pool as it was: predicted states, then matches.
        mean, cov = predict(self._mean, self._cov) if kalman and pool \
            else (self._mean, self._cov)
        rows = cols = np.zeros(0, dtype=np.int64)  # matches: pool row, detection
        left = np.ones(n, dtype=bool)  # detections not matched yet

        # stage 1: appearance, active and lost tracks alike
        if cfg.use_reid and pool and n:
            cost = cosine_distance_matrix(self._emb, emb)
            r, c, pc = _pairs_within(cost, cfg.emb_match_threshold)
            if kalman:
                keep = ~(gate(mean[r], cov[r], z[c]) > cfg.gate_chi2)  # a NaN d2 is kept
                r, c, pc = r[keep], c[keep], pc[keep]
            rows, cols = solve_pairs(pool, n, r, c, pc)
            left[cols] = False

        # stage 2: box overlap, active tracks only
        det_pool = left.nonzero()[0]
        if cfg.use_iou and det_pool.size:
            open_ = self._misses == 0
            open_[rows] = False
            cand = open_.nonzero()[0]
            if cand.size:
                track_boxes = box_corners(mean[cand]) if kalman else self._box[cand]
                dist = 1.0 - iou_matrix(track_boxes, boxes[det_pool])
                i, j = solve_pairs(cand.size, det_pool.size,
                                   *_pairs_within(dist, cfg.iou_match_threshold))
                rows = np.concatenate([rows, cand[i]])
                cols = np.concatenate([cols, det_pool[j]])
                left[det_pool[j]] = False

        born = (left & (scores > cfg.det_threshold)).nonzero()[0]

        # commit
        self._last_frame = frame_index
        self._mean, self._cov = mean, cov
        if cfg.use_reid and n and not pool:  # an empty pool takes the frame's width
            self._emb = np.zeros((0, emb.shape[1]))
        self._misses += 1
        if rows.size:
            if kalman:
                self._mean[rows], self._cov[rows] = update(
                    self._mean[rows], self._cov[rows], z[cols])
            else:
                self._box[rows] = boxes[cols]
            self._det[rows] = cols
            self._misses[rows] = 0
            if cfg.use_reid:
                m = cfg.ema_momentum
                e = m * self._emb[rows] + (1.0 - m) * emb[cols]
                n = row_norms(e)
                ok = n > 1e-12  # a row of norm zero keeps its embedding
                if not ok.all():
                    rows, e, n = rows[ok], e[ok], n[ok]
                self._emb[rows] = e / n[:, None]

        keep = self._misses <= cfg.track_buffer
        if not keep.all():
            for name in self._arrays:
                setattr(self, name, getattr(self, name)[keep])

        if born.size:
            b = born.size
            new = {"_ids": np.arange(self._next_id, self._next_id + b),
                   "_misses": np.zeros(b, dtype=np.int64), "_det": born}
            if cfg.use_reid:
                new["_emb"] = emb[born]
            if kalman:
                new["_mean"], new["_cov"] = initiate(z[born])
            else:
                new["_box"] = boxes[born]
            for name in self._arrays:
                setattr(self, name, np.concatenate([getattr(self, name), new[name]]))
            self._next_id += b

        act = self._misses == 0
        return self._ids[act].tolist(), self._det[act].tolist()


def track_sequence(frames: dict[int, list[Detection]],
                   cfg: TrackerConfig = TrackerConfig()
                   ) -> dict[int, list[tuple[int, BBox]]]:
    """Run a fresh tracker over frame-indexed detections; returns per-frame outputs."""
    tracker = OnlineTracker(cfg)
    return {f: tracker.step(f, frames[f]) for f in sorted(frames)}
