"""Frame-by-frame association of detections to tracklets.

Two-stage cascade per frame: appearance first (cosine distance between
smoothed track embeddings and detection embeddings, motion-gated), then
box overlap (1 - IoU) for whatever is left.  Lost tracks may only be
recovered through appearance; the overlap stage sees active tracks only.
Each ingredient (re-ID, IoU, Kalman) can be toggled off to measure its
contribution.

The pool is a set of arrays aligned by row, one row per tracklet in id
order: ids, start frames, the active flag, frames since the last update
and last scores; the smoothed embeddings as one ``(T, D)`` array with a
has-embedding mask; the Kalman states as a ``(T, 8)`` mean and a
``(T, 3, 4)`` stack of per-coordinate (position, velocity) covariance
blocks (see ``kalman``); and one list of the last ``BBox`` objects, which
``step`` returns.  Each frame works on whole arrays, never on track x
detection pairs in Python.  The detections become one ``(N, 4)`` corners
array and one ``(N, 4)`` measurement array, and one call predicts every
state.  Appearance cost is one product of the pool's and the frame's
embedding stacks.  The motion gate is evaluated only on the pairs whose
appearance cost is within ``emb_match_threshold``: ``hungarian`` forbids
every other pair anyway, so the allowed pairs and their costs are those
of a full ``(T, N)`` gate, at a cost that grows with the admissible
pairs, not with T x N.  Overlap cost is one broadcast over ``(T, 4)`` and
``(N, 4)`` box corners.  Each stage passes its threshold to
``hungarian``, which forbids the pairs above it (and the gated ones)
before solving, so a pair over the threshold never takes a track or
detection from a valid match; the allowed pairs of a crowded frame split
into components of a few nodes, each solved on its own.  Matching,
smoothing, aging, loss, removal and birth are masks, fancy-indexed writes
and concatenations.  ``tracks`` builds ``Track`` copies of the pool on
demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .decoding import Detection
from .geometry import BBox, corners, iou_matrix
from .kalman import GATE_CHI2, box_corners, check_measurements, gate, initiate, \
    measure, predict, update


class TrackStatus(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"


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


@dataclass
class Track:
    """A copy of one tracklet of the pool, as ``OnlineTracker.tracks`` gives it."""

    track_id: int
    last_box: BBox
    start_frame: int
    smooth_emb: np.ndarray | None = None
    status: TrackStatus = TrackStatus.ACTIVE
    frames_since_update: int = 0
    last_score: float = 1.0


def cosine_distance_matrix(track_embs: np.ndarray, det_embs: np.ndarray) -> np.ndarray:
    """1 - cosine similarity between (T, D) and (N, D) unit embeddings, in [0, 2]."""
    return np.clip(1.0 - track_embs @ det_embs.T, 0.0, 2.0)


def iou_distance_matrix(track_boxes: np.ndarray, det_boxes: np.ndarray) -> np.ndarray:
    """1 - IoU between (T, 4) and (N, 4) box-corner arrays."""
    return 1.0 - iou_matrix(track_boxes, det_boxes)


def _embeddings(dets: list[Detection], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, D) embedding stack of the detections and its has-embedding mask.

    Rows without an embedding are zero; with none at all, D is ``width``.
    """
    has = np.array([d.embedding is not None for d in dets], dtype=bool)
    if not has.any():
        return np.zeros((len(dets), width)), has
    rows = np.stack([d.embedding for d in dets if d.embedding is not None])
    if has.all():
        return rows, has
    emb = np.zeros((len(dets), rows.shape[1]))
    emb[has] = rows
    return emb, has


class OnlineTracker:
    """Owns the tracklet pool; step() is called once per frame, in order."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        # the pool, row k of every array being one tracklet, rows in id order
        self._ids = np.zeros(0, dtype=np.int64)
        self._start = np.zeros(0, dtype=np.int64)
        self._active = np.zeros(0, dtype=bool)
        self._misses = np.zeros(0, dtype=np.int64)  # frames since the last update
        self._score = np.zeros(0)
        self._boxes: list[BBox] = []
        self._emb = np.zeros((0, 0))
        self._has_emb = np.zeros(0, dtype=bool)
        # Kalman states (use_kalman only)
        self._mean = np.zeros((0, 8))
        self._cov = np.zeros((0, 3, 4))
        self._arrays = ("_ids", "_start", "_active", "_misses", "_score", "_emb",
                        "_has_emb") + (("_mean", "_cov") if cfg.use_kalman else ())
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[Track]:
        """Copies of the pool's tracklets as ``Track`` records, in id order."""
        status = [TrackStatus.ACTIVE if a else TrackStatus.LOST
                  for a in self._active.tolist()]
        return [Track(track_id=tid, last_box=box, start_frame=start,
                      smooth_emb=emb.copy() if has else None, status=st,
                      frames_since_update=misses, last_score=score)
                for tid, box, start, emb, has, st, misses, score in zip(
                    self._ids.tolist(), self._boxes, self._start.tolist(), self._emb,
                    self._has_emb.tolist(), status, self._misses.tolist(),
                    self._score.tolist())]

    def active_scores(self) -> list[float]:
        """Last detection score of each active track: the tracks, in the
        order, that the last ``step`` returned."""
        return self._score[self._active].tolist()

    def step(self, frame_index: int, dets: list[Detection]) -> list[tuple[int, BBox]]:
        """Associate one frame of detections; returns (id, box) per active track."""
        cfg = self.cfg
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index {frame_index} not after {self._last_frame}")
        self._last_frame = frame_index
        kalman = cfg.use_kalman
        pool = len(self._ids)

        if kalman and pool:
            self._mean, self._cov = predict(self._mean, self._cov)

        boxes = corners([d.box for d in dets])
        # checked where a filter first uses a row, with measurements' error
        z = measure(boxes) if kalman else None
        emb, has_emb = _embeddings(dets, self._emb.shape[1])
        # a pool holding no embedding takes the width of the first it meets
        if emb.shape[1] != self._emb.shape[1] and not self._has_emb.any():
            self._emb = np.zeros((pool, emb.shape[1]))
        rows = cols = np.zeros(0, dtype=np.int64)  # matches: pool row, detection
        det_pool = np.arange(len(dets))

        # stage 1: appearance, active and lost tracks alike
        if cfg.use_reid and pool and dets:
            if not has_emb.all():
                raise ValueError(f"detection {np.argmin(has_emb)} has no embedding")
            if not self._has_emb.all():
                raise ValueError(
                    f"track {self._ids[np.argmin(self._has_emb)]} has no embedding")
            cost = cosine_distance_matrix(self._emb, emb)
            if kalman:
                check_measurements(z)
                r, c = np.nonzero(cost <= cfg.emb_match_threshold)
                cut = gate(self._mean[r], self._cov[r], z[c]) > cfg.gate_chi2
                cost[r[cut], c[cut]] = np.inf
            matches, _, left = hungarian(cost, max_cost=cfg.emb_match_threshold)
            rows, cols = np.array(matches, dtype=np.int64).reshape(-1, 2).T
            det_pool = np.array(left, dtype=np.int64)

        # stage 2: box overlap, active tracks only
        if cfg.use_iou and det_pool.size:
            open_ = self._active.copy()
            open_[rows] = False
            cand = np.flatnonzero(open_)
            if cand.size:
                if kalman:
                    track_boxes = box_corners(self._mean[cand])
                else:
                    track_boxes = corners([self._boxes[k] for k in cand.tolist()])
                pairs, _, left = hungarian(
                    iou_distance_matrix(track_boxes, boxes[det_pool]),
                    max_cost=cfg.iou_match_threshold)
                i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
                rows = np.concatenate([rows, cand[i]])
                cols = np.concatenate([cols, det_pool[j]])
                det_pool = det_pool[left]

        scores = np.array([d.score for d in dets], dtype=np.float64)
        if rows.size:
            if kalman:
                check_measurements(z[cols])
                self._mean[rows], self._cov[rows] = update(
                    self._mean[rows], self._cov[rows], z[cols])
            for k, j in zip(rows.tolist(), cols.tolist()):
                self._boxes[k] = dets[j].box
            self._score[rows] = scores[cols]
            self._misses[rows] = 0
            self._active[rows] = True
            both = self._has_emb[rows] & has_emb[cols]
            r, c = rows[both], cols[both]
            m = cfg.ema_momentum
            e = m * self._emb[r] + (1.0 - m) * emb[c]
            # one dot per row, as np.linalg.norm takes it, so bit-equal to it
            n = np.sqrt((e[:, None, :] @ e[:, :, None])[:, 0, 0])
            ok = n > 1e-12
            self._emb[r[ok]] = e[ok] / n[ok, None]

        missed = np.ones(pool, dtype=bool)
        missed[rows] = False
        self._misses[missed] += 1
        self._active[missed] = False
        keep = self._misses <= cfg.track_buffer
        if not keep.all():
            for name in self._arrays:
                setattr(self, name, getattr(self, name)[keep])
            self._boxes = [b for b, k in zip(self._boxes, keep.tolist()) if k]

        born = det_pool[scores[det_pool] > cfg.det_threshold]
        if born.size:
            b = born.size
            rows = {"_ids": np.arange(self._next_id, self._next_id + b),
                    "_start": np.full(b, frame_index), "_active": np.ones(b, dtype=bool),
                    "_misses": np.zeros(b, dtype=np.int64), "_score": scores[born],
                    "_emb": emb[born], "_has_emb": has_emb[born]}
            if kalman:
                check_measurements(z[born])
                rows["_mean"], rows["_cov"] = initiate(z[born])
            for name in self._arrays:
                setattr(self, name, np.concatenate([getattr(self, name), rows[name]]))
            self._boxes += [dets[j].box for j in born.tolist()]
            self._next_id += b

        return [(tid, box) for tid, box, active in zip(
            self._ids.tolist(), self._boxes, self._active.tolist()) if active]


def track_sequence(frames: dict[int, list[Detection]],
                   cfg: TrackerConfig = TrackerConfig()
                   ) -> dict[int, list[tuple[int, BBox]]]:
    """Run a fresh tracker over frame-indexed detections; returns per-frame outputs."""
    tracker = OnlineTracker(cfg)
    return {f: tracker.step(f, frames[f]) for f in sorted(frames)}
