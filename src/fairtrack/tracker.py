"""Frame-by-frame association of detections to tracklets.

Two-stage cascade per frame: appearance first (cosine distance between
smoothed track embeddings and detection embeddings, motion-gated), then
box overlap (1 - IoU) for whatever is left.  Lost tracks may only be
recovered through appearance; the overlap stage sees active tracks only.
Each ingredient (re-ID, IoU, Kalman) can be toggled off to measure its
contribution.

Each frame works on whole arrays, never on track x detection pairs in
Python.  The pool keeps its Kalman states as a ``(T, 8)`` mean and a
``(T, 3, 4)`` stack of per-coordinate (position, velocity) covariance
blocks, exact because the filter moves each box coordinate on its own
(see ``kalman``); row k belongs to the k-th ``Track``, and one call
predicts every state.  The frame's detections become one
``(N, 4)`` measurement array, the motion gate is the ``(T, N)`` matrix of
Mahalanobis distances, applied to the cost as a mask.  Appearance cost is
one product of the ``(T, D)`` and ``(N, D)`` embedding stacks, overlap
cost one broadcast over ``(T, 4)`` and ``(N, 4)`` box corners.  Each stage
passes its threshold to ``hungarian``, which forbids the pairs above it
(and the gated ones) before solving, so a pair over the threshold never
takes a track or detection from a valid match; the allowed pairs of a
crowded frame split into components of a few nodes, each solved on its
own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .decoding import Detection
from .geometry import BBox, corners, iou_matrix
from .kalman import GATE_CHI2, box_corners, gate, initiate, measurements, predict, \
    update


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
    track_id: int
    last_box: BBox
    start_frame: int
    smooth_emb: np.ndarray | None = None
    status: TrackStatus = TrackStatus.ACTIVE
    frames_since_update: int = 0
    last_score: float = 1.0


def cosine_distance_matrix(tracks: list[Track], dets: list[Detection]) -> np.ndarray:
    """1 - cosine similarity between track and detection embeddings, in [0, 2]."""
    for j, d in enumerate(dets):
        if d.embedding is None:
            raise ValueError(f"detection {j} has no embedding")
    for t in tracks:
        if t.smooth_emb is None:
            raise ValueError(f"track {t.track_id} has no embedding")
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)))
    e_t = np.array([t.smooth_emb for t in tracks])
    e_d = np.array([d.embedding for d in dets])
    return np.clip(1.0 - e_t @ e_d.T, 0.0, 2.0)


def iou_distance_matrix(track_boxes: np.ndarray, det_boxes: np.ndarray) -> np.ndarray:
    """1 - IoU between (T, 4) and (N, 4) box-corner arrays."""
    return 1.0 - iou_matrix(track_boxes, det_boxes)


class OnlineTracker:
    """Owns the tracklet pool; step() is called once per frame, in order."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self._tracks: list[Track] = []
        # Kalman states of the pool (use_kalman only): row k is self._tracks[k]
        self._mean = np.zeros((0, 8))
        self._cov = np.zeros((0, 3, 4))
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[Track]:
        return list(self._tracks)

    def step(self, frame_index: int, dets: list[Detection]) -> list[tuple[int, BBox]]:
        """Associate one frame of detections; returns (id, box) per active track."""
        cfg = self.cfg
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index {frame_index} not after {self._last_frame}")
        self._last_frame = frame_index
        kalman = cfg.use_kalman
        tracks = self._tracks

        if kalman and tracks:
            self._mean, self._cov = predict(self._mean, self._cov)

        matches: list[tuple[int, int]] = []  # (pool row, detection index)
        det_pool = list(range(len(dets)))

        # stage 1: appearance, active and lost tracks alike
        if cfg.use_reid and tracks and dets:
            cost = cosine_distance_matrix(tracks, dets)
            if kalman:
                d2 = gate(self._mean, self._cov, measurements([d.box for d in dets]))
                cost[d2 > cfg.gate_chi2] = np.inf
            matches, _, det_pool = hungarian(cost, max_cost=cfg.emb_match_threshold)

        # stage 2: box overlap, active tracks only
        if cfg.use_iou and det_pool:
            done = {k for k, _ in matches}
            cand = [k for k, t in enumerate(tracks)
                    if t.status is TrackStatus.ACTIVE and k not in done]
            if cand:
                if kalman:
                    track_boxes = box_corners(self._mean[cand])
                else:
                    track_boxes = corners([tracks[k].last_box for k in cand])
                cost = iou_distance_matrix(
                    track_boxes, corners([dets[j].box for j in det_pool]))
                pairs, _, left = hungarian(cost, max_cost=cfg.iou_match_threshold)
                matches = matches + [(cand[i], det_pool[j]) for i, j in pairs]
                det_pool = [det_pool[j] for j in left]

        if kalman and matches:
            rows = [k for k, _ in matches]
            self._mean[rows], self._cov[rows] = update(
                self._mean[rows], self._cov[rows],
                measurements([dets[j].box for _, j in matches]))
        for k, j in matches:
            t, d = tracks[k], dets[j]
            t.last_box = d.box
            t.last_score = d.score
            t.frames_since_update = 0
            t.status = TrackStatus.ACTIVE
            if t.smooth_emb is not None and d.embedding is not None:
                m = cfg.ema_momentum
                e = m * t.smooth_emb + (1.0 - m) * d.embedding
                n = np.linalg.norm(e)
                if n > 1e-12:
                    t.smooth_emb = e / n

        matched = {k for k, _ in matches}
        keep = []
        for k, t in enumerate(tracks):
            if k not in matched:
                t.frames_since_update += 1
                if t.frames_since_update > cfg.track_buffer:
                    continue
                t.status = TrackStatus.LOST
            keep.append(k)
        if len(keep) < len(tracks):
            self._tracks = tracks = [tracks[k] for k in keep]
            if kalman:
                self._mean, self._cov = self._mean[keep], self._cov[keep]

        born = [dets[j] for j in det_pool if dets[j].score > cfg.det_threshold]
        if kalman and born:
            mean, cov = initiate(measurements([d.box for d in born]))
            self._mean = np.concatenate([self._mean, mean])
            self._cov = np.concatenate([self._cov, cov])
        for d in born:
            tracks.append(Track(
                track_id=self._next_id,
                last_box=d.box,
                start_frame=frame_index,
                smooth_emb=None if d.embedding is None else d.embedding.copy(),
                last_score=d.score,
            ))
            self._next_id += 1

        out = [(t.track_id, t.last_box) for t in tracks
               if t.status is TrackStatus.ACTIVE]
        out.sort(key=lambda pair: pair[0])
        return out


def track_sequence(frames: dict[int, list[Detection]],
                   cfg: TrackerConfig = TrackerConfig()
                   ) -> dict[int, list[tuple[int, BBox]]]:
    """Run a fresh tracker over frame-indexed detections; returns per-frame outputs."""
    tracker = OnlineTracker(cfg)
    return {f: tracker.step(f, frames[f]) for f in sorted(frames)}
