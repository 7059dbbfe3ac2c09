"""Deterministic synthetic sequences: ground truth, noisy detections,
identity-conditioned embeddings.

Targets move with exact constant velocity, reflecting off image borders.
Each identity owns a fixed unit anchor vector; detection embeddings are
the anchor plus Gaussian noise, renormalized.  Everything derives from
named child generators of the config seed, so equal configs give
bit-identical output and any frame can be regenerated in isolation.

``frame_columns`` yields the sequence one frame at a time as columns:
the ground-truth corners and the frame's ``DetectionColumns``.  The
random draws are made per detection, in a fixed order, and the
arithmetic runs on the frame's arrays.  ``generate`` returns the ground
truth as one ``geometry.MotTable`` (frames 1..F, ids 1..k in every
frame, conf 1), the form ``mot_io.read_mot`` gives a gt file and the
metrics take, concatenated from the same per-frame corner arrays; only
the detections become objects, ``Detection``s built from each frame's
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .decoding import Detection, row_norms
from .encoding import encode_targets
from .geometry import BBox, GridSpec, MotTable
from .tracker import DetectionColumns

# child-stream tags so generate() and generate_maps() agree on shared draws
_STREAM_TRAJ = 1
_STREAM_ANCHOR = 2
_STREAM_DET = 3
_STREAM_MAPS = 4

ANCHOR_MAX_COS = 0.3
# Unit vectors in the plane pairwise at least arccos(ANCHOR_MAX_COS) apart
# around the circle: at most 4.
_PLANE_MAX_ANCHORS = int(2.0 * np.pi / np.arccos(ANCHOR_MAX_COS))

# Largest box generate() draws, false positives included (targets reach
# 60 x 120): the image must hold it for the centre draws to have a range.
FP_MAX_W = 70.0
FP_MAX_H = 130.0

# Cap on fp_rate, box_noise_std and emb_noise_std, far past where any signal
# is left.  Larger values overflow: the Poisson draw of false positives
# fails beyond about 9.2e18, and embedding norms overflow near 1e153.
MAX_NOISE = 1e6


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    frames: int = 100
    num_targets: int = 10
    image_w: int = 1280
    image_h: int = 720
    scenario: str = "random"  # or "crossing"
    det_dropout_prob: float = 0.0
    fp_rate: float = 0.0
    box_noise_std: float = 0.0
    emb_dim: int = 64
    emb_noise_std: float = 0.0
    occlusions: tuple[tuple[int, int, int], ...] = ()  # (target id, first, last)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.image_w < FP_MAX_W or self.image_h < FP_MAX_H:
            raise ValueError(
                f"image size must be at least {FP_MAX_W:g}x{FP_MAX_H:g} to hold "
                f"the largest box, got {self.image_w}x{self.image_h}")
        if self.frames < 1 or self.num_targets < 1:
            raise ValueError("frames and num_targets must be positive")
        if self.emb_dim < 2:
            raise ValueError(f"emb_dim must be >= 2, got {self.emb_dim}")
        if not 0.0 <= self.det_dropout_prob < 1.0:
            raise ValueError("det_dropout_prob must be in [0, 1)")
        if not all(0 <= v <= MAX_NOISE for v in
                   (self.fp_rate, self.box_noise_std, self.emb_noise_std)):
            raise ValueError(f"noise rates must be in [0, {MAX_NOISE:g}]")
        if self.scenario not in ("random", "crossing"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "crossing" and self.num_targets < 2:
            raise ValueError("crossing scenario needs at least 2 targets")


@dataclass(frozen=True, eq=False)
class SimOutput:
    gt: MotTable  # exact ground truth: every target in every frame, ids 1..k, conf 1
    dets: dict[int, list[Detection]]
    anchors: np.ndarray  # (num_targets, emb_dim), unit rows


def _rng(cfg: SimConfig, *tags: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *tags])


def identity_anchors(cfg: SimConfig) -> np.ndarray:
    """Unit anchor per identity with pairwise cosine <= 0.3.

    Random draws, re-drawn (bounded retries) until separated; when the
    identity count fits the dimension this converges immediately.  In the
    plane (``emb_dim`` 2) a count that cannot be separated is refused at
    once, before any draw.
    """
    k, d = cfg.num_targets, cfg.emb_dim
    infeasible = f"could not separate {k} anchors in {d} dimensions to cos <= {ANCHOR_MAX_COS}"
    if d == 2 and k > _PLANE_MAX_ANCHORS:
        raise ValueError(infeasible)
    rng = _rng(cfg, _STREAM_ANCHOR)
    anchors = rng.normal(size=(k, d))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    for _ in range(10_000):
        gram = anchors @ anchors.T
        np.fill_diagonal(gram, 0.0)
        i, j = np.unravel_index(np.argmax(gram), gram.shape)
        if gram[i, j] <= ANCHOR_MAX_COS:
            return anchors
        # push the worse-separated vector away from its neighbor
        v = anchors[j] - gram[i, j] * anchors[i] + 0.1 * rng.normal(size=d)
        anchors[j] = v / np.linalg.norm(v)
    # crowded regime: the one-at-a-time nudge stalls, so push every
    # violating pair apart jointly, with periodic kicks to break symmetry
    for it in range(50_000):
        gram = anchors @ anchors.T
        np.fill_diagonal(gram, 0.0)
        excess = np.maximum(gram - ANCHOR_MAX_COS, 0.0)
        if excess.max() == 0.0:
            return anchors
        anchors -= 0.3 * (excess @ anchors)
        if it % 500 == 499:
            anchors += 0.05 * rng.normal(size=anchors.shape)
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    raise ValueError(infeasible)


def _initial_states(cfg: SimConfig) -> np.ndarray:
    """Per target: cx, cy, vx, vy, w, h at frame 0."""
    rng = _rng(cfg, _STREAM_TRAJ)
    states = np.zeros((cfg.num_targets, 6))
    for i in range(cfg.num_targets):
        w = rng.uniform(30.0, 60.0)
        h = rng.uniform(60.0, 120.0)
        cx = rng.uniform(w / 2, cfg.image_w - w / 2)
        cy = rng.uniform(h / 2, cfg.image_h - h / 2)
        vx, vy = rng.uniform(-6.0, 6.0, size=2)
        states[i] = (cx, cy, vx, vy, w, h)

    if cfg.scenario == "crossing":
        # first two targets swap horizontal positions, meeting exactly
        # mid-sequence with identical boxes; each starts with its centre
        # at least 80 px from the border, so in an image at most 160 px
        # wide both stand still at the image centre
        cross = max(cfg.frames // 2, 1)
        speed = min(4.0, max(cfg.image_w / 2 - 80.0, 0.0) / cross)
        d = speed * cross
        w, h = 45.0, 90.0
        cy = cfg.image_h / 2.0
        states[0] = (cfg.image_w / 2 - d, cy, speed, 0.0, w, h)
        states[1] = (cfg.image_w / 2 + d, cy, -speed, 0.0, w, h)
    return states


def _truth(cfg: SimConfig) -> Iterator[np.ndarray]:
    """Exact ground truth, one (num_targets, 4) corner array per frame from frame 1.

    Row i is target i + 1.  Each coordinate of each target steps on its
    own, so stepping them as (num_targets, 2) columns gives the values of
    a per-target, per-axis loop.
    """
    cx, cy, vx, vy, w, h = _initial_states(cfg).T
    pos, vel = np.stack([cx, cy], axis=1), np.stack([vx, vy], axis=1)
    half = np.stack([w / 2, h / 2], axis=1)
    lo, hi = half, np.stack([cfg.image_w - w / 2, cfg.image_h - h / 2], axis=1)
    for _ in range(cfg.frames):
        yield np.concatenate([pos - half, pos + half], axis=1)
        pos = pos + vel
        below, above = pos < lo, pos > hi  # reflect off the borders
        pos = np.where(below, 2 * lo - pos, np.where(above, 2 * hi - pos, pos))
        vel = np.where(below | above, -vel, vel)


def _gt_table(truths: list[np.ndarray]) -> MotTable:
    """The per-frame truth arrays of frames 1..F as one table, row i of a
    frame being target i + 1."""
    frames, k = len(truths), len(truths[0])
    return MotTable(np.arange(1, frames + 1, dtype=np.int64),
                    np.arange(0, (frames + 1) * k, k, dtype=np.int64),
                    np.tile(np.arange(1, k + 1, dtype=np.int64), frames),
                    np.concatenate(truths), np.ones(frames * k))


def trajectories(cfg: SimConfig) -> MotTable:
    """Exact ground truth as the table ``generate`` returns."""
    return _gt_table(list(_truth(cfg)))


def _noisy_embedding(rng: np.random.Generator, anchor: np.ndarray,
                     std: float) -> np.ndarray:
    v = anchor + rng.normal(0.0, std, size=anchor.size) if std > 0 else anchor.copy()
    return v / np.linalg.norm(v)


def _detections(cfg: SimConfig, frame: int, truth: np.ndarray,
                anchors: np.ndarray) -> tuple[DetectionColumns, int]:
    """One frame's detector output as columns, and how many of its rows are targets.

    The rows are the detected targets in id order, then the false
    positives.  The random draws are made row by row, in the order of a
    per-detection loop (a target's dropout, box noise, score and
    embedding noise; a false positive's size, centre, embedding and
    score), so the streams and the values are those of that loop; the
    arithmetic then runs on the frame's columns.
    """
    rng = _rng(cfg, _STREAM_DET, frame)
    box_std, emb_std, dim = cfg.box_noise_std, cfg.emb_noise_std, cfg.emb_dim
    hidden = np.zeros(len(truth), dtype=bool)
    for tid, first, last in cfg.occlusions:
        if first <= frame <= last and 1 <= tid <= len(truth):
            hidden[tid - 1] = True
    kept, box_noise, scores, emb_noise = [], [], [], []
    for i in np.flatnonzero(~hidden).tolist():
        if cfg.det_dropout_prob > 0 and rng.random() < cfg.det_dropout_prob:
            continue
        kept.append(i)
        if box_std > 0:
            box_noise.append(rng.normal(0, box_std, size=4))  # cx, cy, w, h
        scores.append(rng.uniform(0.75, 1.0))
        if emb_std > 0:
            emb_noise.append(rng.normal(0.0, emb_std, size=dim))
    boxes, emb = truth[kept], anchors[kept]
    if box_noise:
        n = np.array(box_noise)
        lo, hi = boxes[:, :2], boxes[:, 2:]
        center = (lo + hi) / 2.0 + n[:, :2]
        size = (hi - lo) + n[:, 2:]
        half = np.where(4.0 > size, 4.0, size) / 2  # max(size, 4.0) / 2
        boxes = np.concatenate([center - half, center + half], axis=1)
    if emb_noise:
        emb = emb + np.array(emb_noise)
    fp_boxes, fp_emb = [], []
    for _ in range(rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0):
        w = rng.uniform(25.0, FP_MAX_W)
        h = rng.uniform(50.0, FP_MAX_H)
        cx = rng.uniform(w / 2, cfg.image_w - w / 2)
        cy = rng.uniform(h / 2, cfg.image_h - h / 2)
        fp_boxes.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
        fp_emb.append(rng.normal(size=dim))
        scores.append(rng.uniform(0.45, 0.95))
    if fp_boxes:
        boxes = np.concatenate([boxes, np.array(fp_boxes)])
        emb = np.concatenate([emb, np.array(fp_emb)])
    return DetectionColumns(boxes, np.array(scores, dtype=np.float64),
                            emb / row_norms(emb)[:, None]), len(kept)


def frame_columns(cfg: SimConfig) -> Iterator[tuple[int, np.ndarray, DetectionColumns]]:
    """The sequence one frame at a time: (frame, ground-truth corners, detections).

    Ground-truth row i is target i + 1.  These are the values ``generate``
    builds its ground-truth table and its ``Detection`` objects from.
    """
    anchors = identity_anchors(cfg)
    for frame, truth in enumerate(_truth(cfg), 1):
        yield frame, truth, _detections(cfg, frame, truth, anchors)[0]


def generate(cfg: SimConfig) -> SimOutput:
    """Ground truth (one table) plus detector output for the whole sequence."""
    anchors = identity_anchors(cfg)
    truths = list(_truth(cfg))
    dets: dict[int, list[Detection]] = {}
    for frame, truth in enumerate(truths, 1):
        (boxes, scores, emb), targets = _detections(cfg, frame, truth, anchors)
        # a target's corners are numpy float64 scalars, a false positive's
        # Python floats, as the arithmetic of each row gives them; repr tells
        rows = [*boxes[:targets], *boxes[targets:].tolist()]
        dets[frame] = [Detection(BBox(*b), s, e)
                       for b, s, e in zip(rows, scores.tolist(), emb)]
    return SimOutput(gt=_gt_table(truths), dets=dets, anchors=anchors)


def generate_maps(cfg: SimConfig, frame: int,
                  stride: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Supervision-style maps for one frame with embeddings planted at centers.

    Decoding these maps recovers the frame's ground truth (for
    collision-free frames) along with per-identity embeddings.
    """
    if frame not in range(1, cfg.frames + 1):
        raise ValueError(f"frame {frame} outside 1..{cfg.frames}")
    gt = trajectories(cfg)
    rows = slice(gt.start[frame - 1], gt.start[frame])
    grid = GridSpec(cfg.image_w, cfg.image_h, stride)
    maps = encode_targets((gt.boxes[rows], gt.ids[rows] - 1), grid, cfg.num_targets)

    anchors = identity_anchors(cfg)
    rng = _rng(cfg, _STREAM_MAPS, frame)
    emb = np.zeros((cfg.emb_dim, grid.feat_h, grid.feat_w))
    for (x, y), ident in zip(maps.cells.tolist(), maps.identities.tolist()):
        emb[:, y, x] = _noisy_embedding(rng, anchors[ident], cfg.emb_noise_std)
    return maps.heatmap, maps.offsets, maps.sizes, emb
