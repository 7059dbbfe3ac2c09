"""Deterministic synthetic sequences: ground truth, noisy detections,
identity-conditioned embeddings.

Targets move with exact constant velocity, reflecting off image borders.
Each identity owns a fixed unit anchor vector; detection embeddings are
the anchor plus Gaussian noise, renormalized.  Everything derives from
named child generators of the config seed, so equal configs give
bit-identical output and any frame can be regenerated in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoding import Detection
from .encoding import GtObject, encode_targets
from .geometry import BBox, GridSpec

# child-stream tags so generate() and generate_maps() agree on shared draws
_STREAM_TRAJ = 1
_STREAM_ANCHOR = 2
_STREAM_DET = 3
_STREAM_MAPS = 4

ANCHOR_MAX_COS = 0.3

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
    gt: dict[int, list[tuple[int, BBox]]]
    dets: dict[int, list[Detection]]
    anchors: np.ndarray  # (num_targets, emb_dim), unit rows


def _rng(cfg: SimConfig, *tags: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *tags])


def identity_anchors(cfg: SimConfig) -> np.ndarray:
    """Unit anchor per identity with pairwise cosine <= 0.3.

    Random draws, re-drawn (bounded retries) until separated; when the
    identity count fits the dimension this converges immediately.
    """
    rng = _rng(cfg, _STREAM_ANCHOR)
    k, d = cfg.num_targets, cfg.emb_dim
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
    raise ValueError(
        f"could not separate {k} anchors in {d} dimensions to cos <= {ANCHOR_MAX_COS}")


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


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    if pos < lo:
        return 2 * lo - pos, -vel
    if pos > hi:
        return 2 * hi - pos, -vel
    return pos, vel


def trajectories(cfg: SimConfig) -> dict[int, list[tuple[int, BBox]]]:
    """Exact ground truth, frame -> [(1-based id, box)]."""
    states = _initial_states(cfg)
    out: dict[int, list[tuple[int, BBox]]] = {}
    for f in range(cfg.frames):
        rows = []
        for i in range(cfg.num_targets):
            cx, cy, vx, vy, w, h = states[i]
            rows.append((i + 1, BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
            cx, vx = _reflect(cx + vx, vx, w / 2, cfg.image_w - w / 2)
            cy, vy = _reflect(cy + vy, vy, h / 2, cfg.image_h - h / 2)
            states[i] = (cx, cy, vx, vy, w, h)
        out[f + 1] = rows
    return out


def _occluded(cfg: SimConfig, target_id: int, frame: int) -> bool:
    return any(tid == target_id and first <= frame <= last
               for tid, first, last in cfg.occlusions)


def _noisy_embedding(rng: np.random.Generator, anchor: np.ndarray,
                     std: float) -> np.ndarray:
    v = anchor + rng.normal(0.0, std, size=anchor.size) if std > 0 else anchor.copy()
    return v / np.linalg.norm(v)


def generate(cfg: SimConfig) -> SimOutput:
    """Ground truth plus detector output for the whole sequence."""
    gt = trajectories(cfg)
    anchors = identity_anchors(cfg)
    dets: dict[int, list[Detection]] = {}
    for frame in sorted(gt):
        rng = _rng(cfg, _STREAM_DET, frame)
        rows: list[Detection] = []
        for tid, box in gt[frame]:
            if _occluded(cfg, tid, frame):
                continue
            if cfg.det_dropout_prob > 0 and rng.random() < cfg.det_dropout_prob:
                continue
            if cfg.box_noise_std > 0:
                cx, cy = box.center
                cx += rng.normal(0, cfg.box_noise_std)
                cy += rng.normal(0, cfg.box_noise_std)
                w = max(box.width + rng.normal(0, cfg.box_noise_std), 4.0)
                h = max(box.height + rng.normal(0, cfg.box_noise_std), 4.0)
                det_box = BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            else:
                det_box = box  # bit-exact pass-through
            score = rng.uniform(0.75, 1.0)
            emb = _noisy_embedding(rng, anchors[tid - 1], cfg.emb_noise_std)
            rows.append(Detection(box=det_box, score=score, embedding=emb))
        if cfg.fp_rate > 0:
            for _ in range(rng.poisson(cfg.fp_rate)):
                w = rng.uniform(25.0, FP_MAX_W)
                h = rng.uniform(50.0, FP_MAX_H)
                cx = rng.uniform(w / 2, cfg.image_w - w / 2)
                cy = rng.uniform(h / 2, cfg.image_h - h / 2)
                v = rng.normal(size=cfg.emb_dim)
                rows.append(Detection(
                    box=BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                    score=rng.uniform(0.45, 0.95),
                    embedding=v / np.linalg.norm(v)))
        dets[frame] = rows
    return SimOutput(gt=gt, dets=dets, anchors=anchors)


def generate_maps(cfg: SimConfig, frame: int,
                  stride: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Supervision-style maps for one frame with embeddings planted at centers.

    Decoding these maps recovers the frame's ground truth (for
    collision-free frames) along with per-identity embeddings.
    """
    gt = trajectories(cfg)
    if frame not in gt:
        raise ValueError(f"frame {frame} outside 1..{cfg.frames}")
    grid = GridSpec(cfg.image_w, cfg.image_h, stride)
    objs = [GtObject(box, tid - 1) for tid, box in gt[frame]]
    maps = encode_targets(objs, grid, cfg.num_targets)

    anchors = identity_anchors(cfg)
    rng = _rng(cfg, _STREAM_MAPS, frame)
    emb = np.zeros((cfg.emb_dim, grid.feat_h, grid.feat_w))
    ys, xs = np.nonzero(maps.center_mask)
    for y, x in zip(ys, xs):
        ident = int(maps.identity_index[y, x])
        emb[:, y, x] = _noisy_embedding(rng, anchors[ident], cfg.emb_noise_std)
    return maps.heatmap, maps.offsets, maps.sizes, emb
