"""Training losses with hand-derived gradients.

No autodiff and no network here: these are reference implementations
meant to be checked against finite differences, usable as the loss
oracle for any external trainer.

Maps come in and go out as plain float64 numpy arrays: a prediction is
read once as float64 and checked against the target's shape, and each
gradient is an array of the prediction's shape.

Conventions that matter and are easy to get wrong elsewhere:
  - the heatmap focal loss normalizes by the object count N, not the
    pixel count;
  - the box l1 loss and the identity cross-entropy are *sums* over
    objects, never means;
  - predictions are clipped to [eps, 1-eps] before any log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import TargetMaps

EPS = 1e-7


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 2.0
    beta: float = 4.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("focal alpha/beta must be non-negative")


@dataclass(frozen=True)
class UncertaintyParams:
    """Learnable task-balancing log-variances."""

    w1: float = 0.0
    w2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.w1) and np.isfinite(self.w2)):
            raise ValueError("uncertainty weights must be finite")


def focal_loss(pred, target, params: FocalParams = FocalParams(),
               N: int = 1) -> tuple[float, np.ndarray]:
    """Penalty-reduced pixel-wise focal loss over an (H, W) center heatmap.

    Cells where the target is exactly 1 are positives; everywhere else
    the target Gaussian value penalty-reduces the negative term.
    Returns (loss, d loss / d pred).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"pred must be a 2-d heatmap, got shape {p.shape}")
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs target {t.shape}")
    if t.min() < 0 or t.max() > 1:
        raise ValueError("target values must lie in [0, 1]")

    a, b = params.alpha, params.beta
    clipped = np.clip(p, EPS, 1.0 - EPS)
    pos = t == 1.0

    log_p = np.log(clipped)
    log_1p = np.log1p(-clipped)
    pos_term = (1.0 - clipped) ** a * log_p
    neg_term = (1.0 - t) ** b * clipped ** a * log_1p
    loss = -float(np.sum(np.where(pos, pos_term, neg_term))) / N

    # d/dp of each branch, at the clipped value; clipping saturates the
    # gradient to zero outside [eps, 1-eps]
    d_pos = a * (1.0 - clipped) ** (a - 1.0) * log_p - (1.0 - clipped) ** a / clipped
    d_neg = -(1.0 - t) ** b * (a * clipped ** (a - 1.0) * log_1p
                               - clipped ** a / (1.0 - clipped))
    grad = np.where(pos, d_pos, d_neg) / N
    grad = np.where((p > EPS) & (p < 1.0 - EPS), grad, 0.0)
    return loss, grad


def box_loss(pred_off, pred_size,
             targets: TargetMaps) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Summed l1 error of (2, H, W) offsets and sizes at annotated centers only.

    Gradients are the l1 subgradient (sign of the residual, zero at
    exact equality), nonzero only where the center mask is set.
    """
    po = np.asarray(pred_off, dtype=np.float64)
    ps = np.asarray(pred_size, dtype=np.float64)
    to, ts = targets.offsets, targets.sizes
    if po.shape != to.shape or ps.shape != ts.shape:
        raise ValueError("prediction maps do not match target grid")

    m = targets.center_mask[None, :, :]
    off_res = np.where(m, po - to, 0.0)
    size_res = np.where(m, ps - ts, 0.0)
    loss = float(np.abs(off_res).sum() + np.abs(size_res).sum())
    return loss, (np.sign(off_res), np.sign(size_res))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reid_loss(logits: list[np.ndarray], labels: list[int]) -> tuple[float, list[np.ndarray]]:
    """Identity classification cross-entropy, summed over objects.

    One logit vector per annotated center; softmax is applied here.
    Gradient w.r.t. each logit vector is softmax - onehot.
    """
    if len(logits) != len(labels):
        raise ValueError(f"{len(logits)} logit vectors for {len(labels)} labels")
    loss = 0.0
    grads = []
    for z, k in zip(logits, labels):
        z = np.asarray(z, dtype=np.float64).ravel()
        if not 0 <= k < z.size:
            raise ValueError(f"label {k} out of range for {z.size} classes")
        p = _softmax(z)
        loss -= float(np.log(max(p[k], EPS)))
        g = p.copy()
        g[k] -= 1.0
        grads.append(g)
    return loss, grads


def total_loss(heat: float, box: float, identity: float,
               u: UncertaintyParams = UncertaintyParams()) -> tuple[float, tuple[float, float]]:
    """Uncertainty-weighted combination of detection and identity losses.

    total = 0.5 * (exp(-w1) * (heat + box) + exp(-w2) * identity + w1 + w2)

    Returns (total, (d/dw1, d/dw2)).
    """
    for name, v in (("heat", heat), ("box", box), ("identity", identity)):
        if not np.isfinite(v):
            raise ValueError(f"{name} loss is not finite: {v}")
    det = heat + box
    e1 = np.exp(-u.w1)
    e2 = np.exp(-u.w2)
    total = 0.5 * (e1 * det + e2 * identity + u.w1 + u.w2)
    return float(total), (0.5 * (1.0 - e1 * det), 0.5 * (1.0 - e2 * identity))


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, component by component."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return out


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float((np.abs(a - n) / denom).max())


def gradcheck_run(seeds: int = 50, size: int = 8, num_classes: int = 8,
                  h: float = 1e-6) -> dict[str, float]:
    """Worst relative error of each analytic gradient vs finite differences.

    Random fixtures per seed: a heatmap with a handful of positive cells
    plus offset/size targets, random predictions, random logits, random
    uncertainty weights.  Components below 1e-4 in magnitude are compared
    on that absolute scale instead (finite-difference noise floor).
    """
    from .encoding import GtObject, encode_targets
    from .geometry import BBox, GridSpec

    worst = {"focal": 0.0, "box": 0.0, "reid": 0.0, "total": 0.0}
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        grid = GridSpec(size * 4, size * 4, 4)
        objs = []
        for _ in range(rng.integers(1, 4)):
            w = float(rng.uniform(6.0, 16.0))
            hh = float(rng.uniform(6.0, 16.0))
            cx = float(rng.uniform(w / 2, size * 4 - w / 2))
            cy = float(rng.uniform(hh / 2, size * 4 - hh / 2))
            objs.append(GtObject(BBox(cx - w / 2, cy - hh / 2, cx + w / 2, cy + hh / 2),
                                 int(rng.integers(0, num_classes))))
        targets = encode_targets(objs, grid, num_classes)
        n = max(targets.num_objects, 1)

        pred = rng.uniform(0.05, 0.95, (size, size))
        _, g = focal_loss(pred, targets.heatmap, N=n)
        num = numeric_gradient(lambda x: focal_loss(x, targets.heatmap, N=n)[0], pred, h)
        worst["focal"] = max(worst["focal"], _rel_err(g, num))

        po = rng.uniform(-1.0, 2.0, (2, size, size))
        ps = rng.uniform(1.0, 30.0, (2, size, size))
        _, (go, gs) = box_loss(po, ps, targets)
        num_o = numeric_gradient(lambda x: box_loss(x, ps, targets)[0], po, h)
        num_s = numeric_gradient(lambda x: box_loss(po, x, targets)[0], ps, h)
        worst["box"] = max(worst["box"], _rel_err(go, num_o), _rel_err(gs, num_s))

        logits = [rng.normal(0, 2.0, num_classes) for _ in range(n)]
        labels = [int(rng.integers(0, num_classes)) for _ in range(n)]
        _, gl = reid_loss(logits, labels)
        for i in range(n):
            def f_logit(x, i=i):
                probe = [x if k == i else logits[k] for k in range(n)]
                return reid_loss(probe, labels)[0]
            worst["reid"] = max(worst["reid"],
                                _rel_err(gl[i], numeric_gradient(f_logit, logits[i], h)))

        lh, lb, li = rng.uniform(0.1, 5.0, 3)
        w = rng.normal(0, 1.0, 2)
        _, (g1, g2) = total_loss(lh, lb, li, UncertaintyParams(w[0], w[1]))
        num_w = numeric_gradient(
            lambda x: total_loss(lh, lb, li, UncertaintyParams(x[0], x[1]))[0], w, h)
        worst["total"] = max(worst["total"],
                             _rel_err(np.array([g1, g2]), num_w))
    return worst

