import math

import numpy as np
import pytest

from fairtrack.encoding import GtObject, encode_targets
from fairtrack.geometry import BBox, GridSpec
from fairtrack.losses import (
    FocalParams,
    UncertaintyParams,
    box_loss,
    focal_loss,
    gradcheck_run,
    numeric_gradient,
    reid_loss,
    total_loss,
)

GRID8 = GridSpec(32, 32, 4)


# --- focal -----------------------------------------------------------------

def test_focal_near_zero_at_perfect_positive():
    loss, _ = focal_loss([[1.0 - 1e-7]], [[1.0]], N=1)
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_focal_positive_branch_value():
    loss, _ = focal_loss([[0.5]], [[1.0]], N=1)
    assert loss == pytest.approx(-(0.25 * math.log(0.5)), abs=1e-12)
    assert loss == pytest.approx(0.173287, abs=1e-6)


def test_focal_negative_branch_value():
    loss, _ = focal_loss([[0.5]], [[0.5]], N=1)
    assert loss == pytest.approx(-(0.5 ** 4 * 0.5 ** 2 * math.log(0.5)), abs=1e-12)


def test_focal_n_normalization():
    pred = [[0.5, 0.5]]
    target = [[1.0, 1.0]]
    l1, _ = focal_loss(pred, target, N=1)
    l2, _ = focal_loss(pred, target, N=2)
    assert l1 == pytest.approx(2 * l2)


def test_focal_requires_positive_n():
    with pytest.raises(ValueError):
        focal_loss([[0.5]], [[1.0]], N=0)


def test_focal_shape_mismatch():
    with pytest.raises(ValueError):
        focal_loss([[0.5]], [[1.0, 0.0]], N=1)


def test_focal_non_negative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.uniform(0.01, 0.99, (5, 5))
        target = np.where(rng.random((5, 5)) < 0.2, 1.0, rng.uniform(0, 0.9, (5, 5)))
        loss, _ = focal_loss(pred, target, N=max(int((target == 1.0).sum()), 1))
        assert loss >= 0.0


def test_focal_zero_iff_exact_binary_match():
    target = np.zeros((3, 3))
    target[1, 1] = 1.0
    pred = np.clip(target, 1e-7, 1 - 1e-7)
    loss, _ = focal_loss(pred, target, N=1)
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_focal_gradient_matches_fd():
    rng = np.random.default_rng(3)
    target = np.where(rng.random((4, 4)) < 0.3, 1.0, rng.uniform(0, 0.95, (4, 4)))
    pred = rng.uniform(0.05, 0.95, (4, 4))
    n = max(int((target == 1.0).sum()), 1)
    _, grad = focal_loss(pred, target, N=n)
    fd = numeric_gradient(lambda x: focal_loss(x, target, N=n)[0], pred)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_focal_params_validation():
    with pytest.raises(ValueError):
        FocalParams(alpha=-1)


# --- box -------------------------------------------------------------------

def _one_object_targets():
    return encode_targets([GtObject(BBox(8, 8, 20, 24), 0)], GRID8, 1)


def test_box_loss_zero_when_equal():
    t = _one_object_targets()
    loss, _ = box_loss(t.offsets, t.sizes, t)
    assert loss == 0.0


def test_box_loss_hand_value():
    t = _one_object_targets()
    po = t.offsets.copy()
    ps = t.sizes.copy()
    ys, xs = np.nonzero(t.center_mask)
    y, x = ys[0], xs[0]
    po[0, y, x] += 0.1
    po[1, y, x] -= 0.2
    ps[0, y, x] += 1.0
    ps[1, y, x] -= 3.0
    loss, (go, gs) = box_loss(po, ps, t)
    assert loss == pytest.approx(4.3)
    assert go[0, y, x] == 1.0
    assert go[1, y, x] == -1.0
    assert gs[0, y, x] == 1.0
    assert gs[1, y, x] == -1.0


def test_box_loss_off_mask_errors_ignored():
    t = _one_object_targets()
    po = t.offsets + 100.0  # error everywhere, including off-mask
    ps = t.sizes.copy()
    loss, (go, _) = box_loss(po, ps, t)
    assert loss == pytest.approx(200.0)  # only the two masked offset channels
    assert (go[:, ~t.center_mask] == 0.0).all()


def test_box_loss_empty_mask():
    t = encode_targets([], GRID8, 1)
    loss, _ = box_loss(t.offsets, t.sizes, t)
    assert loss == 0.0


# --- identity --------------------------------------------------------------

def test_reid_uniform_logits():
    loss, _ = reid_loss([np.zeros(4)], [2])
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_reid_perfect_prediction():
    z = np.array([50.0, 0.0, 0.0])
    loss, _ = reid_loss([z], [0])
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_reid_known_probability():
    # logits chosen so softmax(correct) = 0.7
    p = np.array([0.7, 0.2, 0.1])
    loss, _ = reid_loss([np.log(p)], [0])
    assert loss == pytest.approx(-math.log(0.7), abs=1e-12)
    assert loss == pytest.approx(0.356675, abs=1e-6)


def test_reid_sums_over_objects():
    z = np.log(np.array([0.7, 0.2, 0.1]))
    loss, grads = reid_loss([z, z], [0, 1])
    assert loss == pytest.approx(-math.log(0.7) - math.log(0.2), abs=1e-12)
    assert len(grads) == 2


def test_reid_grad_is_softmax_minus_onehot():
    z = np.array([1.0, -0.5, 2.0, 0.0])
    _, (g,) = reid_loss([z], [2])
    p = np.exp(z - z.max())
    p /= p.sum()
    expected = p.copy()
    expected[2] -= 1.0
    assert np.allclose(g, expected, atol=1e-12)


def test_reid_label_out_of_range():
    with pytest.raises(ValueError):
        reid_loss([np.zeros(4)], [4])


def test_reid_length_mismatch():
    with pytest.raises(ValueError):
        reid_loss([np.zeros(4)], [0, 1])


# --- uncertainty-weighted total -------------------------------------------

def test_total_zero_weights():
    total, _ = total_loss(1.0, 1.0, 4.0)
    assert total == pytest.approx(3.0)


def test_total_hand_value():
    total, _ = total_loss(1.0, 1.0, 1.0, UncertaintyParams(math.log(2), 0.0))
    assert total == pytest.approx(0.5 * (1 + 1 + math.log(2)), abs=1e-12)
    assert total == pytest.approx(1.346574, abs=1e-6)


def test_total_stationary_gradient():
    _, (g1, _) = total_loss(1.0, 0.0, 2.0, UncertaintyParams(0.0, 0.0))
    assert g1 == pytest.approx(0.0)


def test_total_gradients_match_fd():
    w = np.array([0.3, -0.7])
    _, (g1, g2) = total_loss(2.0, 1.5, 0.8, UncertaintyParams(w[0], w[1]))
    fd = numeric_gradient(
        lambda x: total_loss(2.0, 1.5, 0.8, UncertaintyParams(x[0], x[1]))[0], w)
    assert np.allclose([g1, g2], fd, rtol=1e-6)


def test_total_grouping_invariance():
    # weighting (heat + box) as one detection task is exactly the formula
    heat, box, ident = 1.3, 0.9, 2.1
    u = UncertaintyParams(0.4, -0.2)
    total, _ = total_loss(heat, box, ident, u)
    direct = 0.5 * (math.exp(-u.w1) * (heat + box)
                    + math.exp(-u.w2) * ident + u.w1 + u.w2)
    assert total == pytest.approx(direct, abs=1e-12)


def test_total_rejects_non_finite():
    with pytest.raises(ValueError):
        total_loss(float("nan"), 1.0, 1.0)
    with pytest.raises(ValueError):
        UncertaintyParams(float("inf"), 0.0)


# --- the full gradient check ----------------------------------------------

def test_gradcheck_run_passes():
    worst = gradcheck_run(seeds=8, size=6, num_classes=5)
    assert set(worst) == {"focal", "box", "reid", "total"}
    for name, err in worst.items():
        assert err <= 1e-4, f"{name} gradient off by {err}"
