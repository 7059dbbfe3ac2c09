import numpy as np
import pytest

from fairtrack.decoding import decode
from fairtrack.geometry import GridSpec, iou
from fairtrack.sim import (
    ANCHOR_MAX_COS,
    SimConfig,
    generate,
    generate_maps,
    identity_anchors,
    trajectories,
)


CLEAN = SimConfig(seed=7, frames=40, num_targets=5)


# --- configuration ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(frames=0)
    with pytest.raises(ValueError):
        SimConfig(emb_dim=1)
    with pytest.raises(ValueError):
        SimConfig(det_dropout_prob=1.0)
    with pytest.raises(ValueError):
        SimConfig(scenario="parade")
    with pytest.raises(ValueError):
        SimConfig(scenario="crossing", num_targets=1)
    with pytest.raises(ValueError):
        SimConfig(fp_rate=-0.1)


# --- determinism -----------------------------------------------------------

def test_same_seed_is_bit_identical():
    cfg = SimConfig(seed=3, frames=20, num_targets=4,
                    det_dropout_prob=0.1, fp_rate=0.5,
                    box_noise_std=2.0, emb_noise_std=0.1)
    a, b = generate(cfg), generate(cfg)
    assert a.gt == b.gt
    assert np.array_equal(a.anchors, b.anchors)
    for f in a.dets:
        da, db = a.dets[f], b.dets[f]
        assert len(da) == len(db)
        for x, y in zip(da, db):
            assert x.box == y.box and x.score == y.score
            assert np.array_equal(x.embedding, y.embedding)


def test_different_seeds_differ():
    a = generate(SimConfig(seed=1, frames=5, num_targets=3))
    b = generate(SimConfig(seed=2, frames=5, num_targets=3))
    assert a.gt != b.gt


def test_trajectories_independent_of_noise_settings():
    # motion comes from its own stream; detector noise must not perturb it
    base = SimConfig(seed=5, frames=15, num_targets=3)
    noisy = SimConfig(seed=5, frames=15, num_targets=3,
                      det_dropout_prob=0.3, fp_rate=1.0, box_noise_std=3.0)
    assert trajectories(base) == trajectories(noisy)


# --- ground truth properties -----------------------------------------------

def test_gt_shape_and_ids():
    gt = trajectories(CLEAN)
    assert sorted(gt) == list(range(1, CLEAN.frames + 1))
    for rows in gt.values():
        assert [tid for tid, _ in rows] == [1, 2, 3, 4, 5]


def test_gt_boxes_stay_inside_image():
    cfg = SimConfig(seed=11, frames=300, num_targets=8)  # long enough to bounce
    for rows in trajectories(cfg).values():
        for _, b in rows:
            assert b.x1 >= -1e-9 and b.y1 >= -1e-9
            assert b.x2 <= cfg.image_w + 1e-9
            assert b.y2 <= cfg.image_h + 1e-9


def test_gt_velocity_is_constant_between_bounces():
    gt = trajectories(SimConfig(seed=2, frames=10, num_targets=1,
                                image_w=4000, image_h=4000))
    centers = [gt[f][0][1].center for f in range(1, 11)]
    dx = [b[0] - a[0] for a, b in zip(centers, centers[1:])]
    dy = [b[1] - a[1] for a, b in zip(centers, centers[1:])]
    assert np.allclose(dx, dx[0]) and np.allclose(dy, dy[0])


def test_crossing_targets_meet_mid_sequence():
    cfg = SimConfig(seed=0, frames=100, num_targets=2, scenario="crossing")
    gt = trajectories(cfg)
    cross = cfg.frames // 2
    overlaps = [iou(dict(gt[f])[1], dict(gt[f])[2]) for f in sorted(gt)]
    assert max(overlaps) > 0.9
    assert overlaps[cross] > 0.5
    assert overlaps[0] == 0.0 and overlaps[-1] == 0.0


@pytest.mark.parametrize("image_w", [70, 100, 159, 160, 161, 400])
def test_crossing_boxes_stay_inside_and_never_part(image_w):
    cfg = SimConfig(image_w=image_w, image_h=200, scenario="crossing",
                    frames=10, num_targets=2)
    gt = trajectories(cfg)
    gaps = []
    for f in range(1, cfg.frames // 2 + 1):
        a, b = dict(gt[f])[1], dict(gt[f])[2]
        assert 0.0 <= min(a.x1, b.x1) and max(a.x2, b.x2) <= image_w
        gaps.append(abs(a.center[0] - b.center[0]))
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))


# --- identity anchors ------------------------------------------------------

def test_anchors_unit_norm_and_separated():
    cfg = SimConfig(seed=4, frames=1, num_targets=12, emb_dim=64)
    a = identity_anchors(cfg)
    assert a.shape == (12, 64)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    gram = a @ a.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= ANCHOR_MAX_COS + 1e-12


def test_anchors_separate_even_when_crowded():
    cfg = SimConfig(seed=4, frames=1, num_targets=20, emb_dim=8)
    a = identity_anchors(cfg)
    gram = a @ a.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= ANCHOR_MAX_COS + 1e-12


def test_anchors_raise_when_packing_is_infeasible():
    # 6 unit vectors pairwise >= 72.5 degrees apart cannot exist in the plane
    cfg = SimConfig(seed=4, frames=1, num_targets=6, emb_dim=2)
    with pytest.raises(ValueError):
        identity_anchors(cfg)


# --- detector output -------------------------------------------------------

def test_noise_free_detections_equal_gt():
    out = generate(CLEAN)
    for f, rows in out.gt.items():
        dets = out.dets[f]
        assert len(dets) == len(rows)
        for (tid, box), d in zip(rows, dets):
            assert d.box == box
            assert 0.75 <= d.score <= 1.0
            # exact anchor: identity is recoverable by nearest cosine
            sims = out.anchors @ d.embedding
            assert int(np.argmax(sims)) == tid - 1
            assert sims[tid - 1] == pytest.approx(1.0, abs=1e-12)


def test_dropout_removes_some_detections():
    cfg = SimConfig(seed=9, frames=60, num_targets=6, det_dropout_prob=0.25)
    out = generate(cfg)
    n_gt = sum(len(v) for v in out.gt.values())
    n_det = sum(len(v) for v in out.dets.values())
    assert n_det < n_gt
    assert n_det > 0.5 * n_gt  # but nowhere near everything


def test_false_positives_appear_at_configured_rate():
    cfg = SimConfig(seed=9, frames=200, num_targets=2, fp_rate=1.0)
    out = generate(cfg)
    extra = sum(len(out.dets[f]) - len(out.gt[f]) for f in out.gt)
    assert 140 < extra < 260  # Poisson(1) over 200 frames


def test_occlusion_window_suppresses_target():
    cfg = SimConfig(seed=3, frames=20, num_targets=3,
                    occlusions=((2, 5, 10),))
    out = generate(cfg)
    for f in range(1, 21):
        n = len(out.dets[f])
        assert n == (2 if 5 <= f <= 10 else 3)


def test_box_noise_perturbs_but_keeps_positive_boxes():
    cfg = SimConfig(seed=12, frames=30, num_targets=4, box_noise_std=3.0)
    out = generate(cfg)
    moved = 0
    for f, rows in out.gt.items():
        for (tid, box), d in zip(rows, out.dets[f]):
            assert d.box.width > 0 and d.box.height > 0
            if d.box != box:
                moved += 1
    assert moved > 100  # virtually every detection is perturbed


def test_emb_noise_keeps_identity_recoverable():
    cfg = SimConfig(seed=13, frames=30, num_targets=5, emb_noise_std=0.1)
    out = generate(cfg)
    correct = total = 0
    for f, rows in out.gt.items():
        for (tid, _), d in zip(rows, out.dets[f]):
            total += 1
            correct += int(np.argmax(out.anchors @ d.embedding)) == tid - 1
    assert correct / total > 0.95


# --- map generation --------------------------------------------------------

def test_generate_maps_round_trip():
    cfg = SimConfig(seed=21, frames=10, num_targets=3,
                    image_w=512, image_h=512)
    gt = trajectories(cfg)
    heat, off, size, emb = generate_maps(cfg, 4)
    grid = GridSpec(cfg.image_w, cfg.image_h, 4)
    dets = decode(heat, off, size, emb, grid)
    rows = gt[4]
    assert len(dets) == len(rows)
    anchors = identity_anchors(cfg)
    matched = set()
    for d in dets:
        best = max(rows, key=lambda r: iou(r[1], d.box))
        assert iou(best[1], d.box) > 0.99
        assert int(np.argmax(anchors @ d.embedding)) == best[0] - 1
        matched.add(best[0])
    assert len(matched) == len(rows)


def test_generate_maps_frame_bounds():
    with pytest.raises(ValueError):
        generate_maps(CLEAN, 0)
    with pytest.raises(ValueError):
        generate_maps(CLEAN, CLEAN.frames + 1)


def test_generate_maps_deterministic():
    cfg = SimConfig(seed=8, frames=5, num_targets=2, emb_noise_std=0.05,
                    image_w=256, image_h=256)
    h1, o1, s1, e1 = generate_maps(cfg, 3)
    h2, o2, s2, e2 = generate_maps(cfg, 3)
    assert np.array_equal(np.asarray(h1), np.asarray(h2))
    assert np.array_equal(np.asarray(e1), np.asarray(e2))
