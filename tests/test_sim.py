"""The simulator: configuration, determinism, ground truth and detector output.

``generate`` builds each frame from columns.  It is compared bit for bit
to the per-target, per-detection loop it replaced, kept here as
``_ref_generate`` (with its trajectory loop as ``_ref_trajectories``), and
``sim``'s files to the MOT writer applied to ``generate``'s output.  Its
ground truth is one ``MotTable``; the tests that read it box by box take
it through ``_frames``.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrack import cli
from fairtrack.decoding import Detection, decode
from fairtrack.geometry import BBox, GridSpec, MotTable, corners, iou_matrix
from fairtrack.metrics import _table, evaluate_tracking
from fairtrack.mot_io import format_mot
from fairtrack.sim import (
    ANCHOR_MAX_COS,
    FP_MAX_H,
    FP_MAX_W,
    SimConfig,
    SimOutput,
    _initial_states,
    _rng,
    _STREAM_DET,
    frame_columns,
    generate,
    generate_maps,
    identity_anchors,
    trajectories,
)
from fairtrack.tensors import tensor_to_bytes
from fairtrack.tracker import track_sequence


CLEAN = SimConfig(seed=7, frames=40, num_targets=5)


def _frames(gt: MotTable) -> dict[int, list[tuple[int, BBox]]]:
    """A ground-truth table as {frame: [(id, box)]}, each box built from its
    row, so its corners are numpy float64 scalars."""
    return {f: [(i, BBox(*b)) for i, b in zip(gt.ids[rows].tolist(), gt.boxes[rows])]
            for f, rows in gt.by_frame()}


def _bits(gt: MotTable) -> list[tuple]:
    """Each column's dtype, shape and bytes."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in gt]


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
    assert _bits(a.gt) == _bits(b.gt)
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
    assert _frames(a.gt) != _frames(b.gt)


def test_trajectories_independent_of_noise_settings():
    # motion comes from its own stream; detector noise must not perturb it
    base = SimConfig(seed=5, frames=15, num_targets=3)
    noisy = SimConfig(seed=5, frames=15, num_targets=3,
                      det_dropout_prob=0.3, fp_rate=1.0, box_noise_std=3.0)
    assert _bits(trajectories(base)) == _bits(trajectories(noisy))


# --- ground truth properties -----------------------------------------------

def test_gt_shape_and_ids():
    gt = _frames(trajectories(CLEAN))
    assert sorted(gt) == list(range(1, CLEAN.frames + 1))
    for rows in gt.values():
        assert [tid for tid, _ in rows] == [1, 2, 3, 4, 5]


def test_gt_boxes_stay_inside_image():
    cfg = SimConfig(seed=11, frames=300, num_targets=8)  # long enough to bounce
    for rows in _frames(trajectories(cfg)).values():
        for _, b in rows:
            assert b.x1 >= -1e-9 and b.y1 >= -1e-9
            assert b.x2 <= cfg.image_w + 1e-9
            assert b.y2 <= cfg.image_h + 1e-9


def test_gt_velocity_is_constant_between_bounces():
    gt = _frames(trajectories(SimConfig(seed=2, frames=10, num_targets=1,
                                        image_w=4000, image_h=4000)))
    centers = [gt[f][0][1].center for f in range(1, 11)]
    dx = [b[0] - a[0] for a, b in zip(centers, centers[1:])]
    dy = [b[1] - a[1] for a, b in zip(centers, centers[1:])]
    assert np.allclose(dx, dx[0]) and np.allclose(dy, dy[0])


def test_crossing_targets_meet_mid_sequence():
    cfg = SimConfig(seed=0, frames=100, num_targets=2, scenario="crossing")
    gt = _frames(trajectories(cfg))
    cross = cfg.frames // 2
    boxes = [corners([dict(gt[f])[tid] for tid in (1, 2)]) for f in sorted(gt)]
    overlaps = [iou_matrix(b[:1], b[1:])[0, 0] for b in boxes]
    assert max(overlaps) > 0.9
    assert overlaps[cross] > 0.5
    assert overlaps[0] == 0.0 and overlaps[-1] == 0.0


@pytest.mark.parametrize("image_w", [70, 100, 159, 160, 161, 400])
def test_crossing_boxes_stay_inside_and_never_part(image_w):
    cfg = SimConfig(image_w=image_w, image_h=200, scenario="crossing",
                    frames=10, num_targets=2)
    gt = _frames(trajectories(cfg))
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


def test_anchors_in_the_plane_separate_four_and_refuse_five_at_once():
    a = identity_anchors(SimConfig(seed=4, frames=1, num_targets=4, emb_dim=2))
    gram = a @ a.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= ANCHOR_MAX_COS + 1e-12
    # 72 degrees apart is the widest five get: cos 72 > 0.3
    with pytest.raises(ValueError, match=r"^could not separate 5 anchors in 2 dimensions "
                                         r"to cos <= 0\.3$"):
        identity_anchors(SimConfig(seed=4, frames=1, num_targets=5, emb_dim=2))


# --- detector output -------------------------------------------------------

def test_noise_free_detections_equal_gt():
    out = generate(CLEAN)
    for f, rows in _frames(out.gt).items():
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
    n_gt = sum(len(v) for v in _frames(out.gt).values())
    n_det = sum(len(v) for v in out.dets.values())
    assert n_det < n_gt
    assert n_det > 0.5 * n_gt  # but nowhere near everything


def test_false_positives_appear_at_configured_rate():
    cfg = SimConfig(seed=9, frames=200, num_targets=2, fp_rate=1.0)
    out = generate(cfg)
    gt = _frames(out.gt)
    extra = sum(len(out.dets[f]) - len(gt[f]) for f in gt)
    assert 140 < extra < 260  # Poisson(1) over 200 frames


def test_occlusion_window_suppresses_target():
    cfg = SimConfig(seed=3, frames=20, num_targets=3,
                    occlusions=((2, 5, 10),))
    out = generate(cfg)
    for f in range(1, 21):
        n = len(out.dets[f])
        assert n == (2 if 5 <= f <= 10 else 3)


@pytest.mark.parametrize("occ, message", [
    ((0, 1, 2), "target id outside 1..2"), ((3, 1, 2), "target id outside 1..2"),
    ((1, 0, 2), "first frame outside 1..5"), ((1, 6, 7), "first frame outside 1..5"),
    ((1, 3, 2), "first frame after the last")])
def test_config_refuses_an_occlusion_it_cannot_apply(occ, message):
    """Unchecked, such an occlusion hid nothing, so a mistyped one was silent."""
    with pytest.raises(ValueError, match=re.escape(f"occlusion {occ}: {message}")):
        SimConfig(frames=5, num_targets=2, occlusions=((1, 2, 3), occ))


def test_box_noise_perturbs_but_keeps_positive_boxes():
    cfg = SimConfig(seed=12, frames=30, num_targets=4, box_noise_std=3.0)
    out = generate(cfg)
    moved = 0
    for f, rows in _frames(out.gt).items():
        for (tid, box), d in zip(rows, out.dets[f]):
            assert d.box.width > 0 and d.box.height > 0
            if d.box != box:
                moved += 1
    assert moved > 100  # virtually every detection is perturbed


def test_emb_noise_keeps_identity_recoverable():
    cfg = SimConfig(seed=13, frames=30, num_targets=5, emb_noise_std=0.1)
    out = generate(cfg)
    correct = total = 0
    for f, rows in _frames(out.gt).items():
        for (tid, _), d in zip(rows, out.dets[f]):
            total += 1
            correct += int(np.argmax(out.anchors @ d.embedding)) == tid - 1
    assert correct / total > 0.95


# --- map generation --------------------------------------------------------

def test_generate_maps_round_trip():
    cfg = SimConfig(seed=21, frames=10, num_targets=3,
                    image_w=512, image_h=512)
    gt = _frames(trajectories(cfg))
    heat, off, size, emb = generate_maps(cfg, 4)
    grid = GridSpec(cfg.image_w, cfg.image_h, 4)
    dets = decode(heat, off, size, emb, grid)
    rows = gt[4]
    assert len(dets) == len(rows)
    anchors = identity_anchors(cfg)
    matched = set()
    ious = iou_matrix(corners([d.box for d in dets]), corners([box for _, box in rows]))
    for d, row_ious in zip(dets, ious):
        best = int(np.argmax(row_ious))
        assert row_ious[best] > 0.99
        assert int(np.argmax(anchors @ d.embedding)) == rows[best][0] - 1
        matched.add(rows[best][0])
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


# --- columns against the per-detection loop ----------------------------------

def _ref_reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    if pos < lo:
        return 2 * lo - pos, -vel
    if pos > hi:
        return 2 * hi - pos, -vel
    return pos, vel


def _ref_trajectories(cfg: SimConfig) -> dict[int, list[tuple[int, BBox]]]:
    states = _initial_states(cfg)
    out: dict[int, list[tuple[int, BBox]]] = {}
    for f in range(cfg.frames):
        rows = []
        for i in range(cfg.num_targets):
            cx, cy, vx, vy, w, h = states[i]
            rows.append((i + 1, BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
            cx, vx = _ref_reflect(cx + vx, vx, w / 2, cfg.image_w - w / 2)
            cy, vy = _ref_reflect(cy + vy, vy, h / 2, cfg.image_h - h / 2)
            states[i] = (cx, cy, vx, vy, w, h)
        out[f + 1] = rows
    return out


def _ref_occluded(cfg: SimConfig, target_id: int, frame: int) -> bool:
    return any(tid == target_id and first <= frame <= last
               for tid, first, last in cfg.occlusions)


def _ref_noisy_embedding(rng: np.random.Generator, anchor: np.ndarray,
                         std: float) -> np.ndarray:
    v = anchor + rng.normal(0.0, std, size=anchor.size) if std > 0 else anchor.copy()
    return v / np.linalg.norm(v)


def _ref_generate(cfg: SimConfig) -> SimOutput:
    gt = _ref_trajectories(cfg)
    anchors = identity_anchors(cfg)
    dets: dict[int, list[Detection]] = {}
    for frame in sorted(gt):
        rng = _rng(cfg, _STREAM_DET, frame)
        rows: list[Detection] = []
        for tid, box in gt[frame]:
            if _ref_occluded(cfg, tid, frame):
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
            emb = _ref_noisy_embedding(rng, anchors[tid - 1], cfg.emb_noise_std)
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


@st.composite
def _configs(draw, occlusions=True):
    targets = draw(st.integers(1, 6))
    frames = draw(st.integers(1, 8))
    image = draw(st.sampled_from([(1280, 720), (100, 200), (70, 130)]))  # small: bounces
    occ = ()
    if occlusions:
        # valid (target, first, last) occlusions, some ending past the last frame
        occ = tuple(draw(st.lists(st.tuples(
            st.integers(1, targets), st.integers(1, frames), st.integers(0, frames + 1)).map(
                lambda t: (t[0], t[1], t[1] + t[2])), max_size=4)))
    return SimConfig(
        seed=draw(st.integers(0, 2**16)), frames=frames, num_targets=targets,
        image_w=image[0], image_h=image[1],
        scenario=draw(st.sampled_from(["random", "crossing"] if targets > 1 else ["random"])),
        det_dropout_prob=draw(st.sampled_from([0.0, 0.3, 0.9])),
        fp_rate=draw(st.sampled_from([0.0, 0.5, 3.0])),
        box_noise_std=draw(st.sampled_from([0.0, 1.0, 50.0])),  # 50: widths clamp at 4
        emb_dim=draw(st.sampled_from([2, 5, 64] if targets <= 3 else [5, 64])),  # packable
        emb_noise_std=draw(st.sampled_from([0.0, 0.1, 5.0])),
        occlusions=occ)


def _box_bits(box: BBox) -> str:
    """The corners' repr, which shows their value to the last bit and their type."""
    return repr(box)


def _det_bits(d: Detection) -> tuple:
    return _box_bits(d.box), np.float64(d.score).tobytes(), d.embedding.tobytes()


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_generate_equals_the_per_detection_reference(cfg):
    got, want = generate(cfg), _ref_generate(cfg)
    got_gt = _frames(got.gt)
    assert got.anchors.tobytes() == want.anchors.tobytes()
    assert sorted(got_gt) == sorted(want.gt) == sorted(got.dets) == sorted(want.dets)
    for f in want.gt:
        assert [(i, _box_bits(b)) for i, b in got_gt[f]] == \
            [(i, _box_bits(b)) for i, b in want.gt[f]]
        assert [_det_bits(d) for d in got.dets[f]] == [_det_bits(d) for d in want.dets[f]]
    assert _frames(trajectories(cfg)) == want.gt
    assert _bits(trajectories(cfg)) == _bits(got.gt)


@settings(max_examples=100, deadline=None)
@given(_configs(occlusions=False))
def test_sim_files_are_the_mot_lines_of_generate(cfg):
    res = generate(cfg)
    res_gt = _frames(res.gt)
    gt, det, emb = [], [], []
    for f in sorted(res_gt):
        gt += format_mot("gt", f, [i for i, _ in res_gt[f]], corners([b for _, b in res_gt[f]]))
        det += format_mot("det", f, -1, corners([d.box for d in res.dets[f]]),
                          [d.score for d in res.dets[f]])
        emb += [d.embedding for d in res.dets[f]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = ["sim", "--seed", cfg.seed, "--frames", cfg.frames, "--targets", cfg.num_targets,
                "--image-w", cfg.image_w, "--image-h", cfg.image_h, "--scenario", cfg.scenario,
                "--dropout", cfg.det_dropout_prob, "--fp-rate", cfg.fp_rate,
                "--box-noise", cfg.box_noise_std, "--emb-dim", cfg.emb_dim,
                "--emb-noise", cfg.emb_noise_std, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0
        assert (out / "gt.txt").read_text() == "\n".join(gt) + "\n"
        assert (out / "det.txt").read_text() == "\n".join(det) + "\n"
        if emb:
            assert (out / "emb.ften").read_bytes() == tensor_to_bytes(np.stack(emb))
        else:
            assert not (out / "emb.ften").exists()


# --- the ground-truth table --------------------------------------------------

def _truth_frames(cfg: SimConfig) -> dict[int, list[tuple[int, BBox]]]:
    """{frame: [(id, box)]} from ``frame_columns``' truth rows, the CLI's path."""
    return {f: [(i, BBox(*b)) for i, b in enumerate(truth, 1)]
            for f, truth, _ in frame_columns(cfg)}


@settings(max_examples=100, deadline=None)
@given(_configs())
def test_gt_is_the_table_of_the_truth_rows(cfg):
    got, want = generate(cfg).gt, _table(_truth_frames(cfg))
    for name in ("frames", "start", "ids", "boxes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    # the dict form carries no conf, which the tracking metrics do not read;
    # a ground-truth row's is 1, as in a gt file
    assert got.conf.dtype == np.float64 and got.conf.tolist() == [1.0] * len(got.ids)


@settings(max_examples=50, deadline=None)
@given(_configs())
def test_metrics_on_the_gt_table_equal_the_metrics_on_its_boxes(cfg):
    out = generate(cfg)
    pred = track_sequence(out.dets)
    assert evaluate_tracking(out.gt, pred) == evaluate_tracking(_truth_frames(cfg), pred)
