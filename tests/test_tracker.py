import numpy as np
import pytest

from fairtrack.decoding import Detection
from fairtrack.geometry import BBox
from fairtrack.tracker import (
    OnlineTracker,
    Track,
    TrackerConfig,
    TrackStatus,
    cosine_distance_matrix,
    iou_distance_matrix,
    track_sequence,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _det(box, emb=None, score=0.9):
    return Detection(box=box, score=score,
                     embedding=None if emb is None else _unit(emb))


def _track(tid, box, emb=None):
    return Track(track_id=tid, last_box=box, start_frame=1,
                 smooth_emb=None if emb is None else _unit(emb))


def _walk(tid, frame, emb):
    """A target with a distinctive embedding drifting right at 4 px/frame."""
    x = 50.0 + 60.0 * tid + 4.0 * frame
    y = 100.0 + 30.0 * tid
    return _det(BBox(x, y, x + 30, y + 60), emb=emb)


# --- distance matrices -----------------------------------------------------

def test_cosine_distance_extremes():
    t = [_track(1, BBox(0, 0, 10, 10), emb=[1, 0])]
    d = [_det(BBox(0, 0, 10, 10), emb=[1, 0]),
         _det(BBox(0, 0, 10, 10), emb=[0, 1]),
         _det(BBox(0, 0, 10, 10), emb=[-1, 0])]
    m = cosine_distance_matrix(t, d)
    assert m[0, 0] == pytest.approx(0.0)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] == pytest.approx(2.0)


def test_cosine_distance_requires_embeddings():
    t = [_track(1, BBox(0, 0, 10, 10), emb=[1, 0])]
    with pytest.raises(ValueError):
        cosine_distance_matrix(t, [_det(BBox(0, 0, 10, 10))])
    t_bare = [_track(1, BBox(0, 0, 10, 10))]
    with pytest.raises(ValueError):
        cosine_distance_matrix(t_bare, [_det(BBox(0, 0, 10, 10), emb=[1, 0])])


def test_iou_distance_identity_and_disjoint():
    t = np.array([[0, 0, 10, 10]], dtype=float)
    d = np.array([[0, 0, 10, 10], [50, 50, 60, 60]], dtype=float)
    m = iou_distance_matrix(t, d)
    assert m[0, 0] == pytest.approx(0.0)
    assert m[0, 1] == pytest.approx(1.0)


# --- basic lifecycle -------------------------------------------------------

def test_first_frame_spawns_tracks_with_fresh_ids():
    tr = OnlineTracker()
    out = tr.step(1, [_walk(0, 1, [1, 0, 0]), _walk(1, 1, [0, 1, 0])])
    assert [tid for tid, _ in out] == [1, 2]


def test_low_score_detections_do_not_spawn():
    tr = OnlineTracker()
    out = tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0], score=0.3)])
    assert out == []
    assert tr.tracks == []


def test_ids_are_stable_over_a_clean_sequence():
    tr = OnlineTracker()
    embs = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    for f in range(1, 21):
        out = tr.step(f, [_walk(i, f, e) for i, e in enumerate(embs)])
        assert [tid for tid, _ in out] == [1, 2, 3]


def test_ids_never_reused_after_removal():
    cfg = TrackerConfig(track_buffer=2)
    tr = OnlineTracker(cfg)
    tr.step(1, [_walk(0, 1, [1, 0])])
    for f in range(2, 6):
        tr.step(f, [])  # removed after buffer runs out
    out = tr.step(6, [_walk(0, 6, [1, 0])])
    assert out[0][0] == 2


def test_lost_track_recovered_by_appearance():
    tr = OnlineTracker()
    tr.step(1, [_walk(0, 1, [1, 0])])
    tr.step(2, [])
    assert tr.tracks[0].status is TrackStatus.LOST
    out = tr.step(3, [_walk(0, 3, [1, 0])])
    assert out == [(1, out[0][1])]
    assert tr.tracks[0].status is TrackStatus.ACTIVE


def test_track_removed_after_buffer_expires():
    cfg = TrackerConfig(track_buffer=3)
    tr = OnlineTracker(cfg)
    tr.step(1, [_walk(0, 1, [1, 0])])
    for f in range(2, 5):
        tr.step(f, [])
        assert len(tr.tracks) == 1  # still within the buffer
    tr.step(5, [])  # buffer + 1 misses -> dropped from the pool
    assert tr.tracks == []


def test_frame_indices_must_increase():
    tr = OnlineTracker()
    tr.step(5, [])
    with pytest.raises(ValueError):
        tr.step(5, [])
    with pytest.raises(ValueError):
        tr.step(4, [])


# --- embedding smoothing ---------------------------------------------------

def _ema_cfg(momentum):
    return TrackerConfig(ema_momentum=momentum, use_kalman=False)


def test_ema_momentum_one_freezes_embedding():
    tr = OnlineTracker(_ema_cfg(1.0))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0.6, 0.8])])
    assert np.allclose(tr.tracks[0].smooth_emb, [1, 0])


def test_ema_momentum_zero_tracks_latest():
    tr = OnlineTracker(_ema_cfg(0.0))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0.6, 0.8])])
    assert np.allclose(tr.tracks[0].smooth_emb, [0.6, 0.8])


def test_ema_blend_is_renormalized():
    tr = OnlineTracker(_ema_cfg(0.9))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0, 1])])
    e = tr.tracks[0].smooth_emb
    assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
    expected = _unit([0.9, 0.1])
    assert np.allclose(e, expected)


# --- cascade behavior ------------------------------------------------------

def test_appearance_beats_overlap_on_a_swap():
    """Two crossing targets whose boxes swap sides; embeddings disambiguate."""
    a_emb, b_emb = [1.0, 0.0], [0.0, 1.0]
    tr = OnlineTracker(TrackerConfig(use_kalman=False))
    left, right = BBox(100, 100, 130, 160), BBox(200, 100, 230, 160)
    tr.step(1, [_det(left, emb=a_emb), _det(right, emb=b_emb)])
    # next frame the boxes have swapped places entirely
    out = tr.step(2, [_det(right, emb=a_emb), _det(left, emb=b_emb)])
    by_id = dict(out)
    assert by_id[1].x1 == 200.0  # track 1 followed its appearance
    assert by_id[2].x1 == 100.0


def test_iou_only_config_tracks_by_overlap():
    cfg = TrackerConfig(use_reid=False, use_kalman=False)
    tr = OnlineTracker(cfg)
    tr.step(1, [_det(BBox(0, 0, 30, 60))])
    out = tr.step(2, [_det(BBox(2, 0, 32, 60))])
    assert out[0][0] == 1


def test_iou_only_ignores_missing_embeddings():
    cfg = TrackerConfig(use_reid=False, use_kalman=False)
    frames = {f: [_det(BBox(4 * f, 0, 30 + 4 * f, 60))] for f in range(1, 11)}
    result = track_sequence(frames, cfg)
    assert all(len(v) == 1 and v[0][0] == 1 for v in result.values())


def test_gating_blocks_teleporting_appearance_match():
    """Same embedding, but the detection is far outside the motion gate."""
    tr = OnlineTracker()
    box = BBox(100, 100, 130, 160)
    tr.step(1, [_det(box, emb=[1, 0])])
    tr.step(2, [_det(BBox(102, 100, 132, 160), emb=[1, 0])])
    far = BBox(900, 500, 930, 560)
    out = tr.step(3, [_det(far, emb=[1, 0])])
    # the old track is not matched (gated out); the detection spawns id 2
    assert [tid for tid, _ in out] == [2]


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(det_threshold=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(track_buffer=0)
    with pytest.raises(ValueError):
        TrackerConfig(use_reid=False, use_iou=False)
    with pytest.raises(ValueError):
        TrackerConfig(ema_momentum=-0.1)


def test_track_sequence_matches_manual_stepping():
    embs = ([1, 0], [0, 1])
    frames = {f: [_walk(i, f, e) for i, e in enumerate(embs)]
              for f in range(1, 8)}
    via_helper = track_sequence(frames)
    tr = OnlineTracker()
    manual = {f: tr.step(f, frames[f]) for f in sorted(frames)}
    assert via_helper == manual
