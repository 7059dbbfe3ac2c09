import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrack.assignment import hungarian
from fairtrack.decoding import Detection
from fairtrack.geometry import BBox, corners
from fairtrack.kalman import GATE_CHI2, STD_WEIGHT_POSITION, box_corners, initiate, \
    measurements, predict, update
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


def _walk(tid, frame, emb):
    """A target with a distinctive embedding drifting right at 4 px/frame."""
    x = 50.0 + 60.0 * tid + 4.0 * frame
    y = 100.0 + 30.0 * tid
    return _det(BBox(x, y, x + 30, y + 60), emb=emb)


# --- distance matrices -----------------------------------------------------

def test_cosine_distance_extremes():
    t = np.array([_unit([1, 0])])
    d = np.array([_unit([1, 0]), _unit([0, 1]), _unit([-1, 0])])
    m = cosine_distance_matrix(t, d)
    assert m[0, 0] == pytest.approx(0.0)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] == pytest.approx(2.0)


def test_cosine_distance_requires_embeddings():
    tr = OnlineTracker()
    tr.step(1, [_det(BBox(0, 0, 10, 10), emb=[1, 0])])
    with pytest.raises(ValueError, match="detection 0 has no embedding"):
        tr.step(2, [_det(BBox(0, 0, 10, 10))])
    bare = OnlineTracker()
    bare.step(1, [_det(BBox(0, 0, 10, 10))])  # born without an embedding
    with pytest.raises(ValueError, match="track 1 has no embedding"):
        bare.step(2, [_det(BBox(0, 0, 10, 10), emb=[1, 0])])


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


# --- the array pool against the per-Track tracker it replaced ----------------

def _ref_cosine_distance_matrix(tracks: list[Track], dets: list[Detection]) -> np.ndarray:
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


def _ref_gate(mean, cov, z):
    s = cov[:, 0, :2] + (STD_WEIGHT_POSITION * mean[:, 3, None]) ** 2
    w = (z[None, :, :2] - mean[:, None, :2]) / np.sqrt(s)[:, None, :]
    return w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1]


class _RefTracker:
    """The per-``Track`` tracker, kept verbatim as the reference of the array
    pool (only its cosine and dense gate helpers are renamed above)."""

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
            cost = _ref_cosine_distance_matrix(tracks, dets)
            if kalman:
                d2 = _ref_gate(self._mean, self._cov, measurements([d.box for d in dets]))
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


@st.composite
def _configs(draw):
    use_reid, use_iou = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return TrackerConfig(
        det_threshold=draw(st.sampled_from([0.4, 0.0, 0.7])),
        emb_match_threshold=draw(st.sampled_from([0.4, 0.1, 1.0, 2.0])),
        iou_match_threshold=draw(st.sampled_from([0.5, 0.2, 1.0])),
        track_buffer=draw(st.integers(1, 4)),
        ema_momentum=draw(st.sampled_from([0.9, 0.0, 0.5, 1.0])),
        gate_chi2=draw(st.sampled_from([GATE_CHI2, 1.0, 50.0, np.inf])),
        use_reid=use_reid, use_iou=use_iou, use_kalman=draw(st.booleans()))


def _sequence(seed: int, cfg: TrackerConfig) -> list[list[Detection]]:
    """Targets walking at constant velocity, each occluded for up to 8 frames
    (longer than any track_buffer drawn), scores in [0, 1] so that some fall
    under det_threshold, false positives, an occasional zero-height box, and,
    with re-ID off, embeddings missing at random.  In some sequences every
    embedding is a signed axis, so that costs tie the thresholds exactly."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    targets = int(rng.integers(1, 8))
    frames = int(rng.integers(8, 26))
    anchors = rng.normal(size=(targets, dim))
    # noiseless signed axes put cosine costs exactly on the thresholds 1 and 2
    exact = rng.random() < 0.3
    if exact:
        anchors = np.eye(dim)[rng.integers(0, dim, size=targets)] \
            * rng.choice([-1.0, 1.0], size=(targets, 1))
    pos = rng.uniform(0, 400, size=(targets, 2))
    vel = rng.normal(0, 4, size=(targets, 2))
    size = rng.uniform(10, 60, size=(targets, 2))
    hidden = [set(range(s, s + int(rng.integers(0, 9))))
              for s in rng.integers(1, frames + 1, size=targets)]

    def emb(v):
        if not cfg.use_reid and rng.random() < 0.3:
            return None
        return v if exact else _unit(v + rng.normal(0, 0.3, size=dim))

    seq = []
    for f in range(1, frames + 1):
        dets = []
        for k in range(targets):
            if f in hidden[k]:
                continue
            x, y = pos[k] + f * vel[k] + rng.normal(0, 1.5, size=2)
            w, h = size[k]
            if rng.random() < 0.03:
                h = 0.0
            dets.append(Detection(BBox(x, y, x + w, y + h), float(rng.random()),
                                  emb(anchors[k])))
        for _ in range(int(rng.integers(0, 3))):
            x, y = rng.uniform(0, 450, size=2)
            dets.append(Detection(BBox(x, y, x + 20, y + 40), float(rng.random()),
                                  emb(anchors[rng.integers(targets)] if exact
                                      else rng.normal(size=dim))))
        seq.append([dets[i] for i in rng.permutation(len(dets))])
    return seq


def _step(tracker, frame, dets):
    try:
        return tracker.step(frame, dets)
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cfg=_configs())
def test_array_pool_equals_per_track_reference(seed, cfg):
    ref, new = _RefTracker(cfg), OnlineTracker(cfg)
    for f, dets in enumerate(_sequence(seed, cfg), start=1):
        assert _step(new, f, dets) == _step(ref, f, dets)
        got, want = new.tracks, ref.tracks
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.track_id, g.last_box, g.start_frame, g.status,
                    g.frames_since_update, g.last_score) == \
                (w.track_id, w.last_box, w.start_frame, w.status,
                 w.frames_since_update, w.last_score)
            assert (g.smooth_emb is None) == (w.smooth_emb is None)
            if w.smooth_emb is not None:
                assert g.smooth_emb.tobytes() == w.smooth_emb.tobytes()
        assert new.active_scores() == [t.last_score for t in want
                                       if t.status is TrackStatus.ACTIVE]
        if cfg.use_kalman:
            assert new._mean.tobytes() == ref._mean.tobytes()
            assert new._cov.tobytes() == ref._cov.tobytes()


def test_tracks_view_is_a_copy():
    tr = OnlineTracker()
    tr.step(1, [_walk(0, 1, [1, 0])])
    view = tr.tracks
    view[0].smooth_emb[:] = 0.0
    view[0].frames_since_update = 7
    assert tr.tracks[0].smooth_emb.tolist() == [1.0, 0.0]
    assert tr.tracks[0].frames_since_update == 0
