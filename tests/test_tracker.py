import enum
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack.assignment import hungarian
from fairtrack.decoding import Detection
from fairtrack.geometry import BBox, corners, iou_matrix
from fairtrack.kalman import GATE_CHI2, STD_WEIGHT_POSITION, box_corners, initiate, \
    measurements, predict, update
from fairtrack.sim import SimConfig, generate
from fairtrack.tracker import (
    DetectionColumns,
    OnlineTracker,
    TrackerConfig,
    _pairs_within,
    cosine_distance_matrix,
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


@st.composite
def _unit_stacks(draw):
    """(T, D) and (N, D) unit rows, T or N often 1, where some detection rows
    repeat a track row as it is or negated: distances of exactly 0 and 2,
    and raw differences a rounding below 0, which the clip sets to 0."""
    dim = draw(st.integers(2, 64))
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(t + n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    a, b = rows[:t], rows[t:]
    for j in range(n):
        sign = draw(st.sampled_from([0.0, 1.0, -1.0]))  # 0: a row of its own
        if sign:
            b[j] = sign * a[draw(st.integers(0, t - 1))]
    return a, b


@settings(max_examples=300, deadline=None)
@given(stacks=_unit_stacks())
def test_cosine_distance_equals_the_clipped_difference(stacks):
    a, b = stacks
    got = cosine_distance_matrix(a, b)
    want = np.clip(1.0 - a @ b.T, 0.0, 2.0)
    assert got.dtype == want.dtype and got.shape == (len(a), len(b))
    assert got.tobytes() == want.tobytes()


def test_cosine_distance_clips_the_rounding_of_repeated_rows():
    v = _unit([1, 1, 1])  # v @ v rounds to 1 + 2.2e-16, so 1 - v @ v is below 0
    raw = 1.0 - np.array([v]) @ np.array([v, -v]).T
    assert raw[0, 0] < 0.0 and raw[0, 1] == 2.0  # the case the clip is there for
    assert cosine_distance_matrix(np.array([v]), np.array([v, -v])).tolist() == [[0.0, 2.0]]


@pytest.mark.parametrize("dtypes", [
    (np.float64, np.float64), (np.float32, np.float32), (np.float16, np.float16),
    (np.longdouble, np.longdouble), (np.float32, np.float64), (np.int64, np.int64),
    (np.int32, np.int32), (np.uint8, np.uint8), (np.bool_, np.bool_),
    (np.int64, np.float32), (np.complex128, np.complex128)])
def test_cosine_distance_keeps_the_dtype_of_each_input(dtypes):
    """The in-place distance has the dtype and values of ``1.0 - a @ b.T``
    clipped, also where the product is integer or bool and has no float
    slot to be written into."""
    a = np.array([[1, 0, 2], [0, 1, 1], [1, 1, 0]]).astype(dtypes[0])
    b = np.array([[1, 0, 0], [2, 1, 1], [0, 0, 0], [0, 1, 0]]).astype(dtypes[1])
    a0, b0 = a.copy(), b.copy()
    got = cosine_distance_matrix(a, b)
    want = 1.0 - a @ b.T
    want = np.minimum(np.maximum(want, 0.0), 2.0)
    assert got.dtype == want.dtype
    # values, not bytes: a long double's padding bytes are not set
    assert np.array_equal(got, want)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)  # the inputs are not written


@st.composite
def _costs(draw):
    """A threshold and a cost matrix whose entries tie it, straddle it by an
    ulp, or are NaN or infinite; 0 to 6 rows and columns, 1 x N and N x 1
    included."""
    thr = draw(st.sampled_from([0.0, 0.4, 0.5, 1.0, 2.0]))
    shape = draw(st.sampled_from([(1, 6), (6, 1), (1, 1)])
                 | st.tuples(st.integers(0, 6), st.integers(0, 6)))
    near = [thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)]
    elements = st.sampled_from(near + [np.nan, np.inf, -np.inf, 0.0, 2.0]) \
        | st.floats(-1.0, 3.0)
    return thr, draw(arrays(np.float64, shape, elements=elements))


@settings(max_examples=400, deadline=None)
@given(case=_costs())
@example(case=(0.4, np.full((5, 7), 0.4)))      # every entry on the threshold
@example(case=(0.4, np.full((7, 5), 0.5)))      # none under it
@example(case=(0.4, np.full((4, 6), np.nan)))   # NaN is never a pair
@example(case=(1.0, np.arange(12.0).reshape(1, 12) / 8))
@example(case=(1.0, np.arange(12.0).reshape(12, 1) / 8))
def test_flat_selection_equals_the_2d_nonzero(case):
    thr, cost = case
    r, c, pc = _pairs_within(cost, thr)
    want_r, want_c = (cost <= thr).nonzero()
    for got, want in ((r, want_r), (c, want_c)):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    assert pc.dtype == np.float64
    assert pc.tobytes() == cost[want_r, want_c].tobytes()


def test_cosine_distance_requires_embeddings():
    tr = OnlineTracker()
    tr.step(1, [_det(BBox(0, 0, 10, 10), emb=[1, 0])])
    with pytest.raises(ValueError, match="detection 0 has no embedding"):
        tr.step(2, [_det(BBox(0, 0, 10, 10))])
    with pytest.raises(ValueError, match="detection 0 has no embedding"):
        OnlineTracker().step(1, [_det(BBox(0, 0, 10, 10))])  # nothing to match yet


def test_iou_distance_identity_and_disjoint():
    # 1 - IoU is 0 for the identical box, which the track takes, and 1 for
    # the disjoint one, over the 0.5 threshold, so it starts a track
    tr = OnlineTracker(TrackerConfig(use_reid=False, use_kalman=False))
    tr.step(1, [_det(BBox(0, 0, 10, 10))])
    out = tr.step(2, [_det(BBox(50, 50, 60, 60)), _det(BBox(0, 0, 10, 10))])
    assert out == [(1, BBox(0, 0, 10, 10)), (2, BBox(50, 50, 60, 60))]


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
    assert tr.tracks == [1] and tr._misses.tolist() == [1]  # lost
    out = tr.step(3, [_walk(0, 3, [1, 0])])
    assert out == [(1, out[0][1])]
    assert tr._misses.tolist() == [0]  # active again


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


def test_frame_missing_an_embedding_is_rejected_before_it_changes_anything():
    first = [_walk(0, 1, [1, 0]), _walk(1, 1, [0, 1])]
    second = [_walk(0, 2, [1, 0]), _walk(1, 2, [0, 1])]
    tr = OnlineTracker()
    with pytest.raises(ValueError, match="detection 0 has no embedding"):
        tr.step(1, [_det(BBox(0, 0, 10, 10))])
    assert tr.step(1, first) == OnlineTracker().step(1, first)
    with pytest.raises(ValueError, match="detection 1 has no embedding"):
        tr.step(2, [second[0], replace(second[1], embedding=None)])
    assert tr.step(2, second) == track_sequence({1: first, 2: second})[2]


def test_embedding_width_change_is_refused_before_it_changes_anything():
    first = [_walk(0, 1, [1, 0]), _walk(1, 1, [0, 1])]
    second = [_walk(0, 2, [1, 0]), _walk(1, 2, [0, 1])]
    tr = OnlineTracker()
    tr.step(1, first)
    before = {name: getattr(tr, name).copy() for name in tr._arrays}
    wide = [_walk(0, 2, [1, 0, 0]), _walk(1, 2, [0, 1, 0])]
    with pytest.raises(ValueError, match="^embedding width 3 differs from the pool's 2$"):
        tr.step(2, wide)
    assert all(np.array_equal(getattr(tr, name), a) for name, a in before.items())
    assert tr.step(2, second) == track_sequence({1: first, 2: second})[2]


def test_frame_with_two_embedding_widths_is_refused_before_it_changes_anything():
    first = [_walk(0, 1, [1, 0]), _walk(1, 1, [0, 1])]
    second = [_walk(0, 2, [1, 0]), _walk(1, 2, [0, 1])]
    mixed = [_walk(0, 2, [1, 0]), _walk(1, 2, [0, 1, 0])]
    width = "^detection 1 has embedding width 3, detection 0 has 2$"
    with pytest.raises(ValueError, match=width):
        OnlineTracker().step(1, mixed)
    tr = OnlineTracker()
    tr.step(1, first)
    before = _state(tr)
    with pytest.raises(ValueError, match=width):
        tr.step(2, mixed)
    # a missing embedding is named first, wherever it is
    with pytest.raises(ValueError, match="^detection 2 has no embedding$"):
        tr.step(2, mixed + [replace(second[0], embedding=None)])
    assert _state(tr) == before
    assert tr.step(2, second) == track_sequence({1: first, 2: second})[2]


# --- embedding smoothing ---------------------------------------------------

def _ema_cfg(momentum):
    return TrackerConfig(ema_momentum=momentum, use_kalman=False)


def test_ema_momentum_one_freezes_embedding():
    tr = OnlineTracker(_ema_cfg(1.0))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0.6, 0.8])])
    assert np.allclose(tr._emb[0], [1, 0])


def test_ema_momentum_zero_tracks_latest():
    tr = OnlineTracker(_ema_cfg(0.0))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0.6, 0.8])])
    assert np.allclose(tr._emb[0], [0.6, 0.8])


def test_ema_blend_is_renormalized():
    tr = OnlineTracker(_ema_cfg(0.9))
    tr.step(1, [_det(BBox(0, 0, 30, 60), emb=[1, 0])])
    tr.step(2, [_det(BBox(1, 0, 31, 60), emb=[0, 1])])
    e = tr._emb[0]
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

class TrackStatus(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"


@dataclass
class Track:
    """One tracklet of the reference tracker, as a record."""

    track_id: int
    last_box: BBox
    start_frame: int
    smooth_emb: np.ndarray | None = None
    status: TrackStatus = TrackStatus.ACTIVE
    frames_since_update: int = 0
    last_score: float = 1.0


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
                cost = 1.0 - iou_matrix(
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


def _assert_pool_equals_reference(new, ref, cfg):
    want = ref.tracks
    assert new.tracks == [w.track_id for w in want]
    assert new._misses.tolist() == [w.frames_since_update for w in want]
    assert [TrackStatus.LOST if m else TrackStatus.ACTIVE for m in new._misses] == \
        [w.status for w in want]
    if cfg.use_reid:
        for g, w in zip(new._emb, want):
            assert g.tobytes() == w.smooth_emb.tobytes()
    if cfg.use_kalman:
        assert new._mean.tobytes() == ref._mean.tobytes()
        assert new._cov.tobytes() == ref._cov.tobytes()
    else:
        assert [BBox(*b) for b in new._box.tolist()] == [w.last_box for w in want]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cfg=_configs())
def test_array_pool_equals_per_track_reference(seed, cfg):
    ref, new = _RefTracker(cfg), OnlineTracker(cfg)
    for f, dets in enumerate(_sequence(seed, cfg), start=1):
        out = _step(new, f, dets)
        assert out == _step(ref, f, dets)
        if isinstance(out, str):  # refused: the reference moved its states, the pool did not
            break
        _assert_pool_equals_reference(new, ref, cfg)


# the benchmark's detector noise
_NOISE = {"emb_noise_std": 0.1, "fp_rate": 1.0, "det_dropout_prob": 0.05,
          "box_noise_std": 1.0}


def test_array_pool_equals_per_track_reference_at_crowd_size():
    """200 targets per frame: the appearance stage selects its pairs from a
    cost matrix of about 200 x 200, which no drawn sequence above reaches."""
    out = generate(SimConfig(seed=1, frames=6, num_targets=200, scenario="random", **_NOISE))
    cfg = TrackerConfig()
    ref, new = _RefTracker(cfg), OnlineTracker(cfg)
    for f in sorted(out.dets):
        assert new.step(f, out.dets[f]) == ref.step(f, out.dets[f])
        _assert_pool_equals_reference(new, ref, cfg)
    assert len(new.tracks) > 190


def _state(tracker):
    return ([(a.shape, a.tobytes()) for a in map(tracker.__getattribute__, tracker._arrays)],
            tracker._last_frame, tracker._next_id)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cfg=_configs())
def test_a_refused_frame_leaves_the_tracker_as_it_was(seed, cfg):
    """A tracker that retries each refused frame without its zero-height boxes
    equals one that was only ever given the frames it accepted."""
    retried, clean = OnlineTracker(cfg), OnlineTracker(cfg)
    for f, dets in enumerate(_sequence(seed, cfg), start=1):
        before = _state(retried)
        accepted = dets
        try:
            out = retried.step(f, dets)
        except ValueError:
            assert _state(retried) == before
            accepted = [d for d in dets if d.box.height > 0]
            out = retried.step(f, accepted)
        assert out == clean.step(f, accepted)
        assert _state(retried) == _state(clean)


def test_a_refused_box_moves_neither_the_states_nor_the_frame():
    tracker = OnlineTracker(TrackerConfig(use_reid=False))
    tracker.step(1, [_det(BBox(0, 0, 10, 20))])
    before = _state(tracker)
    with pytest.raises(ValueError, match="box height must be positive, got 0.0"):
        tracker.step(2, [_det(BBox(0, 0, 10, 0))])
    assert _state(tracker) == before and tracker._last_frame == 1
    assert tracker.step(2, [_det(BBox(1, 0, 11, 20))]) == [(1, BBox(1, 0, 11, 20))]


def test_only_a_box_the_filter_would_use_is_measured():
    """Without re-ID the filter measures only the boxes it matches or starts
    a track from: a zero-height box scored below det_threshold passes, the
    same box scored above it is refused."""
    tracker = OnlineTracker(TrackerConfig(use_reid=False))
    tracker.step(1, [_det(BBox(0, 0, 10, 20))])
    flat = BBox(100, 50, 110, 50)
    assert tracker.step(2, [_det(BBox(1, 0, 11, 20)), _det(flat, score=0.3)]) == \
        [(1, BBox(1, 0, 11, 20))]
    before = _state(tracker)
    with pytest.raises(ValueError, match="^box height must be positive, got 0.0$"):
        tracker.step(3, [_det(BBox(2, 0, 12, 20)), _det(flat, score=0.9)])
    assert _state(tracker) == before and tracker._last_frame == 2
    assert tracker.step(3, [_det(BBox(2, 0, 12, 20))]) == [(1, BBox(2, 0, 12, 20))]


@pytest.mark.parametrize("as_columns", [False, True])
def test_kalman_off_refuses_a_non_finite_box_it_would_keep(as_columns):
    """Without the filter, a box that matches a track or starts one must still
    be finite: a frame holding one is refused before any state moves, in
    either input form, and the same box scored below det_threshold passes."""
    frame = _columns if as_columns else list
    cfg = TrackerConfig(use_kalman=False)
    tracker, clean = OnlineTracker(cfg), OnlineTracker(cfg)
    first = [_det(BBox(0, 0, 10, 20), emb=[1, 0])]
    tracker.step(1, frame(first))
    clean.step(1, frame(first))
    before = _state(tracker)
    wide = BBox(0, 0, np.inf, 20)
    refused = r"^box corners \(0.0, 0.0, inf, 20.0\) are not finite$"
    for dets in ([_det(wide, emb=[1, 0])],  # matches track 1 by appearance
                 first + [_det(wide, emb=[0, 1])]):  # starts a track
        with pytest.raises(ValueError, match=refused):
            tracker.step(2, frame(dets))
        assert _state(tracker) == before
    low = first + [_det(wide, emb=[0, 1], score=0.3)]
    assert tracker.step(2, frame(low)) == clean.step(2, frame(first))
    with pytest.raises(ValueError, match=r"^box corners \(0.0, 0.0, inf, 10.0\) are not finite$"):
        OnlineTracker(TrackerConfig(use_reid=False, use_kalman=False)).step(
            1, frame([Detection(BBox(0, 0, np.inf, 10), 0.9)]))


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("score", [0.9, 0.3])
def test_a_box_with_infinite_corners_reaches_the_overlap_stage_quietly(use_kalman, score):
    """A box with x1 = x2 = inf overlaps no track; stage 2 sees it without a
    numpy warning.  Scored above det_threshold it would start a track and
    is refused with the filter's or the finiteness check's message; below
    it, it is ignored."""
    cfg = TrackerConfig(use_reid=False, use_kalman=use_kalman)
    tracker, clean = OnlineTracker(cfg), OnlineTracker(cfg)
    first = [_det(BBox(0, 0, 10, 20))]
    tracker.step(1, first)
    clean.step(1, first)
    before = _state(tracker)
    frame = [_det(BBox(1, 0, 11, 20)), _det(BBox(np.inf, 0, np.inf, 10), score=score)]
    if score < cfg.det_threshold:
        assert tracker.step(2, frame) == clean.step(2, frame[:1])
        assert _state(tracker) == _state(clean)
        return
    refused = (r"^box measurement \(cx, cy, w / h, h\) = \(inf, 5.0, nan, 10.0\) "
               r"is outside float32's normal range$" if use_kalman
               else r"^box corners \(inf, 0.0, inf, 10.0\) are not finite$")
    with pytest.raises(ValueError, match=refused):
        tracker.step(2, frame)
    assert _state(tracker) == before


def _two_targets(frame):
    return _columns([_walk(0, frame, [1, 0]), _walk(1, frame, [0, 1])])


def _refused_on_entry(use_kalman, pool, bad, message):
    """After ``pool`` frames of two targets (0: a fresh tracker), the next
    frame as ``bad`` is refused with ``message`` before any state moves,
    and the same frame index then takes the two targets as a tracker that
    never saw ``bad`` does."""
    cfg = TrackerConfig(use_kalman=use_kalman)
    tracker, clean = OnlineTracker(cfg), OnlineTracker(cfg)
    for f in range(1, pool + 1):
        tracker.step(f, _two_targets(f))
        clean.step(f, _two_targets(f))
    before = _state(tracker)
    with pytest.raises(ValueError, match=message):
        tracker.step(pool + 1, bad)
    assert _state(tracker) == before
    good = _two_targets(pool + 1)
    assert tracker.step(pool + 1, good) == clean.step(pool + 1, good)
    assert _state(tracker) == _state(clean)


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("pool", [0, 1])
def test_boxes_not_n_by_4_are_refused_on_entry(use_kalman, pool):
    boxes, scores, emb = _two_targets(pool + 1)
    for bad in (boxes[:, :3], boxes.ravel()):
        _refused_on_entry(use_kalman, pool, DetectionColumns(bad, scores, emb),
                          r"^boxes must be \(N, 4\), got shape "
                          + re.escape(f"{bad.shape}") + "$")


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("pool", [0, 1])
def test_scores_not_one_per_box_are_refused_on_entry(use_kalman, pool):
    boxes, scores, emb = _two_targets(pool + 1)
    for bad in (scores[:1], scores[:, None]):
        _refused_on_entry(use_kalman, pool, DetectionColumns(boxes, bad, emb),
                          r"^scores must be \(2,\) for 2 boxes, got shape "
                          + re.escape(f"{bad.shape}") + "$")


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("pool", [0, 1])
def test_a_score_outside_the_unit_interval_is_refused_on_entry(use_kalman, pool):
    """The columns keep ``Detection``'s score rule, with re-ID on or off:
    unchecked, a NaN score is never born and a score of 7.0 is."""
    no_reid = TrackerConfig(use_reid=False, use_kalman=use_kalman)
    for row, value in ((1, np.nan), (0, 7.0), (1, -0.5), (0, np.inf)):
        boxes, scores, emb = _two_targets(pool + 1)
        scores[row] = value
        message = rf"^detection {row} score must be in \[0, 1\], got {value}$"
        _refused_on_entry(use_kalman, pool, DetectionColumns(boxes, scores, emb), message)
        tracker = OnlineTracker(no_reid)
        with pytest.raises(ValueError, match=message):
            tracker.step(1, DetectionColumns(boxes, scores, None))
        assert _state(tracker) == _state(OnlineTracker(no_reid))
        with pytest.raises(ValueError, match=rf"^score must be in \[0, 1\], got {value}$"):
            Detection(BBox(*boxes[row]), value)


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("pool", [0, 1])
def test_embeddings_not_one_row_per_box_are_refused_on_entry(use_kalman, pool):
    boxes, scores, emb = _two_targets(pool + 1)
    for bad in (emb[:1], emb[[0, 1, 0]], emb.ravel()):
        _refused_on_entry(use_kalman, pool, DetectionColumns(boxes, scores, bad),
                          r"^embeddings must be \(2, D\) for 2 boxes, got shape "
                          + re.escape(f"{bad.shape}") + "$")
        # without re-ID the embeddings are not read
        no_reid = TrackerConfig(use_reid=False, use_kalman=use_kalman)
        assert OnlineTracker(no_reid).step(1, DetectionColumns(boxes, scores, bad)) == \
            OnlineTracker(no_reid).step(1, DetectionColumns(boxes, scores, None))


@pytest.mark.parametrize("use_kalman", [True, False])
def test_a_nan_embedding_is_refused_before_any_state_moves(use_kalman):
    """A non-finite embedding row would make NaN appearance costs, which no
    threshold admits, or infinite ones clipped to a perfect 0; the frame is
    refused on entry, before any state moves, also where no track exists
    yet to give it a cost, as on a fresh tracker."""
    for pool in (0, 1):
        for row, value in ((1, np.nan), (0, np.inf), (1, -np.inf)):
            boxes, scores, emb = _two_targets(pool + 1)
            emb[row, 1] = value
            _refused_on_entry(use_kalman, pool, DetectionColumns(boxes, scores, emb),
                              f"^detection {row} has a non-finite embedding$")


@pytest.mark.parametrize("use_kalman", [True, False])
@pytest.mark.parametrize("pool", [0, 1])
def test_an_embedding_that_is_not_a_unit_row_is_refused_on_entry(use_kalman, pool):
    """Appearance costs are clipped to [0, 2], so a row longer than 1 can
    match where its unit row would not: after a track born from [1, 0], a
    far detection [0.3, 0.954] (cost 0.7) starts a track of its own, but the
    same row times 3 (cost 0.1) was matched to track 1 with Kalman off.  The
    columns keep the rule a ``Detection`` keeps, a norm within 1e-6 of 1."""
    cfg = TrackerConfig(use_kalman=use_kalman)
    tracker = OnlineTracker(cfg)
    for f in range(1, pool + 1):
        tracker.step(f, DetectionColumns(np.array([[0.0, 0, 30, 60]]), np.array([0.9]),
                                         np.array([[1.0, 0.0]])))
    box, score, far = np.array([[600.0, 300, 630, 360]]), np.array([0.9]), _unit([0.3, 0.954])
    before = _state(tracker)
    for row, norm in ((3 * far, r"3\.0\d*"), (far * (1 + 2e-6), r"1\.000002\d*"),
                      (np.array([1e300, 1e300]), "inf"), (np.zeros(2), r"0\.0")):
        with pytest.raises(ValueError, match=f"^detection 0 has embedding norm {norm}, not 1$"):
            tracker.step(pool + 1, DetectionColumns(box, score, row[None]))
        assert _state(tracker) == before
        with pytest.raises(ValueError, match=r"^embedding norm \S+ is not 1$"):
            Detection(BBox(*box[0]), 0.9, row)
    # the unit row starts a track of its own, in both forms
    lists = OnlineTracker(cfg)
    for f in range(1, pool + 1):
        lists.step(f, [_det(BBox(0.0, 0, 30, 60), emb=[1.0, 0.0])])
    assert tracker.step(pool + 1, DetectionColumns(box, score, far[None])) == [(pool + 1, 0)]
    assert lists.step(pool + 1, [Detection(BBox(*box[0]), 0.9, far)]) == \
        [(pool + 1, BBox(*box[0]))]
    assert _state(tracker) == _state(lists)


@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 0.1), min_size=2, max_size=4),
       scale=st.sampled_from([1.0, 1 + 5e-7, 1 - 5e-7, 1 + 2e-6, 1 - 2e-6, 3.0, 0.0,
                              1e300, np.inf, np.nan]),
       use_kalman=st.booleans())
def test_columns_admit_exactly_the_embeddings_a_detection_admits(v, scale, use_kalman):
    with np.errstate(over="ignore", invalid="ignore"):
        row = _unit(v) * scale
    box = BBox(10.0, 20.0, 40.0, 80.0)
    try:
        Detection(box, 0.9, row)
        refused = None
    except ValueError:
        refused = ValueError
    step = OnlineTracker(TrackerConfig(use_kalman=use_kalman)).step
    columns = DetectionColumns(np.array([box.as_tuple()]), np.array([0.9]), row[None])
    if refused:
        with pytest.raises(refused, match="^detection 0 has (embedding norm|a non-finite)"):
            step(1, columns)
    else:
        assert step(1, columns) == [(1, 0)]


def _columns(dets):
    """One frame's detections as the columns ``step`` takes; embeddings only
    when every detection has one."""
    embs = [d.embedding for d in dets]
    return DetectionColumns(corners([d.box for d in dets]),
                            np.array([d.score for d in dets], dtype=np.float64),
                            np.stack(embs) if dets and all(e is not None for e in embs)
                            else None)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cfg=_configs())
def test_step_on_columns_equals_step_on_detections(seed, cfg):
    """The same frames as Detection lists and as columns give equal outputs
    (a row standing for its detection's box), equal refusals and pools equal
    byte for byte after every frame.  Besides the sequences' zero-height
    boxes, some frames with re-ID on lose every embedding or carry them at
    another width; a refused frame leaves both pools as they were."""
    rng = np.random.default_rng(seed)
    on_lists, on_columns = OnlineTracker(cfg), OnlineTracker(cfg)
    for f, dets in enumerate(_sequence(seed, cfg), start=1):
        fault = rng.choice(["none", "bare", "wide"], p=[0.8, 0.1, 0.1])
        if cfg.use_reid and dets and fault == "bare":
            dets = [replace(d, embedding=None) for d in dets]
        elif cfg.use_reid and dets and fault == "wide":
            width = len(dets[0].embedding) + 1
            dets = [replace(d, embedding=_unit(rng.normal(size=width))) for d in dets]
        before = _state(on_lists)
        want = _step(on_lists, f, dets)
        got = _step(on_columns, f, _columns(dets))
        if isinstance(want, str):
            assert got == want
            assert _state(on_lists) == before
        else:
            assert [(tid, dets[j].box) for tid, j in got] == want
        assert _state(on_columns) == _state(on_lists)


def _track(frames, cfg):
    try:  # a zero-height box is refused by the Kalman filter
        return track_sequence(frames, cfg)
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cfg=_configs().filter(lambda c: not c.use_reid))
def test_tracking_without_reid_reads_no_embedding(seed, cfg):
    frames = dict(enumerate(_sequence(seed, cfg), start=1))
    rng = np.random.default_rng(seed)
    bare = {f: [replace(d, embedding=None) for d in dets] for f, dets in frames.items()}
    redrawn = {f: [replace(d, embedding=_unit(rng.normal(size=f % 7 + 1))) for d in dets]
               for f, dets in frames.items()}  # the width changes every frame
    want = _track(frames, cfg)
    assert _track(bare, cfg) == want
    assert _track(redrawn, cfg) == want
