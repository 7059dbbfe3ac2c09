"""Peak picking, sampling and decoding.

``decode`` gathers each frame's peaks as columns.  It is compared bit for
bit to the per-peak loop it replaced, kept here as ``_ref_decode`` with
its per-point bilinear sampler ``_ref_bilinear_sample``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtrack.decoding import (
    DEFAULT_THRESHOLD,
    DEFAULT_TOP_K,
    Detection,
    Sampling,
    _peaks,
    decode,
    row_norms,
)
from fairtrack.encoding import GtObject, encode_targets
from fairtrack.geometry import BBox, GridSpec


def _peak_list(heatmap, threshold=DEFAULT_THRESHOLD, top_k=DEFAULT_TOP_K):
    """The peaks as a list of (x, y, score), best first."""
    ys, xs, scores = _peaks(heatmap, threshold, top_k)
    return list(zip(xs.tolist(), ys.tolist(), scores.tolist()))


def _ref_bilinear_sample(emb, x: float, y: float) -> np.ndarray:
    """4-neighbor bilinear blend of each channel of a (C, H, W) map at (x, y), border-clamped."""
    m = np.asarray(emb, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"embedding map must be 3-d, got shape {m.shape}")
    _, h, w = m.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        raise ValueError(f"sample point ({x}, {y}) outside {w}x{h} map")
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = (1.0 - fx) * m[:, y0, x0] + fx * m[:, y0, x1]
    bot = (1.0 - fx) * m[:, y1, x0] + fx * m[:, y1, x1]
    return (1.0 - fy) * top + fy * bot


def _ref_decode(heat, offsets, sizes, emb, grid: GridSpec,
                threshold: float = 0.4, top_k: int = 128,
                sampling: Sampling = Sampling.CENTER) -> list[Detection]:
    """The per-peak decode loop."""
    fh, fw = grid.feat_h, grid.feat_w
    heat, off, size = (np.asarray(m, dtype=np.float64) for m in (heat, offsets, sizes))
    if emb is not None:
        emb = np.asarray(emb, dtype=np.float64)

    out = []
    for x, y, score in _peak_list(heat, threshold, top_k):
        ox, oy = off[0, y, x], off[1, y, x]
        sw, sh = size[0, y, x], size[1, y, x]
        cx = (x + ox) * grid.stride
        cy = (y + oy) * grid.stride
        x1 = max(cx - sw / 2.0, 0.0)
        y1 = max(cy - sh / 2.0, 0.0)
        x2 = min(cx + sw / 2.0, float(grid.image_w))
        y2 = min(cy + sh / 2.0, float(grid.image_h))
        if x2 <= x1 or y2 <= y1:
            continue
        e = None
        if emb is not None:
            if sampling is Sampling.CENTER_BI:
                fx = min(max(x + ox, 0.0), fw - 1.0)
                fy = min(max(y + oy, 0.0), fh - 1.0)
                v = _ref_bilinear_sample(emb, fx, fy)
            else:
                v = emb[:, y, x]
            n = np.linalg.norm(v)
            if n < 1e-12:
                continue
            e = v / n
        out.append(Detection(box=BBox(x1, y1, x2, y2), score=min(score, 1.0),
                             embedding=e, center_feat=(x + ox, y + oy)))
    return out


# --- peak extraction -------------------------------------------------------

def test_peaks_empty_map():
    assert _peak_list(np.zeros((8, 8))) == []


def test_peaks_below_threshold_dropped():
    h = np.zeros((8, 8))
    h[3, 4] = 0.39
    assert _peak_list(h, threshold=0.4) == []
    assert _peak_list(h, threshold=0.3) == [(4, 3, pytest.approx(0.39))]


def test_peaks_lone_maximum():
    h = np.zeros((8, 8))
    h[2, 5] = 0.9
    h[2, 6] = 0.8  # adjacent, suppressed
    assert _peak_list(h) == [(5, 2, 0.9)]


def test_peaks_plateau_all_kept():
    h = np.zeros((8, 8))
    h[4, 2] = h[4, 3] = 0.7
    got = _peak_list(h)
    assert got == [(2, 4, 0.7), (3, 4, 0.7)]  # tie broken by (row, col)


def test_peaks_sorted_by_score_desc():
    h = np.zeros((10, 10))
    h[1, 1] = 0.5
    h[5, 5] = 0.95
    h[8, 2] = 0.7
    assert [xy[:2] for xy in _peak_list(h)] == [(5, 5), (2, 8), (1, 1)]


def test_peaks_top_k_truncates():
    h = np.zeros((12, 12))
    for i, s in zip(range(5), (0.9, 0.8, 0.7, 0.6, 0.5)):
        h[2 * i + 1, 2 * i + 1] = s
    got = _peak_list(h, top_k=3)
    assert len(got) == 3
    assert got[0][2] == 0.9


def test_peaks_corner_cell():
    h = np.zeros((6, 6))
    h[0, 0] = 0.8
    assert _peak_list(h) == [(0, 0, 0.8)]


def test_peaks_bad_args():
    with pytest.raises(ValueError):
        _peak_list(np.zeros((4, 4)), threshold=0.0)
    with pytest.raises(ValueError):
        _peak_list(np.zeros((4, 4)), top_k=0)


# --- bilinear sampling (the reference's sampler) -----------------------------

def test_bilinear_integer_point_is_identity():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 5, 7))
    assert np.allclose(_ref_bilinear_sample(m, 4.0, 2.0), m[:, 2, 4])


def test_bilinear_midpoint_average():
    m = np.zeros((1, 2, 2))
    m[0] = [[1.0, 3.0], [5.0, 7.0]]
    assert _ref_bilinear_sample(m, 0.5, 0.5)[0] == pytest.approx(4.0)


def test_bilinear_edge_interpolation():
    m = np.zeros((1, 2, 3))
    m[0, 0] = [0.0, 2.0, 4.0]
    m[0, 1] = [0.0, 0.0, 0.0]
    got = _ref_bilinear_sample(m, 1.25, 0.0)
    assert got[0] == pytest.approx(2.5)


def test_bilinear_out_of_bounds():
    t = np.zeros((1, 3, 3))
    with pytest.raises(ValueError):
        _ref_bilinear_sample(t, 3.0, 1.0)
    with pytest.raises(ValueError):
        _ref_bilinear_sample(t, -0.1, 1.0)


# --- detection container ---------------------------------------------------

def test_detection_score_bounds():
    with pytest.raises(ValueError):
        Detection(BBox(0, 0, 1, 1), 1.5)


def test_detection_embedding_must_be_unit():
    with pytest.raises(ValueError):
        Detection(BBox(0, 0, 1, 1), 0.5, embedding=np.array([1.0, 1.0]))
    d = Detection(BBox(0, 0, 1, 1), 0.5, embedding=np.array([0.6, 0.8]))
    assert np.allclose(d.embedding, [0.6, 0.8])


def test_detection_embedding_must_be_finite():
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan]):
        with pytest.raises(ValueError):
            Detection(BBox(0, 0, 1, 1), 0.5, embedding=np.array(bad))


# --- full decode -----------------------------------------------------------

def _maps_for(objs, grid, emb_dim=0):
    t = encode_targets(objs, grid, num_identities=max((o.identity for o in objs),
                                                      default=-1) + 1 or 1)
    emb = None
    if emb_dim:
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(emb_dim, grid.feat_h, grid.feat_w))
    return t, emb


def test_decode_round_trips_encoded_box():
    grid = GridSpec(1088, 608, 4)
    box = BBox(101, 41, 141, 121)
    t, _ = _maps_for([GtObject(box, 0)], grid)
    dets = decode(t.heatmap, t.offsets, t.sizes, None, grid)
    assert len(dets) == 1
    got = dets[0].box
    assert got.x1 == pytest.approx(box.x1, abs=1e-9)
    assert got.y1 == pytest.approx(box.y1, abs=1e-9)
    assert got.x2 == pytest.approx(box.x2, abs=1e-9)
    assert got.y2 == pytest.approx(box.y2, abs=1e-9)
    assert dets[0].score == 1.0


def test_decode_zero_offset_box():
    # peak cell (1, 1) with zero offset and an 8x8 size -> box (0, 0, 8, 8)
    grid = GridSpec(32, 32, 4)
    t, _ = _maps_for([GtObject(BBox(0, 0, 8, 8), 0)], grid)
    dets = decode(t.heatmap, t.offsets, t.sizes, None, grid)
    assert len(dets) == 1
    b = dets[0].box
    assert (b.x1, b.y1, b.x2, b.y2) == (0.0, 0.0, 8.0, 8.0)
    assert dets[0].center_feat == (1.0, 1.0)


def test_decode_clips_to_image():
    grid = GridSpec(64, 64, 4)
    heat = np.zeros((16, 16))
    heat[0, 0] = 0.9
    off = np.zeros((2, 16, 16))
    size = np.zeros((2, 16, 16))
    size[:, 0, 0] = 40.0  # extends well past the left/top edges
    dets = decode(heat, off, size, None, grid)
    b = dets[0].box
    assert b.x1 == 0.0 and b.y1 == 0.0
    assert b.x2 == pytest.approx(20.0) and b.y2 == pytest.approx(20.0)


def test_decode_drops_degenerate_boxes():
    grid = GridSpec(64, 64, 4)
    heat = np.zeros((16, 16))
    heat[5, 5] = 0.9
    off = np.zeros((2, 16, 16))
    size = np.zeros((2, 16, 16))  # zero extent -> degenerate
    assert decode(heat, off, size, None, grid) == []


def test_decode_embedding_is_unit_norm():
    grid = GridSpec(64, 64, 4)
    objs = [GtObject(BBox(8, 8, 24, 40), 0)]
    t, emb = _maps_for(objs, grid, emb_dim=8)
    dets = decode(t.heatmap, t.offsets, t.sizes, emb, grid)
    assert len(dets) == 1
    assert np.linalg.norm(dets[0].embedding) == pytest.approx(1.0, abs=1e-9)


def test_decode_center_bi_equals_center_at_integer_offsets():
    grid = GridSpec(64, 64, 4)
    # box chosen so the center falls exactly on a cell corner (offset 0)
    objs = [GtObject(BBox(8, 8, 24, 40), 0)]
    t, emb = _maps_for(objs, grid, emb_dim=8)
    assert np.asarray(t.offsets)[:, t.center_mask].max() == 0.0
    a = decode(t.heatmap, t.offsets, t.sizes, emb, grid, sampling=Sampling.CENTER)
    b = decode(t.heatmap, t.offsets, t.sizes, emb, grid,
               sampling=Sampling.CENTER_BI)
    assert np.allclose(a[0].embedding, b[0].embedding)


def test_decode_center_bi_blends_neighbors():
    grid = GridSpec(64, 64, 4)
    heat = np.zeros((16, 16))
    heat[4, 4] = 0.9
    off = np.zeros((2, 16, 16))
    off[0, 4, 4] = 0.5  # halfway toward the next column
    size = np.zeros((2, 16, 16))
    size[:, 4, 4] = 8.0
    e = np.zeros((2, 16, 16))
    e[0, 4, 4] = 1.0
    e[1, 4, 5] = 1.0
    dets = decode(heat, off, size, e, grid,
                  sampling=Sampling.CENTER_BI)
    # equal mix of the two neighbor one-hots, renormalized
    assert np.allclose(dets[0].embedding, [np.sqrt(0.5), np.sqrt(0.5)])


def test_decode_multiple_objects_count():
    grid = GridSpec(256, 256, 4)
    objs = [GtObject(BBox(16, 16, 48, 80), 0),
            GtObject(BBox(128, 96, 176, 200), 1),
            GtObject(BBox(200, 20, 240, 100), 2)]
    t, _ = _maps_for(objs, grid)
    dets = decode(t.heatmap, t.offsets, t.sizes, None, grid)
    assert len(dets) == 3
    assert all(d.score == 1.0 for d in dets)


def test_map_rank_is_checked():
    with pytest.raises(ValueError, match="heatmap must be 2-d"):
        _peak_list(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError, match="embedding map must be 3-d"):
        _ref_bilinear_sample(np.zeros((4, 4)), 1.0, 1.0)


def test_decode_shape_validation():
    grid = GridSpec(64, 64, 4)
    t, _ = _maps_for([GtObject(BBox(8, 8, 24, 40), 0)], grid)
    with pytest.raises(ValueError):
        decode(t.heatmap, t.offsets, t.sizes, None, GridSpec(128, 64, 4))
    with pytest.raises(ValueError):
        decode(t.heatmap, np.zeros((3, 16, 16)), t.sizes, None, grid)
    with pytest.raises(ValueError, match="embedding map shape mismatch"):
        decode(t.heatmap, t.offsets, t.sizes, np.zeros((4, 16, 15)), grid)
    with pytest.raises(ValueError, match="embedding map shape mismatch"):
        decode(t.heatmap, t.offsets, t.sizes, np.zeros((16, 16)), grid)


# --- columns against the per-peak loop ---------------------------------------

# Few heat levels make plateaus and neighbouring ties common; 1.5 is
# clipped to a score of 1.  Sizes from 0 (degenerate) to past the image
# (clipped), negative ones degenerate too; offsets push centres off the
# grid, where CENTER_BI clamps its sample point.  Zero cells of the
# embedding maps give zero-norm samples, which decode drops.
_heat_level = st.sampled_from([0.0, 0.3, 0.45, 0.7, 0.7, 0.9, 1.0, 1.5])
_offset = st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-1.5, 1.5))
_extent = st.one_of(st.floats(1.0, 60.0), st.sampled_from([0.0, 4.0, 200.0, -3.0]))


@st.composite
def _frames(draw):
    fh, fw = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    stride = draw(st.sampled_from([1, 4]))
    heat = draw(arrays(np.float64, (fh, fw), elements=_heat_level))
    off = draw(arrays(np.float64, (2, fh, fw), elements=_offset))
    size = draw(arrays(np.float64, (2, fh, fw), elements=_extent))
    channels, emb = draw(st.sampled_from([0, 1, 3, 8])), None
    if channels:  # each cell takes one of four vectors, the first of them zero
        palette = draw(arrays(np.float64, (4, channels), elements=st.floats(-2.0, 2.0)))
        palette[0] = 0.0
        pick = draw(arrays(np.int64, (fh, fw), elements=st.integers(0, 3)))
        emb = np.ascontiguousarray(palette[pick].transpose(2, 0, 1))
    return heat, off, size, emb, GridSpec(fw * stride, fh * stride, stride)


def _bits(d: Detection) -> tuple:
    emb = b"" if d.embedding is None else d.embedding.tobytes()
    return (np.array(d.box.as_tuple()).tobytes(), np.float64(d.score).tobytes(), emb,
            np.array(d.center_feat, dtype=np.float64).tobytes())


@settings(max_examples=300, deadline=None)
@given(_frames(), st.sampled_from([0.2, 0.5, 0.95]), st.sampled_from([1, 2, 3, 128]),
       st.sampled_from(list(Sampling)))
def test_decode_equals_the_per_peak_reference(frame, threshold, top_k, sampling):
    heat, off, size, emb, grid = frame
    got = decode(heat, off, size, emb, grid, threshold, top_k, sampling)
    want = _ref_decode(heat, off, size, emb, grid, threshold, top_k, sampling)
    assert [_bits(d) for d in got] == [_bits(d) for d in want]
    assert all((d.embedding is None) == (emb is None) for d in got)


def test_row_norms_equal_np_linalg_norm_of_each_row():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 7, 16, 17, 33, 64, 65, 128, 257):
        v = rng.normal(size=(50, dim)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        want = np.array([np.linalg.norm(r) for r in v])
        assert row_norms(v).tobytes() == want.tobytes()
        assert row_norms(v.T.copy().T).tobytes() == want.tobytes()  # a strided row
