import numpy as np
import pytest

from fairtrack.decoding import (
    Detection,
    Sampling,
    bilinear_sample,
    decode,
    peak_nms,
)
from fairtrack.encoding import GtObject, encode_targets
from fairtrack.geometry import BBox, GridSpec


# --- peak extraction -------------------------------------------------------

def test_peaks_empty_map():
    assert peak_nms(np.zeros((8, 8))) == []


def test_peaks_below_threshold_dropped():
    h = np.zeros((8, 8))
    h[3, 4] = 0.39
    assert peak_nms(h, threshold=0.4) == []
    assert peak_nms(h, threshold=0.3) == [(4, 3, pytest.approx(0.39))]


def test_peaks_lone_maximum():
    h = np.zeros((8, 8))
    h[2, 5] = 0.9
    h[2, 6] = 0.8  # adjacent, suppressed
    assert peak_nms(h) == [(5, 2, 0.9)]


def test_peaks_plateau_all_kept():
    h = np.zeros((8, 8))
    h[4, 2] = h[4, 3] = 0.7
    got = peak_nms(h)
    assert got == [(2, 4, 0.7), (3, 4, 0.7)]  # tie broken by (row, col)


def test_peaks_sorted_by_score_desc():
    h = np.zeros((10, 10))
    h[1, 1] = 0.5
    h[5, 5] = 0.95
    h[8, 2] = 0.7
    assert [xy[:2] for xy in peak_nms(h)] == [(5, 5), (2, 8), (1, 1)]


def test_peaks_top_k_truncates():
    h = np.zeros((12, 12))
    for i, s in zip(range(5), (0.9, 0.8, 0.7, 0.6, 0.5)):
        h[2 * i + 1, 2 * i + 1] = s
    got = peak_nms(h, top_k=3)
    assert len(got) == 3
    assert got[0][2] == 0.9


def test_peaks_corner_cell():
    h = np.zeros((6, 6))
    h[0, 0] = 0.8
    assert peak_nms(h) == [(0, 0, 0.8)]


def test_peaks_bad_args():
    with pytest.raises(ValueError):
        peak_nms(np.zeros((4, 4)), threshold=0.0)
    with pytest.raises(ValueError):
        peak_nms(np.zeros((4, 4)), top_k=0)


# --- bilinear sampling -----------------------------------------------------

def test_bilinear_integer_point_is_identity():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 5, 7))
    assert np.allclose(bilinear_sample(m, 4.0, 2.0), m[:, 2, 4])


def test_bilinear_midpoint_average():
    m = np.zeros((1, 2, 2))
    m[0] = [[1.0, 3.0], [5.0, 7.0]]
    assert bilinear_sample(m, 0.5, 0.5)[0] == pytest.approx(4.0)


def test_bilinear_edge_interpolation():
    m = np.zeros((1, 2, 3))
    m[0, 0] = [0.0, 2.0, 4.0]
    m[0, 1] = [0.0, 0.0, 0.0]
    got = bilinear_sample(m, 1.25, 0.0)
    assert got[0] == pytest.approx(2.5)


def test_bilinear_out_of_bounds():
    t = np.zeros((1, 3, 3))
    with pytest.raises(ValueError):
        bilinear_sample(t, 3.0, 1.0)
    with pytest.raises(ValueError):
        bilinear_sample(t, -0.1, 1.0)


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
        peak_nms(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError, match="embedding map must be 3-d"):
        bilinear_sample(np.zeros((4, 4)), 1.0, 1.0)


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
