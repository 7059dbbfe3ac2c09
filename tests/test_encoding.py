import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairtrack import encoding
from fairtrack.encoding import (
    MIN_SIGMA,
    GtObject,
    encode_targets,
    gaussian_radius_sigma,
    quantize_center,
    stamp_gaussian,
)
from fairtrack.geometry import BBox, GridSpec, corners, iou_matrix
from reference import _outcome

GRID = GridSpec(1280, 720, 4)


def _identity_plane(maps):
    """The center table's identities on the grid, -1 off the centers."""
    plane = np.full(maps.heatmap.shape, -1, dtype=np.int64)
    x, y = maps.cells.T
    plane[y, x] = maps.identities
    return plane


# --- center quantization ---------------------------------------------------

def test_quantize_center_aligned():
    cx, cy, off = quantize_center(BBox(100, 40, 140, 120), GRID)
    assert (cx, cy) == (30, 20)
    assert off == (0.0, 0.0)


def test_quantize_center_fractional():
    cx, cy, off = quantize_center(BBox(101, 41, 141, 121), GRID)
    assert (cx, cy) == (30, 20)
    assert off == (0.25, 0.25)


def test_quantize_center_near_origin():
    cx, cy, off = quantize_center(BBox(0, 0, 2, 2), GRID)
    assert (cx, cy) == (0, 0)
    assert off == (0.25, 0.25)


def test_quantize_center_outside_grid():
    with pytest.raises(ValueError):
        quantize_center(BBox(1275, 0, 1287, 10), GRID)  # center x = 1281


@given(st.floats(0.1, 1279.4), st.floats(0.1, 719.4))
def test_quantize_offset_range(cx, cy):
    box = BBox(cx - 0.05, cy - 0.05, cx + 0.05, cy + 0.05)
    qx, qy, (ox, oy) = quantize_center(box, GRID)
    assert 0 <= qx < GRID.feat_w and 0 <= qy < GRID.feat_h
    assert 0.0 <= ox < 1.0 and 0.0 <= oy < 1.0


# --- size-adaptive sigma ---------------------------------------------------

def _radius_oracle(w, h, o):
    """Same three worst-case geometries, solved independently via np.roots."""
    r1 = min(np.roots([1.0, -(w + h), w * h * (1 - o) / (1 + o)]).real)
    r2 = min(np.roots([4.0, -2.0 * (w + h), (1 - o) * w * h]).real)
    r3 = max(np.roots([4.0 * o, 2.0 * o * (w + h), (o - 1.0) * w * h]).real)
    return min(r1, r2, r3)


def test_sigma_matches_root_oracle_40x80():
    r = _radius_oracle(40 / 4, 80 / 4, 0.7)
    assert gaussian_radius_sigma((40, 80), GRID) == pytest.approx(max(r / 3, MIN_SIGMA))


@pytest.mark.parametrize("w,h", [(24, 48), (100, 60), (400, 800), (12, 300)])
def test_sigma_matches_root_oracle(w, h):
    r = _radius_oracle(w / 4, h / 4, 0.7)
    expected = max(max(r, 0.0) / 3, MIN_SIGMA)
    assert gaussian_radius_sigma((w, h), GRID) == pytest.approx(expected, rel=1e-9)


def test_sigma_min_clamp_small_object():
    assert gaussian_radius_sigma((2, 2), GRID) == MIN_SIGMA


def test_sigma_monotone_in_size():
    sizes = [(10, 20), (20, 40), (40, 80), (80, 160), (160, 320)]
    sigmas = [gaussian_radius_sigma(s, GRID) for s in sizes]
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))


def test_radius_keeps_min_overlap():
    # at the computed radius, the worst of the three displacement
    # geometries still meets the 0.7 overlap (it is exactly binding)
    for w, h in [(10, 20), (30, 30), (8, 50)]:
        r = _radius_oracle(w, h, 0.7)
        base = corners([BBox(0, 0, w, h)])
        cases = iou_matrix(base, np.array([
            [r, r, w + r, h + r],        # translated
            [r, r, w - r, h - r],        # shrunk
            [-r, -r, w + r, h + r],      # grown
        ]))
        assert cases.min() == pytest.approx(0.7, abs=1e-9)


# --- full-frame encoding ---------------------------------------------------

def test_encode_empty():
    maps = encode_targets([], GRID, 5)
    assert np.asarray(maps.heatmap).max() == 0.0
    assert not maps.center_mask.any()
    assert maps.num_objects == 0


def test_encode_peak_is_exactly_one():
    maps = encode_targets([GtObject(BBox(100, 40, 140, 120), 0)], GRID, 1)
    heat = np.asarray(maps.heatmap)
    assert heat[20, 30] == 1.0
    assert maps.center_mask[20, 30]
    assert _identity_plane(maps)[20, 30] == 0
    off = np.asarray(maps.offsets)
    size = np.asarray(maps.sizes)
    assert off[0, 20, 30] == 0.0 and off[1, 20, 30] == 0.0
    assert size[0, 20, 30] == 40.0 and size[1, 20, 30] == 80.0


def test_encode_collision_keeps_larger():
    small = GtObject(BBox(101, 41, 121, 61), 0)    # center (111, 51) -> (27, 12)
    large = GtObject(BBox(91, 31, 131, 71), 1)     # center (111, 51) -> (27, 12)
    maps = encode_targets([small, large], GRID, 2)
    assert maps.collisions == 1
    assert maps.num_objects == 1
    assert _identity_plane(maps)[12, 27] == 1
    assert np.asarray(maps.sizes)[0, 12, 27] == 40.0


def test_encode_collision_order_independent():
    small = GtObject(BBox(101, 41, 121, 61), 0)
    large = GtObject(BBox(91, 31, 131, 71), 1)
    a = encode_targets([small, large], GRID, 2)
    b = encode_targets([large, small], GRID, 2)
    assert _identity_plane(a)[12, 27] == _identity_plane(b)[12, 27] == 1
    assert a.collisions == b.collisions == 1


def test_encode_rejects_outside_grid():
    inside = GtObject(BBox(100, 40, 140, 120), 0)
    outside = GtObject(BBox(1275, 0, 1287, 10), 1)
    maps = encode_targets([inside, outside], GRID, 2)
    assert maps.rejected == 1
    assert maps.num_objects == 1


def test_encode_identity_out_of_range():
    with pytest.raises(ValueError):
        encode_targets([GtObject(BBox(0, 0, 8, 8), 3)], GRID, 3)


def test_gtobject_negative_identity():
    with pytest.raises(ValueError):
        GtObject(BBox(0, 0, 8, 8), -1)


def test_stamp_gaussian_max_combine():
    heat = np.zeros((40, 40))
    stamp_gaussian(heat, 10, 10, 2.0)
    between = heat[10, 15]
    stamp_gaussian(heat, 20, 10, 2.0)
    assert heat[10, 10] == 1.0 and heat[10, 20] == 1.0
    # midpoint keeps the max of the two overlapping bells, never the sum
    assert heat[10, 15] >= between
    assert heat[10, 15] <= 1.0


@st.composite
def _gt_objects(draw):
    n = draw(st.integers(1, 6))
    objs = []
    for i in range(n):
        w = draw(st.floats(8, 120))
        h = draw(st.floats(8, 120))
        cx = draw(st.floats(w / 2 + 1, 1279 - w / 2))
        cy = draw(st.floats(h / 2 + 1, 719 - h / 2))
        objs.append(GtObject(BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), i))
    return objs


@settings(max_examples=40, deadline=None)
@given(_gt_objects())
def test_encode_invariants(objs):
    maps = encode_targets(objs, GRID, len(objs))
    heat = np.asarray(maps.heatmap)
    assert heat.min() >= 0.0 and heat.max() <= 1.0
    assert maps.center_mask.sum() == maps.num_objects
    assert maps.num_objects + maps.collisions + maps.rejected == len(objs)
    ys, xs = np.nonzero(maps.center_mask)
    off = np.asarray(maps.offsets)
    identity = _identity_plane(maps)
    for y, x in zip(ys, xs):
        assert heat[y, x] == 1.0
        assert 0.0 <= off[0, y, x] < 1.0
        assert 0.0 <= off[1, y, x] < 1.0
        assert identity[y, x] >= 0
    assert (identity[~maps.center_mask] == -1).all()


# --- the center table against the dense encoder it replaced -----------------

def _ref_stamp_gaussian(heatmap, cx, cy, sigma):
    """The window stamp evaluated afresh on every call."""
    h, w = heatmap.shape
    r = math.ceil(math.sqrt(208.0) * sigma) + 1
    y0, y1 = max(cy - r, 0), min(cy + r + 1, h)
    x0, x1 = max(cx - r, 0), min(cx + r + 1, w)
    if y0 >= y1 or x0 >= x1:  # window off the grid; a negative stop would wrap
        return
    ys = np.arange(y0, y1, dtype=np.float64)[:, None]
    xs = np.arange(x0, x1, dtype=np.float64)[None, :]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    window = heatmap[y0:y1, x0:x1]
    np.maximum(window, g, out=window)


def _ref_encode_targets(objects, grid, num_identities):
    """The object-by-object encoder that filled five dense planes."""
    fh, fw = grid.feat_h, grid.feat_w
    heat = np.zeros((fh, fw), dtype=np.float64)
    offsets = np.zeros((2, fh, fw), dtype=np.float64)
    sizes = np.zeros((2, fh, fw), dtype=np.float64)
    mask = np.zeros((fh, fw), dtype=bool)
    identity = np.full((fh, fw), -1, dtype=np.int64)

    rejected = 0
    collisions = 0
    by_cell = {}
    for obj in objects:
        if obj.identity >= num_identities:
            raise ValueError(
                f"identity {obj.identity} out of range for {num_identities} identities"
            )
        try:
            qx, qy, off = quantize_center(obj.box, grid)
        except ValueError:
            rejected += 1
            continue
        prev = by_cell.get((qx, qy))
        if prev is not None:
            collisions += 1
            if obj.box.area <= prev[0].box.area:
                continue
        by_cell[(qx, qy)] = (obj, off)

    for (qx, qy), (obj, off) in by_cell.items():
        sigma = gaussian_radius_sigma((obj.box.width, obj.box.height), grid)
        _ref_stamp_gaussian(heat, qx, qy, sigma)
        mask[qy, qx] = True
        offsets[0, qy, qx] = off[0]
        offsets[1, qy, qx] = off[1]
        sizes[0, qy, qx] = obj.box.width
        sizes[1, qy, qx] = obj.box.height
        identity[qy, qx] = obj.identity

    return SimpleNamespace(heatmap=heat, offsets=offsets, sizes=sizes, center_mask=mask,
                           identity_index=identity, num_objects=len(by_cell),
                           collisions=collisions, rejected=rejected)


# (8, 16) and (16, 8) have equal areas; 0 x 8 and 8 x 0 have none, and raise,
# each with its own message, if they win their cells
_SIZES = st.one_of(st.sampled_from([(8.0, 16.0), (16.0, 8.0), (0.0, 8.0), (8.0, 0.0),
                                    (2.0, 2.0)]),
                   st.tuples(st.floats(0.5, 400), st.floats(0.5, 400)))


@st.composite
def _frame(draw):
    stride = draw(st.sampled_from([1, 2, 4, 8]))
    grid = GridSpec(draw(st.integers(stride, 160)), draw(st.integers(stride, 160)), stride)
    objs = []
    for i in range(draw(st.integers(0, 8))):
        # a cell on the grid, at a border, or just off it, and a point in it:
        # few cells, so objects often share one
        cell = [draw(st.one_of(st.sampled_from([-1, 0, n - 1, n]), st.integers(0, n - 1)))
                for n in (grid.feat_w, grid.feat_h)]
        cx, cy = ((c + draw(st.sampled_from([0.0, 0.5, 0.999]))) * stride for c in cell)
        w, h = draw(_SIZES)
        objs.append(GtObject(BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), i))
    return grid, objs


@settings(max_examples=300, deadline=None)
@given(_frame())
def test_center_table_equals_the_dense_reference(case):
    grid, objs = case
    got = _outcome(encode_targets, objs, grid, len(objs))
    want = _outcome(_ref_encode_targets, objs, grid, len(objs))
    if isinstance(want, str):
        assert got == want
        return
    planes = {name: getattr(got, name) for name in ("heatmap", "offsets", "sizes", "center_mask")}
    planes["identity_index"] = _identity_plane(got)
    for name, a in planes.items():
        b = getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.num_objects, got.collisions, got.rejected) == \
        (want.num_objects, want.collisions, want.rejected)
    ys, xs = np.nonzero(want.center_mask)  # the table is in this order
    assert got.cells.tolist() == np.stack([xs, ys], axis=1).tolist()


def test_the_first_claimed_zero_size_winner_is_named():
    # cell (0, 2) is claimed first, cell (2, 0) comes first in row-major order
    objs = [GtObject(BBox(2, 6, 2, 10), 0), GtObject(BBox(4, 0, 12, 0), 1)]
    assert _outcome(encode_targets, objs, GRID, 2) == \
        _outcome(_ref_encode_targets, objs, GRID, 2) == \
        "ValueError: object size must be positive, got 0x4"


def test_encoder_refuses_an_identity_out_of_range_before_anything_else():
    objs = [GtObject(BBox(-50, -50, -40, -40), 0), GtObject(BBox(0, 0, 8, 8), 7)]
    with pytest.raises(ValueError, match="identity 7 out of range for 2 identities"):
        encode_targets(objs, GRID, 2)


def test_cached_kernel_refuses_writes():
    stamp_gaussian(np.zeros((8, 8)), 4, 4, MIN_SIGMA)
    kernel = encoding._kernel(MIN_SIGMA)
    assert kernel is encoding._kernel(MIN_SIGMA)
    assert kernel.shape == (23, 23) and kernel[11, 11] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        kernel[11, 11] = 0.0


def test_wide_windows_are_evaluated_on_the_grid_only():
    sigma = 10.0  # radius 146, beyond the cached windows
    before = encoding._kernel.cache_info()
    heat, want = np.zeros((40, 50)), np.zeros((40, 50))
    stamp_gaussian(heat, 3, 37, sigma)
    _ref_stamp_gaussian(want, 3, 37, sigma)
    assert heat.tobytes() == want.tobytes()
    assert encoding._kernel.cache_info() == before
