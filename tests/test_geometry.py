import pytest
from hypothesis import given, strategies as st

from fairtrack.geometry import BBox, GridSpec, corners, iou_matrix


def _iou(a: BBox, b: BBox) -> float:
    """IoU of two boxes, as the 1 x 1 ``iou_matrix`` of their corners."""
    return float(iou_matrix(corners([a]), corners([b]))[0, 0])


def test_bbox_rejects_inverted_corners():
    with pytest.raises(ValueError):
        BBox(10, 0, 5, 5)
    with pytest.raises(ValueError):
        BBox(0, 10, 5, 5)


def test_bbox_allows_zero_area():
    b = BBox(3, 4, 3, 4)
    assert b.area == 0.0
    assert b.center == (3.0, 4.0)


def test_bbox_accessors():
    b = BBox(100, 40, 140, 120)
    assert b.width == 40
    assert b.height == 80
    assert b.area == 3200
    assert b.center == (120.0, 80.0)
    assert b.as_tuple() == (100, 40, 140, 120)


def test_iou_identical():
    b = BBox(2, 3, 9, 11)
    assert _iou(b, b) == 1.0


def test_iou_disjoint():
    assert _iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0


def test_iou_partial_overlap_one_third():
    # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
    assert _iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3)


def test_iou_zero_area_boxes():
    line = BBox(0, 0, 0, 5)
    assert _iou(line, line) == 0.0
    assert _iou(line, BBox(0, 0, 4, 4)) == 0.0


_coord = st.floats(-1e6, 1e6, allow_nan=False, width=32)


@st.composite
def _boxes(draw):
    x1 = draw(_coord)
    y1 = draw(_coord)
    w = draw(st.floats(0, 1e5, width=32))
    h = draw(st.floats(0, 1e5, width=32))
    return BBox(x1, y1, x1 + w, y1 + h)


@given(_boxes(), _boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = _iou(a, b)
    assert v == _iou(b, a)
    assert 0.0 <= v <= 1.0


@given(_boxes())
def test_iou_self_is_one_for_positive_area(b):
    if b.area > 0:
        assert _iou(b, b) == 1.0


def test_gridspec_floor_division():
    g = GridSpec(1088, 608)
    assert (g.feat_w, g.feat_h) == (272, 152)
    g2 = GridSpec(1090, 611, 4)
    assert (g2.feat_w, g2.feat_h) == (272, 152)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 100)
    with pytest.raises(ValueError):
        GridSpec(100, 100, 0)
