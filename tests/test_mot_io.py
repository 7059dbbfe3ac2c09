import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairtrack.decoding import Detection
from fairtrack.geometry import BBox
from fairtrack.kalman import check_measurements, measurable, measure, measurements
from fairtrack.metrics import clear_mot
from fairtrack.mot_io import (
    PEDESTRIAN_CLASS,
    CenterRows,
    MotFormatError,
    MotRecord,
    format_centers,
    format_mot,
    load_config,
    parse_centers,
    parse_mot,
    read_mot,
)
from fairtrack.sim import SimConfig, generate
from fairtrack.tracker import TrackerConfig


# --- records ---------------------------------------------------------------

def test_record_to_box():
    r = MotRecord(1, 3, 100.0, 40.0, 40.0, 80.0)
    b = r.to_box()
    assert (b.x1, b.y1, b.x2, b.y2) == (100.0, 40.0, 140.0, 120.0)


def test_record_validation(tmp_path):
    p = tmp_path / "res.txt"
    for line, message in [("0,1,0,0,10,10,1,-1,-1,-1", "frame must be >= 1, got 0"),
                          ("1,1,0,0,-1,10,1,-1,-1,-1", "box extents must be non-negative"),
                          ("1,1,0,0,10,-1,1,-1,-1,-1", "box extents must be non-negative")]:
        p.write_text(line + "\n")
        with pytest.raises(MotFormatError) as exc:
            parse_mot(p)
        assert str(exc.value) == f"{p}:1: {message}"


@pytest.mark.parametrize("field", [2, 3, 4, 5, 6, 8])  # not class (int)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_record_rejects_non_finite(tmp_path, field, bad):
    values = ["1", "1", "0.0", "0.0", "10.0", "10.0", "1.0", "1", "1.0"]
    values[field] = repr(bad)
    p = tmp_path / "gt.txt"
    p.write_text(",".join(values) + "\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="gt")
    assert str(exc.value) == f"{p}:1: box, conf and visibility must be finite"


def test_record_rejects_overflowing_corner(tmp_path):
    # each value is finite, but the right or bottom edge is not
    p = tmp_path / "res.txt"
    for line in ["1,1,1e308,0.0,1e308,10.0,1,-1,-1,-1",
                 "1,1,0.0,-1e308,10.0,-1e308,1,-1,-1,-1"]:
        p.write_text(line + "\n")
        with pytest.raises(MotFormatError) as exc:
            parse_mot(p)
        assert str(exc.value) == f"{p}:1: box, conf and visibility must be finite"


# --- parsing ---------------------------------------------------------------

def test_parse_result_line(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("1,3,100.00,40.00,40.00,80.00,0.90,-1,-1,-1\n")
    frames = parse_mot(p)
    assert list(frames) == [1]
    r = frames[1][0]
    assert (r.frame, r.obj_id) == (1, 3)
    assert r.conf == 0.9
    assert r.to_box().as_tuple() == (100.0, 40.0, 140.0, 120.0)


def test_parse_gt_filters_non_pedestrians(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text(
        "1,1,0,0,10,10,1,1,1.0\n"
        "1,2,50,0,10,10,1,7,1.0\n"   # class 7: dropped
        "2,1,0,0,10,10,1,1,0.8\n")
    frames = parse_mot(p, kind="gt")
    assert [r.obj_id for r in frames[1]] == [1]
    assert frames[1][0].cls == 1
    assert frames[2][0].visibility == 0.8


def test_parse_groups_by_frame_keeps_order(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text(
        "2,5,0,0,10,10,1,-1,-1,-1\n"
        "1,9,0,0,10,10,1,-1,-1,-1\n"
        "2,3,0,0,10,10,1,-1,-1,-1\n")
    frames = parse_mot(p)
    assert [r.obj_id for r in frames[2]] == [5, 3]
    assert [r.obj_id for r in frames[1]] == [9]


def test_parse_skips_blank_lines(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("\n1,1,0,0,10,10,1,-1,-1,-1\n\n\n")
    assert len(parse_mot(p)[1]) == 1


def test_parse_reports_line_numbers(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("1,1,0,0,10,10,1,-1,-1,-1\n1,2,0,0,oops,10,1,-1,-1,-1\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p)
    assert ":2:" in str(exc.value)


def test_parse_rejects_wrong_field_count(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("1,1,0,0,10\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p)
    assert "5" in str(exc.value)


@pytest.mark.parametrize("line", [
    "1,-1,10,10,inf,90,0.9,-1,-1,-1",
    "1,-1,10,10,nan,90,0.9,-1,-1,-1",
    "1,-1,-inf,10,20,90,0.9,-1,-1,-1",
    "1,-1,10,10,20,90,nan,-1,-1,-1",
    "inf,-1,10,10,20,90,0.9,-1,-1,-1",
    "1e999,-1,10,10,20,90,0.9,-1,-1,-1",
    "1,-inf,10,10,20,90,0.9,-1,-1,-1",
    "1,1e999,10,10,20,90,0.9,-1,-1,-1",
    "nan,-1,10,10,20,90,0.9,-1,-1,-1",
])
def test_parse_rejects_non_finite_numbers(tmp_path, line):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,0,0,10,10,0.5,-1,-1,-1\n" + line + "\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="det")
    assert str(exc.value).startswith(f"{p}:2:")


def test_parse_det_reports_the_first_box_the_kalman_filter_refuses(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,0,0,10,10,0.5,-1,-1,-1\n"
                 "2,-1,0,0,20,1e300,0.9,-1,-1,-1\n"
                 "2,-1,10,10,20,0,0.9,-1,-1,-1\n"
                 "3,-1,0,0,20,1e-320,0.9,-1,-1,-1\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="det")
    assert str(exc.value) == (f"{p}:2: box measurement (cx, cy, w / h, h) = "
                              "(10.0, 5e+299, 2e-299, 1e+300) is outside float32's "
                              "normal range")
    p.write_text("1,-1,0,0,10,10,0.5,-1,-1,-1\n"
                 "2,-1,10,10,20,0,0.9,-1,-1,-1\n"
                 "3,-1,0,0,20,1e-320,0.9,-1,-1,-1\n")
    with pytest.raises(MotFormatError, match=r":2: box height must be positive, got 0\.0$"):
        parse_mot(p, kind="det")


def test_parse_gt_and_result_keep_boxes_the_kalman_filter_refuses(tmp_path):
    # only detections reach the tracker's filter
    p = tmp_path / "res.txt"
    p.write_text("1,1,0,0,20,1e300,0.9,-1,-1,-1\n1,2,0,0,20,1e-320,0.9,-1,-1,-1\n")
    assert len(parse_mot(p, kind="result")[1]) == 2
    p.write_text("1,1,0,0,20,1e300,1,1,1.0\n1,2,0,0,20,0,1,1,1.0\n")
    assert len(parse_mot(p, kind="gt")[1]) == 2


def test_parse_gt_rejects_non_finite_visibility(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("1,1,0,0,10,10,1,1,nan\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="gt")
    assert str(exc.value).startswith(f"{p}:1:")


@pytest.mark.parametrize("cls", ["1.7", "1e300"])
def test_parse_gt_rejects_non_integer_class(tmp_path, cls):
    p = tmp_path / "gt.txt"
    p.write_text(f"1,1,10,10,20,40,1,{cls},1.0\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="gt")
    assert str(exc.value).startswith(f"{p}:1: class must be an integer")


_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "NaN", "inf", "-inf", "+inf", "1e999",
                     "-1e999", "1e308", "1e300", "-1", "0", "1", "1.0", "1.7",
                     "2.5", "-0.0", " 7 ", "2147483647", "2147483648",
                     "-2147483648", "-2147483649", "x", "1,5"]),
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.-+eE ninfa", max_size=6),
)
_VALID_GT = ["1", "1", "10", "10", "20", "40", "1", "1", "1.0"]
# random token lists, and valid gt lines with one field replaced
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=0, max_size=12).map(",".join),
    st.tuples(st.integers(0, 8), _TOKENS).map(
        lambda t: ",".join(_VALID_GT[:t[0]] + [t[1]] + _VALID_GT[t[0] + 1:])))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, min_size=1, max_size=4),
       kind=st.sampled_from(["gt", "det", "result"]))
def test_parse_mot_fuzz_finite_or_located_error(tmp_path, lines, kind):
    p = tmp_path / "fuzz.txt"
    p.write_text("\n".join(lines) + "\n")
    try:
        frames = parse_mot(p, kind=kind)
    except MotFormatError as e:
        lineno = str(e)[len(f"{p}:"):].split(":", 1)[0]
        assert str(e).startswith(f"{p}:") and lineno.isdigit()
        assert 1 <= int(lineno) <= len(lines)
        return
    for recs in frames.values():
        for r in recs:
            for v in (r.frame, r.obj_id):
                assert type(v) is int and -2**31 <= v < 2**31
            box = r.to_box()
            assert all(math.isfinite(v) for v in (
                r.bb_left, r.bb_top, r.bb_width, r.bb_height, r.conf,
                box.x2, box.y2))
            assert r.visibility is None or math.isfinite(r.visibility)
            assert r.cls is None or type(r.cls) is int
        if kind == "det":  # every det box is one the Kalman filter accepts
            measurements([r.to_box() for r in recs])
    if kind == "gt":  # every class token read, kept or dropped, was an integer
        for line in lines:
            parts = line.strip().split(",")
            if len(parts) == 9:
                cls = float(parts[7])
                assert cls.is_integer() and -2**31 <= cls < 2**31


def test_parse_rejects_unknown_kind(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("")
    with pytest.raises(ValueError):
        parse_mot(p, kind="predictions")


# --- serialization ---------------------------------------------------------

def _ref_box_fields(frame, obj_id, box, score):
    """The per-line writers' shared prefix, which the columnar writer replaced."""
    if frame < 1 or not all(map(math.isfinite, (box.x1, box.y1, box.width, box.height,
                                               box.x1 + box.width, box.y1 + box.height, score))):
        raise ValueError(f"frame {frame}: a MOT line needs a frame >= 1, "
                         "and a box and score that are finite")
    return (f"{frame},{obj_id},{box.x1:.2f},{box.y1:.2f},"
            f"{box.width:.2f},{box.height:.2f}")


def _ref_format_mot_line(frame, obj_id, box, score):
    return f"{_ref_box_fields(frame, obj_id, box, score)},{score:.2f},-1,-1,-1"


def _ref_format_det_line(frame, det):
    return f"{_ref_box_fields(frame, -1, det.box, det.score)},{float(det.score)!r},-1,-1,-1"


def _ref_format_gt_line(frame, obj_id, box):
    return f"{_ref_box_fields(frame, obj_id, box, 1.0)},1,{PEDESTRIAN_CLASS},1.00"


def test_result_lines_round_to_two_decimals():
    assert format_mot("result", 3, 7, [[1.005, 2.0, 11.125, 22.0]], 0.875) == [
        "3,7,1.00,2.00,10.12,20.00,0.88,-1,-1,-1"]


def test_det_lines_keep_the_full_score():
    score = 0.699999988079071  # float32 0.7, which 2 or 6 decimals would round
    line, = format_mot("det", 4, -1, [[1.25, 2.0, 11.5, 22.0]], score)
    assert line == "4,-1,1.25,2.00,10.25,20.00,0.699999988079071,-1,-1,-1"
    assert float(line.split(",")[6]) == score


def test_gt_line_layout():
    assert format_mot("gt", 1, 2, [[5.0, 6.0, 15.0, 26.0]]) == [
        "1,2,5.00,6.00,10.00,20.00,1,1,1.00"]


def test_writer_takes_a_value_per_row_or_one_for_all():
    boxes = [[0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 3.0, 5.0]]
    assert format_mot("result", [1, 2], [5, 6], boxes, [0.5, 0.25]) == [
        "1,5,0.00,0.00,1.00,2.00,0.50,-1,-1,-1", "2,6,1.00,1.00,2.00,4.00,0.25,-1,-1,-1"]
    assert format_mot("gt", 3, [5, 6], boxes) == [
        "3,5,0.00,0.00,1.00,2.00,1,1,1.00", "3,6,1.00,1.00,2.00,4.00,1,1,1.00"]
    assert format_mot("det", 1, -1, np.zeros((0, 4)), []) == []
    with pytest.raises(ValueError, match="unknown kind 'results'"):
        format_mot("results", 1, 1, boxes)


@pytest.mark.parametrize("frame, box, score", [
    (1, (0.0, 0.0, math.nan, 10.0), 0.5),
    (1, (0.0, math.inf, 10.0, math.inf), 0.5),
    (1, (-1e308, 0.0, 1e308, 10.0), 0.5),  # the width overflows
    (1, (0.0, 0.0, 10.0, 10.0), math.nan),
    (0, (0.0, 0.0, 10.0, 10.0), 0.5),
], ids=["nan-x2", "inf-y", "huge-width", "nan-score", "frame-0"])
def test_writers_refuse_what_the_reader_rejects(frame, box, score):
    message = f"frame {frame}: a MOT line needs a frame >= 1, and a box and score that are finite"
    kinds = ("result", "det") if math.isfinite(score) else ("result",)  # gt lines carry none
    for kind in kinds + ("gt",) * math.isfinite(score):
        with pytest.raises(ValueError) as exc:
            format_mot(kind, [2, frame], 1, [[0.0, 0.0, 1.0, 1.0], box], [0.5, score])
        assert str(exc.value) == message


# values that round at .xx5, signed zeros, huge finite values and non-finite ones
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.005, 0.015, 0.125, 1.005, 2.675, -0.005,
                                    -2.675, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324]),
                   st.floats(-1e4, 1e4), st.floats(allow_nan=True, allow_infinity=True))
_SCORE = st.one_of(st.sampled_from([0.0, -0.0, 0.005, 0.125, 0.875, 0.699999988079071, 1.0]),
                   st.floats(0.0, 1.0))
_ROWS = st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 2**31 - 1),
                           st.tuples(_COORD, _COORD, _COORD, _COORD), _SCORE), max_size=8)


def _ordered(x1, y1, x2, y2):
    """Corners a BBox accepts: each pair in order, a pair with a NaN as drawn."""
    (x1, x2), (y1, y2) = (sorted(p) if not any(map(math.isnan, p)) else p
                          for p in ((x1, x2), (y1, y2)))
    return x1, y1, x2, y2


def _lines_or_error(fn):
    try:
        return fn()
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=300, deadline=None)
@given(_ROWS, st.sampled_from(["result", "det", "gt"]))
def test_columnar_writer_equals_the_per_line_reference(rows, kind):
    rows = [(f, i, _ordered(*c), s) for f, i, c, s in rows]
    boxes = [BBox(*c) for _, _, c, _ in rows]
    ref = {"result": lambda f, i, b, s: _ref_format_mot_line(f, i, b, s),
           "det": lambda f, i, b, s: _ref_format_det_line(f, Detection(b, s)),
           "gt": lambda f, i, b, s: _ref_format_gt_line(f, i, b)}[kind]
    want = _lines_or_error(lambda: [ref(f, i, b, s) for (f, i, _, s), b in zip(rows, boxes)])
    ids = -1 if kind == "det" else [i for _, i, _, _ in rows]
    got = _lines_or_error(lambda: format_mot(
        kind, [f for f, _, _, _ in rows], ids,
        np.array([c for _, _, c, _ in rows]).reshape(-1, 4), [s for _, _, _, s in rows]))
    assert got == want


def test_round_trip_through_text(tmp_path):
    rows = [(1, 4, (10.25, 20.5, 41.0, 60.5), 0.95), (2, 4, (11.25, 21.5, 42.0, 61.5), 0.9)]
    p = tmp_path / "out.txt"
    p.write_text("".join(line + "\n" for line in format_mot(
        "result", [f for f, _, _, _ in rows], [i for _, i, _, _ in rows],
        [c for _, _, c, _ in rows], [s for _, _, _, s in rows])))
    back = parse_mot(p)
    for frame, tid, box, score in rows:
        r, = back[frame]
        assert r.obj_id == tid
        assert r.to_box() == BBox(*box)  # .25 and .5 survive %.2f exactly
        assert r.conf == pytest.approx(score, abs=1e-9)


def test_table_is_metric_input(tmp_path):
    p = tmp_path / "res.txt"
    p.write_text("1,4,0,0,10,20,0.5,-1,-1,-1\n")
    table = read_mot(p)
    assert table.ids.tolist() == [4]
    assert table.boxes.tolist() == [[0.0, 0.0, 10.0, 20.0]]
    report = clear_mot(table, {1: [(4, BBox(0.0, 0.0, 10.0, 20.0))]})
    assert (report.mota, report.fp, report.fn) == (1.0, 0, 0)


# --- centers.txt, the object table -----------------------------------------

def test_centers_round_trip_float32_values_exactly(tmp_path):
    values = np.array([[0.1, 0.7, 45.67, 90.0], [0.0, 0.999999, 1e-3, 3e38]])
    lines = format_centers(3, [5, 0], [4, 9], [2, 0], values)
    assert lines[0].startswith("3,5,4,2,0.10000000149011612,")
    p = tmp_path / "centers.txt"
    p.write_text("\n".join(lines) + "\n")
    rows = parse_centers(p)[3]
    assert rows.lines.tolist() == [1, 2]
    assert rows.cells.tolist() == [[5, 4], [0, 9]]
    assert rows.values.tolist() == values.astype(np.float32).astype(np.float64).tolist()


def test_format_centers_refuses_values_not_finite_as_float32():
    with pytest.raises(ValueError, match="frame 7: a center value is not finite"):
        format_centers(7, [1], [1], [0], [[0.5, 0.5, 4e38, 10.0]])


def test_parse_centers_empty_table(tmp_path):
    p = tmp_path / "centers.txt"
    p.write_text("\n")
    assert parse_centers(p) == {}


_VALID_CENTER = ["1", "5", "4", "0", "0.25", "0.75", "8.0", "16.0"]
# valid rows (repeats collide), random token lists, and valid rows with
# one field replaced
_CENTER_LINES = st.one_of(
    st.just(",".join(_VALID_CENTER)),
    st.lists(_TOKENS, min_size=0, max_size=10).map(",".join),
    st.tuples(st.integers(0, 7), _TOKENS).map(
        lambda t: ",".join(_VALID_CENTER[:t[0]] + [t[1]] + _VALID_CENTER[t[0] + 1:])))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CENTER_LINES, min_size=1, max_size=5))
def test_parse_centers_fuzz_rows_or_located_error(tmp_path, lines):
    p = tmp_path / "centers.txt"
    p.write_text("\n".join(lines) + "\n")
    try:
        table = parse_centers(p)
    except MotFormatError as e:
        lineno = str(e)[len(f"{p}:"):].split(":", 1)[0]
        assert str(e).startswith(f"{p}:") and lineno.isdigit()
        assert 1 <= int(lineno) <= len(lines)
        return
    for frame, rows in table.items():
        assert type(frame) is int and -2**31 <= frame < 2**31
        k = len(rows.lines)
        assert k >= 1 and rows.lines.min() >= 1 and rows.lines.max() <= len(lines)
        assert rows.cells.shape == (k, 2) and rows.values.shape == (k, 4)
        assert np.isfinite(rows.values).all()
        assert (rows.values[:, 2:] >= 0).all()
        assert len({tuple(c) for c in rows.cells.tolist()}) == k

# --- one line rule, and the first bad line wins ----------------------------

# Each input is a valid first line ending in ``end``, then a bad line; only
# \n, \r and \r\n end a line, so the bad line is line 2 as an editor shows it.
_ENDS = ["\x0c\n", "\x85\n", "\u2028\n", "\r\n", "\r", "\n\x0c"]
_ENDS_IDS = ["form-feed", "nel", "line-separator", "crlf", "cr", "form-feed-leads"]


@pytest.mark.parametrize("end", _ENDS, ids=_ENDS_IDS)
def test_det_lines_split_as_a_text_file_does(tmp_path, end):
    p = tmp_path / "det.txt"
    p.write_bytes(("1,-1,0,0,10,10,0.5,-1,-1,-1" + end
                   + "1,-1,0,0,oops,10,0.5,-1,-1,-1\n").encode())
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="det")
    assert str(exc.value) == f"{p}:2: could not convert string to float: 'oops'"


@pytest.mark.parametrize("end", _ENDS, ids=_ENDS_IDS)
def test_centers_lines_split_as_a_text_file_does(tmp_path, end):
    p = tmp_path / "centers.txt"
    p.write_bytes(("1,5,4,0,0.25,0.75,8.0,16.0" + end + "1,6,4,0,0.25,0.75,-8.0,16.0\n").encode())
    with pytest.raises(MotFormatError) as exc:
        parse_centers(p)
    assert str(exc.value) == f"{p}:2: size must be non-negative"


@pytest.mark.parametrize("end", _ENDS, ids=_ENDS_IDS)
def test_config_lines_split_as_a_text_file_does(tmp_path, end):
    p = tmp_path / "cfg.txt"
    p.write_bytes(("seed = 3" + end + "warp_speed = 9\n").encode())
    with pytest.raises(MotFormatError) as exc:
        load_config(p)
    assert str(exc.value) == f"{p}:2: unknown key 'warp_speed'"


def test_a_form_feed_inside_a_line_does_not_end_it(tmp_path):
    p = tmp_path / "det.txt"
    p.write_bytes("1,-1,0,0,10,10,0.5,-1,-1,-1\x0c2,-1,0,0,10,10,0.5,-1,-1,-1\n".encode())
    with pytest.raises(MotFormatError, match=r":1: expected 9 or 10 fields, got 19$"):
        parse_mot(p, kind="det")
    p.write_bytes("seed = 3\u2028frames = 4\n".encode())
    with pytest.raises(MotFormatError, match=r":1: bad value for 'seed'"):
        load_config(p)


def test_not_utf8_line_counts_every_line_break(tmp_path):
    p = tmp_path / "det.txt"
    p.write_bytes(b"1,-1,0,0,10,10,0.5,-1,-1,-1\r2,-1,0,0,10,10,0.5,-1,-1,-1\r\n\xff\n")
    with pytest.raises(MotFormatError, match=r":3: not UTF-8 text"):
        parse_mot(p, kind="det")


def test_det_reports_a_refused_box_before_a_later_malformed_line(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,0,0,10,10,0.5,-1,-1,-1\n"
                 "1,-1,0,0,20,1e300,0.9,-1,-1,-1\n"
                 "2,-1,0,0,10,10,0.5,-1,-1,-1\n"
                 "3,-1,0,0,10,10,0.5,-1,-1,-1\n"
                 "oops\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind="det")
    assert str(exc.value) == (f"{p}:2: box measurement (cx, cy, w / h, h) = "
                              "(10.0, 5e+299, 2e-299, 1e+300) is outside float32's "
                              "normal range")


def test_centers_reports_a_repeated_cell_before_a_later_malformed_line(tmp_path):
    p = tmp_path / "centers.txt"
    p.write_text("1,5,4,0,0.25,0.75,8.0,16.0\n"
                 "1,5,4,1,0.5,0.5,9.0,9.0\n"
                 "2,5,4,0,0.25,0.75,8.0,16.0\n"
                 "3,5,4,0,0.25,0.75,8.0,16.0\n"
                 "4,5,4,0,0.25\n")
    with pytest.raises(MotFormatError) as exc:
        parse_centers(p)
    assert str(exc.value) == f"{p}:2: cell (5, 4) repeated in frame 1"


@pytest.mark.parametrize("kind", ["gt", "result"])
def test_parse_refuses_a_repeated_frame_and_id_at_the_later_line(tmp_path, kind):
    p = tmp_path / "mot.txt"
    p.write_text("1,1,0,0,10,10,1,1,1.0\n"
                 "1,2,0,0,10,10,1,1,1.0\n"
                 "2,1,0,0,10,10,1,1,1.0\n"
                 "1,1,5,5,10,10,1,-1,-1,-1\n"  # a result-style line is kept by gt too
                 "3,1,0,0,10,10,1,1,1.0\n")
    with pytest.raises(MotFormatError) as exc:
        parse_mot(p, kind=kind)
    assert str(exc.value) == f"{p}:4: id 1 repeated in frame 1"


@pytest.mark.parametrize("kind", ["det", "gt", "result"])
def test_parse_repeat_rule_spares_the_placeholder_id(tmp_path, kind):
    p = tmp_path / "mot.txt"
    p.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,5,5,10,10,0.8,-1,-1,-1\n")
    assert len(parse_mot(p, kind=kind)[1]) == 2


def test_parse_repeat_rule_spares_dropped_gt_lines(tmp_path):
    p = tmp_path / "mot.txt"
    p.write_text("1,1,0,0,10,10,1,7,1.0\n1,1,0,0,10,10,1,1,1.0\n1,1,0,0,10,10,1,7,1.0\n")
    assert len(parse_mot(p, kind="gt")[1]) == 1  # class 7 lines are dropped, not counted
    # a repeated line that is malformed reports its malformed field first
    p.write_text("1,1,0,0,10,10,1,1,1.0\n1,1,0,0,-10,10,1,1,1.0\n")
    with pytest.raises(MotFormatError, match=r":2: box extents must be non-negative$"):
        parse_mot(p, kind="gt")


def test_a_line_reports_its_first_failing_field(tmp_path):
    p = tmp_path / "gt.txt"
    # the frame is read before the box, and the box before the class
    p.write_text("1,1,0,0,10,10,1,1,1.0\n1.5,1,0,0,x,10,1,7.5,1.0\n")
    with pytest.raises(MotFormatError,
                       match=r":2: frame must be an integer within int32, got '1\.5'$"):
        parse_mot(p, kind="gt")
    p.write_text("1,1,0,0,10,10,1,1,1.0\n1,1,0,0,x,10,1,7.5,1.0\n")
    with pytest.raises(MotFormatError, match=r":2: could not convert string to float: 'x'$"):
        parse_mot(p, kind="gt")


def test_mixed_field_counts_keep_file_order(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("2,1,0,0,10,10,1,1,0.5\n"
                 "1,2,0,0,10,10,1,-1,-1,-1\n"
                 "2,3,0,0,10,10,1,7,1.0\n"  # class 7: dropped
                 "2,4,0,0,10,10,1,-1,-1,-1\n")
    frames = parse_mot(p, kind="gt")
    assert list(frames) == [2, 1]
    assert [(r.obj_id, r.cls, r.visibility) for r in frames[2]] == [(1, 1, 0.5), (4, None, None)]


# --- config files ----------------------------------------------------------

def test_config_empty_gives_defaults(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# nothing but a comment\n\n")
    tracker, sim = load_config(p)
    assert tracker.ema_momentum == 0.9
    assert sim.seed == 0 and sim.frames == 100


def test_config_sets_both_sections(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(
        "ema_momentum = 0.8\n"
        "track_buffer = 10   # frames\n"
        "use_reid = false\n"
        "seed = 42\n"
        "scenario = crossing\n"
        "emb_noise_std = 0.05\n")
    tracker, sim = load_config(p)
    assert tracker.ema_momentum == 0.8
    assert tracker.track_buffer == 10
    assert tracker.use_reid is False
    assert sim.seed == 42
    assert sim.scenario == "crossing"
    assert sim.emb_noise_std == 0.05


def test_config_bad_value_names_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("track_buffer = fast\n")
    with pytest.raises(MotFormatError) as exc:
        load_config(p)
    assert "track_buffer" in str(exc.value)
    assert ":1:" in str(exc.value)


def test_config_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("warp_speed = 9\n")
    with pytest.raises(MotFormatError) as exc:
        load_config(p)
    assert "warp_speed" in str(exc.value)


def test_config_missing_equals(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("just some words\n")
    with pytest.raises(MotFormatError):
        load_config(p)


def test_config_values_are_validated(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("ema_momentum = 1.5\n")
    with pytest.raises(ValueError):
        load_config(p)


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_config_rejects_bad_gate_chi2(tmp_path, value):
    p = tmp_path / "cfg.txt"
    p.write_text(f"gate_chi2 = {value}\n")
    with pytest.raises(ValueError, match="gate_chi2"):
        load_config(p)
    with pytest.raises(ValueError, match="gate_chi2"):
        TrackerConfig(gate_chi2=float(value))


def test_config_gate_chi2_inf_means_no_gate(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("gate_chi2 = inf\n")
    tracker, _ = load_config(p)
    assert tracker.gate_chi2 == math.inf


@pytest.mark.parametrize("field", ["emb_noise_std", "box_noise_std", "fp_rate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1e200"])
def test_config_rejects_bad_noise(tmp_path, field, value):
    p = tmp_path / "cfg.txt"
    p.write_text(f"{field} = {value}\n")
    with pytest.raises(ValueError, match="noise rates"):
        load_config(p)
    with pytest.raises(ValueError, match="noise rates"):
        SimConfig(**{field: float(value)})


# Every config field name (``occlusions`` is not a key, so it must be
# rejected), and values that parse, fail to parse, or parse out of range.
_CONFIG_KEYS = st.sampled_from(
    [f.name for f in dataclasses.fields(TrackerConfig)]
    + [f.name for f in dataclasses.fields(SimConfig)] + ["warp_speed"])
_CONFIG_VALUES = st.one_of(
    _TOKENS,
    st.sampled_from(["random", "crossing", "true", "false", "Yes", "no", "69",
                     "70", "129", "130", "1e18", "1e20", "1e200"]),
    st.integers(-10, 2000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_CONFIG_LINES = st.one_of(
    st.tuples(_CONFIG_KEYS, _CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.tuples(_CONFIG_KEYS, _CONFIG_VALUES).map(lambda kv: f"{kv[0]}={kv[1]}  # note"),
    st.sampled_from(["", "# comment", "   ", "no equals sign", "= 3"]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINES, max_size=6))
def test_load_config_fuzz_returns_runnable_configs_or_names_the_file(tmp_path, lines):
    p = tmp_path / "cfg.txt"
    p.write_text("\n".join(lines) + "\n")
    try:
        tracker, sim = load_config(p)
    except MotFormatError as e:
        assert str(e).startswith(f"{p}:")
        return
    assert isinstance(tracker, TrackerConfig)
    # only the sizes shrink (false positives per frame among them), so that
    # no example builds a large sequence
    small = dataclasses.replace(sim, frames=min(sim.frames, 3),
                                num_targets=min(sim.num_targets, 3),
                                emb_dim=min(sim.emb_dim, 8),
                                fp_rate=min(sim.fp_rate, 4.0))
    out = generate(small)
    assert out.gt.frames.tolist() == list(range(1, small.frames + 1))


def test_noise_at_the_cap_generates():
    # the largest accepted noise keeps every embedding finite and unit
    sim = SimConfig(frames=2, num_targets=3, emb_dim=8, box_noise_std=1e6,
                    emb_noise_std=1e6, fp_rate=2.0, det_dropout_prob=0.5)
    out = generate(sim)
    assert out.gt.frames.tolist() == [1, 2]


# --- the parsers that preceded the columnar reader, as references -----------

# Kept verbatim apart from the ``_ref`` names: one Python loop per line and
# a record that checks itself.  Their line rule is str.splitlines, so the
# differential tests below use no line break but \n.

@dataclasses.dataclass(frozen=True)
class _RefRecord:
    frame: int
    obj_id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float = 1.0
    cls: int | None = None
    visibility: float | None = None

    def __post_init__(self):
        values = (self.bb_left, self.bb_top, self.bb_width, self.bb_height,
                  self.bb_left + self.bb_width, self.bb_top + self.bb_height,
                  self.conf, 0.0 if self.visibility is None else self.visibility)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("box, conf and visibility must be finite")
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if self.bb_width < 0 or self.bb_height < 0:
            raise ValueError("box extents must be non-negative")


def _ref_not_utf8(path, data: bytes, e: UnicodeDecodeError) -> MotFormatError:
    line = data.count(b"\n", 0, e.start) + 1
    return MotFormatError(f"{path}:{line}: not UTF-8 text ({e.reason} at byte {e.start})")


def _ref_read_text(path) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _ref_not_utf8(path, data, e) from e


def _ref_int_field(name: str, token: str) -> int:
    value = float(token)
    if not (value.is_integer() and -2**31 <= value < 2**31):
        raise ValueError(f"{name} must be an integer within int32, got {token!r}")
    return int(value)


def _ref_parse_mot(path, kind: str = "result") -> dict[int, list[_RefRecord]]:
    if kind not in ("gt", "det", "result"):
        raise ValueError(f"unknown kind {kind!r}")
    out: dict[int, list[_RefRecord]] = {}
    lines, corners = [], []  # det only: each box's line and (x1, y1, x2, y2)
    for lineno, raw in enumerate(_ref_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (9, 10):
            raise MotFormatError(
                f"{path}:{lineno}: expected 9 or 10 fields, got {len(parts)}")
        try:
            frame = _ref_int_field("frame", parts[0])
            obj_id = _ref_int_field("id", parts[1])
            l, t, w, h, conf = (float(v) for v in parts[2:7])
            cls = vis = None
            if kind == "gt" and len(parts) == 9:
                cls = _ref_int_field("class", parts[7])
                vis = float(parts[8])
            rec = _RefRecord(frame, obj_id, l, t, w, h, conf, cls, vis)
        except (ValueError, OverflowError) as e:  # int(inf) overflows
            raise MotFormatError(f"{path}:{lineno}: {e}") from e
        if cls is not None and cls != PEDESTRIAN_CLASS:
            continue
        if kind == "det":
            lines.append(lineno)
            corners += (l, t, l + w, t + h)  # as _RefRecord.to_box builds them
        out.setdefault(frame, []).append(rec)
    if lines:
        z = measure(np.array(corners).reshape(-1, 4))
        bad = np.flatnonzero(~measurable(z))
        if bad.size:
            i = bad[0]
            try:
                check_measurements(z[i:i + 1])
            except ValueError as e:
                raise MotFormatError(f"{path}:{lines[i]}: {e}") from e
    return out


def _ref_parse_centers(path) -> dict[int, CenterRows]:
    frames, lines, cells, values = [], [], [], []
    # newline=None splits lines as a file opened in text mode does
    with io.StringIO(_ref_read_text(path), newline=None) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise MotFormatError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                frame, x, y, _ = (_ref_int_field(name, token) for name, token in
                                  zip(("frame", "x", "y", "identity"), parts))
                row = [float(v) for v in parts[4:]]
                if not all(math.isfinite(v) for v in row):
                    raise ValueError("offset and size must be finite")
                if row[2] < 0 or row[3] < 0:
                    raise ValueError("size must be non-negative")
            except ValueError as e:
                raise MotFormatError(f"{path}:{lineno}: {e}") from e
            frames.append(frame)
            lines.append(lineno)
            cells += (x, y)
            values += row
    frames = np.array(frames, dtype=np.int64)
    lines = np.array(lines, dtype=np.int64)
    cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
    values = np.array(values, dtype=np.float64).reshape(-1, 4)

    order = np.lexsort((lines, cells[:, 1], cells[:, 0], frames))
    key = np.stack([frames, cells[:, 0], cells[:, 1]], axis=1)[order]
    repeats = order[1:][(key[1:] == key[:-1]).all(axis=1)]
    if repeats.size:
        i = repeats[np.argmin(lines[repeats])]
        raise MotFormatError(f"{path}:{lines[i]}: cell ({cells[i, 0]}, {cells[i, 1]}) "
                             f"repeated in frame {frames[i]}")

    order = np.argsort(frames, kind="stable")
    keys, starts = np.unique(frames[order], return_index=True)
    return {int(frame): CenterRows(lines[g], cells[g], values[g])
            for frame, g in zip(keys, np.split(order, starts[1:]))}


def _outcome(parse, path, *args):
    """(result, None), or (None, the MotFormatError's text)."""
    try:
        return parse(path, *args), None
    except MotFormatError as e:
        return None, str(e)


def _error_line(path, message: str) -> int:
    return int(message[len(f"{path}:"):].split(":", 1)[0])


def _ref_repeat(records) -> str | None:
    """The message for a repeated (frame, id) among ``_ref_parse_mot`` records, or
    None.  The placeholder id -1 may repeat."""
    for frame, recs in records.items():
        ids = [r.obj_id for r in recs if r.obj_id != -1]
        for i in ids:
            if ids.count(i) > 1:
                return f"id {i} repeated in frame {frame}"
    return None


def _assert_same_outcome(path, lines, parse, ref, *args, repeat=None):
    """``parse`` and ``ref`` agree on the file of ``lines``.

    Both accept it, or both reject it.  A rejection names the same line
    with the same text, or an earlier line: one whose box or cell ``ref``
    checked only after reading every line, so ``ref`` gives that error on
    the file cut after that line.

    ``repeat``, if given, finds the repeated key that ``ref`` accepts and
    ``parse`` refuses, and gives ``parse``'s message for it.  ``parse`` may
    then also reject at line L with that message where ``ref`` reads the
    file cut after line L with a repeated key and cut before it without
    one; and a file ``parse`` accepts holds no repeated key.
    """
    got, error = _outcome(parse, path, *args)
    want, ref_error = _outcome(ref, path, *args)
    if repeat is not None and error is not None:
        line = _error_line(path, error)
        before, upto = (_cut_outcome(path, lines[:n], ref, *args) for n in (line - 1, line))
        if upto is not None and error == f"{path}:{line}: {repeat(upto)}":
            assert before is not None and repeat(before) is None
            return None, None
        path.write_text("\n".join(lines) + "\n")
    assert (error is None) == (ref_error is None), (error, ref_error)
    if error is None:
        assert repeat is None or repeat(want) is None
        return got, want
    line, ref_line = _error_line(path, error), _error_line(path, ref_error)
    assert line <= ref_line
    if line < ref_line:
        path.write_text("\n".join(lines[:line]) + "\n")
        ref_error = _outcome(ref, path, *args)[1]
    assert error == ref_error
    return None, None


def _cut_outcome(path, lines, ref, *args):
    """``ref``'s result on the file of ``lines``, or None if it rejects it."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return _outcome(ref, path, *args)[0]


_VALID_DET = ["1", "-1", "10", "10", "20", "40", "0.9", "-1", "-1", "-1"]
# the fuzz lines above, valid det lines with one field replaced, and
# valid lines of a few frames, so that records group and interleave
_MIXED_LINES = st.one_of(
    _LINES,
    st.tuples(st.integers(0, 9), _TOKENS).map(
        lambda t: ",".join(_VALID_DET[:t[0]] + [t[1]] + _VALID_DET[t[0] + 1:])),
    st.tuples(st.integers(1, 3), st.booleans()).map(
        lambda t: ",".join([str(t[0])] + (_VALID_GT if t[1] else _VALID_DET)[1:])),
    st.just(""),
)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_MIXED_LINES, min_size=1, max_size=6),
       kind=st.sampled_from(["gt", "det", "result"]))
def test_parse_mot_matches_the_reference(tmp_path, lines, kind):
    p = tmp_path / "fuzz.txt"
    p.write_text("\n".join(lines) + "\n")
    got, want = _assert_same_outcome(p, lines, parse_mot, _ref_parse_mot, kind,
                                     repeat=None if kind == "det" else _ref_repeat)
    if got is not None:
        assert list(got) == list(want)
        assert {f: [repr(tuple(r)) for r in recs] for f, recs in got.items()} == \
            {f: [repr(dataclasses.astuple(r)) for r in recs] for f, recs in want.items()}


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.one_of(_CENTER_LINES, st.just("")), min_size=1, max_size=6))
def test_parse_centers_matches_the_reference(tmp_path, lines):
    p = tmp_path / "centers.txt"
    p.write_text("\n".join(lines) + "\n")
    got, want = _assert_same_outcome(p, lines, parse_centers, _ref_parse_centers)
    if got is not None:
        assert list(got) == list(want)
        for frame, rows in got.items():
            for a, b in zip(rows, want[frame]):
                assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_MIXED_LINES, min_size=1, max_size=6),
       kind=st.sampled_from(["gt", "det", "result"]))
def test_table_holds_the_records_parse_mot_returns(tmp_path, lines, kind):
    """``read_mot`` and ``parse_mot`` refuse a file with the same text, or
    keep the same lines: the table's rows are the records, frames sorted,
    one frame's lines in file order, with bit-equal values."""
    p = tmp_path / "fuzz.txt"
    p.write_text("\n".join(lines) + "\n")
    table, error = _outcome(read_mot, p, kind)
    records, want_error = _outcome(parse_mot, p, kind)
    assert error == want_error
    if error is not None:
        return
    frames = sorted(records)
    rows = [r for f in frames for r in records[f]]
    assert table.frames.dtype == table.start.dtype == table.ids.dtype == np.int64
    assert table.frames.tolist() == frames
    assert table.start.tolist() == np.cumsum([0] + [len(records[f]) for f in frames]).tolist()
    assert table.ids.tolist() == [r.obj_id for r in rows]
    assert table.boxes.shape == (len(rows), 4)
    assert repr(table.boxes.tolist()) == repr([list(r.to_box().as_tuple()) for r in rows])
    assert repr(table.conf.tolist()) == repr([r.conf for r in rows])
    assert [(f, (s.start, s.stop)) for f, s in table.by_frame()] == \
        list(zip(frames, zip(table.start.tolist()[:-1], table.start.tolist()[1:])))
