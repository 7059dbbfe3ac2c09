import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairtrack.decoding import Detection
from fairtrack.geometry import BBox
from fairtrack.kalman import measurements
from fairtrack.mot_io import (
    MotFormatError,
    MotRecord,
    format_centers,
    format_det_line,
    format_gt_line,
    format_mot_line,
    load_config,
    parse_centers,
    parse_mot,
    to_frames,
)
from fairtrack.sim import SimConfig, generate
from fairtrack.tracker import TrackerConfig


# --- records ---------------------------------------------------------------

def test_record_to_box():
    r = MotRecord(1, 3, 100.0, 40.0, 40.0, 80.0)
    b = r.to_box()
    assert (b.x1, b.y1, b.x2, b.y2) == (100.0, 40.0, 140.0, 120.0)


def test_record_validation():
    with pytest.raises(ValueError):
        MotRecord(0, 1, 0, 0, 10, 10)
    with pytest.raises(ValueError):
        MotRecord(1, 1, 0, 0, -1, 10)


@pytest.mark.parametrize("field", [2, 3, 4, 5, 6, 8])  # not class (int)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_record_rejects_non_finite(field, bad):
    values = [1, 1, 0.0, 0.0, 10.0, 10.0, 1.0, 1, 1.0]
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        MotRecord(*values)


def test_record_rejects_overflowing_corner():
    with pytest.raises(ValueError, match="finite"):
        MotRecord(1, 1, 1e308, 0.0, 1e308, 10.0)


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

def test_format_mot_line_two_decimals():
    r = MotRecord(3, 7, 1.005, 2.0, 10.125, 20.0, 0.875)
    line = format_mot_line(r)
    assert line == "3,7,1.00,2.00,10.12,20.00,0.88,-1,-1,-1"


def test_format_det_line_keeps_full_score():
    score = 0.699999988079071  # float32 0.7, which 2 or 6 decimals would round
    line = format_det_line(4, Detection(BBox(1.25, 2.0, 11.5, 22.0), score))
    assert line == "4,-1,1.25,2.00,10.25,20.00,0.699999988079071,-1,-1,-1"
    assert float(line.split(",")[6]) == score


def test_format_gt_line_layout():
    r = MotRecord(1, 2, 5.0, 6.0, 10.0, 20.0, 1.0, cls=1, visibility=0.5)
    assert format_gt_line(r) == "1,2,5.00,6.00,10.00,20.00,1,1,0.50"


def test_round_trip_through_text(tmp_path):
    frames = {1: [MotRecord(1, 4, 10.25, 20.5, 30.75, 40.0, 0.95)],
              2: [MotRecord(2, 4, 11.25, 21.5, 30.75, 40.0, 0.9)]}
    p = tmp_path / "out.txt"
    p.write_text("".join(format_mot_line(r) + "\n"
                         for f in sorted(frames) for r in frames[f]))
    back = parse_mot(p)
    for f in frames:
        for a, b in zip(frames[f], back[f]):
            assert a.obj_id == b.obj_id
            assert a.bb_left == b.bb_left  # .25 survives %.2f exactly
            assert a.conf == pytest.approx(b.conf, abs=1e-9)


def test_to_frames_produces_metric_input():
    parsed = {1: [MotRecord(1, 4, 0.0, 0.0, 10.0, 20.0)]}
    frames = to_frames(parsed)
    tid, box = frames[1][0]
    assert tid == 4
    assert box.as_tuple() == (0.0, 0.0, 10.0, 20.0)



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
    assert sorted(out.gt) == list(range(1, small.frames + 1))


def test_noise_at_the_cap_generates():
    # the largest accepted noise keeps every embedding finite and unit
    sim = SimConfig(frames=2, num_targets=3, emb_dim=8, box_noise_std=1e6,
                    emb_noise_std=1e6, fp_rate=2.0, det_dropout_prob=0.5)
    out = generate(sim)
    assert sorted(out.gt) == [1, 2]
