import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrack.assignment import hungarian
from fairtrack.geometry import BBox
from fairtrack.metrics import (
    _idf1,
    _tracking_pass,
    clear_mot,
    detection_ap,
    evaluate_tracking,
    idf1,
    tpr_at_far,
)
from fairtrack.mot_io import MotTable


def _b(x, y=0.0, w=10.0, h=10.0):
    return BBox(x, y, x + w, y + h)


def _perfect_frames(n_frames, n_ids):
    return {f: [(i, _b(100.0 * i + 2.0 * f)) for i in range(1, n_ids + 1)]
            for f in range(1, n_frames + 1)}


# --- CLEAR / MOTA ----------------------------------------------------------

def test_mota_perfect():
    gt = _perfect_frames(10, 3)
    r = clear_mot(gt, gt)
    assert r.mota == 1.0
    assert (r.fp, r.fn, r.id_switches) == (0, 0, 0)
    assert r.num_gt == 30
    assert r.mt_ratio == 1.0 and r.ml_ratio == 0.0


def test_mota_event_arithmetic():
    # 10 gt boxes; 2 misses, 1 false positive, 1 switch -> 1 - 4/10 = 0.6
    gt = {f: [(1, _b(0.0 + 2 * f))] for f in range(1, 11)}
    pred = {}
    for f in range(1, 11):
        boxes = []
        if f not in (3, 7):            # two missed frames -> FN = 2
            pid = 1 if f < 9 else 2    # id change at frame 9 -> IDSW = 1
            boxes.append((pid, _b(0.0 + 2 * f)))
        if f == 5:                     # one stray box -> FP = 1
            boxes.append((9, _b(500.0)))
        pred[f] = boxes
    r = clear_mot(gt, pred)
    assert (r.fp, r.fn, r.id_switches) == (1, 2, 1)
    assert r.mota == pytest.approx(0.6)


def test_mota_switch_counted_across_gap():
    # matched by id A, then unmatched frames, then id B: still one switch
    gt = {f: [(1, _b(0.0))] for f in range(1, 5)}
    pred = {1: [(10, _b(0.0))], 2: [], 3: [], 4: [(20, _b(0.0))]}
    r = clear_mot(gt, pred)
    assert r.id_switches == 1
    assert r.fn == 2


def test_mota_id_flip_mid_sequence():
    gt = {f: [(1, _b(0.0)), (2, _b(100.0))] for f in range(1, 5)}
    pred = {}
    for f in range(1, 5):
        if f <= 2:
            pred[f] = [(5, _b(0.0)), (6, _b(100.0))]
        else:
            pred[f] = [(6, _b(0.0)), (5, _b(100.0))]  # both identities flip
    r = clear_mot(gt, pred)
    assert r.id_switches == 2
    assert r.fp == 0 and r.fn == 0
    assert r.mota == pytest.approx(1.0 - 2 / 8)


def test_mota_can_go_negative():
    gt = {1: [(1, _b(0.0))]}
    pred = {1: [(1, _b(500.0)), (2, _b(600.0)), (3, _b(700.0))]}
    r = clear_mot(gt, pred)
    assert r.fp == 3 and r.fn == 1
    assert r.mota == pytest.approx(-3.0)


def test_mota_persistent_correspondence_resists_hijack():
    # second pred box overlaps gt slightly better on frame 2, but the
    # established match stays as long as it clears the IoU threshold
    gt = {1: [(1, BBox(0, 0, 10, 10))], 2: [(1, BBox(0, 0, 10, 10))]}
    pred = {
        1: [(7, BBox(1, 0, 11, 10))],
        2: [(7, BBox(2, 0, 12, 10)), (8, BBox(0, 0, 10, 10))],
    }
    r = clear_mot(gt, pred)
    assert r.id_switches == 0
    assert r.fp == 1  # the would-be hijacker goes unmatched


def test_mota_mt_ml_classification():
    # id 1 covered 10/10, id 2 covered 5/10, id 3 covered 1/10
    gt = {f: [(i, _b(200.0 * i)) for i in (1, 2, 3)] for f in range(1, 11)}
    pred = {}
    for f in range(1, 11):
        boxes = [(1, _b(200.0))]
        if f <= 5:
            boxes.append((2, _b(400.0)))
        if f == 1:
            boxes.append((3, _b(600.0)))
        pred[f] = boxes
    r = clear_mot(gt, pred)
    assert r.mt_ratio == pytest.approx(1 / 3)
    assert r.ml_ratio == pytest.approx(1 / 3)


def test_mota_empty_inputs():
    r = clear_mot({}, {})
    assert r.mota == 1.0 and r.num_gt == 0


def test_mota_duplicate_id_rejected():
    gt = {1: [(1, _b(0.0)), (1, _b(50.0))]}
    with pytest.raises(ValueError):
        clear_mot(gt, {})
    with pytest.raises(ValueError):
        clear_mot({}, gt)


# --- IDF1 ------------------------------------------------------------------

def test_idf1_perfect():
    gt = _perfect_frames(10, 2)
    assert idf1(gt, gt) == 1.0


def test_idf1_midpoint_flip():
    # one gt trajectory over 10 frames, predictions switch id at halftime:
    # best single pairing explains 5 frames -> 2*5 / (10 + 10) = 0.5
    gt = {f: [(1, _b(2.0 * f))] for f in range(1, 11)}
    pred = {f: [(1 if f <= 5 else 2, _b(2.0 * f))] for f in range(1, 11)}
    assert idf1(gt, pred) == pytest.approx(0.5)


def test_idf1_partial_coverage():
    # pred follows gt for 8 of 10 frames with a single id, missing 2:
    # IDTP = 8 -> 2*8 / (10 + 8) = 8/9
    gt = {f: [(1, _b(2.0 * f))] for f in range(1, 11)}
    pred = {f: [(3, _b(2.0 * f))] for f in range(1, 9)}
    assert idf1(gt, pred) == pytest.approx(16 / 18)


def test_idf1_four_fifths():
    # two ids, one tracked perfectly, the other half-and-half:
    # IDTP = 10 + 5 + (0 for the flipped half since its id is taken)
    gt = {f: [(1, _b(0.0)), (2, _b(100.0))] for f in range(1, 11)}
    pred = {}
    for f in range(1, 11):
        second_id = 2 if f <= 5 else 3
        pred[f] = [(1, _b(0.0)), (second_id, _b(100.0))]
    # pairing (1,1)=10 frames, (2,2)=5 frames -> IDTP=15, 2*15/(20+20)=0.75
    assert idf1(gt, pred) == pytest.approx(0.75)


def test_idf1_no_overlap():
    gt = {1: [(1, _b(0.0))]}
    pred = {1: [(1, _b(500.0))]}
    assert idf1(gt, pred) == 0.0


def test_idf1_empty_both():
    assert idf1({}, {}) == 1.0


def test_idf1_prefers_globally_best_pairing():
    # pred id 7 overlaps gt 1 for 3 frames and gt 2 for 7 frames; the
    # matching must give it to gt 2 even though it met gt 1 first
    gt = {f: [(1, _b(0.0)), (2, _b(100.0))] for f in range(1, 11)}
    pred = {}
    for f in range(1, 11):
        pred[f] = [(7, _b(0.0 if f <= 3 else 100.0))]
    got = idf1(gt, pred)
    assert got == pytest.approx(2 * 7 / (20 + 10))


def test_idf1_maximises_the_total_count_not_the_number_of_pairs():
    # gt A is with pred X in 5 frames and with pred Y in 1; gt B is with X
    # in 1.  Two pairs (A-Y, B-X) cover 2 frames, the one pair A-X covers 5.
    far = _b(100)
    gt = {f: [(1, _b(0))] for f in range(1, 6)}
    pred = {f: [(7, _b(0))] for f in range(1, 6)}
    gt[6] = [(1, _b(0)), (2, far)]
    pred[6] = [(8, _b(0)), (7, far)]
    assert idf1(gt, pred) == 2.0 * 5 / (7 + 7)


def test_duplicate_id_message_names_kind_and_frame():
    dup = {3: [(1, _b(0.0)), (2, _b(20.0)), (1, _b(50.0))]}
    with pytest.raises(ValueError, match="^duplicate gt id 1 in frame 3$"):
        idf1(dup, {})
    with pytest.raises(ValueError, match="^duplicate pred id 1 in frame 3$"):
        clear_mot({}, dup)


@pytest.mark.parametrize("call", ["clear_mot", "idf1", "evaluate_tracking"])
def test_duplicate_id_first_offender_is_in_the_earliest_frame(call):
    """A pred repeat in frame 1 is reported before a gt repeat in frame 2;
    within a side the earliest repeat wins, and gt before pred in one frame."""
    metric = {"clear_mot": clear_mot, "idf1": idf1, "evaluate_tracking": evaluate_tracking}[call]
    gt = {1: [(1, _b(0.0))], 2: [(4, _b(0.0)), (4, _b(20.0))]}
    pred = {1: [(7, _b(0.0)), (5, _b(20.0)), (5, _b(40.0)), (7, _b(60.0))], 2: []}
    with pytest.raises(ValueError, match="^duplicate pred id 5 in frame 1$"):
        metric(gt, pred)
    gt[1] += [(1, _b(80.0))]
    with pytest.raises(ValueError, match="^duplicate gt id 1 in frame 1$"):
        metric(gt, pred)


@pytest.mark.parametrize("call", ["clear_mot", "idf1", "evaluate_tracking", "detection_ap"])
@pytest.mark.parametrize("corners", [(0, 0, np.inf, 10), (-np.inf, 0, 10, 10),
                                     (0, np.nan, 10, 10)])
def test_a_box_corner_that_is_not_finite_is_refused(call, corners):
    """Unchecked, an inf corner made numpy warn on inf - inf in the IoU
    kernel and a NaN gt corner counted as a miss.  The earliest offender is
    named as a repeated id is: frames in order, gt before pred within one;
    dicts and tables alike (detection AP takes tables only)."""
    metric = {"clear_mot": clear_mot, "idf1": idf1, "evaluate_tracking": evaluate_tracking,
              "detection_ap": detection_ap}[call]
    bad = BBox(*corners)
    text = re.escape(str(tuple(float(v) for v in corners)))
    gt = {1: [(1, _b(0.0))], 2: [(4, _b(0.0)), (5, bad)]}
    pred = {1: [(7, _b(0.0)), (5, bad)], 2: [(4, _b(0.0))]}
    checks = [(gt, pred, f"^pred box corners {text} in frame 1 are not finite$")]
    gt = {**gt, 1: [(1, _b(0.0)), (2, bad)]}
    checks.append((gt, pred, f"^gt box corners {text} in frame 1 are not finite$"))
    if call != "detection_ap":
        gt = {**gt, 1: [(1, _b(0.0)), (1, _b(20.0)), (2, bad)]}
        checks.append((gt, pred, "^duplicate gt id 1 in frame 1$"))
    for gt, pred, message in checks:
        forms = [(_as_table(gt), _as_table(pred))]
        if call != "detection_ap":
            forms += [(gt, pred), (gt, _as_table(pred))]
        for a, b in forms:
            with pytest.raises(ValueError, match=message):
                metric(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ap_refuses_a_score_that_is_not_finite(bad):
    """Unchecked, a NaN score ranked last, so AP read 0.25 or 0.5 by which
    prediction held it.  The earliest offender is named as a box is: frames
    in order, gt before pred within one, and a row's box before its score."""
    text = re.escape(str(bad))
    far, inf_box = _b(500.0), BBox(0.0, 0.0, np.inf, 10.0)
    gt = {1: [_b(0.0), _b(100.0)]}
    for preds, message in [
            ({1: [(0.5, _b(0.0)), (bad, far)]}, f"^pred conf {text} in frame 1 is not finite$"),
            ({1: [(bad, _b(0.0)), (0.5, far)]}, f"^pred conf {text} in frame 1 is not finite$"),
            ({1: [(0.5, _b(0.0))], 2: [(bad, far)]},
             f"^pred conf {text} in frame 2 is not finite$"),
            ({1: [(bad, inf_box)]}, r"^pred box corners \(0.0, 0.0, inf, 10.0\) in frame 1"),
            ({1: [(0.5, inf_box)], 2: [(bad, far)]}, r"^pred box corners"),
            ({1: [(bad, far)], 2: [(0.5, inf_box)]}, f"^pred conf {text} in frame 1")]:
        with pytest.raises(ValueError, match=message):
            _ap(gt, preds)
    with pytest.raises(ValueError, match=r"^gt box corners"):
        _ap({1: [inf_box]}, {1: [(bad, far)]})
    assert _ap(gt, {1: [(0.5, _b(0.0)), (0.4, far)]}) == 0.5  # finite scores still rank


@pytest.mark.parametrize("thresh", [1e-17, 1e-9])
def test_tiny_threshold_never_matches_disjoint_boxes(thresh):
    """1 - 1e-17 rounds to 1.0, which once let an IoU-0 pair match."""
    gt = {1: [(1, _b(0.0))]}
    pred = {1: [(1, _b(500.0))]}
    r = clear_mot(gt, pred, thresh)
    assert (r.mota, r.fp, r.fn, r.id_switches) == (-1.0, 1, 1, 0)
    assert idf1(gt, pred, thresh) == 0.0
    assert evaluate_tracking(gt, pred, thresh) == replace(r, idf1=0.0)
    assert _ap({1: [_b(0.0)]}, {1: [(0.9, _b(500.0))]}, thresh) == 0.0


@pytest.mark.parametrize("thresh", [float("nan"), -1.0, 0.0, 2.0])
def test_iou_threshold_outside_unit_interval_rejected(thresh):
    gt = _perfect_frames(2, 2)
    boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
    preds = {f: [(0.9, b) for b in bs] for f, bs in boxes.items()}
    for call in (lambda: clear_mot(gt, gt, thresh), lambda: idf1(gt, gt, thresh),
                 lambda: evaluate_tracking(gt, gt, thresh),
                 lambda: _ap(boxes, preds, thresh)):
        with pytest.raises(ValueError, match=r"IoU threshold must be in \(0, 1\]"):
            call()


# --- detection AP ----------------------------------------------------------

def _ap(gt_boxes: dict, preds: dict, thresh: float = 0.5) -> float:
    """``detection_ap`` on the tables of {frame: [BBox]} ground truth and
    {frame: [(score, BBox)]} predictions."""
    gt = _as_table({f: [(0, b) for b in boxes] for f, boxes in gt_boxes.items()})
    pred = _as_table({f: [(0, b) for _, b in scored] for f, scored in preds.items()},
                     {f: [s for s, _ in scored] for f, scored in preds.items()})
    return detection_ap(gt, pred, thresh)


def test_ap_perfect_detector():
    gt = {f: [_b(0.0), _b(100.0)] for f in range(1, 4)}
    preds = {f: [(0.9, _b(0.0)), (0.8, _b(100.0))] for f in range(1, 4)}
    assert _ap(gt, preds) == pytest.approx(1.0)


def test_ap_half_recall():
    gt = {1: [_b(0.0), _b(100.0)]}
    preds = {1: [(0.9, _b(0.0))]}
    assert _ap(gt, preds) == pytest.approx(0.5)


def test_ap_false_positive_after_true():
    # TP at rank 1, FP at rank 2: precision envelope gives AP = recall * 1.0
    gt = {1: [_b(0.0)]}
    preds = {1: [(0.9, _b(0.0)), (0.5, _b(500.0))]}
    assert _ap(gt, preds) == pytest.approx(1.0)


def test_ap_false_positive_before_true():
    # FP outranks the TP: precision at full recall is 1/2
    gt = {1: [_b(0.0)]}
    preds = {1: [(0.9, _b(500.0)), (0.5, _b(0.0))]}
    assert _ap(gt, preds) == pytest.approx(0.5)


def test_ap_duplicate_detections_count_once():
    gt = {1: [_b(0.0)]}
    preds = {1: [(0.9, _b(0.0)), (0.8, _b(1.0))]}  # both overlap the same gt
    ap = _ap(gt, preds)
    assert ap == pytest.approx(1.0)  # second one is an FP past full recall


def test_ap_empty_cases():
    assert _ap({1: [_b(0.0)]}, {}) == 0.0
    assert _ap({}, {1: [(0.9, _b(0.0))]}) == 0.0


def test_ap_interpolation_on_sawtooth():
    # ranks: TP FP TP -> precision 1, 1/2, 2/3; envelope 1, 2/3, 2/3
    gt = {1: [_b(0.0), _b(100.0)]}
    preds = {1: [(0.9, _b(0.0)), (0.8, _b(500.0)), (0.7, _b(100.0))]}
    assert _ap(gt, preds) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


# --- verification TPR at fixed FAR -----------------------------------------

def test_tpr_worked_example():
    genuine = [0.9, 0.8, 0.6, 0.4]
    impostor = [0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01]
    # far=0.1, 10 impostors -> k=1, cutoff=0.5; genuine above: 0.9, 0.8, 0.6
    assert tpr_at_far(genuine, impostor, far=0.1) == pytest.approx(3 / 4)


def test_tpr_fully_separated():
    genuine = [0.9, 0.8, 0.7]
    impostor = [0.3, 0.2, 0.1] * 4
    assert tpr_at_far(genuine, impostor, far=0.1) == 1.0


def test_tpr_fully_overlapping():
    genuine = [0.1] * 5
    impostor = [0.9] * 20
    assert tpr_at_far(genuine, impostor, far=0.1) == 0.0


def test_tpr_input_validation():
    with pytest.raises(ValueError):
        tpr_at_far([], [0.1], far=0.1)
    with pytest.raises(ValueError):
        tpr_at_far([0.1], [], far=0.1)
    with pytest.raises(ValueError):
        tpr_at_far([0.1], [0.1], far=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tpr_refuses_scores_that_are_not_finite(bad):
    """Unchecked, a NaN impostor score gave 0.5 first in the list and 0.0
    second, as ``sorted`` does not order NaN, and a NaN genuine score read
    as a miss."""
    for genuine, impostor in (([0.5, 0.7], [bad, 0.6, 0.1, 0.2]),
                              ([0.5, 0.7], [0.6, bad, 0.1, 0.2]),
                              ([bad, 0.7], [0.6, 0.1])):
        with pytest.raises(ValueError, match="^genuine and impostor scores must be finite$"):
            tpr_at_far(genuine, impostor, far=0.3)


@settings(max_examples=50, deadline=None)
@given(
    genuine=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
    impostor=st.lists(st.floats(0, 1, allow_nan=False), min_size=5, max_size=50),
    far_lo=st.floats(0.01, 0.4),
    far_hi=st.floats(0.5, 0.9),
)
def test_tpr_monotone_in_far(genuine, impostor, far_lo, far_hi):
    lo = tpr_at_far(genuine, impostor, far=far_lo)
    hi = tpr_at_far(genuine, impostor, far=far_hi)
    assert 0.0 <= lo <= hi <= 1.0


def _ref_tpr_at_far(genuine, impostor, far):
    """tpr_at_far as it read Python lists: one sorted() and one counting loop."""
    imp = sorted(impostor, reverse=True)
    k = math.floor(far * len(imp))
    if k >= len(imp):
        return 1.0
    return sum(1 for s in genuine if s > imp[k]) / len(genuine)


# a few repeated values, so that genuine and impostor scores tie
_SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                    st.floats(-1, 1, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(genuine=st.lists(_SCORES, min_size=1, max_size=30),
       impostor=st.lists(_SCORES, min_size=1, max_size=60),
       far=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_tpr_on_arrays_equals_tpr_on_lists(genuine, impostor, far):
    got = tpr_at_far(genuine, impostor, far)
    assert type(got) is float
    for other in (tpr_at_far(np.array(genuine), np.array(impostor), far),
                  tpr_at_far(np.array(genuine), impostor, far),
                  _ref_tpr_at_far(genuine, impostor, far)):
        assert type(other) is float and repr(other) == repr(got)


# --- combined report -------------------------------------------------------

def test_evaluate_tracking_bundles_idf1():
    gt = _perfect_frames(5, 2)
    r = evaluate_tracking(gt, gt)
    assert r.mota == 1.0
    assert r.idf1 == 1.0


# --- tables ------------------------------------------------------------------

_tiny_box = st.tuples(*[st.integers(0, 4)] * 2, *[st.integers(0, 3)] * 2).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


@st.composite
def _side(draw):
    """Frames 1-5 of (id, box), each side's frames drawn on their own, so
    that some frames are on one side only; an id may repeat in a frame."""
    frames = {}
    for f in draw(st.lists(st.integers(1, 5), unique=True, max_size=4)):
        ids = draw(st.lists(st.integers(1, 5), max_size=5,
                            unique=draw(st.sampled_from([True, True, False]))))
        frames[f] = [(i, draw(_tiny_box)) for i in ids]
    return frames


def _as_table(frames: dict, scores: dict | None = None) -> MotTable:
    """A dict of nonempty frames as the table ``read_mot`` returns."""
    keys = sorted(f for f in frames if frames[f])
    rows = [(i, box) for f in keys for i, box in frames[f]]
    conf = [s for f in keys for s in scores[f]] if scores else [1.0] * len(rows)
    return MotTable(np.array(keys, dtype=np.int64),
                    np.cumsum([0] + [len(frames[f]) for f in keys]),
                    np.array([i for i, _ in rows], dtype=np.int64),
                    np.array([b.as_tuple() for _, b in rows], dtype=np.float64).reshape(-1, 4),
                    np.array(conf, dtype=np.float64))


def _result(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


_Z, _O = BBox(0, 0, 0, 0), BBox(0, 0, 1, 1)
# gt 2 <-> pred 2 holds in frame 3 and again in frame 5, where pred 2 ties
# at IoU 1 with gt 2 and gt 3; pred's empty frame 4 must not break it
_GAP_GT = {3: [(3, _Z), (4, _Z), (2, _O), (1, _Z), (5, _Z)], 1: [],
           5: [(1, _Z), (3, _O), (2, _O), (4, _Z)]}
_GAP_PRED = {3: [(3, _Z), (4, _Z), (2, _O), (1, _Z), (5, _Z)], 4: [],
             5: [(1, _Z), (2, _O)]}


def test_an_empty_dict_frame_reads_as_absent():
    r = clear_mot(_GAP_GT, _GAP_PRED)
    assert (r.mt_ratio, r.ml_ratio) == (0.2, 0.8)  # gt 2 matched in both its frames
    nonempty = [{f: v for f, v in side.items() if v} for side in (_GAP_GT, _GAP_PRED)]
    assert clear_mot(*nonempty) == r


@settings(max_examples=150, deadline=None)
@given(_side(), _side(), st.sampled_from([0.5, 0.3, 1.0]))
@example(_GAP_GT, _GAP_PRED, 0.5)
def test_metrics_on_tables_equal_the_metrics_on_dicts(gt, pred, thresh):
    """Each tracking metric gives the same report, or the same duplicate-id
    message, on tables, on dicts and on one of each."""
    gt_table, pred_table = _as_table(gt), _as_table(pred)
    for fn in (clear_mot, idf1, evaluate_tracking):
        want = _result(fn, gt, pred, thresh)
        assert _result(fn, gt_table, pred_table, thresh) == want
        assert _result(fn, gt, pred_table, thresh) == want
        assert _result(fn, gt_table, pred, thresh) == want


def _first_seen_rank(codes):
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(unique), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(unique))
    return rank[inverse.reshape(-1)], len(unique)


def _dense_idf1(ov, iou_thresh):
    """IDF1 as one dense ids x ids count matrix solved whole, ids ranked by
    their first counted pair: the reference."""
    total_gt, total_pred = len(ov.g_id), len(ov.p_id)
    if total_gt + total_pred == 0:
        return 1.0
    hit = ov.iou >= iou_thresh
    if not hit.any():
        return 0.0
    row, n_rows = _first_seen_rank(ov.g_id[ov.g[hit]])
    col, n_cols = _first_seen_rank(ov.p_id[ov.p[hit]])
    cell, count = np.unique(row * n_cols + col, return_counts=True)
    cost = np.zeros((n_rows, n_cols))
    cost[cell // n_cols, cell % n_cols] = -count
    pairs, _, _ = hungarian(cost)
    idtp = sum(-cost[i, j] for i, j in pairs)
    return 2.0 * idtp / (total_gt + total_pred)


# Four boxes: the first overlaps the next two at IoU 0.6, those two overlap
# each other at 9/23, and the last overlaps none.
_few_boxes = st.sampled_from([BBox(0, 0, 4, 4), BBox(1, 0, 5, 4), BBox(0, 1, 4, 5),
                              BBox(10, 10, 14, 14)])


@st.composite
def _tracks(draw):
    """Frames 1-8 of (id, box), unique ids per frame from a few, mostly on
    four boxes, so that each id shares frames with several others."""
    frames = {}
    for f in draw(st.lists(st.integers(1, 8), unique=True, max_size=8)):
        ids = draw(st.lists(st.integers(1, 6), unique=True, max_size=6))
        frames[f] = [(i, draw(st.one_of(_few_boxes, _tiny_box))) for i in ids]
    return frames


@settings(max_examples=200, deadline=None)
@given(_tracks(), _tracks(), st.sampled_from([0.5, 0.3, 1.0]))
def test_idf1_by_components_equals_the_dense_solve(gt, pred, thresh):
    ov = _tracking_pass(gt, pred)
    got, want = _idf1(ov, thresh), _dense_idf1(ov, thresh)
    assert type(got) is type(want)
    assert got == want
    if isinstance(want, np.float64):
        assert got.tobytes() == want.tobytes()
