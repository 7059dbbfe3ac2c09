import io
import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrack import cli, decoding
from fairtrack.decoding import Detection, decode
from fairtrack.encoding import GtObject, encode_targets
from fairtrack.geometry import GridSpec, best_match, corners, iou_matrix
from fairtrack.metrics import tpr_at_far
from fairtrack.mot_io import format_centers, format_mot, parse_mot, read_mot
from fairtrack.sim import SimConfig, generate_maps
from fairtrack.tensors import read_tensor, tensor_from_bytes, tensor_to_bytes


def run(argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def sim_args(out, seed=5, frames=10, targets=3, extra=()):
    return ["sim", "--seed", str(seed), "--frames", str(frames),
            "--targets", str(targets), "--image-w", "512", "--image-h", "512",
            "--out", str(out), *extra]


# --- exit codes ------------------------------------------------------------

def test_unknown_flag_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sim", "--portals", "3", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_missing_input_file_exits_2(tmp_path):
    rc, _ = run(["track", "--in", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "r.txt")])
    assert rc == 2


def test_malformed_gt_exits_2(tmp_path):
    bad = tmp_path / "gt.txt"
    bad.write_text("not,a,mot,line\n")
    rc, _ = run(["eval", "--gt", str(bad), "--pred", str(bad)])
    assert rc == 2


def test_bad_metric_name_exits_1(tmp_path):
    run(sim_args(tmp_path / "s"))
    gt = tmp_path / "s" / "gt.txt"
    rc, _ = run(["eval", "--gt", str(gt), "--pred", str(gt),
                 "--metrics", "hour_angle"])
    assert rc == 1


_VALID_ARGV = {
    "sim": ["sim", "--out", "o"],
    "encode": ["encode", "--gt", "g", "--out", "o"],
    "decode": ["decode", "--maps", "m", "--out", "o"],
    "track": ["track", "--in", "i", "--out", "o"],
    "eval": ["eval", "--gt", "g", "--pred", "p"],
    "gradcheck": ["gradcheck"],
    "reid-eval": ["reid-eval", "--in", "i"],
}


@pytest.mark.parametrize("sub", sorted(_VALID_ARGV))
def test_threads_rejected_where_unused(sub):
    cli.build_parser().parse_args(_VALID_ARGV[sub])
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(_VALID_ARGV[sub] + ["--threads", "2"])
    assert exc.value.code == 1


def test_decode_defaults_are_the_decoders(monkeypatch):
    argv = _VALID_ARGV["decode"]
    args = cli.build_parser().parse_args(argv)
    assert (args.threshold, args.top_k) == (decoding.DEFAULT_THRESHOLD, decoding.DEFAULT_TOP_K)
    # read from those constants, not written out again beside them
    monkeypatch.setattr(decoding, "DEFAULT_THRESHOLD", 0.25)
    monkeypatch.setattr(decoding, "DEFAULT_TOP_K", 7)
    args = cli.build_parser().parse_args(argv)
    assert (args.threshold, args.top_k) == (0.25, 7)


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# --- sim layout ------------------------------------------------------------

def test_sim_writes_expected_layout(tmp_path):
    out = tmp_path / "seq"
    rc, _ = run(sim_args(out))
    assert rc == 0
    assert (out / "gt.txt").is_file()
    assert (out / "det.txt").is_file()
    assert (out / "seqinfo.ini").is_file()
    assert (out / "manifest.json").is_file()
    assert not (out / "emb").exists()
    dets = parse_mot(out / "det.txt", kind="det")
    assert read_tensor(out / "emb.ften").shape == (sum(map(len, dets.values())), 64)
    gt = parse_mot(out / "gt.txt", kind="gt")
    assert sorted(gt) == list(range(1, 11))
    assert all(len(v) == 3 for v in gt.values())
    assert "imWidth=512" in (out / "seqinfo.ini").read_text()


def test_sim_manifest_records_argv_and_config(tmp_path):
    out = tmp_path / "seq"
    argv = sim_args(out)
    run(argv)
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["subcommand"] == "sim"
    assert doc["argv"] == argv
    assert doc["seed"] == 5
    assert doc["config"]["num_targets"] == 3
    assert doc["version"]


def test_sim_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(sim_args(a))
    run(sim_args(b))
    for name in ("gt.txt", "det.txt", "emb.ften", "seqinfo.ini"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("text", [
    "gate_chi2 = nan\n",
    "frames = 0\n",
    "use_reid = false\nuse_iou = false\n",
], ids=["gate_chi2-nan", "frames-0", "no-stage"])
def test_config_value_error_exits_2_naming_file(tmp_path, capsys, text):
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text(text)
    rc, _ = run(["sim", "--config", str(cfgf), "--out", str(tmp_path / "seq")])
    assert rc == 2
    assert f"{cfgf}: " in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("seed = -5\n", "seed"),
    ("image_w = 0\n", "image size"),
    ("image_w = -10\n", "image size"),
    ("image_h = 3\n", "image size"),
    ("image_w = 69\n", "image size"),
    ("image_h = 129\n", "image size"),
], ids=["seed-neg", "image_w-0", "image_w-neg", "image_h-3", "image_w-69", "image_h-129"])
def test_config_sim_values_generate_cannot_run_exit_2(tmp_path, capsys, text, key):
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text(text)
    out = tmp_path / "seq"
    rc, _ = run(["sim", "--config", str(cfgf), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfgf}: {key}" in err
    assert not out.exists()


def test_config_smallest_image_generates(tmp_path):
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text("image_w = 70\nimage_h = 130\nframes = 3\nnum_targets = 2\n"
                    "fp_rate = 2.0\nseed = 0\n")
    rc, _ = run(["sim", "--config", str(cfgf), "--out", str(tmp_path / "seq")])
    assert rc == 0


def test_sim_negative_seed_flag_names_seed(tmp_path, capsys):
    rc, _ = run(sim_args(tmp_path / "seq", seed=-5))
    assert rc == 1
    assert "seed must be non-negative, got -5" in capsys.readouterr().err

def test_sim_respects_config_file(tmp_path):
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text("frames = 4\nnum_targets = 2\nseed = 9\n")
    out = tmp_path / "seq"
    rc, _ = run(["sim", "--config", str(cfgf), "--image-w", "512",
                 "--image-h", "512", "--out", str(out)])
    assert rc == 0
    gt = parse_mot(out / "gt.txt", kind="gt")
    assert sorted(gt) == [1, 2, 3, 4]
    assert len(gt[1]) == 2


_SIM_FLAGS = [  # flag, the field it sets, a value for the config file, one for the flag
    ("--seed", "seed", 1, 2),
    ("--frames", "frames", 2, 3),
    ("--targets", "num_targets", 2, 3),
    ("--image-w", "image_w", 256, 320),
    ("--image-h", "image_h", 256, 192),
    ("--scenario", "scenario", "random", "crossing"),
    ("--dropout", "det_dropout_prob", 0.1, 0.2),
    ("--fp-rate", "fp_rate", 0.5, 1.0),
    ("--box-noise", "box_noise_std", 0.5, 1.5),
    ("--emb-dim", "emb_dim", 8, 4),
    ("--emb-noise", "emb_noise_std", 0.05, 0.25),
]


@pytest.mark.parametrize("flag, field, in_file, given", _SIM_FLAGS,
                         ids=[flag for flag, *_ in _SIM_FLAGS])
def test_sim_flag_takes_precedence_over_config(tmp_path, flag, field, in_file, given):
    settings = {"frames": 2, "num_targets": 2, "image_w": 256, "image_h": 256,
                "emb_dim": 8, field: in_file}
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "seq"
    rc, _ = run(["sim", "--config", str(cfgf), flag, str(given), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["config"][field] == given


@pytest.mark.parametrize("text, flags, field, want", [
    ("use_reid = true\n", ["--no-reid"], "use_reid", False),
    ("use_kalman = false\n", [], "use_kalman", False),
], ids=["no-reid-over-file", "file-without-flag"])
def test_track_flag_takes_precedence_over_config(sim_dir, tmp_path, text, flags, field,
                                                 want):
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text(text)
    res = tmp_path / "r.txt"
    rc, _ = run(["track", "--in", str(sim_dir), "--out", str(res), "--config", str(cfgf),
                 *flags])
    assert rc == 0
    config = json.loads(res.with_name("r.txt.manifest.json").read_text())["config"]
    assert config[field] is want


# --- encode / decode -------------------------------------------------------

@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "seq"
    run(sim_args(out))
    return out


def test_encode_layout_and_sidecar(sim_dir, tmp_path):
    maps = tmp_path / "maps"
    rc, _ = run(["encode", "--gt", str(sim_dir / "gt.txt"), "--out", str(maps)])
    assert rc == 0
    assert sorted(p.name for p in maps.glob("*.ften")) == [
        f"{f:06d}.heat.ften" for f in range(1, 11)]
    centers = (maps / "centers.txt").read_text().strip().splitlines()
    assert len(centers) == 30  # 3 targets x 10 frames, no collisions
    frame, x, y, ident, off_x, off_y, w, h = centers[0].split(",")
    assert frame == "1" and int(ident) in (0, 1, 2)
    assert 0 <= float(off_x) < 1 and 0 <= float(off_y) < 1
    assert float(w) > 0 and float(h) > 0


def test_encode_requires_image_size(tmp_path):
    gt = tmp_path / "gt.txt"  # no seqinfo.ini next to it
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m")])
    assert rc == 1
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m"),
                 "--image-w", "256", "--image-h", "256"])
    assert rc == 0


@pytest.mark.parametrize("text, where, message", [
    (b"imWidth=640\nimHeight=480\n", ":1", "expected a [section] header"),
    (b"[Sequence]\nimWidth=abc\nimHeight=480\n", "",
     "imWidth must be a positive integer, got 'abc'"),
    (b"[Sequence]\nimWidth=-5\nimHeight=480\n", "",
     "imWidth must be a positive integer, got '-5'"),
    (b"\xff\xfe[Sequence]\nimWidth=640\n", ":1", "not UTF-8 text"),
    (b"[Sequence]\nimWidth=640\nimHeight\n", ":3", "expected key = value"),
    (b"[Sequence]\nimWidth=640\nimwidth=640\n", ":3", "repeats a section or key"),
], ids=["no-section-header", "non-integer", "negative", "not-utf8", "not-key-value",
        "repeated-key"])
def test_encode_malformed_seqinfo_exits_2_naming_file(tmp_path, capsys, text, where,
                                                      message):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    (tmp_path / "seqinfo.ini").write_bytes(text)
    capsys.readouterr()
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'seqinfo.ini'}{where}: {message}" in err


def test_encode_zero_image_size_flag_is_not_overridden_by_seqinfo(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    (tmp_path / "seqinfo.ini").write_text("[Sequence]\nimWidth=640\nimHeight=480\n")
    capsys.readouterr()
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m"),
                 "--image-w", "0", "--image-h", "0"])
    assert rc == 1
    assert "image size must be positive, got 0x0" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_encode_reads_image_size_from_seqinfo(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    (tmp_path / "seqinfo.ini").write_text("[Sequence]\nname=%x\nimWidth=64\n"
                                          "imHeight=32\n")
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m")])
    assert rc == 0
    assert read_tensor(tmp_path / "m" / "000001.heat.ften").shape == (8, 16)


def test_decode_empty_maps_dir_exits_2(tmp_path):
    empty = tmp_path / "maps"
    empty.mkdir()
    rc, _ = run(["decode", "--maps", str(empty), "--out", str(tmp_path / "d")])
    assert rc == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--threshold", "1.5", "threshold must be in (0, 1), got 1.5"),
    ("--threshold", "0", "threshold must be in (0, 1), got 0.0"),
    ("--top-k", "0", "top_k must be >= 1, got 0"),
    ("--stride", "0", "stride must be positive, got 0"),
    ("--stride", "-4", "stride must be positive, got -4"),
])
@pytest.mark.parametrize("maps", ["valid", "missing"])
def test_decode_bad_peak_args_exit_1_before_reading_or_writing(tmp_path, capsys, flag,
                                                               value, message, maps):
    """Checked first: a usage error, whether or not --maps holds maps, and no --out made."""
    if maps == "valid":
        _write_maps(tmp_path / "maps")
    capsys.readouterr()
    rc, _ = run(["decode", "--maps", str(tmp_path / "maps"),
                 "--out", str(tmp_path / "dec"), flag, value])
    assert rc == 1
    assert f"fairtrack: {message}" in capsys.readouterr().err
    assert not (tmp_path / "dec").exists()


def test_a_missing_emb_ften_is_named_and_only_track_suggests_no_reid(sim_dir, tmp_path, capsys):
    """reid-eval has no --no-reid flag to suggest; both exit 1."""
    (sim_dir / "emb.ften").unlink()
    capsys.readouterr()
    assert run(["reid-eval", "--in", str(sim_dir)])[0] == 1
    assert capsys.readouterr().err == (
        "fairtrack: reid-eval needs the detections' embeddings, "
        f"but {sim_dir / 'emb.ften'} is missing\n")
    assert run(["track", "--in", str(sim_dir), "--out", str(tmp_path / "r.txt")])[0] == 1
    assert capsys.readouterr().err == (
        f"fairtrack: re-ID stage enabled but {sim_dir / 'emb.ften'} is missing "
        "(pass --no-reid to track on boxes alone)\n")
    assert run(["track", "--in", str(sim_dir), "--out", str(tmp_path / "r.txt"),
                "--no-reid"])[0] == 0


def _write_maps(maps, frames=2):
    """Valid 16x16 heat maps with one peak per frame, and its centers.txt row."""
    maps.mkdir()
    heat = np.zeros((16, 16), np.float32)
    heat[4, 5] = 0.7
    for f in range(1, frames + 1):
        (maps / f"{f:06d}.heat.ften").write_bytes(tensor_to_bytes(heat))
    (maps / "centers.txt").write_text(
        "".join(f"{f},5,4,0,0.25,0.25,8.0,8.0\n" for f in range(1, frames + 1)))


def _decode_err(tmp_path, capsys):
    capsys.readouterr()
    rc, _ = run(["decode", "--maps", str(tmp_path / "maps"),
                 "--out", str(tmp_path / "dec")])
    return rc, capsys.readouterr().err


def test_decode_wrong_rank_map_exits_2_naming_file(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "000001.heat.ften"
    path.write_bytes(tensor_to_bytes(np.zeros((1, 16, 16))))
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}: expected a 2-d tensor, got 3-d (byte offset 6)" in err


def test_decode_corrupt_map_error_names_file(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "000002.heat.ften"
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}: bad magic b'XXXX' (byte offset 0)" in err


@pytest.mark.parametrize("name", ["heat", "off", "size"])
def test_decode_nan_map_exits_2_naming_file(tmp_path, capsys, name):
    _write_maps(tmp_path / "maps")
    if name == "heat":
        path = tmp_path / "maps" / "000002.heat.ften"
        raw = bytearray(path.read_bytes())
        dims_end = 8 + 4 * raw[6]
        raw[dims_end + 4 * 3:dims_end + 4 * 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        want = f"{path}: non-finite value nan at element 3 (byte offset {dims_end + 12})"
    else:  # the offset or size columns of frame 2's table row
        path = tmp_path / "maps" / "centers.txt"
        value = "0.25,nan,8.0,8.0" if name == "off" else "0.25,0.25,nan,8.0"
        path.write_text(f"1,5,4,0,0.25,0.25,8.0,8.0\n2,5,4,0,{value}\n")
        want = f"{path}:2: offset and size must be finite"
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert want in err


@pytest.mark.parametrize("row,lineno,message", [
    ("2,5,4,0,0.25,0.25,8.0", 2, "expected 8 fields, got 7"),
    ("2,5,4,0,0.25,0.25,8.0,8.0,1", 2, "expected 8 fields, got 9"),
    ("2.5,5,4,0,0.25,0.25,8.0,8.0", 2, "frame must be an integer"),
    ("2,5.5,4,0,0.25,0.25,8.0,8.0", 2, "x must be an integer"),
    ("2,5,1e300,0,0.25,0.25,8.0,8.0", 2, "y must be an integer"),
    ("2,5,4,nan,0.25,0.25,8.0,8.0", 2, "identity must be an integer"),
    ("2,5,4,0,inf,0.25,8.0,8.0", 2, "offset and size must be finite"),
    ("2,5,4,0,0.25,0.25,8.0,-inf", 2, "offset and size must be finite"),
    ("2,5,4,0,0.25,0.25,-8.0,8.0", 2, "size must be non-negative"),
    ("2,5,4,0,0.25,0.25,8.0,-1e-9", 2, "size must be non-negative"),
    ("2,16,4,0,0.25,0.25,8.0,8.0", 2, "cell (16, 4) outside the 16x16 heat map"),
    ("2,-1,4,0,0.25,0.25,8.0,8.0", 2, "cell (-1, 4) outside the 16x16 heat map"),
    ("2,5,16,0,0.25,0.25,8.0,8.0", 2, "cell (5, 16) outside the 16x16 heat map"),
    ("2,5,4,0,0.25,0.25,8.0,8.0\n2,5,4,1,0.5,0.5,9.0,9.0", 3,
     "cell (5, 4) repeated in frame 2"),
    ("2,5,4,0,0.25,0.25,8.0,8.0\n3,5,4,0,0.25,0.25,8.0,8.0", 3,
     "frame 3 has no heat map"),
], ids=["fields-7", "fields-9", "frame-float", "x-float", "y-huge",
        "identity-nan", "off-inf", "size-neg-inf", "size-neg", "size-tiny-neg",
        "x-past-grid", "x-neg", "y-past-grid", "duplicate-cell", "frame-no-heat"])
def test_decode_bad_table_row_exits_2_at_line(tmp_path, capsys, row, lineno, message):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "centers.txt"
    path.write_text(f"1,5,4,0,0.25,0.25,8.0,8.0\n{row}\n")
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}:{lineno}: {message}" in err
    assert not (tmp_path / "dec" / "det.txt").exists()


def test_decode_heads_hold_only_each_frames_rows(tmp_path):
    """A frame decodes from its own rows only, also after a frame of another size."""
    maps = tmp_path / "maps"
    _write_maps(maps, frames=2)  # the same peak on both frames
    heat = np.zeros((8, 12), np.float32)
    heat[2, 3] = 0.9
    (maps / "000003.heat.ften").write_bytes(tensor_to_bytes(heat))
    (maps / "centers.txt").write_text("1,5,4,0,0.25,0.25,8.0,8.0\n"
                                      "3,3,2,0,0.5,0.5,6.0,4.0\n")
    assert run(["decode", "--maps", str(maps), "--out", str(tmp_path / "dec")])[0] == 0
    rows = parse_mot(tmp_path / "dec" / "det.txt", kind="det")
    assert {f: [(r.bb_left, r.bb_top, r.bb_width, r.bb_height) for r in recs]
            for f, recs in rows.items()} == {1: [(17.0, 13.0, 8.0, 8.0)],
                                             3: [(11.0, 8.0, 6.0, 4.0)]}


def test_decode_missing_table_exits_2_naming_file(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    (tmp_path / "maps" / "centers.txt").unlink()
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert str(tmp_path / "maps" / "centers.txt") in err


@pytest.mark.parametrize("names, frames, bad", [
    (["abc.heat.ften"], [], "abc.heat.ften"),
    (["000000.heat.ften"], [0], "000000.heat.ften"),
    (["000001.heat.ften", "1.heat.ften"], [1], "1.heat.ften"),
], ids=["not-a-number", "frame-0", "unpadded-twin"])
def test_decode_refuses_map_names_encode_does_not_write(tmp_path, capsys, names, frames,
                                                         bad):
    maps = tmp_path / "maps"
    maps.mkdir()
    heat = np.zeros((16, 16))
    heat[4, 5] = 0.7
    for name in names:
        (maps / name).write_bytes(tensor_to_bytes(heat))
    (maps / "centers.txt").write_text("".join(f"{f},5,4,0,0.25,0.25,8.0,8.0\n" for f in frames))
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{maps / bad}: not a map name encode writes" in err
    assert not (tmp_path / "dec" / "det.txt").exists()


def _f32(t):
    """The map as an FTEN file reads it back."""
    return tensor_from_bytes(tensor_to_bytes(t))


def _det_lines(frame, dets):
    return format_mot("det", frame, -1, corners([d.box for d in dets]), [d.score for d in dets])


_GT_BOX = st.tuples(st.floats(-20, 140), st.floats(-20, 110),
                    st.floats(1, 60), st.floats(1, 60))


@settings(max_examples=25, deadline=None)
@given(frames=st.lists(st.lists(st.tuples(st.integers(1, 5), _GT_BOX),
                                min_size=1, max_size=6, unique_by=lambda obj: obj[0]),
                       min_size=1, max_size=3))
def test_table_decode_equals_dense_decode(frames):
    """encode -> decode through centers.txt gives the det.txt that decode
    gives on the dense heads of encode_targets, read back through float32."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        gt_path, maps, dets = d / "gt.txt", d / "maps", d / "dets"
        rows = [(f, tid, (l, t, l + w, t + h))
                for f, objs in enumerate(frames, start=1) for tid, (l, t, w, h) in objs]
        gt_path.write_text("".join(line + "\n" for line in format_mot(
            "gt", [f for f, _, _ in rows], [tid for _, tid, _ in rows],
            [box for _, _, box in rows])))
        assert run(["encode", "--gt", str(gt_path), "--out", str(maps),
                    "--image-w", "128", "--image-h", "96"])[0] == 0
        assert run(["decode", "--maps", str(maps), "--out", str(dets)])[0] == 0

        gt = parse_mot(gt_path, kind="gt")
        ids = sorted({r.obj_id for recs in gt.values() for r in recs})
        grid = GridSpec(128, 96, 4)
        lines = []
        for frame in sorted(gt):
            objs = [GtObject(r.to_box(), ids.index(r.obj_id)) for r in gt[frame]]
            m = encode_targets(objs, grid, len(ids))
            lines += _det_lines(frame, decode(
                _f32(m.heatmap), _f32(m.offsets), _f32(m.sizes), None, grid))
        assert (dets / "det.txt").read_text() == "\n".join(lines) + "\n"


_EMB_SIM = SimConfig(seed=2, frames=4, num_targets=5, image_w=256, image_h=256,
                    emb_dim=16, emb_noise_std=0.1)


def _write_emb_maps(maps):
    """generate_maps' heat and embedding maps for every frame of _EMB_SIM, and
    its offsets and sizes as the centers.txt object table."""
    maps.mkdir()
    table = []
    for frame in range(1, _EMB_SIM.frames + 1):
        heat, off, size, emb = generate_maps(_EMB_SIM, frame)
        (maps / f"{frame:06d}.heat.ften").write_bytes(tensor_to_bytes(heat))
        (maps / f"{frame:06d}.emb.ften").write_bytes(tensor_to_bytes(emb))
        ys, xs = np.nonzero(size[0])
        table += format_centers(frame, xs, ys, np.zeros_like(xs),
                                np.concatenate([off[:, ys, xs], size[:, ys, xs]]).T)
    (maps / "centers.txt").write_text("\n".join(table) + "\n")


def test_decode_writes_library_embeddings_row_aligned(tmp_path):
    maps, dec = tmp_path / "maps", tmp_path / "dec"
    _write_emb_maps(maps)
    assert run(["decode", "--maps", str(maps), "--out", str(dec)])[0] == 0
    grid = GridSpec(_EMB_SIM.image_w, _EMB_SIM.image_h, 4)
    want, lines = [], []
    for frame in range(1, _EMB_SIM.frames + 1):
        dets = decode(*map(_f32, generate_maps(_EMB_SIM, frame)), grid)
        want += [d.embedding for d in dets]
        lines += _det_lines(frame, dets)
    assert (dec / "det.txt").read_text() == "\n".join(lines) + "\n"
    got = read_tensor(dec / "emb.ften")
    assert got.shape == (len(lines), _EMB_SIM.emb_dim)
    np.testing.assert_array_equal(got, _f32(np.stack(want)))
    assert not (dec / "emb").exists()

    rc, _ = run(["track", "--in", str(dec), "--out", str(tmp_path / "r.txt")])
    assert rc == 0
    tracks = parse_mot(tmp_path / "r.txt")
    assert sorted(tracks) == list(range(1, _EMB_SIM.frames + 1))
    assert {r.obj_id for recs in tracks.values() for r in recs} == set(range(1, 6))


@pytest.mark.parametrize("change, bad, message", [
    ("drop-3", "000003.emb.ften", "no embedding channels, but frame 1 has 16"),
    ("drop-1", "000002.emb.ften", "16 embedding channels, but frame 1 has none"),
    ("narrow-4", "000004.emb.ften", "8 embedding channels, but frame 1 has 16"),
    ("crop-2", "000002.emb.ften",
     "embedding map of shape (16, 32, 64), but its heat map has shape (64, 64)"),
], ids=["missing", "mixed", "channels", "height-width"])
def test_decode_takes_embedding_maps_for_every_frame_or_none(tmp_path, capsys, change,
                                                             bad, message):
    maps = tmp_path / "maps"
    _write_emb_maps(maps)
    action, frame = change.split("-")
    path = maps / f"{int(frame):06d}.emb.ften"
    if action == "drop":
        path.unlink()
    elif action == "narrow":
        path.write_bytes(tensor_to_bytes(read_tensor(path)[:8]))
    else:
        path.write_bytes(tensor_to_bytes(read_tensor(path)[:, :32]))
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{maps / bad}: {message}" in err
    assert not (tmp_path / "dec" / "det.txt").exists()


@pytest.mark.parametrize("names, bad", [
    (["000007.emb.ften", "abc.emb.ften"], "000007.emb.ften"),
    (["abc.emb.ften"], "abc.emb.ften"),
    (["000001.emb.ften", "1.emb.ften"], "1.emb.ften"),
], ids=["no-frame-7", "not-a-frame", "unpadded"])
def test_decode_refuses_embedding_maps_of_no_heat_map(tmp_path, capsys, names, bad):
    maps = tmp_path / "maps"
    _write_maps(maps, frames=1)
    for name in names:
        (maps / name).write_bytes(tensor_to_bytes(np.ones((4, 16, 16))))
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{maps / bad}: not the embedding map of a frame with a heat map" in err
    assert not (tmp_path / "dec").exists()


def test_decode_orders_frames_by_number_past_six_digits(tmp_path):
    """Frame 1000000's map name sorts before 999999's; det.txt and emb.ften
    still follow the frame numbers, and track's reader pairs each row with
    its own frame's detection."""
    maps, dec = tmp_path / "maps", tmp_path / "dec"
    maps.mkdir()
    table = []
    for k, frame in enumerate((999999, 1000000)):
        heat, emb = np.zeros((16, 16)), np.zeros((4, 16, 16))
        heat[4, 5 + k] = 0.7
        emb[k, 4, 5 + k] = 1.0
        (maps / f"{frame:06d}.heat.ften").write_bytes(tensor_to_bytes(heat))
        (maps / f"{frame:06d}.emb.ften").write_bytes(tensor_to_bytes(emb))
        table.append(f"{frame},{5 + k},4,0,0.25,0.25,8.0,8.0")
    (maps / "centers.txt").write_text("\n".join(table) + "\n")
    assert run(["decode", "--maps", str(maps), "--out", str(dec)])[0] == 0
    assert [line.split(",")[0] for line in (dec / "det.txt").read_text().splitlines()] == \
        ["999999", "1000000"]
    np.testing.assert_array_equal(read_tensor(dec / "emb.ften"), np.eye(2, 4))
    dets, emb = cli._read_detections(dec)
    assert dets.frames.tolist() == [999999, 1000000]
    for k, (frame, rows) in enumerate(dets.by_frame()):
        (x1,) = dets.boxes[rows, 0]
        assert x1 == (5 + k + 0.25) * 4 - 4.0  # the frame's own peak
        np.testing.assert_array_equal(emb[rows], np.eye(1, 4, k))


def test_decode_refuses_maps_encoded_at_another_stride(sim_dir, tmp_path, capsys):
    maps = tmp_path / "maps"
    assert run(["encode", "--gt", str(sim_dir / "gt.txt"), "--out", str(maps),
                "--stride", "8"])[0] == 0
    capsys.readouterr()
    assert run(["decode", "--maps", str(maps), "--out", str(tmp_path / "d4")])[0] == 2
    assert capsys.readouterr().err == (
        f"fairtrack: {maps / 'manifest.json'}: the maps were encoded at stride 8, "
        "but decode runs at --stride 4\n")
    assert not (tmp_path / "d4").exists()
    assert run(["decode", "--maps", str(maps), "--out", str(tmp_path / "d8"),
                "--stride", "8"])[0] == 0
    gt, dets = (read_mot(path, kind) for path, kind in (
        (sim_dir / "gt.txt", "gt"), (tmp_path / "d8" / "det.txt", "det")))
    assert len(dets.ids) == len(gt.ids)


@pytest.mark.parametrize("manifest", ["{", "[]", '{"config": {}}'])
def test_decode_refuses_a_manifest_without_a_stride(tmp_path, capsys, manifest):
    maps = tmp_path / "maps"
    maps.mkdir()
    (maps / "000001.heat.ften").write_bytes(tensor_to_bytes(np.zeros((4, 4), np.float32)))
    (maps / "centers.txt").write_text("\n")
    (maps / "manifest.json").write_text(manifest)
    assert run(["decode", "--maps", str(maps), "--out", str(tmp_path / "d")])[0] == 2
    assert capsys.readouterr().err == (
        f"fairtrack: {maps / 'manifest.json'}: not a manifest recording the stride "
        "the maps were encoded at\n")
    (maps / "manifest.json").unlink()  # maps without a manifest decode as they are
    assert run(["decode", "--maps", str(maps), "--out", str(tmp_path / "d")])[0] == 0


def test_encode_streams_one_frame_at_a_time(tmp_path):
    seq, maps = tmp_path / "seq", tmp_path / "maps"
    run(["sim", "--seed", "3", "--frames", "30", "--targets", "20",
         "--image-w", "1280", "--image-h", "720", "--out", str(seq)])
    cells = (1280 // 4) * (720 // 4)
    # heatmap, 2 offset and 2 size planes, identity index (8 bytes each), mask
    frame_bytes = cells * (6 * 8 + 1)
    tracemalloc.start()
    try:
        rc, _ = run(["encode", "--gt", str(seq / "gt.txt"), "--out", str(maps)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(list(maps.glob("*.heat.ften"))) == 30
    assert peak < 4 * frame_bytes


# --- track / eval ----------------------------------------------------------

def test_decoded_score_reaches_track_bit_for_bit(tmp_path):
    maps, dec = tmp_path / "maps", tmp_path / "dec"
    maps.mkdir()
    heat = np.zeros((16, 16), np.float32)
    heat[4, 5], heat[10, 12] = 0.7, 0.123456789  # not representable in 6 decimals
    off = np.full((2, 16, 16), 0.25, np.float32)
    size = np.full((2, 16, 16), 8.0, np.float32)
    (maps / "000001.heat.ften").write_bytes(tensor_to_bytes(heat))
    (maps / "centers.txt").write_text("1,5,4,0,0.25,0.25,8.0,8.0\n"
                                      "1,12,10,1,0.25,0.25,8.0,8.0\n")
    assert run(["decode", "--maps", str(maps), "--out", str(dec),
                "--threshold", "0.1"])[0] == 0
    want = decode(heat, off, size, None, GridSpec(64, 64, 4), threshold=0.1)
    dets, _ = cli._read_detections(dec)
    assert dets.frames.tolist() == [1]
    got = dets.conf.tolist()
    assert got == [d.score for d in want]
    assert got[1] == float(np.float32(0.123456789))


def _det_dir(tmp_path, line):
    d = tmp_path / "dets"
    d.mkdir()
    (d / "det.txt").write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n" + line + "\n")
    return d


def _assert_located_exit_2(rc, capsys, path, lineno=2):
    assert rc == 2
    assert f"{path}:{lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["inf", "nan"])
def test_track_non_finite_det_box_exits_2(tmp_path, capsys, width):
    d = _det_dir(tmp_path, f"1,-1,10,10,{width},90,0.9,-1,-1,-1")
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"),
                 "--no-reid"])
    _assert_located_exit_2(rc, capsys, d / "det.txt")
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("kalman", [[], ["--no-kalman"]])
@pytest.mark.parametrize("height", ["0", "-0", "0.0"])
def test_track_zero_height_det_box_exits_2(tmp_path, capsys, height, kalman):
    d = _det_dir(tmp_path, f"1,-1,10,10,20,{height},0.9,-1,-1,-1")
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"),
                 "--no-reid", *kalman])
    assert rc == 2
    assert f"{d / 'det.txt'}:2: box height must be positive, got 0.0" \
        in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("kalman", [[], ["--no-kalman"]])
@pytest.mark.parametrize("height", ["1e300", "1e-320"])
def test_track_det_box_outside_float32_range_exits_2(tmp_path, capsys, height, kalman):
    # the Kalman filter's rule, applied where det.txt is parsed: a huge
    # height, or a subnormal one whose aspect overflows
    d = _det_dir(tmp_path, f"1,-1,0,0,20,{height},0.9,-1,-1,-1")
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"),
                 "--no-reid", *kalman])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{d / 'det.txt'}:2: box measurement (cx, cy, w / h, h) = " in err
    assert "is outside float32's normal range" in err
    assert not (tmp_path / "r.txt").exists()


# A form feed ends no line, and the first bad line wins over a later one:
# each case names line 2, as an editor shows it.
_FORM_FEED_DET = "1,-1,0,0,10,10,0.9,-1,-1,-1\x0c\n1,-1,0,0,oops,10,0.9,-1,-1,-1\n"
_REFUSED_FIRST_DET = ("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,0,0,20,1e300,0.9,-1,-1,-1\n"
                      "2,-1,0,0,10,10,0.9,-1,-1,-1\n3,-1,0,0,10,10,0.9,-1,-1,-1\noops\n")


@pytest.mark.parametrize("text, message", [
    (_FORM_FEED_DET, "could not convert string to float: 'oops'"),
    (_REFUSED_FIRST_DET, "box measurement (cx, cy, w / h, h) = "),
], ids=["form-feed", "refused-box-first"])
def test_track_names_the_first_bad_det_line(tmp_path, capsys, text, message):
    d = tmp_path / "dets"
    d.mkdir()
    (d / "det.txt").write_bytes(text.encode())
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"), "--no-reid"])
    assert rc == 2
    assert f"{d / 'det.txt'}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1,5,4,0,0.25,0.25,8.0,8.0\x0c\n2,5,4,0,0.25,0.25,-8.0,8.0\n", "size must be non-negative"),
    ("1,5,4,0,0.25,0.25,8.0,8.0\n1,5,4,1,0.5,0.5,9.0,9.0\n2,5,4,0,0.25,0.25,8.0,8.0\n"
     "2,6,4,0,0.25,0.25,8.0,8.0\n2,5\n", "cell (5, 4) repeated in frame 1"),
], ids=["form-feed", "repeat-first"])
def test_decode_names_the_first_bad_table_line(tmp_path, capsys, text, message):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "centers.txt"
    path.write_bytes(text.encode())
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}:2: {message}" in err


def test_config_form_feed_ends_no_line(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_bytes("seed = 3\x0c\nwarp_speed = 9\n".encode())
    rc, _ = run(["sim", "--config", str(cfgf), "--out", str(tmp_path / "seq")])
    assert rc == 2
    assert f"{cfgf}:2: unknown key 'warp_speed'" in capsys.readouterr().err


def test_encode_reads_seqinfo_with_carriage_return_line_ends(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    (tmp_path / "seqinfo.ini").write_bytes(b"[Sequence]\rimWidth=128\rimHeight=96\r")
    assert run(["encode", "--gt", str(gt), "--out", str(tmp_path / "maps")])[0] == 0
    assert read_tensor(tmp_path / "maps" / "000001.heat.ften").shape == (24, 32)


def _not_utf8(path, lines=(), lineno=None):
    """Write text lines, then a line starting with the bytes ff fe; returns
    the located message prefix the CLI must print."""
    path.write_bytes("".join(f"{l}\n" for l in lines).encode() + b"\xff\xfe1,2\n")
    return f"{path}:{len(lines) + 1}: not UTF-8 text"


@pytest.mark.parametrize("lines", [(), ("1,-1,0,0,10,10,0.9,-1,-1,-1",)])
def test_track_non_utf8_det_exits_2(tmp_path, capsys, lines):
    d = tmp_path / "dets"
    d.mkdir()
    want = _not_utf8(d / "det.txt", lines)
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"), "--no-reid"])
    assert rc == 2 and want in capsys.readouterr().err


def test_decode_non_utf8_table_exits_2(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    want = _not_utf8(tmp_path / "maps" / "centers.txt", ["1,5,4,0,0.25,0.25,8.0,8.0"])
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2 and want in err


def test_sim_non_utf8_config_exits_2(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    want = _not_utf8(cfgf, ["seed = 3"])
    rc, _ = run(["sim", "--config", str(cfgf), "--out", str(tmp_path / "seq")])
    assert rc == 2 and want in capsys.readouterr().err


def test_eval_non_utf8_gt_exits_2(sim_dir, tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    want = _not_utf8(gt, ["1,1,10,10,20,40,1,1,1.0"])
    rc, _ = run(["eval", "--gt", str(gt), "--pred", str(sim_dir / "gt.txt")])
    assert rc == 2 and want in capsys.readouterr().err


@pytest.mark.parametrize("left", ["nan", "inf"])
def test_eval_non_finite_result_box_exits_2(sim_dir, tmp_path, capsys, left):
    res = tmp_path / "res.txt"
    res.write_text(f"1,1,10,10,20,40,1,-1,-1,-1\n1,2,{left},10,20,40,1,-1,-1,-1\n")
    rc, _ = run(["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res)])
    _assert_located_exit_2(rc, capsys, res)


@pytest.mark.parametrize("token", ["inf", "1e999", "1e300", "1.7", "2.5"])
@pytest.mark.parametrize("field", ["frame", "id"])
def test_overflowing_frame_or_id_exits_2(sim_dir, tmp_path, capsys, token, field):
    frame, obj_id = (token, "1") if field == "frame" else ("1", token)
    line = f"{frame},{obj_id},10,10,20,40,0.9,-1,-1,-1"
    res = tmp_path / "res.txt"
    res.write_text("1,1,10,10,20,40,1,-1,-1,-1\n" + line + "\n")
    rc, _ = run(["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res)])
    _assert_located_exit_2(rc, capsys, res)
    d = _det_dir(tmp_path, line)
    rc, _ = run(["track", "--in", str(d), "--out", str(tmp_path / "r.txt"),
                 "--no-reid"])
    _assert_located_exit_2(rc, capsys, d / "det.txt")


@pytest.mark.parametrize("sub", ["eval-clear", "eval-ap", "encode", "reid-eval"])
def test_repeated_frame_and_id_exits_2_at_the_later_line(sim_dir, tmp_path, capsys, sub):
    gt = sim_dir / "gt.txt"
    bad = tmp_path / "res.txt" if sub == "eval-ap" else gt
    lines = gt.read_text().splitlines()
    bad.write_text("\n".join(lines[:4] + [lines[1]] + lines[4:]) + "\n")
    argv = {"eval-clear": ["eval", "--gt", gt, "--pred", gt, "--metrics", "clear"],
            "eval-ap": ["eval", "--gt", gt, "--pred", bad, "--metrics", "ap"],
            "encode": ["encode", "--gt", gt, "--out", tmp_path / "maps"],
            "reid-eval": ["reid-eval", "--in", sim_dir]}[sub]
    rc, out = run([str(a) for a in argv])
    assert rc == 2 and out == ""
    frame, obj_id = lines[1].split(",")[:2]
    assert f"{bad}:5: id {obj_id} repeated in frame {frame}" in capsys.readouterr().err


def test_eval_scores_a_det_file_for_ap(sim_dir, capsys):
    """det.txt repeats the placeholder id -1 in a frame and still reads as a prediction."""
    rc, out = run(["eval", "--gt", str(sim_dir / "gt.txt"),
                   "--pred", str(sim_dir / "det.txt"), "--metrics", "ap"])
    assert rc == 0 and re.fullmatch(r"ap=\d\.\d{6}\n", out), (out, capsys.readouterr().err)


def test_eval_non_integer_gt_id_exits_2(sim_dir, tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n1,2.5,50,10,20,40,1,1,1.0\n")
    rc, _ = run(["eval", "--gt", str(gt), "--pred", str(sim_dir / "gt.txt")])
    _assert_located_exit_2(rc, capsys, gt)


@pytest.mark.parametrize("cls", ["1.7", "1e300"])
def test_eval_non_integer_gt_class_exits_2(sim_dir, tmp_path, capsys, cls):
    gt = tmp_path / "gt.txt"
    gt.write_text(f"1,1,10,10,20,40,1,1,1.0\n1,2,50,10,20,40,1,{cls},1.0\n")
    rc, _ = run(["eval", "--gt", str(gt), "--pred", str(sim_dir / "gt.txt")])
    _assert_located_exit_2(rc, capsys, gt)


@pytest.mark.parametrize("iou", ["nan", "-1", "0", "2"])
@pytest.mark.parametrize("metric", ["clear", "idf1", "ap"])
def test_eval_iou_outside_unit_interval_exits_1(sim_dir, capsys, iou, metric):
    gt = str(sim_dir / "gt.txt")
    rc, out = run(["eval", "--gt", gt, "--pred", gt, "--metrics", metric,
                   "--iou", iou])
    assert rc == 1 and out == ""
    assert f"got {iou}" in capsys.readouterr().err


def test_eval_tiny_iou_never_matches_disjoint_boxes(tmp_path):
    gt, res = tmp_path / "gt.txt", tmp_path / "res.txt"
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    res.write_text("1,1,500,500,20,40,0.9,-1,-1,-1\n")
    rc, out = run(["eval", "--gt", str(gt), "--pred", str(res), "--metrics", "clear,idf1,ap",
                   "--iou", "1e-17", "--json"])
    assert rc == 0
    report = json.loads(out)
    assert (report["mota"], report["fp"], report["fn"]) == (-1.0, 1, 1)
    assert (report["idf1"], report["ap"]) == (0.0, 0.0)


@pytest.mark.parametrize("metrics", ["", ",", " , "])
def test_eval_without_a_metric_exits_1_before_reading(tmp_path, capsys, metrics):
    # the inputs do not exist: reading either would exit 2
    report = tmp_path / "report.txt"
    rc, out = run(["eval", "--gt", str(tmp_path / "gt.txt"), "--pred",
                   str(tmp_path / "res.txt"), "--metrics", metrics, "--out", str(report)])
    assert rc == 1 and out == ""
    assert "choose from clear, idf1, ap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("iou", ["nan", "-1", "0", "2"])
def test_reid_eval_iou_outside_unit_interval_exits_1(sim_dir, capsys, iou):
    rc, out = run(["reid-eval", "--in", str(sim_dir), "--iou", iou])
    assert rc == 1 and out == ""
    assert f"--iou must be in (0, 1], got {iou}" in capsys.readouterr().err


_DET_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "1e300", "-1", "0",
                     "1.7", "2147483648", "x", "1,5", " 7 "]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.-+eE ninfa", max_size=6),
)
_DET_BOX = st.tuples(st.floats(-50, 600), st.floats(-50, 600),
                     st.floats(0, 200), st.floats(0, 200), st.floats(0, 1))


@st.composite
def _det_inputs(draw):
    """det.txt lines for frames 1-3 (some fields mutated), and the bytes of an
    emb.ften whose row count is right or off by one, or of a corrupt or
    wrong-rank one, or None for no file."""
    lines = []
    for frame in range(1, 4):
        for l, t, w, h, conf in draw(st.lists(_DET_BOX, max_size=4)):
            fields = [str(frame), "-1", repr(l), repr(t), repr(w), repr(h),
                      repr(conf), "-1", "-1", "-1"]
            if draw(st.integers(0, 9)) == 0:
                fields[draw(st.integers(0, 9))] = draw(_DET_TOKENS)
            lines.append(",".join(fields))
    kind = draw(st.sampled_from([0, 0, 0, -1, 1, "missing", "corrupt", "rank"]))
    rows = len(lines) + (kind if isinstance(kind, int) else 0)
    if kind == "corrupt":
        return lines, b"FTEN\x01"
    if kind == "missing" or rows < 1:
        return lines, None
    m = np.tile(np.eye(1, 4), (rows, 1))
    m[0] = draw(st.sampled_from([1.0, 0.0, 3e38]))  # unit, zero, overflowing norm
    return lines, tensor_to_bytes(m[None] if kind == "rank" else m)


@settings(max_examples=200, deadline=None)
@given(inputs=_det_inputs(), no_reid=st.booleans())
def test_track_input_fuzz_exits_cleanly(inputs, no_reid):
    """track --in on mutated det.txt and emb.ften files exits 0, 1 or 2, and
    an exit 2 names the file (with its line for det.txt)."""
    lines, emb = inputs
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "det.txt").write_text("\n".join(lines) + "\n")
        if emb is not None:
            (d / "emb.ften").write_bytes(emb)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, _ = run(["track", "--in", str(d), "--out", str(d / "r.txt"),
                         *(["--no-reid"] if no_reid else [])])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert re.search(re.escape(f"{d / 'det.txt'}:") + r"\d+: ", err.getvalue()) \
                or f"{d / 'emb.ften'}: " in err.getvalue(), err.getvalue()


def test_track_without_embeddings_needs_no_reid(sim_dir, tmp_path):
    maps = tmp_path / "maps"
    dec = tmp_path / "dec"
    run(["encode", "--gt", str(sim_dir / "gt.txt"), "--out", str(maps)])
    run(["decode", "--maps", str(maps), "--out", str(dec)])
    rc, _ = run(["track", "--in", str(dec), "--out", str(tmp_path / "r.txt")])
    assert rc == 1  # decoded maps carry no embeddings; re-ID stage can't run
    rc, _ = run(["track", "--in", str(dec), "--out", str(tmp_path / "r.txt"),
                 "--no-reid"])
    assert rc == 0


def test_full_pipeline_recovers_ground_truth(sim_dir, tmp_path):
    maps, dec = tmp_path / "maps", tmp_path / "dec"
    res = tmp_path / "res.txt"
    assert run(["encode", "--gt", str(sim_dir / "gt.txt"),
                "--out", str(maps)])[0] == 0
    assert run(["decode", "--maps", str(maps), "--out", str(dec)])[0] == 0
    assert run(["track", "--in", str(dec), "--out", str(res),
                "--no-reid"])[0] == 0
    rc, out = run(["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res),
                   "--metrics", "clear,idf1,ap", "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["mota"] == 1.0
    assert rep["idf1"] == 1.0
    assert rep["idsw"] == 0
    assert rep["ap"] == 1.0


def test_track_directly_on_sim_detections(sim_dir, tmp_path):
    res = tmp_path / "res.txt"
    rc, _ = run(["track", "--in", str(sim_dir), "--out", str(res)])
    assert rc == 0
    rows = parse_mot(res)
    assert sorted(rows) == list(range(1, 11))
    ids = {r.obj_id for recs in rows.values() for r in recs}
    assert ids == {1, 2, 3}


def test_track_zero_embedding_row_exits_2(sim_dir, tmp_path, capsys):
    path = sim_dir / "emb.ften"
    m = read_tensor(path)
    m[4] = 0.0
    path.write_bytes(tensor_to_bytes(m))
    rc, _ = run(["track", "--in", str(sim_dir), "--out", str(tmp_path / "r.txt")])
    assert rc == 2
    assert f"{path}: embedding row 4 has norm 0.0" in capsys.readouterr().err


def test_track_corrupt_embedding_file_error_names_file(sim_dir, tmp_path, capsys):
    path = sim_dir / "emb.ften"
    path.write_bytes(path.read_bytes()[:-1])
    rc, _ = run(["track", "--in", str(sim_dir), "--out", str(tmp_path / "r.txt")])
    assert rc == 2
    assert f"{path}: payload length" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    code = ("import sys, fairtrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_eval_text_output_format(sim_dir, tmp_path):
    res = tmp_path / "res.txt"
    run(["track", "--in", str(sim_dir), "--out", str(res)])
    rc, out = run(["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res)])
    assert rc == 0
    lines = out.strip().splitlines()
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == ["mota", "fp", "fn", "idsw", "mt", "ml", "num_gt", "idf1"]
    assert "mota=1.000000" in lines[0]


def test_eval_one_tracking_metric_reports_only_its_keys(sim_dir, tmp_path):
    res = tmp_path / "res.txt"
    run(["track", "--in", str(sim_dir), "--out", str(res), "--no-reid"])
    args = ["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res), "--json"]
    both = json.loads(run(args + ["--metrics", "clear,idf1"])[1])
    clear = json.loads(run(args + ["--metrics", "clear"])[1])
    idf1 = json.loads(run(args + ["--metrics", "idf1"])[1])
    assert list(clear) == ["mota", "fp", "fn", "idsw", "mt", "ml", "num_gt"]
    assert idf1 == {"idf1": both["idf1"]}
    assert {**clear, **idf1} == both


def test_eval_out_file_and_manifest(sim_dir, tmp_path):
    res = tmp_path / "res.txt"
    run(["track", "--in", str(sim_dir), "--out", str(res)])
    report = tmp_path / "report.txt"
    rc, out = run(["eval", "--gt", str(sim_dir / "gt.txt"), "--pred", str(res),
                   "--out", str(report)])
    assert rc == 0
    assert report.read_text() == out
    assert (tmp_path / "report.txt.manifest.json").is_file()


def test_track_manifest_sits_next_to_result(sim_dir, tmp_path):
    res = tmp_path / "res.txt"
    run(["track", "--in", str(sim_dir), "--out", str(res)])
    doc = json.loads((tmp_path / "res.txt.manifest.json").read_text())
    assert doc["subcommand"] == "track"
    assert doc["config"]["use_reid"] is True


# --- gradcheck / reid-eval -------------------------------------------------

def test_gradcheck_reports_and_passes():
    rc, out = run(["gradcheck", "--seeds", "4", "--size", "6", "--classes", "4"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(ln.endswith("ok") for ln in lines)
    assert lines[0].startswith("focal: worst_rel_err=")


def test_gradcheck_impossible_tolerance_fails():
    rc, out = run(["gradcheck", "--seeds", "2", "--size", "4", "--classes", "3",
                   "--tol", "0"])
    assert rc == 1
    assert "FAIL" in out


def test_gradcheck_nan_tolerance_fails():
    # no error is within a NaN tolerance: every line reads FAIL, and so does the run
    rc, out = run(["gradcheck", "--seeds", "2", "--size", "4", "--classes", "3",
                   "--tol", "nan"])
    assert [ln.rsplit(" ", 1)[1] for ln in out.strip().splitlines()] == ["FAIL"] * 4
    assert rc == 1


@pytest.mark.parametrize("argv, name", [
    (["--seeds", "0"], "seeds"), (["--seeds", "-3"], "seeds"),
    (["--step", "0"], "h"), (["--step", "inf"], "h"),
    (["--size", "3"], "size"), (["--classes", "0"], "num_classes")])
def test_gradcheck_refuses_parameters_it_cannot_check(capsys, argv, name):
    rc, out = run(["gradcheck", "--seeds", "2", "--size", "4", *argv])
    assert rc == 1 and out == ""
    assert capsys.readouterr().err.startswith(f"fairtrack: {name} must be ")


def test_reid_eval_separated_anchors(sim_dir):
    rc, out = run(["reid-eval", "--in", str(sim_dir), "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["tpr"] == 1.0
    assert rep["genuine"] > 0 and rep["impostor"] > 0


def _ref_reid_scores(dets, gt, iou):
    """reid-eval's scoring before Gram matrices: one np.dot per pair."""
    genuine, impostor = [], []
    labeled, by_id = {}, {}
    for frame in sorted(dets):
        g = gt.get(frame, [])
        ious = iou_matrix(corners([d.box for d in dets[frame]]),
                          corners([box for _, box in g]))
        labeled[frame] = [(g[k][0], d.embedding)
                          for d, k in zip(dets[frame], best_match(ious, iou)) if k >= 0]
        for gid, emb in labeled[frame]:
            by_id.setdefault(gid, []).append(emb)
    for frame, rows in labeled.items():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i][0] != rows[j][0]:
                    impostor.append(float(np.dot(rows[i][1], rows[j][1])))
    for gid, embs in sorted(by_id.items()):
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                genuine.append(float(np.dot(embs[i], embs[j])))
    return genuine, impostor


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reid_scores_equal_the_per_pair_loops(tmp_path, seed):
    seq = tmp_path / "seq"
    run(sim_args(seq, seed=seed, frames=20, targets=8,
                 extra=["--emb-noise", "0.3", "--fp-rate", "1", "--dropout", "0.1",
                        "--box-noise", "2"]))
    m = read_tensor(seq / "emb.ften")
    unit = iter(m / np.linalg.norm(m, axis=1, keepdims=True))
    ref_dets = {f: [Detection(r.to_box(), r.conf, next(unit)) for r in recs]
                for f, recs in sorted(parse_mot(seq / "det.txt", kind="det").items())}
    ref_gt = {f: [(r.obj_id, r.to_box()) for r in recs]
              for f, recs in parse_mot(seq / "gt.txt", kind="gt").items()}
    gt = read_mot(seq / "gt.txt", kind="gt")
    dets, emb = cli._read_detections(seq)
    for iou in (0.3, 0.5, 0.9):
        got = cli._reid_scores(dets, emb, gt, iou)
        want = _ref_reid_scores(ref_dets, ref_gt, iou)
        for g, w in zip(got, want):
            assert len(g) == len(w) > 0
            assert np.max(np.abs(np.subtract(g, w))) <= 1e-12
        for far in (0.01, 0.1, 0.5):
            assert tpr_at_far(*got, far) == tpr_at_far(*want, far)
