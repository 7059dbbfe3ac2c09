import io
import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fairtrack import cli
from fairtrack.decoding import decode
from fairtrack.geometry import GridSpec
from fairtrack.mot_io import parse_mot
from fairtrack.tensors import Tensor2D, Tensor3D, read_tensor, write_tensor


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
    embs = sorted((out / "emb").glob("*.ften"))
    assert [p.name for p in embs] == [f"{f:06d}.ften" for f in range(1, 11)]
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
    for name in ("gt.txt", "det.txt", "seqinfo.ini"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for pa in sorted((a / "emb").glob("*.ften")):
        assert pa.read_bytes() == (b / "emb" / pa.name).read_bytes()


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
    for f in range(1, 11):
        for suffix in ("heat", "off", "size"):
            assert (maps / f"{f:06d}.{suffix}.ften").is_file()
    centers = (maps / "centers.txt").read_text().strip().splitlines()
    assert len(centers) == 30  # 3 targets x 10 frames, no collisions
    frame, x, y, ident = centers[0].split(",")
    assert frame == "1" and int(ident) in (0, 1, 2)


def test_encode_requires_image_size(tmp_path):
    gt = tmp_path / "gt.txt"  # no seqinfo.ini next to it
    gt.write_text("1,1,10,10,20,40,1,1,1.0\n")
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m")])
    assert rc == 1
    rc, _ = run(["encode", "--gt", str(gt), "--out", str(tmp_path / "m"),
                 "--image-w", "256", "--image-h", "256"])
    assert rc == 0


def test_decode_empty_maps_dir_exits_2(tmp_path):
    empty = tmp_path / "maps"
    empty.mkdir()
    rc, _ = run(["decode", "--maps", str(empty), "--out", str(tmp_path / "d")])
    assert rc == 2


def _write_maps(maps, frames=2):
    """Valid 16x16 heat/off/size maps with one peak per frame."""
    maps.mkdir()
    heat = np.zeros((16, 16), np.float32)
    heat[4, 5] = 0.7
    for f in range(1, frames + 1):
        write_tensor(Tensor2D.from_array(heat), maps / f"{f:06d}.heat.ften")
        write_tensor(Tensor3D.from_array(np.full((2, 16, 16), 0.25)),
                     maps / f"{f:06d}.off.ften")
        write_tensor(Tensor3D.from_array(np.full((2, 16, 16), 8.0)),
                     maps / f"{f:06d}.size.ften")


def _decode_err(tmp_path, capsys):
    capsys.readouterr()
    rc, _ = run(["decode", "--maps", str(tmp_path / "maps"),
                 "--out", str(tmp_path / "dec")])
    return rc, capsys.readouterr().err


def test_decode_wrong_rank_map_exits_2_naming_file(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "000001.heat.ften"
    write_tensor(Tensor3D.from_array(np.zeros((1, 16, 16))), path)
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}: expected a 2-d tensor, got 3-d (byte offset 6)" in err


def test_decode_corrupt_map_error_names_file(tmp_path, capsys):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / "000002.off.ften"
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}: bad magic b'XXXX' (byte offset 0)" in err


@pytest.mark.parametrize("name", ["heat", "off", "size"])
def test_decode_nan_map_exits_2_naming_file(tmp_path, capsys, name):
    _write_maps(tmp_path / "maps")
    path = tmp_path / "maps" / f"000002.{name}.ften"
    raw = bytearray(path.read_bytes())
    dims_end = 8 + 4 * raw[6]
    raw[dims_end + 4 * 3:dims_end + 4 * 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    rc, err = _decode_err(tmp_path, capsys)
    assert rc == 2
    assert f"{path}: non-finite value nan at element 3 (byte offset {dims_end + 12})" in err


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
    write_tensor(Tensor2D.from_array(heat), maps / "000001.heat.ften")
    write_tensor(Tensor3D.from_array(off), maps / "000001.off.ften")
    write_tensor(Tensor3D.from_array(size), maps / "000001.size.ften")
    assert run(["decode", "--maps", str(maps), "--out", str(dec),
                "--threshold", "0.1"])[0] == 0
    want = decode(Tensor2D.from_array(heat), Tensor3D.from_array(off),
                  Tensor3D.from_array(size), None, GridSpec(64, 64, 4),
                  threshold=0.1)
    got = cli._load_detections(dec, need_emb=False)[1]
    assert [d.score for d in got] == [d.score for d in want]
    assert got[1].score == float(np.float32(0.123456789))


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


@pytest.mark.parametrize("iou", ["nan", "-1", "0", "2"])
def test_reid_eval_iou_outside_unit_interval_exits_1(sim_dir, capsys, iou):
    rc, out = run(["reid-eval", "--in", str(sim_dir), "--iou", iou])
    assert rc == 1 and out == ""
    assert f"--iou must be in (0, 1], got {iou}" in capsys.readouterr().err


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
    path = sim_dir / "emb" / "000002.ften"
    m = np.asarray(read_tensor(path)).copy()
    m[0] = 0.0
    write_tensor(Tensor2D.from_array(m), path)
    rc, _ = run(["track", "--in", str(sim_dir), "--out", str(tmp_path / "r.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "000002.ften" in err and "row 0" in err


def test_track_corrupt_embedding_file_error_names_file(sim_dir, tmp_path, capsys):
    path = sim_dir / "emb" / "000003.ften"
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


def test_reid_eval_separated_anchors(sim_dir):
    rc, out = run(["reid-eval", "--in", str(sim_dir), "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["tpr"] == 1.0
    assert rep["genuine"] > 0 and rep["impostor"] > 0
