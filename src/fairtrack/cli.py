"""Single-binary front end: simulate, encode, decode, track, evaluate.

Every run writes its outputs atomically (temp file + rename) and leaves
one JSON manifest alongside them recording the subcommand, argument
vector, resolved configuration, and toolkit version — enough to replay
the run and get byte-identical outputs.

`encode` writes one dense heatmap per frame (``*.heat.ften``) and one
object table for the sequence (``centers.txt``: cell, identity, offset
and size of every retained center), straight from each frame's sparse
center table.  `decode` reads the table once and scatters each frame's
rows into the dense offset and size heads that `decoding.decode` takes;
it refuses maps whose encode manifest records another stride than its
own.  Both hold one frame's maps at a time.  `sim`
and `decode` write detections to ``det.txt`` and their embeddings, if
any, to ``emb.ften`` beside it: row k of that ``(N, D)`` array belongs to
the k-th detection in frame order, which is ``det.txt``'s file order.
Every text file a subcommand writes is formatted by one ``format_mot`` or
``format_centers`` call over the whole file's columns.

`encode`, `track`, `eval` and `reid-eval` read each MOT file once into a
``geometry.MotTable`` and hand its per-frame slices on as they are: `encode`
passes corner rows and dense identity indices to ``encode_targets``,
`track` passes ``DetectionColumns`` (corners, scores clipped to [0, 1],
unit embeddings) to ``OnlineTracker.step`` and writes each output from
the table row it matched, and `eval` passes the two tables to the
metrics, CLEAR and IDF1 together through one ``evaluate_tracking`` pass.

Exit codes: 0 success, 1 validation failure (bad flags or values),
2 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, decoding
from .decoding import Sampling, check_peak_args, decode
from .encoding import encode_targets
from .geometry import GridSpec, MotTable, best_match, corners, iou_matrix
from .losses import gradcheck_run
from .metrics import detection_ap, evaluate_tracking, tpr_at_far
from .mot_io import CenterRows, MotFormatError, _lines, format_centers, format_mot, \
    load_config, parse_centers, read_mot
from .sim import SimConfig, frame_columns
from .tensors import FtenFormatError, read_tensor, tensor_to_bytes
from .tracker import DetectionColumns, OnlineTracker, TrackerConfig


class _Parser(argparse.ArgumentParser):
    """argparse onto our exit-code contract: usage problems are code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode())


def _write_detections(out: Path, lines: list[str], rows: list[np.ndarray]) -> list[Path]:
    """Write ``det.txt`` and, given embeddings for its lines, ``emb.ften``.

    ``rows`` holds the embeddings in line order, as single rows or as
    ``(n, D)`` blocks of consecutive lines.
    """
    det, emb = out / "det.txt", out / "emb.ften"
    _atomic_write_text(det, "\n".join(lines) + "\n")
    stacked = np.vstack(rows) if rows else np.empty((0, 0))
    if not len(stacked):  # FTEN holds no empty array
        emb.unlink(missing_ok=True)  # one from an earlier run would not line up
        return [det]
    _atomic_write_bytes(emb, tensor_to_bytes(stacked))
    return [det, emb]


def _write_manifest(anchor: Path, subcommand: str, args, *, config=None,
                    inputs=(), outputs=(), seed=None, started: float) -> None:
    if anchor.is_dir():
        path = anchor / "manifest.json"
    else:
        path = anchor.with_name(anchor.name + ".manifest.json")
    doc = {
        "subcommand": subcommand,
        "argv": list(getattr(args, "_argv", [])),
        "config": config or {},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_configs(args) -> tuple[TrackerConfig, SimConfig]:
    """The ``--config`` file's configs, or the defaults; each flag given (not None)
    replaces the value of the field it stores under (its ``dest``, the field's name)."""
    configs = load_config(args.config) if args.config else (TrackerConfig(), SimConfig())
    return tuple(dataclasses.replace(cfg, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
        if getattr(args, f.name, None) is not None}) for cfg in configs)


def _read_seqinfo(directory: Path) -> dict[str, int]:
    """``imWidth``/``imHeight`` from the ``[Sequence]`` section of seqinfo.ini, where given.

    A file that does not parse, or a size that is not a positive integer,
    raises MotFormatError naming the file (and the line, when known).
    """
    ini = directory / "seqinfo.ini"
    if not ini.is_file():
        return {}
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string("\n".join(_lines(ini)))
    except configparser.MissingSectionHeaderError as e:
        raise MotFormatError(f"{ini}:{e.lineno}: expected a [section] header") from e
    except configparser.ParsingError as e:
        raise MotFormatError(f"{ini}:{e.errors[0][0]}: expected key = value") from e
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as e:
        raise MotFormatError(f"{ini}:{e.lineno}: repeats a section or key") from e
    if not cp.has_section("Sequence"):
        return {}
    size = {}
    for key in ("imWidth", "imHeight"):
        value = cp["Sequence"].get(key)
        if value is None:
            continue
        try:
            size[key] = int(value)
        except ValueError:
            size[key] = 0
        if size[key] <= 0:
            raise MotFormatError(f"{ini}: {key} must be a positive integer, got {value!r}")
    return size


# ---------------------------------------------------------------- sim

def cmd_sim(args) -> int:
    started = time.monotonic()
    _, cfg = _resolve_configs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    frames, truths, dets = zip(*frame_columns(cfg))
    gt_lines = format_mot("gt", np.repeat(frames, [len(t) for t in truths]),
                          np.concatenate([np.arange(1, len(t) + 1) for t in truths]),
                          np.concatenate(truths))
    det_lines = format_mot("det", np.repeat(frames, [len(d.scores) for d in dets]), -1,
                           np.concatenate([d.boxes for d in dets]),
                           np.concatenate([d.scores for d in dets]))
    _atomic_write_text(out / "gt.txt", "\n".join(gt_lines) + "\n")
    written = [out / "gt.txt", *_write_detections(out, det_lines, [d.embeddings for d in dets]),
               out / "seqinfo.ini"]

    _atomic_write_text(out / "seqinfo.ini", (
        "[Sequence]\n"
        f"name=sim-seed{cfg.seed}\n"
        "imDir=img1\n"
        "frameRate=30\n"
        f"seqLength={cfg.frames}\n"
        f"imWidth={cfg.image_w}\n"
        f"imHeight={cfg.image_h}\n"
        "imExt=.jpg\n"))

    _write_manifest(out, "sim", args, config=dataclasses.asdict(cfg),
                    outputs=written, seed=cfg.seed, started=started)
    return 0


# ---------------------------------------------------------------- encode

def cmd_encode(args) -> int:
    started = time.monotonic()
    gt_path = Path(args.gt)
    gt = read_mot(gt_path, kind="gt")

    size = _read_seqinfo(gt_path.parent)
    width = size.get("imWidth") if args.image_w is None else args.image_w
    height = size.get("imHeight") if args.image_h is None else args.image_h
    if width is None or height is None:
        raise ValueError("image size unknown: pass --image-w/--image-h "
                         "or keep a seqinfo.ini next to the ground truth")
    grid = GridSpec(width, height, args.stride)

    ids, identities = np.unique(gt.ids, return_inverse=True)  # dense, in id order

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = []
    # each retained center's (frame, x, y, identity) and (off_x, off_y, w, h)
    keys, values = [np.empty((0, 4), np.int64)], [np.empty((0, 4))]
    for frame, rows in gt.by_frame():
        maps = encode_targets((gt.boxes[rows], identities[rows]), grid, len(ids))
        path = out / f"{frame:06d}.heat.ften"
        _atomic_write_bytes(path, tensor_to_bytes(maps.heatmap))
        written.append(path)
        keys.append(np.column_stack([np.full(len(maps.cells), frame), maps.cells,
                                     maps.identities]))
        values.append(maps.values)
    center_lines = format_centers(*np.concatenate(keys).T, np.concatenate(values))
    _atomic_write_text(out / "centers.txt", "\n".join(center_lines) + "\n")
    written.append(out / "centers.txt")

    _write_manifest(out, "encode", args,
                    config={"image_w": width, "image_h": height,
                            "stride": args.stride, "num_identities": len(ids)},
                    inputs=[gt_path], outputs=written, started=started)
    return 0


# ---------------------------------------------------------------- decode

def _read_map(path: Path, ndim: int) -> np.ndarray:
    m = read_tensor(path)
    if m.ndim != ndim:
        raise FtenFormatError(  # the ndim byte of the header
            f"{path}: expected a {ndim}-d tensor, got {m.ndim}-d", 6)
    return m


def _scatter_rows(off: np.ndarray, size: np.ndarray, rows: CenterRows | None,
                  table: Path) -> tuple:
    """Write one frame's table rows into zeroed ``(2, H, W)`` heads.

    Returns the index of the cells written, for the caller to clear once
    the frame is decoded.
    """
    if rows is None:
        return np.s_[:, [], []]
    _, h, w = off.shape
    x, y = rows.cells.T
    outside = np.flatnonzero((x < 0) | (x >= w) | (y < 0) | (y >= h))
    if outside.size:
        i = outside[0]
        raise MotFormatError(f"{table}:{rows.lines[i]}: cell ({x[i]}, {y[i]}) "
                             f"outside the {w}x{h} heat map")
    off[:, y, x] = rows.values[:, :2].T
    size[:, y, x] = rows.values[:, 2:].T
    return np.s_[:, y, x]


def _check_encoded_stride(maps_dir: Path, stride: int) -> None:
    """Refuse maps whose encode manifest records a stride other than ``stride``.

    Maps without a manifest are taken as they are.
    """
    manifest = maps_dir / "manifest.json"
    if not manifest.is_file():
        return
    try:
        encoded = json.loads(manifest.read_bytes())["config"]["stride"]
    except (ValueError, LookupError, TypeError) as e:
        raise MotFormatError(f"{manifest}: not a manifest recording the stride "
                             "the maps were encoded at") from e
    if encoded != stride:
        raise MotFormatError(f"{manifest}: the maps were encoded at stride {encoded}, "
                             f"but decode runs at --stride {stride}")


def cmd_decode(args) -> int:
    started = time.monotonic()
    check_peak_args(args.threshold, args.top_k)  # before any map is read or --out made
    if args.stride <= 0:
        raise ValueError(f"stride must be positive, got {args.stride}")
    maps_dir = Path(args.maps)
    _check_encoded_stride(maps_dir, args.stride)
    frames = []
    for path in sorted(maps_dir.glob("*.heat.ften")):
        digits = path.name.removesuffix(".heat.ften")
        frames.append(int(digits) if digits.isascii() and digits.isdigit() else 0)
        if not (0 < frames[-1] < 2**31 and f"{frames[-1]:06d}" == digits):
            raise MotFormatError(f"{path}: not a map name encode writes "
                                 "(NNNNNN.heat.ften, a frame >= 1 within int32)")
    frames.sort()  # by number: a name of seven digits sorts before 999999's
    if not frames:
        raise MotFormatError(f"no *.heat.ften maps found in {maps_dir}")
    names = {f"{frame:06d}.emb.ften" for frame in frames}
    orphans = [p for p in sorted(maps_dir.glob("*.emb.ften")) if p.name not in names]
    if orphans:
        raise MotFormatError(f"{orphans[0]}: not the embedding map of a frame with a heat map "
                             "(NNNNNN.emb.ften beside NNNNNN.heat.ften)")
    table_path = maps_dir / "centers.txt"
    table = parse_centers(table_path)
    known = set(frames)
    stray = [(rows.lines[0], f) for f, rows in table.items() if f not in known]
    if stray:
        line, frame = min(stray)
        raise MotFormatError(f"{table_path}:{line}: frame {frame} has no heat map")

    sampling = Sampling.CENTER_BI if args.sampling == "center-bi" else Sampling.CENTER

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the detections' frames, boxes and scores, and the first frame's embedding channels
    det_frames, boxes, scores, embeddings, first = [], [], [], [], None
    # One pair of heads serves every frame of a size: each frame's cells are
    # cleared after it decodes, so no dense plane is allocated per frame.
    off = size = np.zeros((2, 0, 0))
    for frame in frames:
        heat = _read_map(maps_dir / f"{frame:06d}.heat.ften", 2)
        fh, fw = heat.shape
        if off.shape[1:] != (fh, fw):
            off, size = (np.zeros((2, fh, fw)) for _ in range(2))
        cells = _scatter_rows(off, size, table.get(frame), table_path)
        emb_path = maps_dir / f"{frame:06d}.emb.ften"
        emb = _read_map(emb_path, 3) if emb_path.is_file() else None
        shape = (0, fh, fw) if emb is None else emb.shape  # 0 channels: FTEN has no empty axis
        first = shape[0] if first is None else first
        if shape != (first, fh, fw):
            raise MotFormatError(f"{emb_path}: " + (
                f"embedding map of shape {shape}, but its heat map has shape {heat.shape}"
                if shape[0] == first
                else f"{shape[0] or 'no'} embedding channels, but frame {frames[0]} has "
                f"{first or 'none'}; decode takes one embedding width for every frame "
                "or no embedding map"))
        grid = GridSpec(fw * args.stride, fh * args.stride, args.stride)
        dets = decode(heat, off, size, emb, grid, threshold=args.threshold,
                      top_k=args.top_k, sampling=sampling)
        off[cells] = size[cells] = 0.0
        det_frames += [frame] * len(dets)
        boxes += [d.box for d in dets]
        scores += [d.score for d in dets]
        if emb is not None:  # decode drops a peak with a zero embedding
            embeddings += [d.embedding for d in dets]
    lines = format_mot("det", det_frames, -1, corners(boxes), scores)
    written = _write_detections(out, lines, embeddings)

    _write_manifest(out, "decode", args,
                    config={"threshold": args.threshold, "top_k": args.top_k,
                            "sampling": args.sampling, "stride": args.stride},
                    inputs=[maps_dir], outputs=written, started=started)
    return 0


# ---------------------------------------------------------------- track

def _read_detections(src: Path, missing: str | None = None) -> tuple[MotTable, np.ndarray | None]:
    """Read ``det.txt`` and, where present, ``emb.ften`` from a directory.

    Row k of ``emb.ften`` is the k-th detection's embedding, in frame
    order, which is the table's row order; the rows are returned as
    float64 unit vectors.  A row of norm zero or not finite raises
    MotFormatError.  Given ``missing``, a message with ``{}`` for the
    path, an absent ``emb.ften`` beside a detection raises ValueError
    with it.
    """
    dets = read_mot(src / "det.txt", kind="det")
    n = len(dets.ids)
    path = src / "emb.ften"
    if not path.is_file():
        if missing and n:
            raise ValueError(missing.format(path))
        return dets, None
    m = read_tensor(path)
    if m.ndim != 2 or len(m) != n:
        raise MotFormatError(f"{path}: expected {n} embedding rows, one per "
                             f"detection, got shape {m.shape}")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:
        raise MotFormatError(f"{path}: embedding row {bad[0]} has norm "
                             f"{norms[bad[0], 0]}, not a positive finite number")
    # float32 values read as float64 square to normal numbers, so each row
    # divides to a unit vector within float64 rounding
    return dets, m / norms


def cmd_track(args) -> int:
    started = time.monotonic()
    tracker_cfg, _ = _resolve_configs(args)
    src = Path(args.inp)
    dets, emb = _read_detections(src, "re-ID stage enabled but {} is missing "
                                 "(pass --no-reid to track on boxes alone)"
                                 if tracker_cfg.use_reid else None)
    scores = np.clip(dets.conf, 0.0, 1.0)

    tracker = OnlineTracker(tracker_cfg)
    frames, ids, rows = [], [], []  # rows: the detection each output track matched
    for frame, r in dets.by_frame():
        outputs = tracker.step(frame, DetectionColumns(
            dets.boxes[r], scores[r], None if emb is None else emb[r]))
        frames += [frame] * len(outputs)
        ids += [tid for tid, _ in outputs]
        rows += [r.start + j for _, j in outputs]
    lines = format_mot("result", frames, ids, dets.boxes[rows], scores[rows])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, "\n".join(lines) + "\n")
    _write_manifest(out, "track", args, config=dataclasses.asdict(tracker_cfg),
                    inputs=[src], outputs=[out], started=started)
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    started = time.monotonic()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = ("clear", "idf1", "ap")
    bad = set(wanted) - set(known)
    if bad:
        raise ValueError(f"unknown metrics: {', '.join(sorted(bad))}")
    if not wanted:
        raise ValueError(f"no metric named; choose from {', '.join(known)}")

    gt = read_mot(args.gt, kind="gt")
    pred = read_mot(args.pred, kind="result")

    report: dict[str, float | int] = {}
    if "clear" in wanted or "idf1" in wanted:
        r = evaluate_tracking(gt, pred, args.iou)
        if "clear" in wanted:
            report.update(mota=r.mota, fp=r.fp, fn=r.fn, idsw=r.id_switches,
                          mt=r.mt_ratio, ml=r.ml_ratio, num_gt=r.num_gt)
        if "idf1" in wanted:
            report["idf1"] = r.idf1
    if "ap" in wanted:
        report["ap"] = detection_ap(gt, pred, args.iou)

    if args.json:
        text = json.dumps(report) + "\n"
    else:
        parts = []
        for k, v in report.items():
            parts.append(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}")
        text = "\n".join(parts) + "\n"
    sys.stdout.write(text)

    if args.out:
        out = Path(args.out)
        _atomic_write_text(out, text)
        _write_manifest(out, "eval", args,
                        config={"metrics": wanted, "iou": args.iou},
                        inputs=[args.gt, args.pred], outputs=[out],
                        started=started)
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    worst = gradcheck_run(seeds=args.seeds, size=args.size,
                          num_classes=args.classes, h=args.step)
    failed = False
    for name in ("focal", "box", "reid", "total"):
        ok = worst[name] <= args.tol  # False for a NaN on either side
        print(f"{name}: worst_rel_err={worst[name]:.3e} {'ok' if ok else 'FAIL'}")
        failed |= not ok
    return 1 if failed else 0


# ---------------------------------------------------------------- reid-eval

def _reid_scores(dets: MotTable, emb: np.ndarray, gt: MotTable, iou: float
                 ) -> tuple[list[float], list[float]]:
    """Genuine and impostor cosine scores of GT-labelled detections.

    ``emb`` holds one embedding per row of ``dets``.  Each detection takes
    the GT identity it overlaps best.  Impostor pairs are different
    identities within one frame, genuine pairs one identity across frames;
    both are read off the upper triangle of a Gram matrix, per frame and
    per identity, in row-major pair order.
    """
    impostor: list[np.ndarray] = []
    by_id: dict[int, list[int]] = {}  # the detection rows of each GT id, in frame order
    gt_rows = dict(gt.by_frame())
    for frame, rows in dets.by_frame():
        g = gt_rows.get(frame, slice(0, 0))
        k = best_match(iou_matrix(dets.boxes[rows], gt.boxes[g]), iou)
        hit = np.flatnonzero(k >= 0)
        if not hit.size:
            continue
        ids, e = gt.ids[g][k[hit]], emb[rows][hit]
        i, j = np.triu_indices(len(ids), 1)
        keep = ids[i] != ids[j]
        impostor.append((e @ e.T)[i[keep], j[keep]])
        for gid, row in zip(ids.tolist(), (rows.start + hit).tolist()):
            by_id.setdefault(gid, []).append(row)
    genuine = []
    for _, group in sorted(by_id.items()):
        e = emb[group]
        i, j = np.triu_indices(len(group), 1)
        genuine.append((e @ e.T)[i, j])
    return (np.concatenate(genuine or [np.empty(0)]).tolist(),
            np.concatenate(impostor or [np.empty(0)]).tolist())


def cmd_reid_eval(args) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ValueError(f"--iou must be in (0, 1], got {args.iou}")
    src = Path(args.inp)
    gt = read_mot(src / "gt.txt", kind="gt")
    dets, emb = _read_detections(src, "reid-eval needs the detections' embeddings, "
                                 "but {} is missing")
    genuine, impostor = _reid_scores(dets, emb, gt, args.iou)

    tpr = tpr_at_far(genuine, impostor, args.far)
    if args.json:
        print(json.dumps({"tpr": tpr, "far": args.far,
                          "genuine": len(genuine), "impostor": len(impostor)}))
    else:
        print(f"tpr={tpr:.6f}\nfar={args.far}\n"
              f"genuine={len(genuine)}\nimpostor={len(impostor)}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> _Parser:
    p = _Parser(prog="fairtrack",
                description="Anchor-free tracking-by-detection toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sim", help="generate a synthetic sequence")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--frames", type=int, default=None)
    s.add_argument("--targets", dest="num_targets", type=int, default=None)
    s.add_argument("--image-w", type=int, default=None)
    s.add_argument("--image-h", type=int, default=None)
    s.add_argument("--scenario", choices=["random", "crossing"], default=None)
    s.add_argument("--dropout", dest="det_dropout_prob", type=float, default=None)
    s.add_argument("--fp-rate", type=float, default=None)
    s.add_argument("--box-noise", dest="box_noise_std", type=float, default=None)
    s.add_argument("--emb-dim", type=int, default=None)
    s.add_argument("--emb-noise", dest="emb_noise_std", type=float, default=None)
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sim)

    s = sub.add_parser("encode", help="ground truth to supervision maps")
    s.add_argument("--gt", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--image-w", type=int, default=None)
    s.add_argument("--image-h", type=int, default=None)
    s.add_argument("--stride", type=int, default=4)
    s.set_defaults(func=cmd_encode)

    s = sub.add_parser("decode", help="maps to scored detections")
    s.add_argument("--maps", required=True, help="directory of *.ften maps")
    s.add_argument("--out", required=True)
    s.add_argument("--threshold", type=float, default=decoding.DEFAULT_THRESHOLD)
    s.add_argument("--top-k", type=int, default=decoding.DEFAULT_TOP_K)
    s.add_argument("--sampling", choices=["center", "center-bi"],
                   default="center")
    s.add_argument("--stride", type=int, default=4)
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("track", help="associate detections into tracks")
    s.add_argument("--in", dest="inp", required=True,
                   help="directory with det.txt and its row-aligned emb.ften")
    s.add_argument("--out", required=True, help="result file (MOT format)")
    s.add_argument("--config", default=None)
    s.add_argument("--no-reid", dest="use_reid", action="store_false", default=None)
    s.add_argument("--no-iou", dest="use_iou", action="store_false", default=None)
    s.add_argument("--no-kalman", dest="use_kalman", action="store_false", default=None)
    s.set_defaults(func=cmd_track)

    s = sub.add_parser("eval", help="score a result file against ground truth")
    s.add_argument("--gt", required=True)
    s.add_argument("--pred", required=True)
    s.add_argument("--metrics", default="clear,idf1")
    s.add_argument("--iou", type=float, default=0.5)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("gradcheck", help="verify analytic gradients")
    s.add_argument("--seeds", type=int, default=50)
    s.add_argument("--size", type=int, default=8)
    s.add_argument("--classes", type=int, default=8)
    s.add_argument("--step", type=float, default=1e-6)
    s.add_argument("--tol", type=float, default=1e-4)
    s.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("reid-eval", help="embedding verification rate")
    s.add_argument("--in", dest="inp", required=True,
                   help="simulator output directory")
    s.add_argument("--far", type=float, default=0.1)
    s.add_argument("--iou", type=float, default=0.5)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_reid_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (MotFormatError, FtenFormatError) as e:
        print(f"fairtrack: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"fairtrack: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"fairtrack: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
