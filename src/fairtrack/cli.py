"""Single-binary front end: simulate, encode, decode, track, evaluate.

Every run writes its outputs atomically (temp file + rename) and leaves
one JSON manifest alongside them recording the subcommand, argument
vector, resolved configuration, and toolkit version — enough to replay
the run and get byte-identical outputs.

`encode` writes one dense heatmap per frame (``*.heat.ften``) and one
object table for the sequence (``centers.txt``: cell, identity, offset
and size of every retained center).  `decode` reads the table once and
scatters each frame's rows into the dense offset and size heads that
`decoding.decode` takes.  Both stream one frame at a time: each frame's
maps or detections are computed and written before the next frame is
read, so only one frame's maps are held in memory at a time.

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

from . import __version__
from .decoding import Detection, Sampling, decode
from .encoding import GtObject, encode_targets
from .geometry import GridSpec, best_match, corners, iou_matrix
from .losses import gradcheck_run
from .metrics import clear_mot, detection_ap, idf1, tpr_at_far
from .mot_io import CenterRows, MotFormatError, MotRecord, _read_text, \
    format_centers, format_det_line, format_gt_line, format_mot_line, \
    load_config, parse_centers, parse_mot, to_frames
from .sim import SimConfig, generate
from .tensors import FtenFormatError, read_tensor, tensor_to_bytes
from .tracker import OnlineTracker, TrackerConfig


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
    if getattr(args, "config", None):
        return load_config(args.config)
    return TrackerConfig(), SimConfig()


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
        cp.read_string(_read_text(ini))
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
    _, base = _resolve_configs(args)
    overrides = {
        "seed": args.seed, "frames": args.frames, "num_targets": args.targets,
        "image_w": args.image_w, "image_h": args.image_h,
        "scenario": args.scenario, "det_dropout_prob": args.dropout,
        "fp_rate": args.fp_rate, "box_noise_std": args.box_noise,
        "emb_dim": args.emb_dim, "emb_noise_std": args.emb_noise,
    }
    cfg = dataclasses.replace(
        base, **{k: v for k, v in overrides.items() if v is not None})

    out = Path(args.out)
    (out / "emb").mkdir(parents=True, exist_ok=True)
    res = generate(cfg)

    gt_lines = []
    for frame in sorted(res.gt):
        for tid, box in res.gt[frame]:
            gt_lines.append(format_gt_line(MotRecord(
                frame, tid, box.x1, box.y1, box.width, box.height,
                conf=1.0, cls=1, visibility=1.0)))
    _atomic_write_text(out / "gt.txt", "\n".join(gt_lines) + "\n")

    det_lines = []
    written = [out / "gt.txt", out / "det.txt", out / "seqinfo.ini"]
    for frame in sorted(res.dets):
        dets = res.dets[frame]
        det_lines.extend(format_det_line(frame, d) for d in dets)
        if dets:
            rows = np.stack([d.embedding for d in dets])
            path = out / "emb" / f"{frame:06d}.ften"
            _atomic_write_bytes(path, tensor_to_bytes(rows))
            written.append(path)
    _atomic_write_text(out / "det.txt", "\n".join(det_lines) + "\n")

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
    gt = parse_mot(gt_path, kind="gt")

    size = _read_seqinfo(gt_path.parent)
    width = args.image_w or size.get("imWidth")
    height = args.image_h or size.get("imHeight")
    if not width or not height:
        raise ValueError("image size unknown: pass --image-w/--image-h "
                         "or keep a seqinfo.ini next to the ground truth")
    grid = GridSpec(width, height, args.stride)

    ids = sorted({r.obj_id for recs in gt.values() for r in recs})
    index = {tid: i for i, tid in enumerate(ids)}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = []
    center_lines = []
    for frame in sorted(gt):
        objs = [GtObject(r.to_box(), index[r.obj_id]) for r in gt[frame]]
        maps = encode_targets(objs, grid, len(ids))
        path = out / f"{frame:06d}.heat.ften"
        _atomic_write_bytes(path, tensor_to_bytes(maps.heatmap))
        written.append(path)
        ys, xs = np.nonzero(maps.center_mask)
        values = np.concatenate([maps.offsets[:, ys, xs], maps.sizes[:, ys, xs]]).T
        center_lines += format_centers(frame, xs, ys,
                                       maps.identity_index[ys, xs], values)
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


def cmd_decode(args) -> int:
    started = time.monotonic()
    maps_dir = Path(args.maps)
    frames = sorted(int(p.name.split(".")[0]) for p in maps_dir.glob("*.heat.ften"))
    if not frames:
        raise MotFormatError(f"no *.heat.ften maps found in {maps_dir}")
    table_path = maps_dir / "centers.txt"
    table = parse_centers(table_path)
    known = set(frames)
    stray = [(rows.lines[0], f) for f, rows in table.items() if f not in known]
    if stray:
        line, frame = min(stray)
        raise MotFormatError(f"{table_path}:{line}: frame {frame} has no heat map")

    sampling = Sampling.CENTER_BI if args.sampling == "center-bi" else Sampling.CENTER

    out = Path(args.out)
    (out / "emb").mkdir(parents=True, exist_ok=True)
    lines = []
    written = [out / "det.txt"]
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
        grid = GridSpec(fw * args.stride, fh * args.stride, args.stride)
        dets = decode(heat, off, size, emb, grid, threshold=args.threshold,
                      top_k=args.top_k, sampling=sampling)
        off[cells] = size[cells] = 0.0
        lines.extend(format_det_line(frame, d) for d in dets)
        with_emb = [d for d in dets if d.embedding is not None]
        if with_emb and len(with_emb) == len(dets):
            path = out / "emb" / f"{frame:06d}.ften"
            rows = np.stack([d.embedding for d in dets])
            _atomic_write_bytes(path, tensor_to_bytes(rows))
            written.append(path)
    _atomic_write_text(out / "det.txt", "\n".join(lines) + "\n")

    _write_manifest(out, "decode", args,
                    config={"threshold": args.threshold, "top_k": args.top_k,
                            "sampling": args.sampling, "stride": args.stride},
                    inputs=[maps_dir], outputs=written, started=started)
    return 0


# ---------------------------------------------------------------- track

def _load_detections(src: Path, need_emb: bool) -> dict[int, list[Detection]]:
    """Read det.txt (+ row-aligned emb/*.ften embeddings) from a directory."""
    per_frame = {frame: [(min(max(r.conf, 0.0), 1.0), r.to_box()) for r in recs]
                 for frame, recs in parse_mot(src / "det.txt", kind="det").items()}

    emb_dir = src / "emb"
    out: dict[int, list[Detection]] = {}
    for frame, rows in per_frame.items():
        emb = None
        path = emb_dir / f"{frame:06d}.ften"
        if path.is_file():
            m = read_tensor(path)
            if m.ndim != 2 or len(m) != len(rows):
                raise MotFormatError(
                    f"{path}: expected {len(rows)} embedding rows")
            norms = np.linalg.norm(m, axis=1, keepdims=True)
            bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
            if bad.size:
                raise MotFormatError(
                    f"{path}: embedding row {bad[0]} has norm {norms[bad[0], 0]}, "
                    "not a positive finite number")
            emb = m / norms
        elif need_emb:
            raise ValueError(
                f"re-ID stage enabled but {path} is missing "
                "(pass --no-reid to track on boxes alone)")
        out[frame] = [Detection(box=b, score=s,
                                embedding=None if emb is None else emb[i])
                      for i, (s, b) in enumerate(rows)]
    return out


def cmd_track(args) -> int:
    started = time.monotonic()
    tracker_cfg, _ = _resolve_configs(args)
    toggles = {}
    if args.no_reid:
        toggles["use_reid"] = False
    if args.no_iou:
        toggles["use_iou"] = False
    if args.no_kalman:
        toggles["use_kalman"] = False
    if toggles:
        tracker_cfg = dataclasses.replace(tracker_cfg, **toggles)

    src = Path(args.inp)
    dets = _load_detections(src, need_emb=tracker_cfg.use_reid)

    tracker = OnlineTracker(tracker_cfg)
    lines = []
    for frame in sorted(dets):
        outputs = tracker.step(frame, dets[frame])
        for (tid, box), score in zip(outputs, tracker.active_scores()):
            lines.append(format_mot_line(MotRecord(
                frame, tid, box.x1, box.y1, box.width, box.height, conf=score)))

    out = Path(args.out)
    if out.parent:
        out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, "\n".join(lines) + "\n")
    _write_manifest(out, "track", args, config=dataclasses.asdict(tracker_cfg),
                    inputs=[src], outputs=[out], started=started)
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    started = time.monotonic()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = {"clear", "idf1", "ap"}
    bad = set(wanted) - known
    if bad:
        raise ValueError(f"unknown metrics: {', '.join(sorted(bad))}")

    gt_recs = parse_mot(args.gt, kind="gt")
    pred_recs = parse_mot(args.pred, kind="result")
    gt = to_frames(gt_recs)
    pred = to_frames(pred_recs)

    report: dict[str, float | int] = {}
    if "clear" in wanted:
        r = clear_mot(gt, pred, args.iou)
        report.update(mota=r.mota, fp=r.fp, fn=r.fn, idsw=r.id_switches,
                      mt=r.mt_ratio, ml=r.ml_ratio, num_gt=r.num_gt)
    if "idf1" in wanted:
        report["idf1"] = idf1(gt, pred, args.iou)
    if "ap" in wanted:
        gt_boxes = {f: [b for _, b in pairs] for f, pairs in gt.items()}
        preds = {f: [(r.conf, r.to_box()) for r in recs]
                 for f, recs in pred_recs.items()}
        report["ap"] = detection_ap(gt_boxes, preds, args.iou)

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
        status = "ok" if worst[name] <= args.tol else "FAIL"
        print(f"{name}: worst_rel_err={worst[name]:.3e} {status}")
        failed |= worst[name] > args.tol
    return 1 if failed else 0


# ---------------------------------------------------------------- reid-eval

def _reid_scores(dets: dict[int, list[Detection]], gt, iou: float
                 ) -> tuple[list[float], list[float]]:
    """Genuine and impostor cosine scores of GT-labelled detections.

    Each detection takes the GT identity it overlaps best.  Impostor
    pairs are different identities within one frame, genuine pairs one
    identity across frames; both are read off the upper triangle of a
    Gram matrix, per frame and per identity, in row-major pair order.
    """
    impostor: list[np.ndarray] = []
    by_id: dict[int, list[np.ndarray]] = {}
    for frame in sorted(dets):
        g = gt.get(frame, [])
        ious = iou_matrix(corners([d.box for d in dets[frame]]),
                          corners([box for _, box in g]))
        labeled = [(g[k][0], d.embedding)
                   for d, k in zip(dets[frame], best_match(ious, iou)) if k >= 0]
        if not labeled:
            continue
        ids = np.array([gid for gid, _ in labeled])
        emb = np.stack([e for _, e in labeled])
        i, j = np.triu_indices(len(ids), 1)
        keep = ids[i] != ids[j]
        impostor.append((emb @ emb.T)[i[keep], j[keep]])
        for gid, e in labeled:
            by_id.setdefault(gid, []).append(e)
    genuine = []
    for _, embs in sorted(by_id.items()):
        emb = np.stack(embs)
        i, j = np.triu_indices(len(embs), 1)
        genuine.append((emb @ emb.T)[i, j])
    return (np.concatenate(genuine or [np.empty(0)]).tolist(),
            np.concatenate(impostor or [np.empty(0)]).tolist())


def cmd_reid_eval(args) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ValueError(f"--iou must be in (0, 1], got {args.iou}")
    src = Path(args.inp)
    gt = to_frames(parse_mot(src / "gt.txt", kind="gt"))
    dets = _load_detections(src, need_emb=True)
    genuine, impostor = _reid_scores(dets, gt, args.iou)

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
    s.add_argument("--targets", type=int, default=None)
    s.add_argument("--image-w", type=int, default=None)
    s.add_argument("--image-h", type=int, default=None)
    s.add_argument("--scenario", choices=["random", "crossing"], default=None)
    s.add_argument("--dropout", type=float, default=None)
    s.add_argument("--fp-rate", type=float, default=None)
    s.add_argument("--box-noise", type=float, default=None)
    s.add_argument("--emb-dim", type=int, default=None)
    s.add_argument("--emb-noise", type=float, default=None)
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
    s.add_argument("--threshold", type=float, default=0.4)
    s.add_argument("--top-k", type=int, default=128)
    s.add_argument("--sampling", choices=["center", "center-bi"],
                   default="center")
    s.add_argument("--stride", type=int, default=4)
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("track", help="associate detections into tracks")
    s.add_argument("--in", dest="inp", required=True,
                   help="directory with det.txt and emb/")
    s.add_argument("--out", required=True, help="result file (MOT format)")
    s.add_argument("--config", default=None)
    s.add_argument("--no-reid", action="store_true")
    s.add_argument("--no-iou", action="store_true")
    s.add_argument("--no-kalman", action="store_true")
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
