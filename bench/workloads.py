"""The three seeded workloads and the output checks that go with them.

Every workload is a closed loop in one process: frames go to the tracker
in order, each only after the previous ``step`` returned, like an offline
sequence.  All use the same detector noise (embedding noise 0.1, one false
positive per frame on average, 5% dropout, box noise 1 px).

- ``crowd_track``: library path, random scenario at 200 targets per frame.
  The tracker, Kalman gating, assignment, IoU and IDF1 grow super-linearly
  with targets, so they do nearly all the work here.
- ``sparse_long``: library path, crossing scenario at 10 targets over a
  long sequence, with staggered occlusions shorter than the default
  ``track_buffer``.  Matrices are tiny, so per-frame and per-object
  overhead dominates; appearance recovery after occlusion moves IDF1 and
  ID switches.
- ``cli_pipeline``: ``fairtrack.cli.main`` in-process, sim -> encode ->
  decode -> track (re-ID) -> track --no-reid (decoded boxes) -> eval, at
  20 targets, into a fresh directory.  The only workload that exercises
  encoding, decoding, the tensor format and the MOT text parser.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fairtrack.cli
import fairtrack.metrics
import fairtrack.mot_io
import fairtrack.sim
import fairtrack.tracker
from spans import NullTracer

NOISE = {"emb_noise_std": 0.1, "fp_rate": 1.0, "det_dropout_prob": 0.05,
         "box_noise_std": 1.0}

# Occlusion lengths in frames: from a couple of frames up to just inside
# the default track_buffer (30), so a lost track can always come back.
OCCLUSION_LENGTHS = (2, 4, 8, 16, 24)

# (targets per frame, frames) at full size and for the smoke test.
SIZES = {
    "crowd_track": {"full": (200, 10), "tiny": (12, 6)},
    "sparse_long": {"full": (10, 500), "tiny": (10, 80)},
    "cli_pipeline": {"full": (20, 100), "tiny": (4, 5)},
}

# Percentile that step_ms_tail reports.  It is fixed per workload so that
# runs stay comparable when a faster program fits more steps into a run;
# each leaves at least 10 steps beyond it in a 35 s run on the reference
# machine, even in its slow phases (crowd_track: 5 iterations of 10 frames,
# sparse_long: 6 of 500, cli_pipeline: 5 of 100 re-ID steps).  Below the
# highest such percentile where that one swung from seed to seed: the
# steps above it are not the same frames from one iteration to the next.
# Over ten seeds, p98 on cli_pipeline spread by 21% of its median against
# 7% for p95, and p99 on sparse_long by 9-19% against 8-13% for p98.
TAIL_PCT = {"crowd_track": 75.0, "sparse_long": 98.0, "cli_pipeline": 95.0}

# Decoded boxes are printed with 2 decimals; the maps hold f32 values.
DECODE_TOL_PX = 0.02


@dataclass
class Ops:
    """Operations attempted and failed: frame steps, CLI calls, output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Iteration:
    """One sequence, start to final metrics; intervals are perf_counter pairs."""

    wall: tuple             # (start, end) of the whole iteration
    track: list             # (start, end) of each tracker run
    evals: list             # (start, end) of each metrics call
    quality: dict           # mota, idf1, id_switches (and ap on the CLI)
    bytes_written: int
    digests: dict
    stages: dict = field(default_factory=dict)  # CLI stage -> [(start, end)]
    steps: range = range(0)  # this iteration's entries in the StepClock

    def signature(self) -> tuple:
        q = self.quality
        return q.get("mota"), q.get("idf1"), q.get("id_switches"), self.bytes_written


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def _in_range(quality: dict) -> bool:
    mota, idf1 = quality.get("mota"), quality.get("idf1")
    ap = quality.get("ap", 0.0)
    return (isinstance(mota, (int, float)) and math.isfinite(mota) and mota <= 1.0
            and isinstance(idf1, (int, float)) and 0.0 <= idf1 <= 1.0
            and isinstance(ap, (int, float)) and 0.0 <= ap <= 1.0)


def occlusion_schedule(seed: int, targets: int, frames: int) -> tuple:
    """Staggered (target id, first, last) occlusions drawn from the seed."""
    rng = np.random.default_rng([seed, 0x0CC])
    out = []
    for tid in range(1, targets + 1):
        first = int(rng.integers(5, 40))
        while True:
            length = int(rng.choice(OCCLUSION_LENGTHS))
            if first + length > frames:
                break
            out.append((tid, first, first + length - 1))
            first += length + int(rng.integers(30, 80))
    return tuple(out)


class LibraryWorkload:
    """generate -> OnlineTracker.step per frame -> clear_mot + idf1."""

    def __init__(self, sim_cfg, tail_pct: float):
        self.sim_cfg = sim_cfg
        self.tail_pct = tail_pct
        self.out = None

    def setup(self, workdir: Path) -> dict:
        self.out = fairtrack.sim.generate(self.sim_cfg)
        return {"detections": sum(len(v) for v in self.out.dets.values())}

    def iterate(self, tracer, ops: Ops, workdir: Path, speed) -> Iteration:
        gt, dets = self.out.gt, self.out.dets
        t0 = time.perf_counter()
        with tracer.span("bench.iteration"):
            tracker = fairtrack.tracker.OnlineTracker(fairtrack.tracker.TrackerConfig())
            pred = {}
            for frame in sorted(dets):
                try:
                    pred[frame] = tracker.step(frame, dets[frame])
                except Exception:  # counted by the step clock; keep going
                    traceback.print_exc(file=sys.stderr)
                    pred[frame] = []
            t1 = time.perf_counter()
            with tracer.span("metrics.clear_mot"):
                clear = fairtrack.metrics.clear_mot(gt, pred)
            with tracer.span("metrics.idf1"):
                idf1 = fairtrack.metrics.idf1(gt, pred)
        t2 = time.perf_counter()

        quality = {"mota": clear.mota, "idf1": idf1, "id_switches": clear.id_switches,
                   "fp": clear.fp, "fn": clear.fn}
        ops.check(_in_range(quality), f"metrics out of range: {quality}")
        lines = "".join(f"{f},{tid},{b.x1!r},{b.y1!r},{b.x2!r},{b.y2!r}\n"
                        for f in sorted(pred) for tid, b in pred[f])
        digests = {"tracks": _sha(lines),
                   "metrics": _sha(json.dumps(quality, sort_keys=True))}
        return Iteration(wall=(t0, t2), track=[(t0, t1)], evals=[(t1, t2)],
                         quality=quality, bytes_written=0, digests=digests)


def _cli(argv: list, stage: str, tracer, ops: Ops, speed=None) -> tuple[str, tuple]:
    """Run one subcommand in-process; returns (stdout text, (start, end)).

    The host speed is probed just before the call (and between the frame
    steps of ``track``; ``HostSpeed.seconds`` leaves those probes out).
    """
    buf = io.StringIO()
    argv = [str(a) for a in argv]
    if speed is not None:
        speed.probe()
    t = time.perf_counter()
    with tracer.span(f"cli.{stage}"):
        try:
            with contextlib.redirect_stdout(buf):
                code = fairtrack.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception:  # an uncaught error is a failed call, not a crash
            traceback.print_exc(file=sys.stderr)
            code = "exception"
    end = time.perf_counter()
    ops.check(code == 0, f"fairtrack {' '.join(argv)} exited {code}")
    return buf.getvalue(), (t, end)


def _read_boxes(dets_dir: Path) -> dict[int, list[tuple[float, float, float, float]]]:
    """frame -> [(x1, y1, x2, y2)] from decode's output.

    Reads decode's ``frame,score,x1,y1,x2,y2`` lines and also MOT detection
    lines (``frame,id,left,top,width,height,conf,...``), so the check
    outlives a move of decode to the MOT detection format.
    """
    path = next((dets_dir / n for n in ("detections.txt", "det.txt")
                 if (dets_dir / n).is_file()), dets_dir / "detections.txt")
    out: dict[int, list] = {}
    for line in path.read_text().splitlines():
        parts = line.strip().split(",")
        if len(parts) == 6:
            box = tuple(float(v) for v in parts[2:6])
        elif len(parts) >= 9:
            left, top, w, h = (float(v) for v in parts[2:6])
            box = (left, top, left + w, top + h)
        else:
            continue
        out.setdefault(int(float(parts[0])), []).append(box)
    return out


def check_decoded(sim_dir: Path, maps_dir: Path, dets_dir: Path) -> tuple[bool, str]:
    """Decoded detections match the encoded objects on collision-free frames.

    A frame is collision-free when ``centers.txt`` kept one center per
    ground-truth object.  Every frame must decode to as many boxes as it
    has centers.
    """
    gt = fairtrack.mot_io.parse_mot(sim_dir / "gt.txt", kind="gt")
    centers: dict[int, int] = {}
    for line in (maps_dir / "centers.txt").read_text().splitlines():
        if line.strip():
            f = int(line.split(",")[0])
            centers[f] = centers.get(f, 0) + 1
    decoded = _read_boxes(dets_dir)
    checked = 0
    for frame, recs in gt.items():
        got = decoded.get(frame, [])
        if len(got) != centers.get(frame, 0):
            return False, f"frame {frame}: {len(got)} boxes for {centers.get(frame, 0)} centers"
        if centers.get(frame, 0) != len(recs):
            continue
        free = list(got)
        for r in recs:
            want = (r.bb_left, r.bb_top, r.bb_left + r.bb_width, r.bb_top + r.bb_height)
            hit = next((b for b in free
                        if max(abs(x - y) for x, y in zip(b, want)) <= DECODE_TOL_PX), None)
            if hit is None:
                return False, f"frame {frame}: object {r.obj_id} at {want} not decoded"
            free.remove(hit)
        checked += 1
    if checked == 0:
        return False, "no collision-free frame to check"
    return True, f"{checked} collision-free frames match"


def _tree_digest(root: Path) -> str:
    """Digest of every map file and centers.txt (manifest excluded)."""
    h = hashlib.sha256()
    for p in sorted(root.glob("*")):
        if p.name.endswith("manifest.json"):
            continue
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class CliWorkload:
    """sim -> encode -> decode -> track -> track --no-reid -> eval via cli.main."""

    def __init__(self, sim_cfg, tail_pct: float):
        self.sim_cfg = sim_cfg
        self.tail_pct = tail_pct

    def sim_argv(self, out: Path) -> list:
        c = self.sim_cfg
        return ["sim", "--seed", c.seed, "--frames", c.frames,
                "--targets", c.num_targets, "--emb-noise", c.emb_noise_std,
                "--fp-rate", c.fp_rate, "--dropout", c.det_dropout_prob,
                "--box-noise", c.box_noise_std, "--out", out]

    def setup(self, workdir: Path) -> dict:
        d = Path(tempfile.mkdtemp(dir=workdir))
        try:
            ops = Ops()
            _cli(self.sim_argv(d), "sim", NullTracer(), ops)
            if ops.failed:
                raise RuntimeError(f"setup failed: {ops.failures}")
            lines = (d / "det.txt").read_text().splitlines()
            return {"detections": sum(1 for line in lines if line.strip())}
        finally:
            shutil.rmtree(d)

    def iterate(self, tracer, ops: Ops, workdir: Path, speed) -> Iteration:
        d = Path(tempfile.mkdtemp(dir=workdir))
        sim, maps, dets = d / "sim", d / "maps", d / "dets"
        result, result_boxes = d / "result.txt", d / "result_boxes.txt"
        stages = [
            ("sim", self.sim_argv(sim)),
            ("encode", ["encode", "--gt", sim / "gt.txt", "--out", maps]),
            ("decode", ["decode", "--maps", maps, "--out", dets]),
            ("track", ["track", "--in", sim, "--out", result]),
            ("track", ["track", "--in", dets, "--out", result_boxes, "--no-reid"]),
            ("eval", ["eval", "--gt", sim / "gt.txt", "--pred", result,
                      "--metrics", "clear,idf1,ap", "--json", "--out", d / "eval.json"]),
        ]
        intervals: dict[str, list] = {}
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.iteration"):
                for stage, argv in stages:
                    text, iv = _cli(argv, stage, tracer, ops, speed)
                    intervals.setdefault(stage, []).append(iv)
            wall = (t0, time.perf_counter())
            return self._finish(d, text, wall, intervals, ops)
        finally:
            shutil.rmtree(d)

    def _finish(self, d: Path, eval_text: str, wall: tuple, intervals: dict,
                ops: Ops) -> Iteration:
        try:
            report = json.loads(eval_text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = {}
        quality = {"mota": report.get("mota"), "idf1": report.get("idf1"),
                   "id_switches": report.get("idsw"), "ap": report.get("ap"),
                   "fp": report.get("fp"), "fn": report.get("fn")}
        ops.check(_in_range(quality), f"metrics out of range: {quality}")
        try:
            ok, why = check_decoded(d / "sim", d / "maps", d / "dets")
        except (OSError, ValueError) as e:
            ok, why = False, repr(e)
        ops.check(ok, f"decode check: {why}")

        # manifests record their own duration, so they are left out of the
        # byte count and the digests
        outputs = [p for p in d.rglob("*")
                   if p.is_file() and not p.name.endswith("manifest.json")]
        digests = {
            "tracks": _sha(b"".join(p.read_bytes() for p in
                                    (d / "result.txt", d / "result_boxes.txt")
                                    if p.is_file())),
            "maps": _tree_digest(d / "maps"),
            "metrics": _sha(json.dumps(report, sort_keys=True)),
        }
        return Iteration(wall=wall, track=intervals.get("track", []),
                         evals=intervals.get("eval", []), quality=quality,
                         bytes_written=sum(p.stat().st_size for p in outputs),
                         digests=digests, stages=intervals)


def make(name: str, seed: int, tiny: bool):
    targets, frames = SIZES[name]["tiny" if tiny else "full"]
    if name == "crowd_track":
        cfg = fairtrack.sim.SimConfig(seed=seed, frames=frames, num_targets=targets,
                                      scenario="random", **NOISE)
        return LibraryWorkload(cfg, TAIL_PCT[name])
    if name == "sparse_long":
        cfg = fairtrack.sim.SimConfig(
            seed=seed, frames=frames, num_targets=targets, scenario="crossing",
            occlusions=occlusion_schedule(seed, targets, frames), **NOISE)
        return LibraryWorkload(cfg, TAIL_PCT[name])
    if name == "cli_pipeline":
        cfg = fairtrack.sim.SimConfig(seed=seed, frames=frames, num_targets=targets,
                                      scenario="random", **NOISE)
        return CliWorkload(cfg, TAIL_PCT[name])
    raise ValueError(f"unknown workload {name!r}")
