"""MOTChallenge text interchange and the flat key=value config format.

Ground-truth files carry 9 comma-separated fields per line
(frame, id, left, top, width, height, conf, class, visibility);
detection and result files carry 10 (the last three are -1 placeholders).
Boxes are serialized with 2 decimal places.  Detection lines (`det.txt`,
written by both `sim` and `decode`) carry the score at full precision, so
it reads back bit for bit; result lines round it to 2 decimals.
Every number read must be finite, and frame, id and gt class fields
integral within int32 (MOTChallenge's range); an integral float token such as
``1.0`` is accepted.

``centers.txt``, written by ``encode``, is the object table: one
``frame,x,y,identity,off_x,off_y,w,h`` line per retained center, with the
integer feature-grid cell, the dense identity index, the sub-cell offset
and the box size in image pixels.  The four values are float32 numbers
written at float64 precision, so they read back exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .decoding import Detection
from .geometry import BBox
from .kalman import check_measurements, measurable, measure
from .sim import SimConfig
from .tracker import TrackerConfig

PEDESTRIAN_CLASS = 1


class MotFormatError(ValueError):
    """A text input (MOT file or config file) failed to parse."""


@dataclass(frozen=True)
class MotRecord:
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

    def to_box(self) -> BBox:
        return BBox(self.bb_left, self.bb_top,
                    self.bb_left + self.bb_width, self.bb_top + self.bb_height)


def _not_utf8(path, data: bytes, e: UnicodeDecodeError) -> MotFormatError:
    line = data.count(b"\n", 0, e.start) + 1
    return MotFormatError(f"{path}:{line}: not UTF-8 text ({e.reason} at byte {e.start})")


def _read_text(path) -> str:
    """The whole file as UTF-8 text; other bytes raise MotFormatError at `path:line`."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _not_utf8(path, data, e) from e


def _int_field(name: str, token: str) -> int:
    value = float(token)
    if not (value.is_integer() and -2**31 <= value < 2**31):
        raise ValueError(f"{name} must be an integer within int32, got {token!r}")
    return int(value)


def parse_mot(path, kind: str = "result") -> dict[int, list[MotRecord]]:
    """Read a MOT text file into frame-grouped records (input order kept).

    kind is one of gt / det / result; gt lines additionally carry class
    and visibility, and non-pedestrian classes are dropped.  A det box
    must be one the tracker's Kalman filter accepts (``kalman.measurable``:
    a positive height, and a measurement within float32's normal range);
    that rule runs once over the file's boxes.  A malformed line, or bytes
    that are not UTF-8, raise MotFormatError naming `path:line`.
    """
    if kind not in ("gt", "det", "result"):
        raise ValueError(f"unknown kind {kind!r}")
    out: dict[int, list[MotRecord]] = {}
    lines, corners = [], []  # det only: each box's line and (x1, y1, x2, y2)
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (9, 10):
            raise MotFormatError(
                f"{path}:{lineno}: expected 9 or 10 fields, got {len(parts)}")
        try:
            frame = _int_field("frame", parts[0])
            obj_id = _int_field("id", parts[1])
            l, t, w, h, conf = (float(v) for v in parts[2:7])
            cls = vis = None
            if kind == "gt" and len(parts) == 9:
                cls = _int_field("class", parts[7])
                vis = float(parts[8])
            rec = MotRecord(frame, obj_id, l, t, w, h, conf, cls, vis)
        except (ValueError, OverflowError) as e:  # int(inf) overflows
            raise MotFormatError(f"{path}:{lineno}: {e}") from e
        if cls is not None and cls != PEDESTRIAN_CLASS:
            continue
        if kind == "det":
            lines.append(lineno)
            corners += (l, t, l + w, t + h)  # as MotRecord.to_box builds them
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


class CenterRows(NamedTuple):
    """One frame's rows of ``centers.txt``, in file order."""

    lines: np.ndarray   # (K,) 1-based line numbers
    cells: np.ndarray   # (K, 2) feature-grid cells (x, y)
    values: np.ndarray  # (K, 4) off_x, off_y, w, h


def parse_centers(path) -> dict[int, CenterRows]:
    """Read the object table into per-frame rows.

    The identity column is checked but not returned: decoding does not
    use it.  A line with other than 8 fields, a non-integer frame, cell or
    identity, a non-finite value, a negative size or bytes that are not
    UTF-8 raise MotFormatError naming `path:line`; so does the first line
    that repeats a cell already given for its frame.  Columns are gathered
    into flat lists and grouped by frame as arrays, with no per-row objects
    kept.
    """
    frames, lines, cells, values = [], [], [], []
    # newline=None splits lines as a file opened in text mode does
    with io.StringIO(_read_text(path), newline=None) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise MotFormatError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                frame, x, y, _ = (_int_field(name, token) for name, token in
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


def format_centers(frame: int, xs, ys, identities, values) -> list[str]:
    """One frame's ``centers.txt`` rows, each value written as its float32 rounding.

    ``xs``, ``ys`` and ``identities`` hold one integer per row, ``values``
    one (off_x, off_y, w, h) row.  A value that is not finite as float32
    raises ValueError, so the table never holds a row its reader rejects.
    """
    with np.errstate(over="ignore"):
        rounded = np.asarray(values, dtype=np.float32).reshape(-1, 4)
    if not np.isfinite(rounded).all():
        raise ValueError(f"frame {frame}: a center value is not finite as float32")
    return [f"{frame},{x},{y},{ident}," + ",".join(map(repr, row))
            for x, y, ident, row in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist(),
                                        np.asarray(identities).tolist(),
                                        rounded.tolist())]


def _box_fields(rec: MotRecord) -> str:
    return (f"{rec.frame},{rec.obj_id},{rec.bb_left:.2f},{rec.bb_top:.2f},"
            f"{rec.bb_width:.2f},{rec.bb_height:.2f}")


def format_mot_line(rec: MotRecord) -> str:
    """10-field result line; conf is rounded to 2 decimals."""
    return f"{_box_fields(rec)},{rec.conf:.2f},-1,-1,-1"


def format_det_line(frame: int, det: Detection) -> str:
    """10-field detection line (id -1); the score keeps full precision."""
    b = det.box
    rec = MotRecord(frame, -1, b.x1, b.y1, b.width, b.height, det.score)
    return f"{_box_fields(rec)},{float(det.score)!r},-1,-1,-1"


def format_gt_line(rec: MotRecord) -> str:
    """9-field ground-truth line with class and visibility columns."""
    cls = PEDESTRIAN_CLASS if rec.cls is None else rec.cls
    vis = 1.0 if rec.visibility is None else rec.visibility
    return f"{_box_fields(rec)},{int(rec.conf)},{cls},{vis:.2f}"


def to_frames(parsed: dict[int, list[MotRecord]]) -> dict[int, list[tuple[int, BBox]]]:
    """Drop to the (id, box) pairing the metrics take."""
    return {f: [(r.obj_id, r.to_box()) for r in recs]
            for f, recs in parsed.items()}


_BOOL = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}


def _to_bool(s: str) -> bool:
    try:
        return _BOOL[s.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {s!r}")


_TRACKER_KEYS = {
    "det_threshold": float, "emb_match_threshold": float,
    "iou_match_threshold": float, "track_buffer": int,
    "ema_momentum": float, "gate_chi2": float,
    "use_reid": _to_bool, "use_iou": _to_bool, "use_kalman": _to_bool,
}
_SIM_KEYS = {
    "seed": int, "frames": int, "num_targets": int,
    "image_w": int, "image_h": int, "scenario": str,
    "det_dropout_prob": float, "fp_rate": float, "box_noise_std": float,
    "emb_dim": int, "emb_noise_std": float,
}


def load_config(path) -> tuple[TrackerConfig, SimConfig]:
    """Flat `key = value` file with # comments; unknown keys are an error."""
    tracker_kw: dict = {}
    sim_kw: dict = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MotFormatError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _TRACKER_KEYS:
            caster, sink = _TRACKER_KEYS[key], tracker_kw
        elif key in _SIM_KEYS:
            caster, sink = _SIM_KEYS[key], sim_kw
        else:
            raise MotFormatError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            sink[key] = caster(value)
        except ValueError as e:
            raise MotFormatError(
                f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    try:
        return TrackerConfig(**tracker_kw), SimConfig(**sim_kw)
    except ValueError as e:
        raise MotFormatError(f"{path}: {e}") from e
