r"""MOTChallenge text interchange and the flat key=value config format.

Ground-truth files carry 9 comma-separated fields per line
(frame, id, left, top, width, height, conf, class, visibility);
detection and result files carry 10 (the last three are -1 placeholders).
One columnar writer, ``format_mot``, formats all three kinds from frame,
id, corner and score columns.  Boxes are serialized with 2 decimal
places.  Detection lines (`det.txt`, written by both `sim` and `decode`)
carry the score at full precision, so it reads back bit for bit; result
lines round it to 2 decimals.  Row k of the ``emb.ften`` beside a
`det.txt` is the embedding of its k-th detection in frame order (one
frame's lines in file order).
Every number read must be finite, and frame, id and gt class fields
integral within int32 (MOTChallenge's range); an integral float token such as
``1.0`` is accepted.

``centers.txt``, written by ``encode``, is the object table: one
``frame,x,y,identity,off_x,off_y,w,h`` line per retained center, with the
integer feature-grid cell, the dense identity index, the sub-cell offset
and the box size in image pixels.  The four values are float32 numbers
written at float64 precision, so they read back exactly.

MOT files and the object table are read as columns; the first bad line
raises MotFormatError.  Lines break at ``\n``, ``\r`` and ``\r\n`` only, so a
line number is the one a text editor shows.  ``read_mot`` returns a MOT
file as one ``geometry.MotTable``: sorted frames with per-frame row
offsets, ids, ``(N, 4)`` corners and conf, the form the encoder, the
tracker and the metrics take, and the form of the simulator's ground
truth.  ``parse_mot`` returns the same checked lines as
``{frame: [MotRecord]}``.

The numbers of a file's non-blank lines are read in one ``np.loadtxt``
call, and a line's field count is its commas plus one.  The fallback
reads token by token, each through ``float``, and finds the first bad
field.  It reads a file that loadtxt refuses, one with a line of too few
fields, and one holding a character in ``\x1c``-``\x1f``, which loadtxt
strips around a number as whitespace and ``float`` refuses.  It reads a
file of no non-blank line too, on which loadtxt warns.  Both give the
same values, checks and messages.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .geometry import BBox, MotTable
from .kalman import check_measurements, measurable, measure
from .sim import SimConfig
from .tracker import TrackerConfig

PEDESTRIAN_CLASS = 1


class MotFormatError(ValueError):
    """A text input (MOT file or config file) failed to parse."""


class MotRecord(NamedTuple):
    """One MOT line as read; ``cls`` and ``visibility`` only from 9-field gt lines."""

    frame: int
    obj_id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float = 1.0
    cls: int | None = None
    visibility: float | None = None

    def to_box(self) -> BBox:
        return BBox(self.bb_left, self.bb_top,
                    self.bb_left + self.bb_width, self.bb_top + self.bb_height)


def _split_lines(text: str) -> list[str]:
    # as a text file splits; str.splitlines also breaks at \x0b-\x0c, \x1c-\x1e, \x85, U+2028-9
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _lines(path) -> list[str]:
    """The file's lines, as UTF-8 text; other bytes raise MotFormatError at `path:line`."""
    data = Path(path).read_bytes()
    try:
        return _split_lines(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        line = len(_split_lines(data[:e.start].decode("utf-8")))
        raise MotFormatError(
            f"{path}:{line}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _error_text(fn, *args) -> str | None:
    """The text of the ValueError that ``fn(*args)`` raises, if it raises one."""
    try:
        fn(*args)
    except ValueError as e:
        return str(e)


# loadtxt strips these around a number, as it does spaces; float refuses them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _fields(line: str, k: int) -> list[str]:
    """A line's first ``k`` fields, padded with "" to ``k``."""
    return (line.split(",") + [""] * k)[:k]


def _numbers(rows: list[str], sizes: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` fields of ``rows`` as numbers, NaN where a field is
    not one, and the mask of those fields.

    One C-level pass reads them where it reads each field as ``float``
    does; the rest go token by token.
    """
    if rows and min(sizes) >= k and not any(c in "".join(rows) for c in _LOADTXT_ONLY_SPACE):
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=range(k), ndmin=2,
                                dtype=np.float64, comments=None, quotechar=None)
            return values, np.zeros(values.shape, dtype=bool)
        except ValueError:
            pass
    tokens = [_fields(line, k) for line in rows]
    try:
        values = np.array(tokens, dtype=np.float64).reshape(len(tokens), k)
        return values, np.zeros(values.shape, dtype=bool)
    except ValueError:  # find the tokens that are not numbers, and read them as NaN
        failed = np.array([[_error_text(float, x) is not None for x in row] for row in tokens])
        return np.where(failed, "nan", np.array(tokens, object)).astype(float), failed


class _Table:
    """A comma-separated file's non-blank lines as columns, and the checks on them.

    ``checks`` holds (mask over lines, message of a row) pairs in the order
    a line's fields are read.
    """

    def __init__(self, path, counts: tuple[int, ...]):
        numbers, rows = [], []
        for lineno, raw in enumerate(_lines(path), start=1):
            line = raw.strip()
            if line:
                numbers.append(lineno)
                rows.append(line)
        sizes = [line.count(",") + 1 for line in rows]
        self.path, self.rows = path, rows
        self.lines, self.counts = np.array(numbers), np.array(sizes)
        self.values, self.failed = _numbers(rows, sizes, min(counts))
        self.checks = [(~np.isin(self.counts, counts), lambda i: f"expected "
                        f"{' or '.join(map(str, counts))} fields, got {sizes[i]}")]

    def field(self, j: int, int_name: str = "") -> None:
        """Check that field ``j`` is a number and, given ``int_name``, an integer within int32."""
        rows = self.rows  # not self: a cycle would keep the table until a collection
        self.checks.append((self.failed[:, j],
                            lambda i: _error_text(float, _fields(rows[i], j + 1)[j])))
        if int_name:
            v = self.values[:, j]
            self.checks.append((~((v == np.trunc(v)) & (v >= -2**31) & (v < 2**31)),
                                lambda i: f"{int_name} must be an integer within int32, "
                                          f"got {_fields(rows[i], j + 1)[j]!r}"))

    def repeated(self, keys: np.ndarray, among=True) -> np.ndarray:
        """Mask of the lines, of those ``among`` marks, whose ``keys`` row an earlier one has."""
        among = np.broadcast_to(among, len(keys))
        order = np.lexsort((self.lines, *keys.T[::-1], ~among))  # the lines among first
        later = order[1:][(keys[order[1:]] == keys[order[:-1]]).all(axis=1) & among[order[1:]]]
        return np.isin(np.arange(len(keys)), later)

    def raise_first(self) -> None:
        """Raise MotFormatError at the first line a check marks, with its first check's text."""
        bad = np.stack([mask for mask, _ in self.checks], axis=1)
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            message = self.checks[np.argmax(bad[rows[0]])][1]
            raise MotFormatError(f"{self.path}:{self.lines[rows[0]]}: {message(rows[0])}")


def _checked(path, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A MOT file's lines as checked columns: the (N, 9) field values, with
    class 1 where a line carries none, the (N, 4) corners, and the mask of
    9-field gt lines, whose class and visibility are read."""
    if kind not in ("gt", "det", "result"):
        raise ValueError(f"unknown kind {kind!r}")
    t = _Table(path, (9, 10))
    v = t.values
    gt = (t.counts == 9) & (kind == "gt")
    t.failed[~gt, 7:] = False  # class and visibility are read from 9-field gt lines only
    v[~gt, 7:] = PEDESTRIAN_CLASS
    for j, name in enumerate(("frame", "id", "", "", "", "", "", "class", "")):
        t.field(j, name)
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.stack([v[:, 2], v[:, 3], v[:, 2] + v[:, 4], v[:, 3] + v[:, 5]], axis=1)
    finite = np.isfinite(corners).all(axis=1) & np.isfinite(v[:, 4:]).all(axis=1)
    t.checks += [(~finite, lambda i: "box, conf and visibility must be finite"),
                 (~(v[:, 0] >= 1), lambda i: f"frame must be >= 1, got {int(v[i, 0])}"),
                 ((v[:, 4] < 0) | (v[:, 5] < 0), lambda i: "box extents must be non-negative")]
    if kind == "det":
        z = measure(corners)
        t.checks.append((~measurable(z), lambda i: _error_text(check_measurements, z[i:i + 1])))
    else:  # among the lines returned, but for the placeholder id -1 that every det line has
        among = (v[:, 7] == PEDESTRIAN_CLASS) & (v[:, 1] != -1)
        t.checks.append((t.repeated(v[:, :2], among), lambda i:
                         f"id {int(v[i, 1])} repeated in frame {int(v[i, 0])}"))
    t.raise_first()
    return v, corners, gt


def read_mot(path, kind: str = "result") -> MotTable:
    """Read a MOT text file into one table of its kept lines.

    kind is one of gt / det / result; gt lines additionally carry class
    and visibility, and non-pedestrian classes are dropped.  A det box
    must be one the tracker accepts (``kalman.measurable``: a positive
    height, a width that is not negative, and a measurement within
    float32's normal range), checked after the line's other fields, as is
    a kept gt or result line repeating an earlier one's (frame, id), an id
    of -1 (a det line's placeholder, so a det.txt still reads as a result
    file) excepted.  The first malformed line, or bytes that are not UTF-8,
    raise MotFormatError naming `path:line`.  Each corner is ``left +
    width`` (``top + height``) as read.
    """
    v, corners, _ = _checked(path, kind)
    kept = np.flatnonzero(v[:, 7] == PEDESTRIAN_CLASS)
    rows = kept[np.argsort(v[kept, 0], kind="stable")]
    frames, counts = np.unique(v[rows, 0].astype(np.int64), return_counts=True)
    start = np.zeros(len(frames) + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    return MotTable(frames, start, v[rows, 1].astype(np.int64), corners[rows], v[rows, 6])


def parse_mot(path, kind: str = "result") -> dict[int, list[MotRecord]]:
    """The lines ``read_mot`` keeps, as frame-grouped records (input order
    kept), with the same checks and messages."""
    v, _, gt = _checked(path, kind)
    cols = v.astype(object)  # Python floats, and ints where a record holds them
    cols[:, :2] = v[:, :2].astype(np.int64)
    cols[:, 7] = PEDESTRIAN_CLASS
    cols[~gt, 7:] = None
    out: dict[int, list[MotRecord]] = {}
    for record in map(MotRecord._make, cols[v[:, 7] == PEDESTRIAN_CLASS].tolist()):
        out.setdefault(record.frame, []).append(record)
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
    identity, a non-finite value, a negative size, a cell already given
    for its frame, or bytes that are not UTF-8 raise MotFormatError naming
    the first bad `path:line`.
    """
    t = _Table(path, (8,))
    v = t.values
    for j, name in enumerate(("frame", "x", "y", "identity", "", "", "", "")):
        t.field(j, name)
    t.checks += [(~np.isfinite(v[:, 4:]).all(axis=1), lambda i: "offset and size must be finite"),
                 ((v[:, 6] < 0) | (v[:, 7] < 0), lambda i: "size must be non-negative"),
                 (t.repeated(v[:, :3]), lambda i: f"cell ({int(v[i, 1])}, {int(v[i, 2])}) "
                                     f"repeated in frame {int(v[i, 0])}")]
    t.raise_first()

    frames = v[:, 0].astype(np.int64)
    order = np.argsort(frames, kind="stable")
    keys, starts = np.unique(frames[order], return_index=True)
    return {int(frame): CenterRows(t.lines[g], v[g, 1:3].astype(np.int64), v[g, 4:])
            for frame, g in zip(keys, np.split(order, starts[1:]))}


def format_centers(frames, xs, ys, identities, values) -> list[str]:
    """``centers.txt`` rows, each value written as its float32 rounding.

    ``xs``, ``ys`` and ``identities`` hold one integer per row, ``values``
    one (off_x, off_y, w, h) row, and ``frames`` one frame per row or one
    frame for every row.  A value that is not finite as float32 raises
    ValueError naming the first such row's frame, so the table never holds
    a row its reader rejects.
    """
    with np.errstate(over="ignore"):
        rounded = np.asarray(values, dtype=np.float32).reshape(-1, 4)
    frames = np.broadcast_to(np.asarray(frames), len(rounded))
    bad = np.flatnonzero(~np.isfinite(rounded).all(axis=1))
    if bad.size:
        raise ValueError(f"frame {frames[bad[0]]}: a center value is not finite as float32")
    return [f"{frame},{x},{y},{ident}," + ",".join(map(repr, row))
            for frame, x, y, ident, row in zip(frames.tolist(), np.asarray(xs).tolist(),
                                               np.asarray(ys).tolist(),
                                               np.asarray(identities).tolist(),
                                               rounded.tolist())]


_ROW_FORMATS = {
    "result": "%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1",
    "det": "%d,%d,%.2f,%.2f,%.2f,%.2f,%r,-1,-1,-1",
    "gt": f"%d,%d,%.2f,%.2f,%.2f,%.2f,1,{PEDESTRIAN_CLASS},1.00",
}


def format_mot(kind: str, frames, ids, boxes, scores=1.0) -> list[str]:
    """MOT lines of one kind, one per row of ``boxes``, formatted as columns.

    ``boxes`` holds (N, 4) corners (x1, y1, x2, y2); ``frames``, ``ids``
    and ``scores`` hold one value per row, or one value for every row.
    Each line gives the box as left, top, width and height with 2
    decimals.  A result line (``kind`` "result") then gives the score
    rounded to 2 decimals, a detection line ("det", whose id is -1 by
    convention) the score at full precision, so it reads back bit for bit,
    and a ground-truth line ("gt") conf 1, the pedestrian class and
    visibility 1, ignoring ``scores``.  A row with a frame below 1, or a
    box or score that is not finite (a width that overflows included),
    raises ValueError naming the first such row's frame, so no line is
    written that its reader would reject.
    """
    if kind not in _ROW_FORMATS:
        raise ValueError(f"unknown kind {kind!r}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = len(boxes)
    frames, ids = (np.broadcast_to(np.asarray(c, dtype=np.int64), n) for c in (frames, ids))
    scores = np.broadcast_to(np.asarray(1.0 if kind == "gt" else scores, dtype=np.float64), n)
    x, y = boxes[:, 0], boxes[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        w, h = boxes[:, 2] - x, boxes[:, 3] - y
        finite = np.isfinite(np.stack([x, y, w, h, x + w, y + h, scores])).all(axis=0)
    bad = np.flatnonzero(~finite | (frames < 1))
    if bad.size:
        raise ValueError(f"frame {frames[bad[0]]}: a MOT line needs a frame >= 1, "
                         "and a box and score that are finite")
    columns = [frames.tolist(), ids.tolist(), x.tolist(), y.tolist(), w.tolist(), h.tolist()]
    if kind != "gt":
        columns.append(scores.tolist())
    return list(map(_ROW_FORMATS[kind].__mod__, zip(*columns)))


_BOOL = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}


def _to_bool(s: str) -> bool:
    try:
        return _BOOL[s.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {s!r}")


_CASTERS = {int: int, float: float, str: str, bool: _to_bool}


def load_config(path) -> tuple[TrackerConfig, SimConfig]:
    """Flat `key = value` file with # comments; unknown keys are an error.

    Every int, float, str or bool field of TrackerConfig and SimConfig is a
    key, cast by its type (``occlusions`` is not).
    """
    kwargs: dict = {TrackerConfig: {}, SimConfig: {}}
    keys = {name: (_CASTERS[hint], sink) for cls, sink in kwargs.items()
            for name, hint in get_type_hints(cls).items() if hint in _CASTERS}
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MotFormatError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise MotFormatError(f"{path}:{lineno}: unknown key {key!r}")
        caster, sink = keys[key]
        try:
            sink[key] = caster(value)
        except ValueError as e:
            raise MotFormatError(
                f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    try:
        return TrackerConfig(**kwargs[TrackerConfig]), SimConfig(**kwargs[SimConfig])
    except ValueError as e:
        raise MotFormatError(f"{path}: {e}") from e
