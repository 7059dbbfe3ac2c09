"""Dense tensor containers and the FTEN binary interchange format.

FTEN layout, all integers little-endian:

    bytes 0-3   magic ``FTEN``
    byte  4     version, currently 1
    byte  5     dtype code, 1 = float32 LE
    byte  6     ndim, 2 or 3
    byte  7     reserved, 0
    then        ndim x 4-byte unsigned dims, order [C,]H,W
    then        payload, row-major (channel-major for 3D), every value finite

Payloads are float32 on disk.  In memory both tensor types hold float64
arrays so loss/gradient arithmetic keeps full precision; values that are
exactly representable in float32 round-trip bitwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"FTEN"
VERSION = 1
DTYPE_F32 = 1


class FtenFormatError(ValueError):
    """Malformed FTEN data; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True, eq=False)
class Tensor2D:
    """Row-major H x W grid of reals. Element (y, x) is ``data[y, x]``."""

    height: int
    width: int
    data: np.ndarray

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"dimensions must be positive, got {self.height}x{self.width}")
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise ValueError(f"data shape {arr.shape} != ({self.height}, {self.width})")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "Tensor2D":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-d array, got ndim={arr.ndim}")
        return cls(arr.shape[0], arr.shape[1], arr)

    def __array__(self, dtype=None, copy=None):
        return self.data if dtype is None else self.data.astype(dtype)


@dataclass(frozen=True, eq=False)
class Tensor3D:
    """Channel-major C x H x W grid of reals. Element (c, y, x) is ``data[c, y, x]``."""

    channels: int
    height: int
    width: int
    data: np.ndarray

    def __post_init__(self):
        if self.channels <= 0 or self.height <= 0 or self.width <= 0:
            raise ValueError(
                f"dimensions must be positive, got {self.channels}x{self.height}x{self.width}"
            )
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.shape != (self.channels, self.height, self.width):
            raise ValueError(
                f"data shape {arr.shape} != ({self.channels}, {self.height}, {self.width})"
            )
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "Tensor3D":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected 3-d array, got ndim={arr.ndim}")
        return cls(arr.shape[0], arr.shape[1], arr.shape[2], arr)

    def __array__(self, dtype=None, copy=None):
        return self.data if dtype is None else self.data.astype(dtype)


def tensor_to_bytes(t: Tensor2D | Tensor3D) -> bytes:
    if isinstance(t, Tensor2D):
        dims = (t.height, t.width)
    elif isinstance(t, Tensor3D):
        dims = (t.channels, t.height, t.width)
    else:
        raise TypeError(f"expected Tensor2D or Tensor3D, got {type(t).__name__}")
    header = struct.pack("<4sBBBB", MAGIC, VERSION, DTYPE_F32, len(dims), 0)
    header += struct.pack(f"<{len(dims)}I", *dims)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(t.data, dtype="<f4")
    finite = np.isfinite(payload)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"value {float(t.data.flat[i])} at element {i} is not finite "
                         "as float32")
    return header + payload.tobytes()


def tensor_from_bytes(buf: bytes) -> Tensor2D | Tensor3D:
    if len(buf) < 8:
        raise FtenFormatError(f"truncated header, {len(buf)} bytes", len(buf))
    magic, version, dtype, ndim, reserved = struct.unpack_from("<4sBBBB", buf, 0)
    if magic != MAGIC:
        raise FtenFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FtenFormatError(f"unsupported version {version}", 4)
    if dtype != DTYPE_F32:
        raise FtenFormatError(f"unsupported dtype code {dtype}", 5)
    if ndim not in (2, 3):
        raise FtenFormatError(f"ndim must be 2 or 3, got {ndim}", 6)
    if reserved != 0:
        raise FtenFormatError(f"reserved byte must be 0, got {reserved}", 7)
    dims_end = 8 + 4 * ndim
    if len(buf) < dims_end:
        raise FtenFormatError("truncated dims", len(buf))
    dims = struct.unpack_from(f"<{ndim}I", buf, 8)
    for i, d in enumerate(dims):
        if d == 0:
            raise FtenFormatError(f"dimension {i} is zero", 8 + 4 * i)
    count = math.prod(dims)  # Python ints: no int64 wrap-around
    expected = dims_end + 4 * count
    if len(buf) != expected:
        raise FtenFormatError(
            f"payload length {len(buf) - dims_end} != expected {4 * count}", dims_end
        )
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=dims_end)
    finite = np.isfinite(data)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FtenFormatError(f"non-finite value {data[i]} at element {i}",
                              dims_end + 4 * i)
    data = data.astype(np.float64).reshape(dims)
    if ndim == 2:
        return Tensor2D(dims[0], dims[1], data)
    return Tensor3D(dims[0], dims[1], dims[2], data)


def write_tensor(t: Tensor2D | Tensor3D, path) -> None:
    Path(path).write_bytes(tensor_to_bytes(t))


def read_tensor(path) -> Tensor2D | Tensor3D:
    try:
        return tensor_from_bytes(Path(path).read_bytes())
    except FtenFormatError as e:
        raise FtenFormatError(f"{path}: {e.message}", e.offset) from None
