"""FTEN, the binary file format of dense maps.

Maps (heatmaps, offset, size and embedding heads, embedding rows) are
plain float64 numpy arrays, 2-D ``(H, W)`` or 3-D ``(C, H, W)``.  FTEN
is their file format; its writer and reader check the rank and that no
dimension is zero, and each function that takes a map checks the shape
it needs.

FTEN layout, all integers little-endian:

    bytes 0-3   magic ``FTEN``
    byte  4     version, currently 1
    byte  5     dtype code, 1 = float32 LE
    byte  6     ndim, 2 or 3
    byte  7     reserved, 0
    then        ndim x 4-byte unsigned dims, order [C,]H,W
    then        payload, row-major (channel-major for 3D), every value finite

Payloads are float32 on disk.  ``tensor_from_bytes`` and ``read_tensor``
return float64 arrays so loss/gradient arithmetic keeps full precision;
values that are exactly representable in float32 round-trip bitwise.
"""

from __future__ import annotations

import math
import struct
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


def tensor_to_bytes(array) -> bytes:
    """FTEN bytes of a 2-D or 3-D array-like, read as float64 and stored as float32.

    Raises ValueError on any other ndim, a zero-length dimension or a
    value that is not finite as float32: the reader refuses each of them.
    """
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected a 2-d or 3-d array, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"dimensions must be positive, got shape {arr.shape}")
    header = struct.pack("<4sBBBB", MAGIC, VERSION, DTYPE_F32, arr.ndim, 0)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(arr, dtype="<f4")
    finite = np.isfinite(payload)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"value {float(arr.flat[i])} at element {i} is not finite "
                         "as float32")
    return header + payload.tobytes()


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    """The float64 array, 2-D or 3-D, held in FTEN bytes; FtenFormatError if malformed."""
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
    return data.astype(np.float64).reshape(dims)


def read_tensor(path) -> np.ndarray:
    try:
        return tensor_from_bytes(Path(path).read_bytes())
    except FtenFormatError as e:
        raise FtenFormatError(f"{path}: {e.message}", e.offset) from None
