import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairtrack.tensors import (
    FtenFormatError,
    Tensor2D,
    Tensor3D,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)


def test_tensor2d_shape_validation():
    with pytest.raises(ValueError):
        Tensor2D(2, 3, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Tensor2D(0, 3, np.zeros((0, 3)))


def test_tensor3d_from_array():
    t = Tensor3D.from_array(np.arange(24).reshape(2, 3, 4))
    assert (t.channels, t.height, t.width) == (2, 3, 4)
    assert np.asarray(t).dtype == np.float64


def test_file_size_2x3():
    # 8 fixed header bytes + 2 dims x 4 bytes + 6 f32 payload values
    raw = tensor_to_bytes(Tensor2D.from_array(np.zeros((2, 3))))
    assert len(raw) == 8 + 8 + 24


def test_header_layout():
    raw = tensor_to_bytes(Tensor2D.from_array(np.zeros((2, 3))))
    assert raw[0:4] == b"FTEN"
    assert raw[4] == 1  # version
    assert raw[5] == 1  # dtype f32
    assert raw[6] == 2  # ndim
    assert raw[7] == 0  # reserved
    assert struct.unpack_from("<II", raw, 8) == (2, 3)  # H, W


def test_3d_dims_order_is_chw():
    raw = tensor_to_bytes(Tensor3D.from_array(np.zeros((2, 5, 7))))
    assert raw[6] == 3
    assert struct.unpack_from("<III", raw, 8) == (2, 5, 7)


def test_roundtrip_bitwise_2d():
    data = np.array([[0.5, -1.25], [3.0, 1e-8]])
    out = tensor_from_bytes(tensor_to_bytes(Tensor2D.from_array(data)))
    assert isinstance(out, Tensor2D)
    assert np.asarray(out).tobytes() == data.astype(np.float32).astype(np.float64).tobytes()


def test_file_roundtrip(tmp_path):
    t = Tensor3D.from_array(np.linspace(0, 1, 30).astype(np.float32).reshape(2, 3, 5))
    p = tmp_path / "t.ften"
    write_tensor(t, p)
    back = read_tensor(p)
    assert isinstance(back, Tensor3D)
    assert np.array_equal(np.asarray(back), np.asarray(t))


@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_roundtrip_bitwise_property(values):
    data = np.array(values, dtype=np.float32).reshape(2, 3).astype(np.float64)
    out = tensor_from_bytes(tensor_to_bytes(Tensor2D.from_array(data)))
    assert np.asarray(out).tobytes() == data.tobytes()


def _valid_bytes():
    return bytearray(tensor_to_bytes(Tensor2D.from_array(np.zeros((2, 3)))))


def test_bad_magic_offset():
    raw = _valid_bytes()
    raw[0:4] = b"NOPE"
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 0


def test_bad_version_offset():
    raw = _valid_bytes()
    raw[4] = 9
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 4


def test_bad_dtype_offset():
    raw = _valid_bytes()
    raw[5] = 7
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 5


def test_bad_ndim_offset():
    raw = _valid_bytes()
    raw[6] = 4
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 6


def test_nonzero_reserved_offset():
    raw = _valid_bytes()
    raw[7] = 1
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 7


def test_zero_dim_rejected():
    raw = _valid_bytes()
    raw[8:12] = struct.pack("<I", 0)
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == 8


def test_truncated_payload():
    raw = bytes(_valid_bytes())[:-4]
    with pytest.raises(FtenFormatError):
        tensor_from_bytes(raw)


def test_excess_payload():
    raw = bytes(_valid_bytes()) + b"\x00\x00\x00\x00"
    with pytest.raises(FtenFormatError):
        tensor_from_bytes(raw)


def test_dims_whose_product_overflows_int64_are_rejected():
    # 2**22 * 2**21 * 2**21 = 2**64 wraps to 0 in int64 and would pass the
    # length check of an empty payload
    raw = struct.pack("<4sBBBB3I", b"FTEN", 1, 1, 3, 0, 2**22, 2**21, 2**21)
    with pytest.raises(FtenFormatError) as e:
        tensor_from_bytes(raw)
    assert e.value.offset == 20


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3)])
def test_non_finite_payload_rejected_at_its_offset(value, shape):
    # the writer refuses non-finite values, so the payload is patched by hand
    t = (Tensor2D if len(shape) == 2 else Tensor3D).from_array(np.zeros(shape))
    raw = bytearray(tensor_to_bytes(t))
    at = 8 + 4 * len(shape) + 4 * 4
    raw[at:at + 4] = np.float32(value).tobytes()
    with pytest.raises(FtenFormatError, match="non-finite value") as e:
        tensor_from_bytes(bytes(raw))
    assert e.value.offset == at


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39])
@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3)])
def test_writer_refuses_values_not_finite_as_float32(value, shape, tmp_path):
    # 1e39 is finite as float64 but overflows float32 to inf
    data = np.zeros(shape)
    data.flat[4] = value
    t = (Tensor2D if len(shape) == 2 else Tensor3D).from_array(data)
    with pytest.raises(ValueError, match=r"at element 4 is not finite as float32"):
        tensor_to_bytes(t)
    with pytest.raises(ValueError, match=r"at element 4"):
        write_tensor(t, tmp_path / "t.ften")
    assert not (tmp_path / "t.ften").exists()


def test_writer_keeps_the_largest_float32():
    big = float(np.finfo(np.float32).max)
    data = np.array([[big, -big]])
    out = tensor_from_bytes(tensor_to_bytes(Tensor2D.from_array(data)))
    assert np.array_equal(np.asarray(out), data)


def test_read_tensor_errors_name_the_file(tmp_path):
    p = tmp_path / "t.ften"
    raw = _valid_bytes()
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(FtenFormatError) as e:
        read_tensor(p)
    assert e.value.offset == 4
    assert str(e.value) == f"{p}: unsupported version 9 (byte offset 4)"


def _decodes_or_format_error(buf):
    try:
        t = tensor_from_bytes(bytes(buf))
    except FtenFormatError:
        return
    assert isinstance(t, (Tensor2D, Tensor3D))
    assert np.isfinite(np.asarray(t)).all()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_fuzz_arbitrary_bytes(buf):
    _decodes_or_format_error(buf)
    _decodes_or_format_error(b"FTEN\x01\x01" + buf)


def _dims(n):
    """n dims: small, anywhere in uint32, or powers of two whose product may pass 2**63."""
    return st.one_of(*(st.lists(d, min_size=n, max_size=n) for d in (
        st.integers(0, 4), st.integers(0, 2**32 - 1),
        st.integers(20, 31).map(lambda k: 1 << k))))


@st.composite
def _mutated_ften(draw):
    """A valid 2-d or 3-d FTEN buffer with header bytes, dims, payload or length altered."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    buf = bytearray(tensor_to_bytes(
        (Tensor2D if len(shape) == 2 else Tensor3D).from_array(np.ones(shape))))
    dims_end = 8 + 4 * len(shape)
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["byte", "dims", "payload", "length"]))
        if field == "byte" and buf:
            buf[draw(st.integers(0, min(len(buf), dims_end) - 1))] = draw(st.integers(0, 255))
        elif field == "payload" and len(buf) >= dims_end + 4:
            # one whole value, often a NaN or an infinity
            at = dims_end + 4 * draw(st.integers(0, (len(buf) - dims_end) // 4 - 1))
            value = draw(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                                   st.floats(width=32)))
            buf[at:at + 4] = np.float32(value).tobytes()
        elif field == "dims":
            dims = draw(_dims(len(shape)))
            buf[8:dims_end] = struct.pack(f"<{len(dims)}I", *dims)
        elif field == "length":
            end = draw(st.one_of(st.just(dims_end), st.integers(0, len(buf) + 8)))
            buf = buf[:end] + bytes(max(0, end - len(buf)))
    return buf


@settings(max_examples=500, deadline=None)
@given(_mutated_ften())
def test_fuzz_mutated_headers(buf):
    _decodes_or_format_error(buf)
