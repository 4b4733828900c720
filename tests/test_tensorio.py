import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energy_ood.tensorio import (
    BadMagicError,
    TensorFormatError,
    TruncatedPayloadError,
    UnknownDtypeError,
    UnknownRankError,
    load_tensor,
    read_archive,
    read_record,
    tensor_bytes,
    write_archive,
    write_tensor,
)


def raw_file(dtype_code, dims, payload, magic=b"FTSR", version=1, pad=0):
    head = magic + bytes([version, dtype_code, len(dims), pad])
    head += struct.pack(f"<{len(dims)}Q", *dims)
    return head + payload


def test_round_trip_2x3(tmp_path):
    path = tmp_path / "t.f32"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(path, arr)
    out = load_tensor(path)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, arr)


def test_truncated_payload(tmp_path):
    payload = np.arange(5, dtype="<f4").tobytes()  # 5 values for a 2x3 tensor
    path = tmp_path / "bad.f32"
    path.write_bytes(raw_file(1, [2, 3], payload))
    with pytest.raises(TruncatedPayloadError):
        load_tensor(path)


def test_bad_magic_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(1, [1], b"\0" * 4, magic=b"NOPE"))
    with pytest.raises(BadMagicError) as exc:
        load_tensor(path)
    assert exc.value.offset == 0


def test_unknown_dtype_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(9, [1], b"\0" * 4))
    with pytest.raises(UnknownDtypeError) as exc:
        load_tensor(path)
    assert exc.value.offset == 5


def test_unknown_rank_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(1, [1, 1, 1], b"\0" * 4))
    with pytest.raises(UnknownRankError) as exc:
        load_tensor(path)
    assert exc.value.offset == 6


def test_bad_version_and_pad(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(1, [1], b"\0" * 4, version=2))
    with pytest.raises(TensorFormatError) as exc:
        load_tensor(path)
    assert exc.value.offset == 4

    path.write_bytes(raw_file(1, [1], b"\0" * 4, pad=7))
    with pytest.raises(TensorFormatError) as exc:
        load_tensor(path)
    assert exc.value.offset == 7


def test_payload_size_does_not_wrap(tmp_path):
    # (2**62 + 1) * 4 wraps to 4 in 64 bits, which 16 bytes of f32 would satisfy
    path = tmp_path / "bad"
    path.write_bytes(raw_file(1, [2**62 + 1, 4], np.zeros(4, "<f4").tobytes()))
    with pytest.raises(TruncatedPayloadError, match="payload needs 73786976294838206480 "
                                                    "bytes, file supplies 16") as exc:
        load_tensor(path)
    assert exc.value.offset == 40


def test_load_holds_the_file_once(tmp_path):
    # the array is a writable view of the one buffer the file is read into
    path = tmp_path / "big.f32"
    write_tensor(path, np.arange(2_000_000, dtype=np.float32).reshape(1000, 2000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        out = load_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.flags.writeable
    out[0, 0] = -1.0
    assert out[0, 0] == -1.0 and out[999, 1999] == 1_999_999.0
    assert peak <= 1.25 * size


def test_load_from_a_pipe(tmp_path):
    # a pipe has no size to read up front, as with `score --features <(...)`
    path, arr = tmp_path / "fifo", np.arange(6, dtype=np.float32).reshape(2, 3)
    os.mkfifo(path)
    writer = threading.Thread(target=write_tensor, args=(path, arr))
    writer.start()
    out = load_tensor(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(out, arr)


def test_zero_extent_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(1, [0, 3], b""))
    with pytest.raises(TensorFormatError) as exc:
        load_tensor(path)
    assert exc.value.offset == 8


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(raw_file(2, [2], np.arange(2, dtype="<u4").tobytes()) + b"xx")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_writer_rejects_bad_arrays(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x", np.zeros((2, 2), dtype=np.int16))
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x", np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x", np.zeros((0,), dtype=np.float32))


@st.composite
def tensors(draw):
    dtype = draw(st.sampled_from([np.float32, np.uint32, np.float64]))
    rank = draw(st.integers(1, 2))
    dims = [draw(st.integers(1, 8)) for _ in range(rank)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if dtype is np.uint32:
        return rng.integers(0, 2**32, size=dims, dtype=np.uint32)
    return rng.standard_normal(dims).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(tensors())
def test_round_trip_bytes_identical(arr):
    # write(load(f)) must reproduce f byte for byte
    blob = tensor_bytes(arr)
    decoded, end = read_record(blob)
    assert end == len(blob)
    assert tensor_bytes(decoded) == blob
    np.testing.assert_array_equal(decoded, arr)
    assert decoded.dtype == arr.dtype


def test_archive_round_trip(tmp_path):
    path = tmp_path / "a.ftar"
    entries = {
        "means": np.random.default_rng(0).standard_normal((3, 2)),
        "count": np.array([5], dtype=np.uint32),
        "w": np.ones((1, 4), dtype=np.float32),
    }
    write_archive(path, entries)
    out = read_archive(path)
    assert list(out) == ["means", "count", "w"]
    for key in entries:
        np.testing.assert_array_equal(out[key], entries[key])
        assert out[key].dtype == np.asarray(entries[key]).dtype


def test_archive_f64_exact(tmp_path):
    # model archives must hold float64 without rounding
    path = tmp_path / "a.ftar"
    vals = np.array([[np.pi, np.e], [1 / 3, 2 / 3]])
    write_archive(path, {"x": vals})
    assert read_archive(path)["x"].tobytes() == vals.tobytes()


def test_archive_repeated_name_rejected(tmp_path):
    # write_archive takes a dict and cannot repeat a name, so the bytes are
    # built here: two ``temperature`` entries, the second at offset len(head)
    def entry(name, value):
        raw = name.encode("utf-8")
        return struct.pack("<H", len(raw)) + raw + tensor_bytes(np.array([value]))

    head = b"FTAR" + bytes([1]) + struct.pack("<H", 2) + entry("temperature", 1.0)
    path = tmp_path / "a.ftar"
    path.write_bytes(head + entry("temperature", 2.0))
    with pytest.raises(TensorFormatError, match="'temperature' appears twice") as exc:
        read_archive(path)
    assert exc.value.offset == len(head) + 2  # the name, after its u16 length


def test_archive_name_not_utf8_rejected(tmp_path):
    path = tmp_path / "a.ftar"
    head = b"FTAR" + bytes([1]) + struct.pack("<H", 1) + struct.pack("<H", 2)
    path.write_bytes(head + b"\xff\xfe" + tensor_bytes(np.array([1.0])))
    with pytest.raises(TensorFormatError, match="entry name is not UTF-8") as exc:
        read_archive(path)
    assert exc.value.offset == len(head) == 9


def test_archive_truncation(tmp_path):
    path = tmp_path / "a.ftar"
    write_archive(path, {"x": np.ones(3, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(TruncatedPayloadError):
        read_archive(path)
