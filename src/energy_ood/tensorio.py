"""Binary tensor container and archive I/O.

Single-tensor files are little-endian throughout: magic ``FTSR``, a version
byte (1), a dtype byte (1 = f32, 2 = u32, 3 = f64), a rank byte (1 or 2),
one zero pad byte, ``rank`` u64 extents, then the payload row-major.
Which dtype and rank each kind of input file must have is
``featurestore.FILE_KINDS``; the f64 code exists so model archives reload
bit-exactly.

Archives hold named tensors in one file: magic ``FTAR``, a version byte,
a u16 entry count, then per entry a u16 name length, the UTF-8 name, and a
complete single-tensor record. No name may appear twice.

Both kinds of file are read whole into one buffer by one reader. The
writers check every array first, then write each header followed by its
array's own buffer, so no record is built in memory.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"FTSR"
ARCHIVE_MAGIC = b"FTAR"
VERSION = 1

_CODE_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<u4"), 3: np.dtype("<f8")}
_NAME_TO_CODE = {"float32": 1, "uint32": 2, "float64": 3}


class TensorFormatError(ValueError):
    """Malformed tensor container; the message ends with the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")


def read_record(buf, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor record from the bytes-like ``buf`` at ``offset``.

    Returns the decoded array, a view of ``buf`` (writable if ``buf`` is),
    and the offset one past the record's last byte.
    """
    if len(buf) < offset + 8:
        raise TensorFormatError("file ends inside the fixed header", len(buf))
    if buf[offset : offset + 4] != MAGIC:
        raise TensorFormatError(f"expected magic {MAGIC!r}", offset)
    version = buf[offset + 4]
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}", offset + 4)
    code = buf[offset + 5]
    if code not in _CODE_TO_DTYPE:
        raise TensorFormatError(f"unknown dtype code {code}", offset + 5)
    rank = buf[offset + 6]
    if rank not in (1, 2):
        raise TensorFormatError(f"rank {rank} not supported (must be 1 or 2)", offset + 6)
    if buf[offset + 7] != 0:
        raise TensorFormatError(f"nonzero pad byte {buf[offset + 7]}", offset + 7)

    dims_off = offset + 8
    if len(buf) < dims_off + 8 * rank:
        raise TensorFormatError("file ends inside the extent list", len(buf))
    dims = struct.unpack_from(f"<{rank}Q", buf, dims_off)
    for i, d in enumerate(dims):
        if d < 1:
            raise TensorFormatError(f"extent {i} is zero", dims_off + 8 * i)

    dtype = _CODE_TO_DTYPE[code]
    payload_off = dims_off + 8 * rank
    count = math.prod(dims)  # Python ints: a product past 2**64 must not wrap
    need = count * dtype.itemsize
    if len(buf) < payload_off + need:
        raise TensorFormatError(
            f"payload needs {need} bytes, file supplies {len(buf) - payload_off}",
            len(buf),
        )
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=payload_off)
    return flat.reshape(dims), payload_off + need


def _record_parts(arr) -> tuple[bytes, np.ndarray]:
    """``arr``'s record header, and its payload as a C-contiguous little-endian array."""
    arr = np.asarray(arr)
    if arr.dtype.name not in _NAME_TO_CODE:
        raise ValueError(f"dtype {arr.dtype} not storable; use float32, uint32 or float64")
    if arr.ndim not in (1, 2):
        raise ValueError(f"rank {arr.ndim} not storable; use rank 1 or 2")
    if arr.size == 0:
        raise ValueError("zero-size tensors are not storable")
    code = _NAME_TO_CODE[arr.dtype.name]
    head = MAGIC + bytes([VERSION, code, arr.ndim, 0])
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return head, np.ascontiguousarray(little)


def _read_file(path) -> bytearray:
    """The whole of ``path``, read once into one writable buffer."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf):]
        buf += fh.read()  # whatever lies past the size fstat gave, as in a pipe
    return buf


def load_tensor(path) -> np.ndarray:
    """Read a single-tensor file, validating header and payload length.

    The array returned is a writable view of the buffer the file is read into.
    """
    buf = _read_file(path)
    arr, end = read_record(buf)
    if end != len(buf):
        raise TensorFormatError(f"{len(buf) - end} trailing bytes after payload", end)
    return arr


def write_tensor(path, arr: np.ndarray) -> None:
    """Write ``arr``'s record; a C-contiguous little-endian ``arr`` is not copied."""
    parts = _record_parts(arr)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def write_archive(path, entries: dict[str, np.ndarray]) -> None:
    """Write named tensors to one archive file in entry order, all checked first."""
    if len(entries) > 0xFFFF:
        raise ValueError("too many archive entries")
    parts = [ARCHIVE_MAGIC + bytes([VERSION]) + struct.pack("<H", len(entries))]
    for name, arr in entries.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"entry name too long: {name!r}")
        head, payload = _record_parts(arr)
        parts += [struct.pack("<H", len(raw)) + raw + head, payload]
    with open(path, "wb") as fh:
        fh.writelines(parts)


def archive_scalar(entries: dict[str, np.ndarray], name: str) -> float:
    """The one value stored under ``name``; ValueError if it is absent or not one element."""
    if name not in entries:
        raise ValueError(f"archive has no {name!r} entry")
    arr = entries[name]
    if arr.size != 1:
        raise ValueError(f"archive entry {name!r} must hold one value, got shape {arr.shape}")
    return float(arr.ravel()[0])


def read_archive(path) -> dict[str, np.ndarray]:
    buf = _read_file(path)
    if len(buf) < 7:
        raise TensorFormatError("file ends inside the archive header", len(buf))
    if buf[:4] != ARCHIVE_MAGIC:
        raise TensorFormatError(f"expected magic {ARCHIVE_MAGIC!r}", 0)
    if buf[4] != VERSION:
        raise TensorFormatError(f"unsupported archive version {buf[4]}", 4)
    (count,) = struct.unpack_from("<H", buf, 5)
    entries: dict[str, np.ndarray] = {}
    off = 7
    for _ in range(count):
        if len(buf) < off + 2:
            raise TensorFormatError("file ends inside an entry header", len(buf))
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        if len(buf) < off + nlen:
            raise TensorFormatError("file ends inside an entry name", len(buf))
        try:
            name = buf[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise TensorFormatError("entry name is not UTF-8", off) from None
        if name in entries:
            raise TensorFormatError(f"entry {name!r} appears twice", off)
        off += nlen
        # a copy: an entry's payload offset depends on the name lengths, so a
        # view of it could be unaligned
        arr, off = read_record(buf, off)
        entries[name] = arr.copy()
    if off != len(buf):
        raise TensorFormatError(f"{len(buf) - off} trailing bytes after last entry", off)
    return entries
