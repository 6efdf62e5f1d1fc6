"""On-disk formats and atomic file writes.

Packed-bit file (extension-agnostic, normative):
    magic ``b"SIQ1"`` | version byte (1) | bit count, 8-byte little-endian |
    payload bytes, bits packed LSB-first within each byte, zero-padded.

Click-record file:
    magic ``b"SIQC"`` | version byte (1) | pulse count, 8-byte little-endian |
    one byte per pulse: bits 0-1 = pattern (0 none, 1 d0, 2 d1, 3 double),
    bit 2 = basis (0 Z, 1 X), upper bits zero.

The record byte is also the in-memory form of a session
(:class:`~siqrng.photonic_sim.ClickStream` holds ``records``), so the file
is written from it and read back into it without conversion.  One byte per
pulse is deliberately uncompressed: the records can be audited with any hex
viewer.  All writes go through a temp file + rename so partial files are
never observed.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .bits import BitBlock
from .photonic_sim import ClickStream

BIT_MAGIC = b"SIQ1"
CLICK_MAGIC = b"SIQC"
FORMAT_VERSION = 1

_HEADER_BYTES = 13
_MAX_RECORD = 0b111


class FormatError(ValueError):
    """Raised when a file does not match the expected binary format."""


def atomic_write_bytes(path: Path, payload, header: bytes = b""):
    """Write ``header`` then ``payload`` via temp file + rename in the
    destination directory.

    ``payload`` is any contiguous buffer (bytes, a uint8 array); it is
    written as it is, without a copy.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bit_file(path: Path, block: BitBlock):
    header = BIT_MAGIC + bytes([FORMAT_VERSION]) + len(block).to_bytes(8, "little")
    atomic_write_bytes(path, header + block.data.tobytes())


def read_bit_file(path: Path) -> BitBlock:
    raw = Path(path).read_bytes()
    if raw[:4] != BIT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {BIT_MAGIC!r}")
    if raw[4] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]}")
    length = int.from_bytes(raw[5:13], "little")
    payload = raw[13:]
    if len(payload) != (length + 7) // 8:
        raise FormatError(
            f"{path}: payload of {len(payload)} bytes cannot hold {length} bits"
        )
    return BitBlock.from_bytes(payload, length)


def write_click_file(path: Path, stream: ClickStream):
    header = CLICK_MAGIC + bytes([FORMAT_VERSION]) + len(stream).to_bytes(8, "little")
    atomic_write_bytes(path, stream.records, header)


def read_click_file(path: Path) -> ClickStream:
    raw = Path(path).read_bytes()
    if raw[:4] != CLICK_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {CLICK_MAGIC!r}")
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header of {len(raw)} bytes")
    if raw[4] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]}")
    count = int.from_bytes(raw[5:_HEADER_BYTES], "little")
    records = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER_BYTES)
    if records.size != count:
        raise FormatError(f"{path}: {records.size} pulse records, header says {count}")
    if records.size and int(records.max()) > _MAX_RECORD:
        raise FormatError(f"{path}: pulse record with nonzero reserved bits")
    return ClickStream.from_records(records)


def write_json(path: Path, payload: dict):
    atomic_write_bytes(path, json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
