"""On-disk formats and atomic file writes.

Packed-bit file (extension-agnostic, normative):
    magic ``b"SIQ1"`` | version byte (1) | bit count, 8-byte little-endian |
    payload bytes, bits packed LSB-first within each byte, zero-padded.

Click-record file:
    magic ``b"SIQC"`` | version byte (1) | pulse count, 8-byte little-endian |
    one byte per pulse: bits 0-1 = pattern (0 none, 1 d0, 2 d1, 3 double),
    bit 2 = basis (0 Z, 1 X), upper bits zero.

The record byte is also the in-memory form of a session's clicks (the
uint8 array :func:`~siqrng.photonic_sim.run_session` returns), so the file
is written from the records and read back into them without conversion.
One byte per pulse is deliberately uncompressed: the records can be
audited with any hex viewer.  All writes go through a temp file + rename
so partial files are never observed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .bits import BitBlock

BIT_MAGIC = b"SIQ1"
CLICK_MAGIC = b"SIQC"
FORMAT_VERSION = 1

_HEADER_BYTES = 13
_MAX_RECORD = 0b111


class FormatError(ValueError):
    """Raised when a file does not match the expected binary format."""


def record_field(doc: dict, key: str, kind: type):
    """``doc[key]`` as a ``kind``: int, float (an int converts), bool or dict.

    A float must be finite: JSON ``NaN`` and ``Infinity`` parse, and so does
    an integer too large for a float, but none of them is a number a record
    can hold.
    """
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise ValueError(f"key {key!r} must be {kind.__name__}, got {value!r}")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"key {key!r} must be a finite number, got {value!r}")
    return number


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


def _header(magic: bytes, count: int) -> bytes:
    return magic + bytes([FORMAT_VERSION]) + count.to_bytes(8, "little")


def _read_payload(path: Path, magic: bytes) -> tuple[bytes, int]:
    """The raw file and the count its header declares, header checked."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header of {len(raw)} bytes")
    if raw[4] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]}")
    return raw, int.from_bytes(raw[5:_HEADER_BYTES], "little")


def write_bit_file(path: Path, block: BitBlock):
    atomic_write_bytes(path, np.ascontiguousarray(block.data), _header(BIT_MAGIC, len(block)))


def read_bit_file(path: Path) -> BitBlock:
    raw, length = _read_payload(path, BIT_MAGIC)
    payload = raw[_HEADER_BYTES:]
    if len(payload) != (length + 7) // 8:
        raise FormatError(
            f"{path}: payload of {len(payload)} bytes cannot hold {length} bits"
        )
    return BitBlock.from_bytes(payload, length)


def write_click_file(path: Path, records: np.ndarray):
    atomic_write_bytes(path, records, _header(CLICK_MAGIC, records.size))


def read_click_file(path: Path) -> np.ndarray:
    raw, count = _read_payload(path, CLICK_MAGIC)
    records = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER_BYTES)
    if records.size != count:
        raise FormatError(f"{path}: {records.size} pulse records, header says {count}")
    if records.size and int(records.max()) > _MAX_RECORD:
        raise FormatError(f"{path}: pulse record with nonzero reserved bits")
    return records


def _finite_or_null(value):
    """``value`` with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: Path, payload: dict):
    """Write ``payload`` as strict JSON: a float that is not finite (such as
    ``log2_theta`` at theta = 0) is written as ``null``, since ``NaN`` and
    ``Infinity`` are no JSON values and strict parsers reject them."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_bytes(path, text.encode() + b"\n")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_record(path: Path, parse):
    """``parse`` applied to the JSON object in ``path``; any ValueError it
    raises is reported with the file's name."""
    try:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        return parse(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
