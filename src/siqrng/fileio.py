"""On-disk formats and atomic file writes.

Packed-bit file (extension-agnostic, normative):
    magic ``b"SIQ1"`` | version byte (1) | bit count, 8-byte little-endian |
    payload bytes, bits packed LSB-first within each byte, zero-padded.

Click-record file:
    magic ``b"SIQC"`` | version byte (1) | pulse count, 8-byte little-endian |
    one byte per pulse: bits 0-1 = pattern (0 none, 1 d0, 2 d1, 3 double),
    bit 2 = basis (0 Z, 1 X), upper bits zero.

The record byte is also the in-memory form of a session's clicks (the
chunks :func:`~siqrng.photonic_sim.run_session` hands to its sink), so
each chunk is written at its place in the file, and read back, without
conversion.  A session's records are never held whole: a
:class:`ClickFileWriter` takes them chunk by chunk, from the two threads
that simulate them, and :func:`read_click_file` hands them on chunk by
chunk.  One byte per pulse is deliberately uncompressed: the records can
be audited with any hex viewer.  All writes go through a temp file +
rename, the click file's after its last writer is done, so partial files
are never observed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .bits import BitBlock
from .photonic_sim import CHUNK, X_RECORD, Pattern

BIT_MAGIC = b"SIQ1"
CLICK_MAGIC = b"SIQC"
FORMAT_VERSION = 1

_HEADER_BYTES = 13
_MAX_RECORD = X_RECORD | Pattern.DOUBLE


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


def _header_count(path: Path, raw: bytes, magic: bytes) -> int:
    """The count the header at the start of ``raw`` declares, header checked."""
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header of {len(raw)} bytes")
    if raw[4] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]}")
    return int.from_bytes(raw[5:_HEADER_BYTES], "little")


def write_bit_file(path: Path, block: BitBlock):
    atomic_write_bytes(path, np.ascontiguousarray(block.data), _header(BIT_MAGIC, len(block)))


def read_bit_file(path: Path) -> BitBlock:
    raw = Path(path).read_bytes()
    length = _header_count(path, raw, BIT_MAGIC)
    payload = raw[_HEADER_BYTES:]
    if len(payload) != (length + 7) // 8:
        raise FormatError(
            f"{path}: payload of {len(payload)} bytes cannot hold {length} bits"
        )
    return BitBlock.from_bytes(payload, length)


class ClickFileWriter:
    """The click file of a session of ``count`` pulses, written chunk by
    chunk, in any order, by any number of threads at once.

    Used as a context manager: :meth:`write` puts records at their place in
    a temp file in the destination directory, and a clean exit renames it
    onto ``path`` once every record is written.  An exception, raised by a
    writer or by the block, removes the temp file instead, so neither a
    partial ``path`` nor the temp file is left behind.
    """

    def __init__(self, path: Path, count: int):
        self.path = Path(path)
        self.count = count
        self._written = []  # records per write; list.append is atomic

    def __enter__(self) -> "ClickFileWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd, self._tmp = tempfile.mkstemp(dir=self.path.parent,
                                               prefix=self.path.name + ".tmp")
        try:
            os.pwrite(self._fd, _header(CLICK_MAGIC, self.count), 0)
        except BaseException:
            os.close(self._fd)
            os.unlink(self._tmp)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            os.close(self._fd)
            if exc_type is None:
                if len(self) != self.count:
                    raise ValueError(f"{self.path}: {len(self)} of {self.count} "
                                     "pulse records written")
                os.replace(self._tmp, self.path)
        finally:
            if os.path.exists(self._tmp):
                os.unlink(self._tmp)

    def __len__(self) -> int:
        """The records written so far."""
        return sum(self._written)

    def write(self, start: int, records: np.ndarray):
        """Write the records of pulses ``start, start + 1, ...``; safe to
        call from several threads at once."""
        if start < 0 or start + records.size > self.count:
            raise ValueError(f"{self.path}: records {start}..{start + records.size} "
                             f"outside the {self.count} pulses")
        written = os.pwrite(self._fd, records, _HEADER_BYTES + start)
        if written != records.size:
            raise OSError(f"{self.path}: short write of {written} of {records.size} bytes")
        self._written.append(written)

    def span(self, start: int):
        """The chunk writer of the span starting at pulse ``start``, as
        :func:`~siqrng.photonic_sim.run_session` asks of its sink: every
        span's chunks go to their place through :meth:`write`."""
        return self.write


def read_click_file(path: Path, make_sink):
    """Hand the records of the click file ``path`` to a sink, chunk by chunk.

    ``make_sink(count)`` builds the sink from the pulse count the header
    declares; ``sink.span(0)`` then takes chunks ``(lo, records)`` of up to
    :data:`~siqrng.photonic_sim.CHUNK` records in pulse order, each read into
    one reused buffer, so a sink keeps a copy of what it needs.  Returns the
    sink.  The header and the payload length are checked before the first
    chunk, the reserved bits of each chunk before it is handed on; every
    :class:`FormatError` names the file.
    """
    with open(path, "rb") as fh:
        count = _header_count(path, fh.read(_HEADER_BYTES), CLICK_MAGIC)
        payload = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
        if payload != count:
            raise FormatError(f"{path}: {payload} pulse records, header says {count}")
        sink = make_sink(count)
        add = sink.span(0)
        buffer = np.empty(min(CHUNK, count), dtype=np.uint8)
        for lo in range(0, count, CHUNK):
            records = buffer[: min(CHUNK, count - lo)]
            if fh.readinto(records) != records.size:
                raise FormatError(f"{path}: payload ends before pulse {count}")
            if int(records.max()) > _MAX_RECORD:
                bad = lo + int(np.argmax(records > _MAX_RECORD))
                raise FormatError(f"{path}: pulse record {bad} with nonzero reserved bits")
            add(lo, records)
    return sink


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
    raises, and the RecursionError of too deep a nesting, is reported with
    the file's name."""
    try:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        return parse(doc)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
