"""Packed bit blocks.

Bits are stored packed 8-per-byte, least-significant-bit first within each
byte, so that bit ``i`` of the block lives at ``data[i // 8] >> (i % 8) & 1``.
This matches the on-disk packed-bit format (see :mod:`siqrng.fileio`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BitBlock:
    """Immutable sequence of bits, packed LSB-first into bytes.

    Attributes
    ----------
    data : np.ndarray
        uint8 array of ceil(length / 8) bytes; pad bits beyond `length`
        are zero.
    length : int
        Number of valid bits.
    """

    data: np.ndarray
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative bit length {self.length}")
        if self.data.dtype != np.uint8:
            raise TypeError("BitBlock data must be uint8")
        if self.data.size != (self.length + 7) // 8:
            raise ValueError(
                f"byte buffer of {self.data.size} bytes cannot hold exactly "
                f"{self.length} bits"
            )

    @classmethod
    def from01(cls, bits: Sequence[int] | np.ndarray) -> "BitBlock":
        """Build from a sequence of 0/1 values."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("expected a 1-d bit sequence")
        if arr.size and arr.max() > 1:
            raise ValueError("bit values must be 0 or 1")
        return cls(np.packbits(arr, bitorder="little"), int(arr.size))

    @classmethod
    def from_bytes(cls, raw: bytes, length: int) -> "BitBlock":
        arr = np.frombuffer(raw, dtype=np.uint8).copy()
        block = cls(arr, length)
        block._check_padding()
        return block

    def _check_padding(self):
        pad = 8 * self.data.size - self.length
        if pad and self.data.size and (self.data[-1] >> (8 - pad)):
            raise ValueError("nonzero padding bits in final byte")

    def to01(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Unpack bits ``start`` to ``stop`` (default: all) to a uint8 array
        of 0/1 values; only the bytes that hold them are unpacked."""
        stop = self.length if stop is None else stop
        if not 0 <= start <= stop <= self.length:
            raise ValueError(f"bits {start}..{stop} outside a block of {self.length}")
        first = start // 8
        return np.unpackbits(self.data[first : (stop + 7) // 8], count=stop - 8 * first,
                             bitorder="little")[start - 8 * first :]

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitBlock):
            return NotImplemented
        return self.length == other.length and np.array_equal(self.data, other.data)
