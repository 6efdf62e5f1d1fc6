"""Auditable input-seed streams.

Every bit of input randomness the protocol consumes (basis planning,
double-click assignment, Toeplitz seed) flows through a :class:`SeedSource`
so that total consumption can be reported exactly.  A source is backed
either by a finite bit block (true seed material) or by a seeded PRNG
(simulation stand-in); both count consumed bits identically.

Consumption order is normative: bits are consumed front-to-back, and
``take(k)`` assembles them into an integer with the first-consumed bit as
the most significant.
"""

from __future__ import annotations

import numpy as np

from .bits import BitBlock


class SeedExhaustedError(RuntimeError):
    """Raised when a finite seed stream runs out of bits."""


class SeedSource:
    def __init__(self, _bits: np.ndarray | None, _rng: np.random.Generator | None):
        self._bits = _bits          # uint8 0/1 array, or None for PRNG-backed
        self._rng = _rng
        self._pos = 0
        self.bits_consumed = 0

    @classmethod
    def from_bits(cls, block: BitBlock) -> "SeedSource":
        """Finite stream over explicit seed material; exhausts."""
        return cls(block.to01(), None)

    @classmethod
    def from_rng(cls, rng: np.random.Generator) -> "SeedSource":
        """Unbounded PRNG-backed stream (simulation); still counts bits."""
        return cls(None, rng)

    def take_bits(self, k: int) -> np.ndarray:
        """Consume k bits, returned as a uint8 0/1 array in consumption order."""
        if k < 0:
            raise ValueError(f"cannot take {k} bits")
        if self._bits is not None:
            if self._pos + k > self._bits.size:
                raise SeedExhaustedError(
                    f"seed stream exhausted: need {k} bits, "
                    f"{self._bits.size - self._pos} left"
                )
            out = self._bits[self._pos : self._pos + k]
            self._pos += k
        else:
            out = self._rng.integers(0, 2, size=k, dtype=np.uint8)
        self.bits_consumed += k
        return out

    def take(self, k: int) -> int:
        """Consume k bits as an integer, first bit most significant."""
        bits = self.take_bits(k)
        if k == 0:
            return 0
        packed = np.packbits(bits)  # big-endian within bytes, zero-padded at the end
        return int.from_bytes(packed.tobytes(), "big") >> (-k % 8)
