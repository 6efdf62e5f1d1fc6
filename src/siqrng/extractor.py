"""Toeplitz-matrix hashing over GF(2).

The extraction matrix T has shape K x n_z and is constant along
diagonals: ``T[i][j] = seed[i - j + n_z - 1]`` for a seed of
``n_z + K - 1`` bits, and ``y[i] = XOR_j T[i][j] & x[j]``.  This indexing
convention is normative; the fast path below computes the same map as a
GF(2) polynomial product, taking the band of coefficients
``n_z-1 .. n_z+K-2`` of ``seed(t) * x(t)``.

The product is evaluated as an integer convolution by a *circular* real
FFT (``numpy.fft``) of length ``L = _smooth_length(seed_length)``, the
smallest 2^a 3^b 5^c at or above the seed length, and reduced mod 2.  The
wrap-around adds linear coefficient ``c+L`` to coefficient ``c``; the
linear product ends at coefficient ``n_z + seed_length - 2`` and every band
coefficient has ``c+L >= n_z-1+seed_length``, so no alias reaches the band
and it is exact.  For 0/1 sequences the FFT round-off is bounded far below
1/2 at any block size this module accepts; a runtime guard checks the
margin, so the result is bit-identical to the naive matrix-vector
definition.  The worst margin of a session is reported as
``fft_max_deviation``.

Long inputs are split into balanced sub-blocks (default around 2**20 raw
bits) extracted independently; each block contributes its own 2**(-t_e)
failure term via a union bound.  One Toeplitz seed, sized for the largest
block, is consumed per session and reused across its blocks: the hash is a
strong extractor, so outputs remain independent of the seed.  Its spectrum
is computed once, and the blocks share one set of FFT scratch arrays.  A
block's band reads only seed indices below its own ``seed_length``, and
the alias argument holds for any seed no longer than ``L``, so the
longest block's seed and its spectrum give every block the same bits as
its own prefix of the seed would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitBlock
from .entropy_math import ProtocolAbortError, SecurityReport, composed_security, final_length
from .estimation import EstimationResult
from .seeds import SeedSource

DEFAULT_BLOCK_SIZE = 1 << 20
# FFT round-off guard; actual deviations are ~1e-10 at the default block size
_ROUNDING_GUARD = 0.25


@dataclass(frozen=True)
class ExtractionPlan:
    """Shape of one Toeplitz extraction: n_z raw bits -> K output bits."""

    n_z: int
    K: int

    def __post_init__(self):
        if self.K <= 0:
            raise ProtocolAbortError(f"non-positive output length K={self.K}")
        if self.K > self.n_z:
            raise ValueError(f"output length K={self.K} exceeds input n_z={self.n_z}")

    @property
    def seed_length(self) -> int:
        return self.n_z + self.K - 1


def _smooth_length(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n >= 1: a length whose
    real FFT factors into radix-2, -3 and -5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _seed_spectrum(seed01: np.ndarray) -> tuple[np.ndarray, int]:
    """Real-FFT spectrum of a seed at the circular length ``_smooth_length(len(seed01))``."""
    length = _smooth_length(seed01.size)
    return np.fft.rfft(seed01.astype(np.float64), n=length), length


def _fft_work(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for one block at the circular length: the spectrum of the
    product and the convolution.  A session reuses it for every block, so
    that no block faults in fresh pages for arrays of the FFT length."""
    return np.empty(length // 2 + 1, dtype=np.complex128), np.empty(length)


def _hash_band(
    raw01: np.ndarray,
    spectrum: np.ndarray,
    plan: ExtractionPlan,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, float]:
    """Output bits of one block and its rounding deviation.

    ``spectrum`` comes from :func:`_seed_spectrum` on a seed of at least
    ``plan.seed_length`` bits; only its first ``plan.seed_length`` bits
    reach the band.  ``work`` comes from :func:`_fft_work` at the same
    length and is overwritten.
    """
    product, conv = work
    length = conv.size
    signal = conv[: raw01.size]  # the block as floats, until the convolution overwrites it
    signal[...] = raw01
    np.fft.rfft(signal, n=length, out=product)
    product *= spectrum
    np.fft.irfft(product, n=length, out=conv)
    band = conv[plan.n_z - 1 : plan.n_z - 1 + plan.K]
    counts = np.rint(band)
    band -= counts
    deviation = float(np.max(np.abs(band, out=band))) if band.size else 0.0
    if deviation >= _ROUNDING_GUARD:
        raise ArithmeticError(
            f"FFT convolution rounding margin violated (deviation {deviation:.3g})"
        )
    parity = counts.astype(np.int64)
    parity &= 1
    return parity.astype(np.uint8), deviation


def toeplitz_extract(raw: BitBlock, seed: BitBlock, plan: ExtractionPlan) -> BitBlock:
    """Apply the K x n_z Toeplitz hash defined by ``seed`` to ``raw``.

    Raises
    ------
    ValueError
        If the input or seed length does not match the plan.
    """
    if len(raw) != plan.n_z:
        raise ValueError(f"raw length {len(raw)} != plan n_z {plan.n_z}")
    if len(seed) != plan.seed_length:
        raise ValueError(f"seed length {len(seed)} != plan seed length {plan.seed_length}")
    spectrum, length = _seed_spectrum(seed.to01())
    bits, _ = _hash_band(raw.to01(), spectrum, plan, _fft_work(length))
    return BitBlock.from01(bits)


def _balanced_blocks(n: int, block_size: int) -> list[int]:
    """Split n into nearly equal parts no larger than block_size."""
    n_blocks = max(1, math.ceil(n / block_size))
    base, extra = divmod(n, n_blocks)
    return [base + (1 if i < extra else 0) for i in range(n_blocks)]


def extract_session(
    z_bits: BitBlock,
    est: EstimationResult,
    t_e: int,
    seed_source: SeedSource,
    block_size: int = DEFAULT_BLOCK_SIZE,
    efficiency_ratio: float = 1.0,
) -> tuple[BitBlock, SecurityReport, dict]:
    """Extract a whole session, sub-block by sub-block.

    Returns the concatenated output, the composed security report
    (``eps_f = eps_theta + n_blocks * 2**(-t_e)``), and a summary dict with
    block shapes, exact Toeplitz seed consumption and the worst FFT rounding
    deviation of any block.  Each block's length comes from
    :func:`~siqrng.entropy_math.final_length` at the efficiency ratio.

    Raises
    ------
    ProtocolAbortError
        If the session aborted, is empty, its scaled error rate reaches 1/2,
        or a block yields no output; no seed is drawn then.
    SeedExhaustedError
        If the seed source cannot supply the Toeplitz seed.
    """
    if est.abort:
        raise ProtocolAbortError("cannot extract an aborted session")
    n_z = len(z_bits)
    if n_z == 0:
        raise ProtocolAbortError("no raw bits to extract")

    sizes = _balanced_blocks(n_z, block_size)
    plans = [ExtractionPlan(n_z=m, K=final_length(m, est.e_pz_bound, t_e, efficiency_ratio))
             for m in sizes]

    seed_length = max(p.seed_length for p in plans)
    spectrum, length = _seed_spectrum(seed_source.take_bits(seed_length))
    work = _fft_work(length)

    z01 = z_bits.to01()
    outputs = []
    max_deviation = 0.0
    start = 0
    for plan in plans:
        bits, deviation = _hash_band(z01[start : start + plan.n_z], spectrum, plan, work)
        outputs.append(bits)
        max_deviation = max(max_deviation, deviation)
        start += plan.n_z
    final = BitBlock.from01(np.concatenate(outputs))

    report = composed_security(est.eps_theta, t_e, extraction_blocks=len(plans))
    summary = {
        "n_z": n_z,
        "K": len(final),
        "t_e": t_e,
        "n_blocks": len(plans),
        "block_sizes": sizes,
        "toeplitz_seed_bits": seed_length,
        "fft_max_deviation": max_deviation,
    }
    return final, report, summary
