"""Toeplitz-matrix hashing over GF(2).

Extraction hashes each block of m raw bits to K output bits with the
modified Toeplitz matrix ``(I_K | T)``: ``y = x[:K] XOR T x[K:]``, where T
is the K x M Toeplitz matrix (M = m - K) ``T[i][j] = seed[i - j + M - 1]``
on a seed of ``m - 1`` bits.  This indexing convention is normative.  The
family is dual universal2 (Hayashi and Tsurumaru, IEEE Trans. Inf. Theory
62, 2213 (2016), arXiv:1311.5322), the property that privacy
amplification by phase-error correction needs.  When K = m, T is empty:
the block is its own output and takes no seed bits.

``T x[K:]`` is the band of coefficients ``M-1 .. M+K-2`` of the GF(2)
polynomial product ``seed(t) * x[K:](t)``.  The product is evaluated as an
integer convolution by a *circular* real FFT (``numpy.fft``) of length
``L = _smooth_length(m - 1)``, the smallest 2^a 3^b 5^c at or above the
seed length, and reduced mod 2.  The wrap-around adds linear coefficient
``c+L`` to coefficient ``c``; the linear product ends at coefficient
``m + M - 3`` and every band coefficient ``c >= M-1`` has
``c+L >= M+m-2``, so no alias reaches the band and it is exact.  For 0/1
sequences the FFT round-off is bounded far below 1/2 at any block size
this module accepts; a runtime guard checks the margin, so the result is
bit-identical to the naive matrix-vector definition.  The worst margin of
a session is reported as ``fft_max_deviation``.

Long inputs are split into balanced sub-blocks (default around 2**20 raw
bits) extracted independently; each block contributes its own 2**(-t_e)
failure term via a union bound.  One Toeplitz seed, sized for the largest
block, is consumed per session and reused across its blocks: the hash is a
strong extractor, so outputs remain independent of the seed.  Its spectrum
is computed once, and the blocks share one set of FFT scratch arrays.  A
block's band reads only seed indices below its own ``m - 1``, and the
alias argument holds for any seed no longer than ``L``, so the longest
block's seed and its spectrum give every block the same bits as its own
prefix of the seed would.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import BitBlock
from .entropy_math import ProtocolAbortError, SecurityReport, composed_security, final_length
from .estimation import ESTIMATE_ABORT_REASON, EstimationResult
from .seeds import SeedSource

DEFAULT_BLOCK_SIZE = 1 << 20
# FFT round-off guard; actual deviations are ~1e-10 at the default block size
_ROUNDING_GUARD = 0.25


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


def _padded(bits01: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``bits01`` as floats at the front of ``buffer``, zeros after it."""
    buffer[: bits01.size] = bits01
    buffer[bits01.size :] = 0.0
    return buffer


def _hash_band(
    signal01: np.ndarray,
    rows: int,
    spectrum: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, float]:
    """``T x`` mod 2 and its rounding deviation, for the ``rows`` x n
    Toeplitz matrix T whose seed has the spectrum ``spectrum``.

    ``signal01`` is the n-bit input x, and the result is the band of
    coefficients ``n-1 .. n+rows-2`` of the product.  ``spectrum`` is the
    real FFT of a seed of at least ``n + rows - 1`` bits, zero-padded to the
    circular length; only its first ``n + rows - 1`` bits reach the band.
    ``work``, the product's spectrum and a float buffer, is overwritten.
    """
    product, conv = work
    np.fft.rfft(_padded(signal01, conv), out=product)
    product *= spectrum
    np.fft.irfft(product, n=conv.size, out=conv)
    band = conv[signal01.size - 1 : signal01.size - 1 + rows]
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


def _dual_hash_blocks(
    raw01: np.ndarray, shapes: list[tuple[int, int]], seed01: np.ndarray
) -> tuple[np.ndarray, float]:
    """The (I | T) hash of consecutive blocks of ``raw01``, one per
    ``(m, K)`` shape, concatenated, and the worst rounding deviation.

    ``seed01`` has the longest block's seed length; each block reads its
    own prefix of it through the one shared spectrum.  The seed and every
    block share one set of FFT scratch arrays, so that no block faults in
    fresh pages for arrays of the FFT length.
    """
    out = np.empty(sum(k for _, k in shapes), dtype=np.uint8)
    max_deviation = 0.0
    if seed01.size:
        length = _smooth_length(seed01.size)
        work = np.empty(length // 2 + 1, dtype=np.complex128), np.empty(length)
        spectrum = np.fft.rfft(_padded(seed01, work[1]))
    start = filled = 0
    for m, k in shapes:
        block = raw01[start : start + m]
        head = out[filled : filled + k]
        head[...] = block[:k]
        if k < m:
            bits, deviation = _hash_band(block[k:], k, spectrum, work)
            head ^= bits
            max_deviation = max(max_deviation, deviation)
        start += m
        filled += k
    return out, max_deviation


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
    """Extract a whole session, sub-block by sub-block, with the (I | T) hash.

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
        raise ProtocolAbortError(ESTIMATE_ABORT_REASON)
    n_z = len(z_bits)
    if n_z == 0:
        raise ProtocolAbortError("no raw bits to extract")

    sizes = _balanced_blocks(n_z, block_size)
    shapes = [(m, final_length(m, est.e_pz_bound, t_e, efficiency_ratio)) for m in sizes]
    for _, k in shapes:
        if k <= 0:
            raise ProtocolAbortError(f"non-positive output length K={k}")

    # a block's (I | T) hash takes m - 1 seed bits, none when T is empty (K = m)
    seed_length = max(m - 1 if k < m else 0 for m, k in shapes)
    final01, max_deviation = _dual_hash_blocks(
        z_bits.to01(), shapes, seed_source.take_bits(seed_length))
    final = BitBlock.from01(final01)

    report = composed_security(est.eps_theta, t_e, extraction_blocks=len(shapes))
    summary = {
        "n_z": n_z,
        "K": len(final),
        "t_e": t_e,
        "n_blocks": len(shapes),
        "block_sizes": sizes,
        "toeplitz_seed_bits": seed_length,
        "fft_max_deviation": max_deviation,
    }
    return final, report, summary
