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
``c+L >= M+m-2``, so no alias reaches the band and it is exact.  Each
band value is rounded to the nearest integer, and a runtime guard
refuses the band when a value lies 0.25 or more from its nearest
integer.  That is the distance to the nearest integer, not the round-off
error: an error past 1/2 rounds to a wrong integer and can still lie
close to it, so the guard does not prove the result bit-identical to the
naive matrix-vector definition, and no bound on the error is proved here
yet (ROADMAP, "FFT error certificate").  The worst distance of a session
is reported as ``fft_max_deviation``.

Blocks are hashed two at a time by Kronecker substitution (Harvey, J. Symb.
Comput. 44, 1502 (2009)): one transform pair convolves the seed with
``x_a + 2^r x_b``, where ``2^r`` is the smallest power of two above every
block's M, and gives ``c = c_a + 2^r c_b``.  A circular count at any index
sums at most M bit products, so ``0 <= c_b <= M < 2^r``: ``c mod 2^r`` is
``c_a`` and ``c >> r`` is ``c_b`` at every index, and each block's band is
alias-free as above.  ``c < 2^(2r)``, which must stay at or below ``2^50``
(M below 2^25 bits) for float64 to resolve it; larger blocks are refused.
``fft_max_deviation`` is then the worst margin of the packed values, about
7.6e-6 for blocks of 2**20 bits.  A last odd block is hashed alone.

Long inputs are split into balanced sub-blocks of at most ``BLOCK_SIZE``
(2**20) raw bits, extracted independently; each block contributes its own
2**(-t_e) failure term via a union bound, so ``t_e`` below 1, which
certifies nothing, is refused before any seed is drawn.  One Toeplitz
seed, sized for the largest block, is one draw per session, reused across
its blocks: the hash is a strong extractor, so outputs remain independent
of the seed.  Its spectrum is computed once, and the pairs share one set
of FFT scratch arrays.  A block's band reads only seed indices below its
own ``m - 1``, and the alias argument holds for any seed no longer than
``L``, so the longest block's seed and its spectrum give every block the
same bits as its own prefix of the seed would.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import BitBlock
from .entropy_math import ProtocolAbortError, SecurityReport, composed_security, final_length
from .estimation import ESTIMATE_ABORT_REASON, EstimationResult

# raw bits of a block at most; at 2**23 bits and up the FFT error bound
# passes 1/2 (ROADMAP, "FFT error certificate")
BLOCK_SIZE = 1 << 20
# refuses a band value this far or farther from its nearest integer; a
# session of 2**20-bit blocks, hashed in packed pairs, deviates by about
# 7.6e-6.  This bounds the distance to the nearest integer, not the FFT
# error, which no code bounds yet (ROADMAP, "FFT error certificate")
_ROUNDING_GUARD = 0.25
# packed counts stay below 2**50, where float64 spacing (at most 1/8) is
# still below the rounding guard
_MAX_PACKED_BITS = 50


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
    pair: list[tuple[np.ndarray, np.ndarray]],
    shift: int,
    spectrum: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> float:
    """XOR ``T x`` mod 2 into ``head`` for each ``(x, head)`` of ``pair``, one
    or two, in one transform pair; return the rounding deviation.

    T is the ``head.size`` x ``x.size`` Toeplitz matrix whose seed has the
    spectrum ``spectrum``, and ``T x`` is the band of coefficients
    ``x.size-1 .. x.size+head.size-2`` of the product.  ``spectrum`` is the
    real FFT of a seed of at least ``x.size + head.size - 1`` bits,
    zero-padded to the circular length; only that prefix reaches the band.
    Two inputs are convolved as ``x_a + 2**shift * x_b``, and every count
    stays below ``2**shift``.  ``work``, the product's spectrum and a float
    buffer, is overwritten.
    """
    product, conv = work
    signals = [x for x, _ in pair]
    _padded(signals[-1], conv)
    if len(signals) == 2:
        conv[: signals[1].size] *= float(1 << shift)
        conv[: signals[0].size] += signals[0]
    np.fft.rfft(conv, out=product)
    product *= spectrum
    np.fft.irfft(product, n=conv.size, out=conv)
    # one band from the lower start to the higher end holds both blocks' bands
    low = min(x.size for x in signals) - 1
    band = conv[low : max(x.size - 1 + head.size for x, head in pair)]
    packed = np.empty(band.size, dtype=np.int64)  # rounded into: no float copy of the band
    np.rint(band, out=packed, casting="unsafe")
    band -= packed
    deviation = float(np.max(np.abs(band, out=band))) if band.size else 0.0
    if deviation >= _ROUNDING_GUARD:
        raise ArithmeticError(
            f"FFT convolution rounding margin violated (deviation {deviation:.3g})"
        )
    for x, head in pair:
        begin = x.size - 1 - low
        # a count's lowest byte holds its parity
        head ^= packed[begin : begin + head.size].astype(np.uint8) & 1
        packed >>= shift
    return deviation


def _dual_hash_blocks(
    raw: BitBlock, shapes: list[tuple[int, int]], seed01: np.ndarray
) -> tuple[np.ndarray, float]:
    """The (I | T) hash of consecutive blocks of ``raw``, one per ``(m, K)``
    shape, concatenated as 0/1 values, and the worst rounding deviation.

    ``seed01`` has the longest block's seed length; each block reads its
    own prefix of it through the one shared spectrum.  The blocks with T
    not empty (K < m) are hashed two at a time, in order, each pair in one
    transform pair packed at the radix ``2**shift`` above every block's M; a
    last odd block is hashed alone.  Each block is unpacked from ``raw``
    only when it is hashed, so at most a pair of blocks is ever unpacked.
    The seed and every pair share one set of FFT scratch arrays, so that no
    pair faults in fresh pages for arrays of the FFT length.

    Raises
    ------
    ValueError
        If a packed count could reach ``2**_MAX_PACKED_BITS`` (M of 2**25
        bits or more), where float64 rounding would no longer be exact.
    """
    widest = max(m - k for m, k in shapes)
    shift = widest.bit_length()
    if 2 * shift > _MAX_PACKED_BITS:
        raise ValueError(f"blocks with M = {widest} bits pack counts up to "
                         f"2**{2 * shift}, past 2**{_MAX_PACKED_BITS}")
    out = np.empty(sum(k for _, k in shapes), dtype=np.uint8)
    hashed = []  # (first bit, m, head) of each block with T not empty
    start = filled = 0
    for m, k in shapes:
        head = out[filled : filled + k]
        if k < m:
            hashed.append((start, m, head))
        else:
            head[...] = raw.to01(start, start + m)
        start += m
        filled += k
    if not hashed:
        return out, 0.0
    length = _smooth_length(seed01.size)
    work = np.empty(length // 2 + 1, dtype=np.complex128), np.empty(length)
    spectrum = np.fft.rfft(_padded(seed01, work[1]))
    deviations = []
    for i in range(0, len(hashed), 2):
        pair = []
        for start, m, head in hashed[i : i + 2]:
            block = raw.to01(start, start + m)
            head[...] = block[: head.size]
            pair.append((block[head.size :], head))
        deviations.append(_hash_band(pair, shift, spectrum, work))
    return out, max(deviations)


def _balanced_blocks(n: int, block_size: int) -> list[int]:
    """Split n into nearly equal parts no larger than block_size."""
    n_blocks = max(1, math.ceil(n / block_size))
    base, extra = divmod(n, n_blocks)
    return [base + (1 if i < extra else 0) for i in range(n_blocks)]


def extract_session(
    z_bits: BitBlock,
    est: EstimationResult,
    t_e: int,
    rng: np.random.Generator,
    efficiency_ratio: float = 1.0,
) -> tuple[BitBlock, SecurityReport, dict]:
    """Extract a whole session with the (I | T) hash, in balanced blocks of
    at most :data:`BLOCK_SIZE` bits.

    Returns the concatenated output, the composed security report
    (``eps_f = eps_theta + n_blocks * 2**(-t_e)``), and a summary dict with
    block shapes, exact Toeplitz seed consumption and the worst FFT rounding
    deviation of any packed pair of blocks.  Each block's length comes from
    :func:`~siqrng.entropy_math.final_length` at the efficiency ratio.  The
    blocks are hashed two per transform pair, one transform pair for every
    two blocks and one transform for the seed.  The seed is one
    ``rng.integers(0, 2, toeplitz_seed_bits, dtype=np.uint8)`` draw.

    Raises
    ------
    ValueError
        If ``t_e < 1``.
    ProtocolAbortError
        If the session aborted, is empty, its scaled error rate reaches 1/2,
        or a block yields no output.  Neither error draws a seed.
    """
    if t_e < 1:
        raise ValueError(f"t_e must be >= 1, got {t_e}")
    if est.abort:
        raise ProtocolAbortError(ESTIMATE_ABORT_REASON)
    n_z = len(z_bits)
    if n_z == 0:
        raise ProtocolAbortError("no raw bits to extract")

    sizes = _balanced_blocks(n_z, BLOCK_SIZE)
    shapes = [(m, final_length(m, est.e_pz_bound, t_e, efficiency_ratio)) for m in sizes]
    for _, k in shapes:
        if k <= 0:
            raise ProtocolAbortError(f"non-positive output length K={k}")

    # t_e >= 1 leaves every block K < m, and its (I | T) hash m - 1 seed bits
    seed_length = max(sizes) - 1
    final01, max_deviation = _dual_hash_blocks(
        z_bits, shapes, rng.integers(0, 2, seed_length, dtype=np.uint8))
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
