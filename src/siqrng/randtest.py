"""Statistical validation of raw and extracted bitstreams.

Implements the lag autocorrelation estimator plus five tests following the
public statistical test-suite definitions: frequency (monobit), block
frequency, runs, longest run of ones, and cumulative sums.  A test passes
when its P value is at least 0.01; a battery additionally reports, per
test, the proportion of equal-length sub-sequences passing (the deployment
threshold is 96%).

Both :func:`run_battery` and :func:`autocorrelation` take a
:class:`~siqrng.bits.BitBlock`, the form in which the pipeline and the
``test`` subcommand hold their bits, and neither unpacks it: every
statistic is an integer count taken from the packed bits (LSB first) and
turned into a float by the test's own expression.

* The battery realigns its input once.  Partition i of the N_PARTITIONS
  starts at bit i*L, L = n // N_PARTITIONS, which is seldom byte-aligned,
  so row i of one ``(N_PARTITIONS, W)`` uint64 array holds partition i
  from its bit 0, with zeros past L: one shift per row.  Every test then
  runs on all rows at once.  Monobit counts the ones of each row, block
  frequency those of each 128-bit block (two words), and runs the ones of
  ``x ^ (x >> 1)`` over the first L - 1 positions.  Longest run ANDs the
  blocks of every row with themselves shifted, raising the run length each
  set bit stands for until the last category boundary, and counts the
  blocks that still hold a set bit.  Cusum reads each byte's highest and
  lowest walk prefix from one 256-entry table and places the bytes on the
  walk by the running popcounts of their words.
* The full sequence is the partitions followed by the n - N_PARTITIONS*L
  bits past the last one, so its monobit, runs and cusum statistics follow
  exactly from the partition sums: the ones add up; the transitions add
  up, with the pairs across the partition edges and within the last bits;
  and the walk's extremes are the partitions' extremes, each raised by the
  walk before its partition, then the last bits' walk.  Block frequency
  and longest run count blocks from bit 0 of the sequence, which the
  partition edges cut, so they take one pass of their own.
* A constant sequence (a stuck source) gets its five records, all failing,
  and a curve of NaN, since its autocorrelation is undefined.
* ``autocorrelation`` views the bytes as little-endian uint64 words and
  counts ``c_j = popcount(x & (x >> j))``, the number of ones ``j`` apart;
  lags j, j + 64, ... read one copy of the words shifted by j % 64 bits,
  a word apart.  With ``s`` ones in ``n`` bits and ``A_j``/``B_j`` the
  ones outside the last/first ``j`` bits, the divide-by-n estimator
  (full-block mean, biased variance) is exactly::

      R(j) = (n^2 c_j - n s (A_j + B_j) + (n - j) s^2) / (n (n s - s^2))

  evaluated in Python integers with one correctly rounded division per lag.
  No float sum is formed, so the curve is a function of the bits alone and
  does not depend on the BLAS library or its thread count.

The P values need three special functions, all computed here in double
precision without scipy: ``erfc`` is :func:`math.erfc`, :func:`ndtr` is
``0.5 * erfc(-x / sqrt(2))``, and :func:`gammaincc` evaluates the
regularized upper incomplete gamma function by its power series or its
continued fraction.

Exported bit files can be fed to external full-suite implementations; this
module only covers the mechanics needed to validate sessions in-toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import erfc

import numpy as np

from .bits import BitBlock

P_VALUE_THRESHOLD = 0.01
PROPORTION_THRESHOLD = 0.96
# equal sub-sequences of the battery, and lags of its autocorrelation curve
N_PARTITIONS = 100
MAX_LAG = 100
BLOCK_FREQUENCY_LEN = 128
# largest per-test minimum: longest run, and block frequency at its block length
MIN_TEST_BITS = 128
# shortest input the battery takes: every partition holds MIN_TEST_BITS
BATTERY_MIN_BITS = N_PARTITIONS * MIN_TEST_BITS
# 64-bit words per chunk of the lag counts: 256 KiB per buffer stays in cache
AUTOCORRELATION_CHUNK_WORDS = 1 << 15
# bytes per byte-table gather of the cusum: its index copy, 8 bytes an
# index, stays at 256 KiB
GATHER_CHUNK_BYTES = 1 << 15


# relative size of a term or factor at which the series and continued
# fraction of gammaincc stop; half the float64 epsilon
_GAMMA_EPS = 2.0**-53
_GAMMA_MAX_TERMS = 10**7
# stands in for a zero denominator in the Lentz recurrence
_LENTZ_TINY = 1e-300
# Stirling series of lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2), in 1/a^(2i+1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each element, as ``0.5 * erfc(-x / sqrt(2))``.

    In float64 that is exactly 1.0 from x = 8.3 on and 0.0 from x = -38.5
    down, so erfc is called only for -40 < x < 9: a walk that stays near
    zero puts most of the cusum's k-range outside.
    """
    x = np.asarray(x, dtype=np.float64)
    out = (x > 0).astype(np.float64)
    inside = (x > -40.0) & (x < 9.0)
    out[inside] = [0.5 * erfc(v) for v in (-x[inside] / math.sqrt(2.0)).tolist()]
    return out


def _log1pmx(t: float) -> float:
    """``log(1 + t) - t``, to full relative precision also at small t.

    There ``log1p(t) - t`` would cancel its leading digits.  For |t| <= 1/2
    it sums ``log(1 + t) = 2 atanh(u)``, ``u = t / (2 + t)``, whose first
    term ``2u`` differs from ``t`` by exactly ``-t u``.
    """
    if abs(t) > 0.5:
        return math.log1p(t) - t
    u = t / (2.0 + t)
    u2 = u * u
    power, series, k = u * u2, 0.0, 3
    while abs(power) > abs(series) * _GAMMA_EPS:
        series += power / k
        power *= u2
        k += 2
    return 2.0 * series - t * u


def _log_gamma_density(a: float, x: float) -> float:
    """``log(x^a e^-x / Gamma(a))`` for x > 0.

    From a = 10 on, lgamma(a) is split into its Stirling terms, so that
    ``a log x`` and ``lgamma(a)`` (each about 1e6 at a = 1e5) cancel in the
    algebra and not in float64, leaving ``a (log(1 + t) - t)`` with
    ``t = (x - a) / a``.
    """
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    stirling = sum(c / a ** (2 * i + 1) for i, c in enumerate(_STIRLING))
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x), a > 0, x >= 0.

    Below x = a + 1 a power series gives P = 1 - Q; from there on a
    continued fraction, evaluated by the modified Lentz method, gives Q.
    Both are scaled by ``x^a e^-x / Gamma(a)``.  Either takes O(sqrt(a))
    terms near x = a.
    """
    if x <= 0.0:
        return 1.0
    scale = math.exp(_log_gamma_density(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _GAMMA_MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term <= total * _GAMMA_EPS:
                return 1.0 - scale * total
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _LENTZ_TINY, 1.0 / b
        h = d
        for i in range(1, _GAMMA_MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _LENTZ_TINY:
                d = _LENTZ_TINY
            c = b + an / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            d = 1.0 / d
            delta = c * d
            h *= delta
            if abs(delta - 1.0) <= _GAMMA_EPS:
                return scale * h
    raise ArithmeticError(f"gammaincc({a}, {x}) did not converge")


class DegenerateSequenceError(ValueError):
    """Raised for constant input where a statistic is undefined."""


class InsufficientLengthError(ValueError):
    """Raised when a bit sequence is too short for a test."""


def _require(n: int, minimum: int, test: str):
    if n < minimum:
        raise InsufficientLengthError(f"{test} needs >= {minimum} bits, got {n}")


def autocorrelation(block: BitBlock, max_lag: int) -> np.ndarray:
    """Sample autocorrelation R(1..max_lag) with the divide-by-n estimator.

    Uses the sample mean and biased sample variance of the full block.
    Each R(j) is the correctly rounded value of the exact estimator.

    Raises
    ------
    DegenerateSequenceError
        If the input is constant (zero variance).
    InsufficientLengthError
        If fewer than max_lag + 2 bits are supplied.
    """
    data, n = block.data, block.length
    _require(n, max_lag + 2, "autocorrelation")
    ones = int(np.bitwise_count(data).sum(dtype=np.int64))
    scale = n * (n * ones - ones * ones)  # n^3 times the biased variance
    if scale == 0:
        raise DegenerateSequenceError("constant sequence has undefined autocorrelation")
    # ones among the first j and among the last j bits, j = 1..max_lag
    first = np.cumsum(block.to01(0, max_lag)).tolist()
    last = np.cumsum(block.to01(n - max_lag)[::-1]).tolist()

    n_words = -(-data.size // 8)
    spread = max_lag // 64  # words past a chunk that a lag reads
    # zero words past the end stand in for the bits shifted in from beyond n
    words = np.zeros(n_words + spread + 1, dtype="<u8")
    words.view(np.uint8)[: data.size] = data
    # c_j summed chunk by chunk.  Lags j, j + 64, ... read the words shifted
    # by the same j % 64 bits, one word apart, so one shifted copy per bit
    # offset serves them all; the copy and the pairs share two buffers
    counts = [0] * max_lag
    chunk = min(AUTOCORRELATION_CHUNK_WORDS, n_words)
    shifted = np.empty(chunk + spread, dtype="<u8")
    scratch = np.empty(chunk + spread, dtype="<u8")
    popcounts = np.empty(chunk, dtype=np.uint8)
    for start in range(0, n_words, chunk):
        m = min(chunk, n_words - start)
        x = words[start : start + m]
        for r in range(min(64, max_lag + 1)):
            lags = range(r or 64, max_lag + 1, 64)
            if not lags:
                continue
            span = m + lags[-1] // 64
            if r:
                copy = np.right_shift(words[start : start + span], r, out=shifted[:span])
                np.left_shift(words[start + 1 : start + 1 + span], 64 - r, out=scratch[:span])
                np.bitwise_or(copy, scratch[:span], out=copy)
            else:
                copy = words[start : start + span]
            for j in lags:
                pairs = np.bitwise_and(copy[j // 64 : j // 64 + m], x, out=scratch[:m])
                counts[j - 1] += int(np.bitwise_count(pairs, out=popcounts[:m]).sum(dtype=np.int64))
    out = np.empty(max_lag, dtype=np.float64)
    for j, c in enumerate(counts, 1):
        outside = 2 * ones - first[j - 1] - last[j - 1]  # A_j + B_j
        out[j - 1] = (n * n * c - n * ones * outside + (n - j) * ones * ones) / scale
    return out


@dataclass
class TestRecord:
    name: str
    statistic: float
    p_value: float
    passed: bool
    proportion_pass: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "pass": self.passed,
            "proportion_pass": self.proportion_pass,
        }


@dataclass
class TestReport:
    """Battery outcome: full-sequence records plus sub-sequence proportions.

    ``proportion_pass`` is the smallest per-test proportion of sub-sequences
    with P >= 0.01; ``autocorrelation`` is R(j) for j = 1..MAX_LAG.
    """

    records: list[TestRecord] = field(default_factory=list)
    proportion_pass: float = 0.0
    autocorrelation: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records) and self.proportion_pass >= PROPORTION_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "tests": [r.to_dict() for r in self.records],
            "proportion_pass": self.proportion_pass,
            "n_partitions": N_PARTITIONS,
            "all_passed": self.all_passed,
            "autocorrelation": self.autocorrelation.tolist(),
        }


# (minimum n, block length M, category boundaries, category probabilities)
_LONGEST_RUN_REGIMES = (
    (128, 8, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, (4, 5, 6, 7, 8, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10**4, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def _byte_walk_table() -> np.ndarray:
    """The highest prefix plus 1 (bits 0-3) and the lowest prefix plus 8
    (bits 4-7) of the +/-1 walk over each byte, both in 0..9."""
    steps = 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1  # LSB first
    prefix = np.cumsum(steps, axis=1)
    return ((prefix.max(axis=1) + 1) | (prefix.min(axis=1) + 8) << 4).astype(np.uint8)


_BYTE_EXTREMES = _byte_walk_table()


def _monobit(ones: int, n: int) -> tuple[float, float]:
    """Frequency test: overall balance of ones and zeros."""
    s = 2.0 * ones - n
    statistic = abs(s) / math.sqrt(n)
    return statistic, float(erfc(statistic / math.sqrt(2.0)))


def _block_frequency(block_ones: np.ndarray) -> tuple[float, float]:
    """Proportion of ones within blocks of BLOCK_FREQUENCY_LEN bits, from the
    ones of each block."""
    pi = block_ones / BLOCK_FREQUENCY_LEN
    chi2 = 4.0 * BLOCK_FREQUENCY_LEN * float(np.sum((pi - 0.5) ** 2))
    return chi2, float(gammaincc(block_ones.size / 2.0, chi2 / 2.0))


def _runs(ones: int, transitions: int, n: int) -> tuple[float, float]:
    """Total number of maximal same-bit runs, one more than the transitions.

    Returns p = 0.0 without evaluating the run statistic when the ones
    fraction is already outside the 2/sqrt(n) frequency band.
    """
    pi = float(ones) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return float("nan"), 0.0
    v = 1 + transitions
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(v), float(erfc(num / den))


def _longest_run(counts: np.ndarray, n_blocks: int, regime) -> tuple[float, float]:
    """Distribution of the longest run of ones over n_blocks blocks, from the
    blocks in each category."""
    _, _, bounds, pi = regime
    expected = n_blocks * np.asarray(pi)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(gammaincc((len(bounds) - 1) / 2.0, chi2 / 2.0))


def _cusum(excursions: list[int], n: int) -> list[tuple[float, float]]:
    """Maximum excursion z of the +/-1 partial-sum walk (forward mode), for
    each z of a walk of n steps."""
    sqrt_n = math.sqrt(n)
    k1 = [np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
          for z in excursions]
    k2 = [np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
          for z in excursions]

    def terms(ks, a, b):
        """ndtr((4k + a) z / sqrt(n)) - ndtr((4k + b) z / sqrt(n)), every
        z's k laid end to end for one ndtr call, then split by z."""
        k, z = np.concatenate(ks), np.repeat(excursions, [r.size for r in ks])
        term = ndtr((4 * k + a) * z / sqrt_n) - ndtr((4 * k + b) * z / sqrt_n)
        return np.split(term, np.cumsum([r.size for r in ks])[:-1])

    results = []
    for z, t1, t2 in zip(excursions, terms(k1, 1, -1), terms(k2, 3, 1)):
        p = 1.0 - float(np.sum(t1)) + float(np.sum(t2))
        results.append((float(z), float(min(max(p, 0.0), 1.0))))
    return results


def _partition_rows(words: np.ndarray, length: int) -> np.ndarray:
    """Row i holds bits i*length .. (i+1)*length - 1 of ``words`` from its
    bit 0, LSB first, and zeros past ``length``: one shift per row."""
    width = -(-length // 64)
    rows = np.empty((N_PARTITIONS, width), dtype="<u8")
    carry = np.empty(width, dtype="<u8")
    for i, row in enumerate(rows):
        q, r = divmod(i * length, 64)
        np.right_shift(words[q : q + width], r, out=row)
        if r:
            np.left_shift(words[q + 1 : q + width + 1], 64 - r, out=carry)
            row |= carry
    if length % 64:
        rows[:, -1] &= np.uint64((1 << length % 64) - 1)
    return rows


def _block_ones(popcounts: np.ndarray, n_blocks: int) -> np.ndarray:
    """Ones in each of the first n_blocks blocks of BLOCK_FREQUENCY_LEN = 128
    bits, two words each, from the popcounts of the words (last axis)."""
    return popcounts[..., 0 : 2 * n_blocks : 2] + popcounts[..., 1 : 2 * n_blocks : 2]


def _longest_run_counts(rows: np.ndarray, length: int, regime) -> np.ndarray:
    """Blocks per longest-run category, one row of counts per row of bits.

    The blocks are the ``length // M`` whole M-bit blocks from bit 0 of each
    row, padded with zeros to whole words (one byte at M = 8) and laid out
    word by word: slab c holds word c of every block.  Bit i of ``run``
    stays set while bits i .. i+k-1 of its block are all ones, and ANDing
    ``run`` with itself shifted by s <= k raises k by s: doubling steps
    reach the first category boundary that counts, single steps the others.
    """
    _, m, bounds, _ = regime
    n_rows, n_blocks, nbytes = len(rows), length // m, m // 8
    width = 1 if nbytes == 1 else -(-nbytes // 8) * 8
    blocks = np.zeros((n_rows, n_blocks, width), dtype=np.uint8)
    blocks[..., :nbytes] = rows.view(np.uint8)[:, : n_blocks * nbytes].reshape(
        n_rows, n_blocks, nbytes)
    run = np.ascontiguousarray((blocks if width == 1 else blocks.view("<u8")).transpose(2, 0, 1))
    del blocks
    bits = 8 * run.itemsize
    shifted, carry = np.empty_like(run), np.empty_like(run[1:])
    first = bounds[0] + 1
    at_least = {}  # at_least[k]: blocks of each row holding a run of >= k ones
    k = 1
    while k < bounds[-1]:
        s = min(k, first - k) if k < first else 1
        np.right_shift(run, s, out=shifted)
        if len(run) > 1:
            np.left_shift(run[1:], bits - s, out=carry)
            shifted[:-1] |= carry
        run &= shifted
        k += s
        if k >= first:
            # OR the words of each block, halves at a time; the halves of
            # an odd count share the middle word
            folded = run
            while len(folded) > 1:
                half = (len(folded) + 1) // 2
                folded = folded[:half] | folded[-half:]
            at_least[k] = np.count_nonzero(folded[0], axis=-1)
    counts = np.empty((n_rows, len(bounds)), dtype=np.int64)
    counts[:, 0] = n_blocks - at_least[first]
    for i in range(1, len(bounds) - 1):
        counts[:, i] = at_least[bounds[i]] - at_least[bounds[i] + 1]
    counts[:, -1] = at_least[bounds[-1]]
    return counts


def _walk_extremes(rows: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Highest and lowest point of the +/-1 walk over each row's first
    ``length`` bits (``length`` > 64).

    The words before a row's last are taken eight bytes at a time.  Byte k
    of a word starts 2 P_k - 8 k above the word's start, P_k the ones in
    bytes 0 .. k-1: multiplying the word of byte popcounts by 0x0101..01
    gives their running sums.  One gather from the byte table gives each
    byte's highest and lowest prefix, nibble-coded; with 64 added, every
    byte's value lies in 0..129, so uint8 arithmetic holds it exactly, and a
    word's extreme is its extreme byte.  The last word, whose bits past
    ``length`` are zero, is walked bit by bit.
    """
    n_rows, full = len(rows), (length - 1) // 64  # words before the last
    row_bytes = rows[:, :full].view(np.uint8)
    offsets = np.zeros((n_rows, full), dtype="<u8")
    np.bitwise_count(row_bytes, out=offsets.view(np.uint8))
    running = offsets * np.uint64(0x0101010101010101)
    word_ones = (running >> np.uint64(56)).astype(np.int32)
    np.subtract(running, offsets, out=offsets)
    del running
    offsets <<= np.uint64(1)
    offsets += np.uint64(int.from_bytes(bytes(range(64, 0, -8)), "little"))
    # the walk before each word
    starts = 2 * (np.cumsum(word_ones, axis=1, dtype=np.int32) - word_ones) - 64 * np.arange(
        full, dtype=np.int32)
    lanes = np.empty_like(row_bytes)
    group = max(1, GATHER_CHUNK_BYTES // row_bytes.shape[1])  # rows per gather
    for g in range(0, n_rows, group):
        np.take(_BYTE_EXTREMES, row_bytes[g : g + group], out=lanes[g : g + group], mode="wrap")

    def extreme(nibbles, pick):
        nibbles += offsets.view(np.uint8)
        by_word = nibbles.reshape(n_rows, full, 8)
        out = pick(by_word[..., 0], by_word[..., 1])
        for k in range(2, 8):
            pick(out, by_word[..., k], out=out)
        return pick.reduce(starts + out, axis=1)

    # a byte's highest prefix is 1 below its low nibble, its lowest 8 below its high one
    high = extreme(lanes & np.uint8(15), np.maximum) - 65
    low = extreme(np.right_shift(lanes, np.uint8(4), out=lanes), np.minimum) - 72
    del lanes, offsets, starts
    before_last = 2 * word_ones.sum(axis=1, dtype=np.int64) - 64 * full
    steps = np.unpackbits(rows[:, full : full + 1].view(np.uint8), axis=1,
                          count=length - 64 * full, bitorder="little")
    walk = before_last[:, None] + np.cumsum(2 * steps.astype(np.int64) - 1, axis=1)
    return np.maximum(high, walk.max(axis=1)), np.minimum(low, walk.min(axis=1))


def _regime(n: int):
    return next(r for r in reversed(_LONGEST_RUN_REGIMES) if n >= r[0])


def _battery_records(block: BitBlock) -> list[TestRecord]:
    """The five records: each test on the full sequence, and its proportion
    of passing partitions."""
    data, n = block.data, block.length
    length = n // N_PARTITIONS
    # one zero word past the end for the carry of the last row's shift
    words = np.zeros(-(-data.size // 8) + 1, dtype="<u8")
    words.view(np.uint8)[: data.size] = data
    rows = _partition_rows(words, length)
    full_block_ones = _block_ones(np.bitwise_count(words), n // BLOCK_FREQUENCY_LEN)
    del words

    popcounts = np.bitwise_count(rows)
    ones = popcounts.sum(axis=1, dtype=np.int64)
    block_ones = _block_ones(popcounts, length // BLOCK_FREQUENCY_LEN)
    first_bits = (rows[:, 0] & 1).astype(np.int64)
    last_bits = ((rows[:, (length - 1) // 64] >> (length - 1) % 64) & 1).astype(np.int64)
    # bit k of `pairs` is bit k of its row xor bit k + 1; bit length - 1 is
    # paired with the zero past the row, so it counts its own value
    pairs = rows >> 1
    pairs[:, :-1] |= rows[:, 1:] << 63
    pairs ^= rows
    transitions = np.bitwise_count(pairs).sum(axis=1, dtype=np.int64) - last_bits
    del pairs
    regime = _regime(length)
    run_counts = _longest_run_counts(rows, length, regime)
    high, low = _walk_extremes(rows, length)
    del rows

    # the full sequence: the partitions, then the bits past the last one
    start = N_PARTITIONS * length
    rest = block.to01(start)
    ones_full = int(ones.sum()) + int(np.count_nonzero(rest))
    transitions_full = (
        int(transitions.sum()) + int(np.count_nonzero(last_bits[:-1] != first_bits[1:]))
        + int(np.count_nonzero(np.diff(np.concatenate([last_bits[-1:], rest])))))
    ends = 2 * ones - length  # each partition's walk end
    before = np.cumsum(ends) - ends
    high_full, low_full = int(np.max(before + high)), int(np.min(before + low))
    if rest.size:
        walk = int(ends.sum()) + np.cumsum(2 * rest.astype(np.int64) - 1)
        high_full, low_full = max(high_full, int(walk.max())), min(low_full, int(walk.min()))
    full_regime = _regime(n)
    full_counts = _longest_run_counts(data[None, :], n, full_regime)[0]

    results = {
        "monobit": (_monobit(ones_full, n), [_monobit(k, length) for k in ones.tolist()]),
        "block_frequency": (_block_frequency(full_block_ones),
                            [_block_frequency(row) for row in block_ones]),
        "runs": (_runs(ones_full, transitions_full, n),
                 [_runs(k, t, length) for k, t in zip(ones.tolist(), transitions.tolist())]),
        "longest_run": (_longest_run(full_counts, n // full_regime[1], full_regime),
                        [_longest_run(row, length // regime[1], regime) for row in run_counts]),
        "cusum": (_cusum([max(high_full, -low_full)], n)[0],
                  _cusum(np.maximum(high, -low).tolist(), length)),
    }
    records = []
    for name, ((statistic, p_value), partitions) in results.items():
        passing = sum(p >= P_VALUE_THRESHOLD for _, p in partitions)
        records.append(TestRecord(name=name, statistic=statistic, p_value=p_value,
                                  passed=p_value >= P_VALUE_THRESHOLD,
                                  proportion_pass=passing / N_PARTITIONS))
    return records


def run_battery(block: BitBlock) -> TestReport:
    """Run every implemented test on the full sequence and on N_PARTITIONS
    equal partitions, and the autocorrelation curve on the full sequence.

    A constant sequence gets its five (failing) records and a curve of NaN.

    Raises
    ------
    InsufficientLengthError
        If fewer than BATTERY_MIN_BITS bits are supplied.
    """
    _require(block.length, BATTERY_MIN_BITS, "statistical battery")
    report = TestReport(records=_battery_records(block))
    report.proportion_pass = min(r.proportion_pass for r in report.records)
    try:
        report.autocorrelation = autocorrelation(block, MAX_LAG)
    except DegenerateSequenceError:
        report.autocorrelation = np.full(MAX_LAG, np.nan)
    return report
