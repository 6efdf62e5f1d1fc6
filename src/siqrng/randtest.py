"""Statistical validation of raw and extracted bitstreams.

Implements the lag autocorrelation estimator plus five tests following the
public statistical test-suite definitions: frequency (monobit), block
frequency, runs, longest run of ones, and cumulative sums.  A test passes
when its P value is at least 0.01; a battery additionally reports, per
test, the proportion of equal-length sub-sequences passing (the deployment
threshold is 96%).

Input types: :func:`run_battery` and :func:`autocorrelation` take a
:class:`~siqrng.bits.BitBlock`, the form in which the pipeline and the
``test`` subcommand hold their bits, and the battery passes its block
straight to ``autocorrelation``.  The five tests take a 1-d array of 0/1
values, the form in which the battery cuts its partitions;
``longest_run_test`` and ``cusum_test`` pack theirs first.

The costly statistics run on the packed bits (LSB first, as in
:class:`~siqrng.bits.BitBlock`) with integer arithmetic only:

* ``autocorrelation`` views the bytes as little-endian uint64 words and
  counts ``c_j = popcount(x & (x >> j))``, the number of ones ``j`` apart.
  With ``s`` ones in ``n`` bits and ``A_j``/``B_j`` the ones outside the
  last/first ``j`` bits, the divide-by-n estimator (full-block mean, biased
  variance) is exactly::

      R(j) = (n^2 c_j - n s (A_j + B_j) + (n - j) s^2) / (n (n s - s^2))

  evaluated in Python integers with one correctly rounded division per lag.
  No float sum is formed, so the curve is a function of the bits alone and
  does not depend on the BLAS library or its thread count.
* ``cusum_test`` walks byte by byte: three 256-entry tables give each
  byte's walk end and its highest and lowest prefix, and a cumulative sum
  of the walk ends places them on the walk.
* ``longest_run_test`` ANDs each packed block with itself shifted by one
  bit, once per run length up to the last category boundary (at most 16
  passes), and counts the blocks that still hold a set bit.

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


def _as01(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d bit sequence")
    return arr


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
    first = np.cumsum(
        np.unpackbits(data[: (max_lag + 7) // 8], count=max_lag, bitorder="little")
    ).tolist()
    tail_byte = (n - max_lag) // 8
    tail = np.unpackbits(data[tail_byte:], count=n - 8 * tail_byte, bitorder="little")
    last = np.cumsum(tail[::-1][:max_lag]).tolist()

    n_words = -(-data.size // 8)
    # zero words past the end stand in for the bits shifted in from beyond n
    words = np.zeros(n_words + max_lag // 64 + 1, dtype="<u8")
    words.view(np.uint8)[: data.size] = data
    # c_j summed chunk by chunk, every lag's shifted words in three reused buffers
    counts = [0] * max_lag
    chunk = min(AUTOCORRELATION_CHUNK_WORDS, n_words)
    shifted = np.empty(chunk, dtype="<u8")
    carried = np.empty(chunk, dtype="<u8")
    popcounts = np.empty(chunk, dtype=np.uint8)
    for start in range(0, n_words, chunk):
        m = min(chunk, n_words - start)
        x, pairs = words[start : start + m], shifted[:m]
        for j in range(1, max_lag + 1):
            q, r = divmod(j, 64)
            np.right_shift(words[start + q : start + q + m], r, out=pairs)
            if r:
                np.left_shift(words[start + q + 1 : start + q + 1 + m], 64 - r, out=carried[:m])
                np.bitwise_or(pairs, carried[:m], out=pairs)
            np.bitwise_and(pairs, x, out=pairs)
            counts[j - 1] += int(np.bitwise_count(pairs, out=popcounts[:m]).sum(dtype=np.int64))
    out = np.empty(max_lag, dtype=np.float64)
    for j, c in enumerate(counts, 1):
        outside = 2 * ones - first[j - 1] - last[j - 1]  # A_j + B_j
        out[j - 1] = (n * n * c - n * ones * outside + (n - j) * ones * ones) / scale
    return out


def monobit_test(bits) -> tuple[float, float]:
    """Frequency test: overall balance of ones and zeros."""
    x = _as01(bits)
    _require(x.size, 100, "monobit test")
    s = 2.0 * int(np.count_nonzero(x)) - x.size
    statistic = abs(s) / math.sqrt(x.size)
    return statistic, float(erfc(statistic / math.sqrt(2.0)))


def block_frequency_test(bits) -> tuple[float, float]:
    """Proportion of ones within blocks of BLOCK_FREQUENCY_LEN bits."""
    x = _as01(bits)
    _require(x.size, max(100, BLOCK_FREQUENCY_LEN), "block frequency test")
    n_blocks = x.size // BLOCK_FREQUENCY_LEN
    pi = x[: n_blocks * BLOCK_FREQUENCY_LEN].reshape(n_blocks, BLOCK_FREQUENCY_LEN).mean(axis=1)
    chi2 = 4.0 * BLOCK_FREQUENCY_LEN * float(np.sum((pi - 0.5) ** 2))
    return chi2, float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_test(bits) -> tuple[float, float]:
    """Total number of maximal same-bit runs.

    Returns p = 0.0 without evaluating the run statistic when the ones
    fraction is already outside the 2/sqrt(n) frequency band.
    """
    x = _as01(bits)
    _require(x.size, 100, "runs test")
    n = x.size
    pi = float(np.count_nonzero(x)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return float("nan"), 0.0
    v = 1 + int(np.count_nonzero(np.diff(x)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(v), float(erfc(num / den))


# (minimum n, block length M, category boundaries, category probabilities)
_LONGEST_RUN_REGIMES = (
    (128, 8, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, (4, 5, 6, 7, 8, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10**4, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def longest_run_test(bits) -> tuple[float, float]:
    """Distribution of the longest run of ones over fixed-length blocks."""
    x = _as01(bits)
    n = x.size
    _require(n, MIN_TEST_BITS, "longest run test")
    data = np.packbits(x, bitorder="little")
    regime = next(r for r in reversed(_LONGEST_RUN_REGIMES) if n >= r[0])
    _, m, bounds, pi = regime
    n_blocks = n // m
    # every block length is a whole number of bytes; bit i of a row of
    # `run` is set while bits i .. i+k-1 of that block are all ones
    run = data[: n_blocks * m // 8].reshape(n_blocks, m // 8)
    at_least = [n_blocks]  # at_least[k]: blocks holding a run of >= k ones
    for k in range(1, bounds[-1] + 1):
        if k > 1:
            shifted = run >> 1
            shifted[:, :-1] |= run[:, 1:] << 7
            run = run & shifted
        at_least.append(int(np.count_nonzero(run.any(axis=1))))
    counts = np.zeros(len(bounds), dtype=np.int64)
    counts[0] = n_blocks - at_least[bounds[0] + 1]
    for i in range(1, len(bounds) - 1):
        counts[i] = at_least[bounds[i]] - at_least[bounds[i] + 1]
    counts[-1] = at_least[bounds[-1]]
    expected = n_blocks * np.asarray(pi)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(gammaincc((len(bounds) - 1) / 2.0, chi2 / 2.0))


def _byte_walk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk end, highest and lowest prefix of the +/-1 walk over each byte."""
    steps = 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1  # LSB first
    prefix = np.cumsum(steps, axis=1)
    return prefix[:, -1], prefix.max(axis=1), prefix.min(axis=1)


_BYTE_END, _BYTE_HIGH, _BYTE_LOW = _byte_walk_tables()


def cusum_test(bits) -> tuple[float, float]:
    """Maximum excursion of the +/-1 partial-sum walk (forward mode)."""
    x = _as01(bits)
    n = x.size
    _require(n, 100, "cumulative sums test")
    data = np.packbits(x, bitorder="little")
    whole = data[: n // 8]
    after = np.cumsum(_BYTE_END[whole])  # walk after each whole byte
    before = after - _BYTE_END[whole]
    high = int(np.max(before + _BYTE_HIGH[whole]))
    low = int(np.min(before + _BYTE_LOW[whole]))
    if n % 8:
        # the partial last byte: only its first n % 8 steps are on the walk
        tail = np.unpackbits(data[-1:], count=n % 8, bitorder="little")
        walk = int(after[-1]) + np.cumsum(2 * tail.astype(np.int64) - 1)
        high = max(high, int(walk.max()))
        low = min(low, int(walk.min()))
    z = max(high, -low)  # >= 1: the first step already moves the walk
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    p = (
        1.0
        - float(np.sum(ndtr((4 * k1 + 1) * z / sqrt_n) - ndtr((4 * k1 - 1) * z / sqrt_n)))
        + float(np.sum(ndtr((4 * k2 + 3) * z / sqrt_n) - ndtr((4 * k2 + 1) * z / sqrt_n)))
    )
    return float(z), float(min(max(p, 0.0), 1.0))


ALL_TESTS = {
    "monobit": monobit_test,
    "block_frequency": block_frequency_test,
    "runs": runs_test,
    "longest_run": longest_run_test,
    "cusum": cusum_test,
}


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


def run_battery(block: BitBlock) -> TestReport:
    """Run every implemented test on the full sequence and on N_PARTITIONS
    equal partitions.

    Raises
    ------
    InsufficientLengthError
        If fewer than BATTERY_MIN_BITS bits are supplied.
    """
    x = block.to01()
    _require(x.size, BATTERY_MIN_BITS, "statistical battery")
    part_len = x.size // N_PARTITIONS
    report = TestReport()
    for name, test in ALL_TESTS.items():
        statistic, p_value = test(x)
        passing = 0
        for i in range(N_PARTITIONS):
            _, sub_p = test(x[i * part_len : (i + 1) * part_len])
            passing += sub_p >= P_VALUE_THRESHOLD
        proportion = passing / N_PARTITIONS
        report.records.append(
            TestRecord(
                name=name,
                statistic=statistic,
                p_value=p_value,
                passed=p_value >= P_VALUE_THRESHOLD,
                proportion_pass=proportion,
            )
        )
    report.proportion_pass = min(r.proportion_pass for r in report.records)
    report.autocorrelation = autocorrelation(block, MAX_LAG)
    return report
