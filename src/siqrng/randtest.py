"""Statistical validation of raw and extracted bitstreams.

Implements the lag autocorrelation estimator plus five tests following the
public statistical test-suite definitions: frequency (monobit), block
frequency, runs, longest run of ones, and cumulative sums.  A test passes
when its P value is at least 0.01; a battery additionally reports, per
test, the proportion of equal-length sub-sequences passing (the deployment
threshold is 96%).

Exported bit files can be fed to external full-suite implementations; this
module only covers the mechanics needed to validate sessions in-toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

from .bits import BitBlock

P_VALUE_THRESHOLD = 0.01
PROPORTION_THRESHOLD = 0.96
DEFAULT_PARTITIONS = 100


class DegenerateSequenceError(ValueError):
    """Raised for constant input where a statistic is undefined."""


class InsufficientLengthError(ValueError):
    """Raised when a bit sequence is too short for a test."""


def _as01(bits) -> np.ndarray:
    if isinstance(bits, BitBlock):
        return bits.to01()
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d bit sequence")
    return arr


def _require(bits: np.ndarray, minimum: int, test: str):
    if bits.size < minimum:
        raise InsufficientLengthError(f"{test} needs >= {minimum} bits, got {bits.size}")


def autocorrelation(bits, max_lag: int) -> np.ndarray:
    """Sample autocorrelation R(1..max_lag) with the divide-by-n estimator.

    Uses the sample mean and biased sample variance of the full block.

    Raises
    ------
    DegenerateSequenceError
        If the input is constant (zero variance).
    InsufficientLengthError
        If fewer than max_lag + 2 bits are supplied.
    """
    x = _as01(bits).astype(np.float64)
    _require(x, max_lag + 2, "autocorrelation")
    d = x - x.mean()
    var = float(np.mean(d * d))
    if var == 0.0:
        raise DegenerateSequenceError("constant sequence has undefined autocorrelation")
    n = x.size
    out = np.empty(max_lag, dtype=np.float64)
    for j in range(1, max_lag + 1):
        out[j - 1] = float(np.dot(d[:-j], d[j:])) / n / var
    return out


def monobit_test(bits) -> tuple[float, float]:
    """Frequency test: overall balance of ones and zeros."""
    x = _as01(bits)
    _require(x, 100, "monobit test")
    s = 2.0 * int(np.count_nonzero(x)) - x.size
    statistic = abs(s) / math.sqrt(x.size)
    return statistic, float(erfc(statistic / math.sqrt(2.0)))


def block_frequency_test(bits, block_len: int = 128) -> tuple[float, float]:
    """Proportion of ones within fixed-length blocks."""
    x = _as01(bits)
    if block_len < 2:
        raise ValueError(f"block length must be >= 2, got {block_len}")
    _require(x, max(100, block_len), "block frequency test")
    n_blocks = x.size // block_len
    pi = x[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((pi - 0.5) ** 2))
    return chi2, float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_test(bits) -> tuple[float, float]:
    """Total number of maximal same-bit runs.

    Returns p = 0.0 without evaluating the run statistic when the ones
    fraction is already outside the 2/sqrt(n) frequency band.
    """
    x = _as01(bits)
    _require(x, 100, "runs test")
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


def _longest_run_per_block(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 0/1 matrix."""
    current = np.zeros(blocks.shape[0], dtype=np.int64)
    best = np.zeros(blocks.shape[0], dtype=np.int64)
    for col in range(blocks.shape[1]):
        current = (current + 1) * blocks[:, col]
        np.maximum(best, current, out=best)
    return best


def longest_run_test(bits) -> tuple[float, float]:
    """Distribution of the longest run of ones over fixed-length blocks."""
    x = _as01(bits)
    _require(x, 128, "longest run test")
    regime = next(r for r in reversed(_LONGEST_RUN_REGIMES) if x.size >= r[0])
    _, m, bounds, pi = regime
    n_blocks = x.size // m
    longest = _longest_run_per_block(x[: n_blocks * m].reshape(n_blocks, m).astype(np.int64))
    counts = np.zeros(len(bounds), dtype=np.int64)
    counts[0] = int(np.count_nonzero(longest <= bounds[0]))
    for i in range(1, len(bounds) - 1):
        counts[i] = int(np.count_nonzero(longest == bounds[i]))
    counts[-1] = int(np.count_nonzero(longest >= bounds[-1]))
    expected = n_blocks * np.asarray(pi)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(gammaincc((len(bounds) - 1) / 2.0, chi2 / 2.0))


def cusum_test(bits) -> tuple[float, float]:
    """Maximum excursion of the +/-1 partial-sum walk (forward mode)."""
    x = _as01(bits)
    _require(x, 100, "cumulative sums test")
    n = x.size
    walk = np.cumsum(2 * x.astype(np.int64) - 1)
    z = int(np.max(np.abs(walk)))
    if z == 0:
        return 0.0, 0.0
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
    with P >= 0.01; ``autocorrelation`` is R(j) for j = 1..max_lag.
    """

    records: list[TestRecord] = field(default_factory=list)
    proportion_pass: float = 0.0
    autocorrelation: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_partitions: int = DEFAULT_PARTITIONS

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records) and self.proportion_pass >= PROPORTION_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "tests": [r.to_dict() for r in self.records],
            "proportion_pass": self.proportion_pass,
            "n_partitions": self.n_partitions,
            "all_passed": self.all_passed,
            "autocorrelation": self.autocorrelation.tolist(),
        }


def run_battery(
    bits,
    n_partitions: int = DEFAULT_PARTITIONS,
    max_lag: int = 100,
) -> TestReport:
    """Run every implemented test on the full sequence and on equal partitions."""
    x = _as01(bits)
    part_len = x.size // n_partitions
    report = TestReport(n_partitions=n_partitions)
    for name, test in ALL_TESTS.items():
        statistic, p_value = test(x)
        passing = 0
        for i in range(n_partitions):
            _, sub_p = test(x[i * part_len : (i + 1) * part_len])
            passing += sub_p >= P_VALUE_THRESHOLD
        proportion = passing / n_partitions
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
    report.autocorrelation = autocorrelation(x, max_lag)
    return report


@dataclass
class AutocorrelationComparison:
    lags: np.ndarray
    raw_curve: np.ndarray
    final_curve: np.ndarray
    max_abs_raw: float
    max_abs_final: float

    @property
    def final_below_raw(self) -> bool:
        return self.max_abs_final < self.max_abs_raw

    def to_dict(self) -> dict:
        return {
            "max_abs_raw": self.max_abs_raw,
            "max_abs_final": self.max_abs_final,
            "final_below_raw": self.final_below_raw,
        }


def compare_raw_vs_final(raw, final, max_lag: int = 100) -> AutocorrelationComparison:
    """Autocorrelation curves of raw input vs extracted output.

    Both sequences must be at least 10**5 bits so the curves are meaningful
    at lags up to ``max_lag``.
    """
    raw01, final01 = _as01(raw), _as01(final)
    _require(raw01, 10**5, "raw-vs-final comparison")
    _require(final01, 10**5, "raw-vs-final comparison")
    raw_curve = autocorrelation(raw01, max_lag)
    final_curve = autocorrelation(final01, max_lag)
    return AutocorrelationComparison(
        lags=np.arange(1, max_lag + 1),
        raw_curve=raw_curve,
        final_curve=final_curve,
        max_abs_raw=float(np.max(np.abs(raw_curve))),
        max_abs_final=float(np.max(np.abs(final_curve))),
    )
