"""Independent oracles used only by the tests.

These deliberately re-derive results by a different route than the
package: arbitrary-precision arithmetic for the entropy formulas, a
direct matrix-vector product for the Toeplitz hash and an explicit
[I | T] matrix for the modified one, the textbook ranking
formula as the inverse of unranking, a candidate-by-candidate walk
as a second unranker, exact rationals and float64 dot products for the
lag autocorrelation, and an int64 walk and a column-by-column scan for
the cusum and longest-run tests.  Those two take their P values from the
package's own ``ndtr`` and ``gammaincc``, so they check the packed
kernels and not one special-function library against another.  The five
battery tests are also kept as functions of one 0/1 array each, and
``oracle_battery`` runs them on the full sequence and on every partition
cut from the unpacked bits.  The
simulator, the passive basis draw and the tally are also kept in their
full-length form: per-pulse probability arrays, one draw of N uniforms,
and whole-stream masks; and the tally once more per event, squashing one
click event at a time.
Also click records built from basis and pattern arrays, a sink that
keeps a session's whole record array (which the package never builds)
and the simulator, click-file and tally routes through it, an all-zero
bit block, a seed stream of given bits, and the environment for tests
that run the package in a fresh interpreter.
"""

import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

import siqrng
from siqrng.bits import BitBlock
from siqrng.fileio import ClickFileWriter, read_click_file
from siqrng.photonic_sim import CHUNK, Basis, Pattern, click_probabilities, run_session
from siqrng.randtest import (
    _LONGEST_RUN_REGIMES,
    BATTERY_MIN_BITS,
    BLOCK_FREQUENCY_LEN,
    MAX_LAG,
    MIN_TEST_BITS,
    N_PARTITIONS,
    P_VALUE_THRESHOLD,
    DegenerateSequenceError,
    TestRecord,
    TestReport,
    _require,
    autocorrelation,
    erfc,
    gammaincc,
    ndtr,
)
from siqrng.squash_sample import SessionTally, TallyFold, squash_and_tally

mp.dps = 50


def child_env(**extra: str) -> dict:
    """os.environ plus ``extra``, with the package importable in a child.

    A child finds the package where this process found it, also when that
    is a pytest ``pythonpath`` entry rather than PYTHONPATH.
    """
    package_root = str(Path(siqrng.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def mp_binary_entropy(e) -> mpf:
    e = mpf(e)
    if e == 0 or e == 1:
        return mpf(0)
    return (-e * mp.log(e) - (1 - e) * mp.log(1 - e)) / mp.log(2)


def mp_binary_entropy_derivative(e) -> mpf:
    e = mpf(e)
    return mp.log((1 - e) / e) / mp.log(2)


def mp_deviation_exponent(theta, e_bx, q_x) -> mpf:
    theta, e_bx, q_x = mpf(theta), mpf(e_bx), mpf(q_x)
    return (
        mp_binary_entropy(e_bx + theta - q_x * theta)
        - q_x * mp_binary_entropy(e_bx)
        - (1 - q_x) * mp_binary_entropy(e_bx + theta)
    )


def mp_log2_failure_bound(n, q_x, e_bx, theta) -> mpf:
    n, q_x, e_bx = mpf(n), mpf(q_x), mpf(e_bx)
    prefactor = -mpf("0.5") * mp.log(q_x * (1 - q_x) * e_bx * (1 - e_bx) * n) / mp.log(2)
    return min(mpf(0), prefactor - n * mp_deviation_exponent(theta, e_bx, q_x))


def zero_bits(length: int) -> BitBlock:
    """A block of ``length`` zero bits."""
    return BitBlock(np.zeros((length + 7) // 8, dtype=np.uint8), length)


def naive_toeplitz(raw01: np.ndarray, seed01: np.ndarray, k_out: int) -> np.ndarray:
    """y[i] = XOR_j seed[i - j + n - 1] & raw[j], straight from the definition."""
    n = raw01.size
    assert seed01.size == n + k_out - 1
    out = np.zeros(k_out, dtype=np.uint8)
    for i in range(k_out):
        row = seed01[i + n - 1 :: -1][:n]  # seed[i-j+n-1] for j = 0..n-1
        out[i] = int(np.dot(row.astype(np.int64), raw01.astype(np.int64))) & 1
    return out


def naive_dual_toeplitz(raw01: np.ndarray, seed01: np.ndarray, k_out: int) -> np.ndarray:
    """y = [I_K | T] x mod 2, with the K x n matrix written out in full.

    T is the K x (n-K) Toeplitz matrix ``T[i][j] = seed[i - j + n - K - 1]``
    on an (n-1)-bit seed, or empty with no seed when K = n.
    """
    n = raw01.size
    m = n - k_out
    assert seed01.size == (n - 1 if m else 0)
    rows, cols = np.arange(k_out)[:, None], np.arange(m)[None, :]
    matrix = np.concatenate(
        [np.eye(k_out, dtype=np.uint8), seed01[rows - cols + m - 1].astype(np.uint8)], axis=1
    )
    return (np.count_nonzero(matrix & raw01.astype(np.uint8), axis=1) & 1).astype(np.uint8)


def rank_combination(positions, n: int) -> int:
    """Lexicographic rank of a sorted k-subset of {0..n-1} (inverse of unrank)."""
    rank = 0
    prev = -1
    k = len(positions)
    for slot, pos in enumerate(positions):
        for c in range(prev + 1, pos):
            rank += math.comb(n - 1 - c, k - slot - 1)
        prev = pos
    return rank


def walk_unrank(index: int, n: int, k: int) -> list[int]:
    """Lexicographic unranking one candidate position at a time.

    For each candidate in turn, ``b`` counts the remaining subsets that
    contain it: the candidate is chosen when the rank falls below ``b``,
    and skipped otherwise.  O(last chosen position) exact steps.
    """
    out: list[int] = []
    if k == 0:
        return out
    b = math.comb(n - 1, k - 1)  # subsets containing the current candidate
    n_rem, k_rem, c, r = n, k, 0, index
    while k_rem > 0:
        if r < b:
            out.append(c)
            if k_rem > 1:
                b = b * (k_rem - 1) // (n_rem - 1)
            k_rem -= 1
        else:
            r -= b
            b = b * (n_rem - k_rem) // (n_rem - 1)
        n_rem -= 1
        c += 1
    return out


def exact_autocorrelation(x01, max_lag: int) -> list[Fraction]:
    """R(1..max_lag) as exact rationals, from the centred bits n*x_i - s.

    sum_i (n x_i - s)(n x_{i+j} - s) is n^2 times the lag-j sum of centred
    products, and n^2 times the biased variance is n s - s^2.
    """
    x = [int(b) for b in x01]
    n, s = len(x), sum(x)
    centred = [n * b - s for b in x]
    return [
        Fraction(sum(centred[i] * centred[i + j] for i in range(n - j)), n * (n * s - s * s))
        for j in range(1, max_lag + 1)
    ]


def dot_autocorrelation(x01: np.ndarray, max_lag: int) -> np.ndarray:
    """Divide-by-n lag autocorrelation from float64 dot products of the centred bits."""
    x = np.asarray(x01, dtype=np.float64)
    d = x - x.mean()
    var = float(np.mean(d * d))
    n = x.size
    return np.array([float(np.dot(d[:-j], d[j:])) / n / var for j in range(1, max_lag + 1)])


def walk_cusum_test(x01: np.ndarray) -> tuple[float, float]:
    """Forward cumulative-sums test over the int64 partial sums of every bit."""
    n = x01.size
    walk = np.cumsum(2 * np.asarray(x01, dtype=np.int64) - 1)
    z = int(np.max(np.abs(walk)))
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    p = (
        1.0
        - float(np.sum(ndtr((4 * k1 + 1) * z / sqrt_n) - ndtr((4 * k1 - 1) * z / sqrt_n)))
        + float(np.sum(ndtr((4 * k2 + 3) * z / sqrt_n) - ndtr((4 * k2 + 1) * z / sqrt_n)))
    )
    return float(z), float(min(max(p, 0.0), 1.0))


def column_longest_run_test(x01: np.ndarray) -> tuple[float, float]:
    """Longest-run-of-ones test, scanning each block's columns one at a time."""
    x = np.asarray(x01, dtype=np.uint8)
    regime = next(r for r in reversed(_LONGEST_RUN_REGIMES) if x.size >= r[0])
    _, m, bounds, pi = regime
    n_blocks = x.size // m
    blocks = x[: n_blocks * m].reshape(n_blocks, m).astype(np.int64)
    current = np.zeros(n_blocks, dtype=np.int64)
    longest = np.zeros(n_blocks, dtype=np.int64)
    for col in range(m):
        current = (current + 1) * blocks[:, col]
        np.maximum(longest, current, out=longest)
    counts = np.zeros(len(bounds), dtype=np.int64)
    counts[0] = int(np.count_nonzero(longest <= bounds[0]))
    for i in range(1, len(bounds) - 1):
        counts[i] = int(np.count_nonzero(longest == bounds[i]))
    counts[-1] = int(np.count_nonzero(longest >= bounds[-1]))
    expected = n_blocks * np.asarray(pi)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(gammaincc((len(bounds) - 1) / 2.0, chi2 / 2.0))


def _byte_walk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk end, highest and lowest prefix of the +/-1 walk over each byte."""
    steps = 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1  # LSB first
    prefix = np.cumsum(steps, axis=1)
    return prefix[:, -1], prefix.max(axis=1), prefix.min(axis=1)


_BYTE_END, _BYTE_HIGH, _BYTE_LOW = _byte_walk_tables()


def _as01(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d bit sequence")
    return arr


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


def oracle_battery(block: BitBlock) -> TestReport:
    """The battery over one byte per bit: every test on the full sequence
    and on each of the N_PARTITIONS partitions cut from the 0/1 array."""
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
        report.records.append(TestRecord(
            name=name, statistic=statistic, p_value=p_value,
            passed=p_value >= P_VALUE_THRESHOLD, proportion_pass=passing / N_PARTITIONS,
        ))
    report.proportion_pass = min(r.proportion_pass for r in report.records)
    try:
        report.autocorrelation = autocorrelation(block, MAX_LAG)
    except DegenerateSequenceError:
        report.autocorrelation = np.full(MAX_LAG, np.nan)
    return report


def click_records(basis, pattern) -> np.ndarray:
    """Click records from per-pulse basis (0 Z, 1 X) and pattern (0..3)
    values: the pattern in bits 0-1, the basis in bit 2."""
    basis, pattern = np.asarray(basis), np.asarray(pattern)
    if basis.ndim != 1 or basis.shape != pattern.shape:
        raise ValueError(
            "basis and pattern must be 1-d arrays of one length, got shapes "
            f"{basis.shape} and {pattern.shape}"
        )
    if not np.isin(basis, (Basis.Z, Basis.X)).all():
        raise ValueError("basis values must be 0 (Z) or 1 (X)")
    if not np.isin(pattern, tuple(Pattern)).all():
        raise ValueError("pattern values must be in 0..3")
    return pattern.astype(np.uint8) | (basis.astype(np.uint8) << 2)


class RecordsSink:
    """A sink of :func:`~siqrng.photonic_sim.run_session` and
    :func:`~siqrng.fileio.read_click_file` that keeps every record: the
    session's record array, one byte per pulse.  A pulse no chunk reached
    keeps the byte 0xFF, which no record has."""

    def __init__(self, n: int):
        self.records = np.full(n, 0xFF, dtype=np.uint8)

    def span(self, start: int):
        return self.add

    def add(self, lo: int, records: np.ndarray):
        self.records[lo : lo + records.size] = records


def session_records(n, source, channel, det, basis_plan, rng) -> np.ndarray:
    """The click records :func:`~siqrng.photonic_sim.run_session` hands on."""
    sink = RecordsSink(n)
    assert run_session(n, source, channel, det, basis_plan, rng, sink) is sink
    return sink.records


def write_click_file(path, records: np.ndarray):
    """A click file holding ``records``, written in one piece."""
    with ClickFileWriter(path, records.size) as clicks:
        clicks.write(0, records)


def read_click_records(path) -> np.ndarray:
    """The records of a click file, read back whole."""
    return read_click_file(path, RecordsSink).records


def tally_records(records: np.ndarray, rng) -> SessionTally:
    """:func:`~siqrng.squash_sample.squash_and_tally` of a record array
    folded the way the simulator hands it on: in chunks of ``CHUNK``, in
    two spans split at ``n // 2`` when each half holds a chunk, the upper
    span folded first."""
    n = records.size
    half = n // 2 if n // 2 >= CHUNK else 0
    fold = TallyFold(n, None)
    for start, stop in ((half, n), (0, half)) if half else ((0, n),):
        add = fold.span(start)
        for lo in range(start, stop, CHUNK):
            add(lo, records[lo : min(lo + CHUNK, stop)])
    assert len(fold) == n
    return squash_and_tally(fold, rng)


def where_run_session(n, source, channel, det, basis_plan, rng) -> np.ndarray:
    """The simulator over full-length arrays: one ``rng.random(n)`` draw,
    and each pulse's click probabilities, hence its three cumulative
    pattern thresholds, chosen by ``np.where`` from its basis."""
    basis = np.zeros(n, dtype=np.uint8)
    basis[basis_plan] = Basis.X
    is_x = basis == Basis.X
    pz = click_probabilities(source, channel, det, Basis.Z)
    px = click_probabilities(source, channel, det, Basis.X)
    p0 = np.where(is_x, px[0], pz[0])
    p1 = np.where(is_x, px[1], pz[1])
    u = rng.random(n)
    none = (1.0 - p0) * (1.0 - p1)
    d0 = none + p0 * (1.0 - p1)
    d1 = d0 + (1.0 - p0) * p1
    pattern = (u >= none).astype(np.uint8) + (u >= d0) + (u >= d1)
    return click_records(basis, pattern)


def mask_squash_and_tally(records: np.ndarray, rng) -> SessionTally:
    """Squash and tally through whole-stream basis and pattern masks."""
    basis, pattern = records >> 2, records & 3
    is_x = basis == Basis.X
    non_vacuum = pattern != Pattern.NONE
    x_events = is_x & non_vacuum
    n_x = int(np.count_nonzero(x_events))
    z_patterns = pattern[~is_x & non_vacuum]
    z_bits01 = np.empty(z_patterns.size, dtype=np.uint8)
    z_bits01[z_patterns == Pattern.D0] = 0
    z_bits01[z_patterns == Pattern.D1] = 1
    doubles = z_patterns == Pattern.DOUBLE
    n_doubles = int(np.count_nonzero(doubles))
    if n_doubles:
        z_bits01[doubles] = rng.integers(0, 2, n_doubles, dtype=np.uint8)
    return SessionTally(
        n=n_x + z_patterns.size,
        n_x=n_x,
        n_z=int(z_patterns.size),
        x_minus=int(np.count_nonzero(x_events & (pattern == Pattern.D1))),
        x_double=int(np.count_nonzero(x_events & (pattern == Pattern.DOUBLE))),
        z_bits=BitBlock.from01(z_bits01),
        seed_bits_consumed=n_doubles,
    )


@dataclass(frozen=True)
class ClickEvent:
    pulse_index: int
    basis: Basis
    pattern: Pattern


def click_events(records: np.ndarray):
    """The session's pulses one event at a time, in pulse order."""
    basis, pattern = records >> 2, records & 3
    for i in range(basis.size):
        yield ClickEvent(i, Basis(int(basis[i])), Pattern(int(pattern[i])))


def take_bit(rng) -> int:
    """One bit from a seed stream, in a draw of its own."""
    return int(rng.integers(0, 2, 1, dtype=np.uint8)[0])


class FixedBits:
    """A seed stream of given bits in place of a Generator: its
    ``integers(0, 2, size, dtype=np.uint8)`` hands out the next ``size``
    bits, raises :class:`FixedBits.Exhausted` once they run out, and
    counts the bits handed out in ``drawn``."""

    class Exhausted(Exception):
        pass

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.drawn = 0

    def integers(self, low, high, size, dtype):
        if (low, high, dtype) != (0, 2, np.uint8):
            raise ValueError("FixedBits hands out uint8 bits only")
        if self.drawn + size > self.bits.size:
            raise FixedBits.Exhausted(f"{size} bits asked, {self.bits.size - self.drawn} left")
        self.drawn += size
        return self.bits[self.drawn - size : self.drawn].copy()


class OutcomeKind(enum.Enum):
    VACUUM = "vacuum"
    BIT = "bit"
    DOUBLE = "double"


@dataclass(frozen=True)
class SquashedOutcome:
    kind: OutcomeKind
    bit_value: int | None = None

    def __post_init__(self):
        if (self.kind is OutcomeKind.BIT) != (self.bit_value is not None):
            raise ValueError("bit_value must be present exactly when kind is BIT")


def squash(event: ClickEvent, rng) -> SquashedOutcome:
    """Classify one click event under the squashing rules.

    Z-basis double clicks draw one bit from ``rng``; X-basis double
    clicks stay unassigned (they are discarded after error accounting).
    """
    if event.pattern == Pattern.NONE:
        return SquashedOutcome(OutcomeKind.VACUUM)
    if event.pattern == Pattern.D0:
        return SquashedOutcome(OutcomeKind.BIT, 0)
    if event.pattern == Pattern.D1:
        return SquashedOutcome(OutcomeKind.BIT, 1)
    if event.basis == Basis.Z:
        return SquashedOutcome(OutcomeKind.BIT, take_bit(rng))
    return SquashedOutcome(OutcomeKind.DOUBLE)


def tally_session(outcomes, seed_bits_consumed: int = 0) -> SessionTally:
    """Fold (basis, SquashedOutcome) pairs, in pulse order, into a tally."""
    n_x = x_minus = x_double = 0
    z_bits: list[int] = []
    for basis, outcome in outcomes:
        if outcome.kind is OutcomeKind.VACUUM:
            continue
        if basis == Basis.X:
            n_x += 1
            if outcome.kind is OutcomeKind.DOUBLE:
                x_double += 1
            elif outcome.bit_value == 1:
                x_minus += 1
        else:
            z_bits.append(outcome.bit_value)
    return SessionTally(
        n=n_x + len(z_bits), n_x=n_x, n_z=len(z_bits), x_minus=x_minus,
        x_double=x_double, z_bits=BitBlock.from01(z_bits),
        seed_bits_consumed=seed_bits_consumed,
    )
