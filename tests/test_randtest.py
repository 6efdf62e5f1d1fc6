"""Statistical battery tests: constructed extremes, null-distribution
uniformity via Kolmogorov-Smirnov, exactness of the packed-word kernels
against their oracles, and the raw-vs-final autocorrelation contract."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from helpers import (
    block_frequency_test,
    child_env,
    column_longest_run_test,
    cusum_test,
    dot_autocorrelation,
    exact_autocorrelation,
    longest_run_test,
    monobit_test,
    oracle_battery,
    runs_test,
    walk_cusum_test,
    zero_bits,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from siqrng import randtest
from siqrng.bits import BitBlock
from siqrng.estimation import EstimationResult
from siqrng.extractor import extract_session
from siqrng.randtest import (
    BATTERY_MIN_BITS,
    DegenerateSequenceError,
    InsufficientLengthError,
    autocorrelation,
    erfc,
    gammaincc,
    ndtr,
    run_battery,
)


def _alternating(n):
    return np.tile(np.array([0, 1], dtype=np.uint8), n // 2)


def _block(x01) -> BitBlock:
    return BitBlock.from01(x01)


class TestAutocorrelation:
    def test_alternating_sequence_fully_anticorrelated(self):
        r = autocorrelation(_block(_alternating(2**20)), max_lag=1)
        # divide-by-n estimator gives -(n-1)/n, indistinguishable from -1 here
        assert r[0] == pytest.approx(-1.0, abs=1e-5)

    def test_constant_sequence_is_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            autocorrelation(zero_bits(1000), max_lag=10)

    def test_ideal_rng_within_gaussian_envelope(self, rng):
        # null oracle: R(j) ~ N(0, 1/n); 4/sqrt(n) is the 4-sigma envelope
        n = 10**6
        r = autocorrelation(_block(rng.integers(0, 2, n, dtype=np.uint8)), max_lag=100)
        assert np.mean(np.abs(r) <= 4 / np.sqrt(n)) >= 0.99
        assert np.all(r != 0.0)  # finite-size: never exactly zero

    def test_invariant_under_global_bit_flip(self, rng):
        x = rng.integers(0, 2, 5000, dtype=np.uint8)
        assert autocorrelation(_block(x), 50) == pytest.approx(autocorrelation(_block(1 - x), 50))

    def test_needs_enough_bits(self):
        with pytest.raises(InsufficientLengthError):
            autocorrelation(_block([0, 1, 0]), max_lag=10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=700),
        lag=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        density=st.sampled_from([0.5, 0.05, 0.95]),
    )
    @example(n=102, lag=100, seed=1, density=0.5)  # n = max_lag + 2
    @example(n=130, lag=128, seed=2, density=0.5)
    @example(n=191, lag=129, seed=3, density=0.95)  # n % 64 != 0
    @example(n=640, lag=65, seed=4, density=0.05)
    def test_equals_exact_estimator(self, n, lag, seed, density):
        max_lag = min(lag, n - 2)
        x = (np.random.default_rng(seed).random(n) < density).astype(np.uint8)
        assume(0 < x.sum() < n)
        got = autocorrelation(_block(x), max_lag).tolist()
        assert got == [float(r) for r in exact_autocorrelation(x, max_lag)]

    @pytest.mark.parametrize("n", [191, 192, 193, 383, 384, 385, 575, 576, 577, 1000])
    def test_chunked_counts_equal_exact_estimator(self, n, monkeypatch):
        # chunks of 3 words (192 bits): the lag counts are summed across
        # chunk edges, and lags past 64 read the next words of the next chunk
        monkeypatch.setattr(randtest, "AUTOCORRELATION_CHUNK_WORDS", 3)
        x = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        got = autocorrelation(_block(x), 100).tolist()
        assert got == [float(r) for r in exact_autocorrelation(x, 100)]

    @pytest.mark.parametrize("n", [577, 1000])
    def test_chunked_counts_past_two_words_equal_exact_estimator(self, n, monkeypatch):
        # lags 128..130 read each shifted copy two words on, across the
        # edge of a 3-word chunk
        monkeypatch.setattr(randtest, "AUTOCORRELATION_CHUNK_WORDS", 3)
        x = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        got = autocorrelation(_block(x), 130).tolist()
        assert got == [float(r) for r in exact_autocorrelation(x, 130)]

    @pytest.mark.parametrize("n", [192, 200, 257, 320])
    def test_single_pairs_across_word_boundaries(self, n):
        # ones at 0, 63, 64, 65 and 128: every pair distance from 1 to 128
        # that straddles a 64-bit word edge shows up in c_j
        x = np.zeros(n, dtype=np.uint8)
        x[[0, 63, 64, 65, 128]] = 1
        got = autocorrelation(_block(x), 130).tolist()
        assert got == [float(r) for r in exact_autocorrelation(x, 130)]

    def test_matches_dot_product_oracle(self, rng):
        n = 3 * 10**5 + 13
        flips = rng.random(n) < 0.4
        markov = (np.cumsum(flips) & 1).astype(np.uint8)
        for x in (rng.integers(0, 2, n, dtype=np.uint8), markov):
            np.testing.assert_allclose(
                autocorrelation(_block(x), 100), dot_autocorrelation(x, 100), rtol=0, atol=1e-12
            )

    def test_curve_does_not_depend_on_blas_threads(self):
        # an 8.4M-bit curve summed by float dot products differs between
        # one and two OpenBLAS threads; integer lag counts cannot
        code = (
            "import hashlib, numpy as np\n"
            "from siqrng.bits import BitBlock\n"
            "from siqrng.randtest import autocorrelation\n"
            "data = np.random.default_rng(20261018).integers(0, 256, 2**20, dtype=np.uint8)\n"
            "curve = autocorrelation(BitBlock(data, 2**23), 100)\n"
            "print(hashlib.sha256(curve.tobytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=child_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestIndividualTests:
    def test_monobit_balanced_sequence(self):
        statistic, p = monobit_test(_alternating(2**20))
        assert statistic == 0.0 and p == 1.0

    def test_monobit_all_ones_fails(self):
        _, p = monobit_test(np.ones(10**4, dtype=np.uint8))
        assert p < 1e-10

    def test_runs_alternating_fails(self):
        _, p = runs_test(_alternating(2**20))
        assert p < 0.01

    def test_runs_biased_precheck(self):
        x = np.ones(10**4, dtype=np.uint8)
        x[:100] = 0
        _, p = runs_test(x)
        assert p == 0.0

    def test_block_frequency_structured_failure(self):
        # blocks of all-0 then all-1: balanced overall, grossly unbalanced per block
        x = np.concatenate([np.zeros(2**12, np.uint8), np.ones(2**12, np.uint8)])
        _, p_block = block_frequency_test(x)
        _, p_mono = monobit_test(x)
        assert p_mono == 1.0 and p_block < 1e-10

    def test_longest_run_detects_clumping(self, rng):
        x = rng.integers(0, 2, 2**14, dtype=np.uint8)
        clumped = x.copy()
        clumped[::37] = 1
        clumped[1::37] = 1
        clumped[2::37] = 1
        _, p_random = longest_run_test(x)
        _, p_clumped = longest_run_test(clumped)
        assert p_random >= 0.01 > p_clumped

    def test_cusum_drifting_walk_fails(self, rng):
        x = (rng.random(2**14) < 0.53).astype(np.uint8)
        _, p = cusum_test(x)
        assert p < 0.01

    @pytest.mark.parametrize(
        "test", [monobit_test, block_frequency_test, runs_test, longest_run_test, cusum_test]
    )
    def test_minimum_length_enforced(self, test):
        with pytest.raises(InsufficientLengthError):
            test(np.array([0, 1] * 8, dtype=np.uint8))

    @pytest.mark.parametrize(
        "test", [monobit_test, block_frequency_test, runs_test, longest_run_test, cusum_test]
    )
    def test_p_values_uniform_under_null(self, test, rng):
        # 200 ideal-rng blocks; KS against U[0,1] must not reject at 1e-3
        p_values = [test(rng.integers(0, 2, 2**15, dtype=np.uint8))[1] for _ in range(200)]
        assert kstest(p_values, "uniform").pvalue > 1e-3


def _relative_errors(values, references) -> list[float]:
    return [float(abs((mpmath.mpf(v) - r) / r)) for v, r in zip(values, references, strict=True)]


class TestSpecialFunctions:
    """The P-value functions against 40-digit mpmath over the arguments the
    battery reaches, to 1e-12 relative (scipy.special reaches 2e-13 here)."""

    def test_erfc(self):
        # monobit and runs: erfc of a nonnegative statistic
        xs = np.linspace(0.0, 26.0, 521).tolist()
        with mpmath.workdps(40):
            refs = [mpmath.erfc(x) for x in xs]
        assert max(_relative_errors([erfc(x) for x in xs], refs)) <= 1e-12

    def test_ndtr(self):
        # cusum: any argument; below -37 the result leaves the normal floats
        xs = np.concatenate([np.linspace(-37.0, 40.0, 1541), [-0.3, 0.0, 1e-9, 8.29, 8.3]])
        with mpmath.workdps(40):
            refs = [mpmath.ncdf(x) for x in xs.tolist()]
        assert max(_relative_errors(ndtr(xs).tolist(), refs)) <= 1e-12

    def test_ndtr_saturates_where_erfc_does(self):
        # the elements ndtr does not pass to erfc hold what erfc would give
        xs = np.concatenate([np.linspace(-42.0, -36.0, 6001), np.linspace(7.0, 11.0, 4001)])
        formula = [0.5 * erfc(-x / np.sqrt(2.0)) for x in xs.tolist()]
        assert ndtr(xs).tolist() == formula

    @pytest.mark.parametrize("a", [1.5, 2.5, 3.0])
    def test_gammaincc_longest_run(self, a):
        # longest run: a = (categories - 1) / 2 and x = chi2 / 2
        xs = np.linspace(0.0, 40.0, 161).tolist()
        with mpmath.workdps(40):
            refs = [mpmath.gammainc(a, x, mpmath.inf, regularized=True) for x in xs]
        assert max(_relative_errors([gammaincc(a, x) for x in xs], refs)) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0, 9.5, 10.0, 81.5, 8192.0, 39062.5, 1e5])
    def test_gammaincc_block_frequency(self, a):
        # block frequency: a = n_blocks / 2 and x = chi2 / 2, whose mean is a
        # and whose standard deviation is sqrt(a); within 6 of those
        xs = [x for x in (a + k * np.sqrt(a) for k in np.linspace(-6, 6, 49)) if x >= 0]
        with mpmath.workdps(40):
            refs = [mpmath.gammainc(a, x, mpmath.inf, regularized=True) for x in xs]
        assert max(_relative_errors([gammaincc(a, x) for x in xs], refs)) <= 1e-12


class TestPackedKernelsMatchOracles:
    # regime edges of the longest-run test, and lengths with a partial last byte
    LENGTHS = [100, 127, 128, 129, 6271, 6272, 749999, 750000]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("density", [0.5, 0.9])
    def test_random_input(self, n, density, rng):
        x = (rng.random(n) < density).astype(np.uint8)
        assert cusum_test(x) == walk_cusum_test(x)
        if n >= 128:
            assert longest_run_test(x) == column_longest_run_test(x)

    @pytest.mark.parametrize("n", LENGTHS[2:])
    def test_runs_of_ones_across_block_edges(self, n):
        # runs of 1..20 ones, each straddling one edge of the 8-, 128- and
        # 10^4-bit blocks, on a background of zeros
        x = np.zeros(n, dtype=np.uint8)
        for i, edge in enumerate(range(8, n, 997)):
            length = 1 + i % 20
            for block in (8, 128, 10**4):
                start = edge - edge % block - length // 2
                x[max(start, 0) : start + length] = 1
        assert longest_run_test(x) == column_longest_run_test(x)
        assert cusum_test(x) == walk_cusum_test(x)

    @pytest.mark.parametrize("n", [129, 6271, 749999])
    def test_walk_peaks_in_the_partial_last_byte(self, n):
        # all zeros fall to -n and all ones rise to +n, each reaching its
        # extreme only at the last bit, which lies in a partial byte
        ones = np.ones(n, dtype=np.uint8)
        for x in (1 - ones, ones):
            assert cusum_test(x)[0] == float(n)
            assert cusum_test(x) == walk_cusum_test(x)
        assert longest_run_test(ones) == column_longest_run_test(ones)


class TestBattery:
    def test_ideal_rng_passes_battery(self, rng):
        report = run_battery(_block(rng.integers(0, 2, 2**21, dtype=np.uint8)))
        assert report.all_passed
        assert report.proportion_pass >= 0.96
        assert len(report.autocorrelation) == 100
        for record in report.records:
            assert record.p_value >= 0.01

    def test_records_are_unchanged(self, monkeypatch):
        # sha256 of the records without their P values and of the minimum
        # proportion, recorded while scipy.special computed the P values:
        # every statistic and pass flag is unchanged
        x = _block(np.random.default_rng(0xC0FFEE).integers(0, 2, 2**21, dtype=np.uint8))
        doc = run_battery(x).to_dict()
        statistics = [{k: v for k, v in r.items() if k != "p_value"} for r in doc["tests"]]
        assert hashlib.sha256(json.dumps(statistics).encode()).hexdigest() == (
            "5b11e05aa01efc51af741a438f617c1243e00abbd97acbc0e38f290401212572")
        assert hashlib.sha256(json.dumps(doc["proportion_pass"]).encode()).hexdigest() == (
            "b8cbc38948375ba9789be4c7b4da56d790594cd5f488169fee62dd03cf39c9c3")
        # on scipy's special functions the battery gives the records pinned
        # before the tests moved onto packed words; each P value is within
        # 1e-12 of those
        for name in ("erfc", "ndtr", "gammaincc"):
            monkeypatch.setattr(randtest, name, getattr(scipy.special, name))
        reference = run_battery(x).to_dict()["tests"]
        assert hashlib.sha256(json.dumps(reference).encode()).hexdigest() == (
            "0fd7b4044fd4e0e3988b4401f43f2847b53b17111275e73bfdfcbf2663b3cc37")
        for got, want in zip(doc["tests"], reference, strict=True):
            assert got["p_value"] == pytest.approx(want["p_value"], rel=1e-12, abs=0)

    def test_traced_peak_is_at_most_one_byte_per_bit(self):
        # the battery's temporaries reach the session's peak RSS: they
        # stay below what unpacking the bits (one byte per bit) would take
        n = 2**21
        block = BitBlock(np.random.default_rng(21).integers(0, 256, n // 8, dtype=np.uint8), n)
        tracemalloc.start()
        try:
            run_battery(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n, f"{peak / n:.2f} bytes per tested bit"

    def test_rejects_input_below_partition_minimum(self, rng):
        assert BATTERY_MIN_BITS == 128 * 100
        with pytest.raises(InsufficientLengthError, match="statistical battery"):
            run_battery(_block(rng.integers(0, 2, BATTERY_MIN_BITS - 1, dtype=np.uint8)))
        report = run_battery(_block(rng.integers(0, 2, BATTERY_MIN_BITS, dtype=np.uint8)))
        assert len(report.records) == 5
        assert report.to_dict()["n_partitions"] == 100

    def test_biased_input_fails_battery(self, rng):
        report = run_battery(_block(rng.random(2**21) < 0.53))
        assert not report.all_passed

    def test_report_serializes(self, rng):
        report = run_battery(_block(rng.integers(0, 2, 2**18, dtype=np.uint8)))
        doc = report.to_dict()
        assert {r["name"] for r in doc["tests"]} == {
            "monobit", "block_frequency", "runs", "longest_run", "cusum"
        }
        assert len(doc["autocorrelation"]) == 100


# lengths of interest: the battery minimum, the active_sweep output, and
# both sides of the partition-length (6,271/6,272) and full-length
# (749,999/750,000) regime edges of the longest-run test
BATTERY_EDGE_LENGTHS = [BATTERY_MIN_BITS, BATTERY_MIN_BITS + 7, 182_265, 627_100, 627_199,
                        627_200, 749_999, 750_000, 750_803]


def _battery_input(n: int, kind: str, seed: int) -> BitBlock:
    """n bits, balanced, biased (p = 0.53) or clumped.  Clumped bits are
    balanced bits with runs of 1..20 ones laid across block edges of the
    8-, 128- and 10^4-bit blocks, counted from bit 0 and from each
    partition start, and across the partition edges themselves."""
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < (0.53 if kind == "biased" else 0.5)).astype(np.uint8)
    if kind == "clumped":
        starts = np.arange(101) * (n // 100)
        edges = [starts]
        for m in (8, 128, 10**4):
            # some block edges of every partition, and of the whole sequence
            step = m * max(1, n // 100 // m // 6)
            edges.append((starts[:, None] + np.arange(0, n // 100, step)).ravel())
            edges.append(np.arange(0, n, m * max(1, n // m // 50)))
        for edge in np.concatenate(edges).tolist():
            length = int(rng.integers(1, 21))
            start = max(edge - int(rng.integers(0, length + 1)), 0)
            x[start : start + length] = 1
    return BitBlock.from01(x)


class TestPackedBatteryMatchesOracle:
    """run_battery on realigned words against the battery over one byte per
    bit, serialized: every statistic, P value and proportion is equal."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.one_of(st.sampled_from(BATTERY_EDGE_LENGTHS),
                    st.integers(BATTERY_MIN_BITS, 800_000)),
        kind=st.sampled_from(["balanced", "biased", "clumped"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=BATTERY_MIN_BITS, kind="clumped", seed=1)
    @example(n=182_265, kind="clumped", seed=2)  # M = 8 partitions, M = 128 full
    @example(n=627_199, kind="clumped", seed=3)
    @example(n=627_200, kind="clumped", seed=4)
    @example(n=749_999, kind="clumped", seed=5)
    @example(n=750_000, kind="clumped", seed=6)
    @example(n=750_803, kind="biased", seed=7)
    def test_report_equals_oracle(self, n, kind, seed):
        block = _battery_input(n, kind, seed)
        got, want = run_battery(block).to_dict(), oracle_battery(block).to_dict()
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("n", BATTERY_EDGE_LENGTHS)
    def test_constant_input_equals_oracle(self, n):
        # a stuck source gets its five records; its curve is undefined
        for block in (zero_bits(n), BitBlock.from01(np.ones(n, dtype=np.uint8))):
            report = run_battery(block)
            assert json.dumps(report.to_dict()) == json.dumps(oracle_battery(block).to_dict())
            assert not any(r.passed for r in report.records)
            assert np.isnan(report.autocorrelation).all() and report.autocorrelation.size == 100


def _extract_half(raw01, rng_seed=17) -> BitBlock:
    est = EstimationResult(e_bx=0.1, theta=0.0, log2_eps_theta=-60.0, abort=False)
    final, _, _ = extract_session(
        _block(raw01), est, 20, np.random.default_rng(rng_seed)
    )
    return final


def _max_abs_r(block: BitBlock) -> float:
    return float(np.max(np.abs(autocorrelation(block, 100))))


class TestCompareRawVsFinal:
    """The pipeline's ``autocorrelation.csv``: R(j) of the raw Z bits next to
    the battery's R(j) of the output."""

    def test_identical_inputs_have_equal_curves(self, rng):
        # the battery's curve is the output column, computed once
        block = _block(rng.integers(0, 2, 2 * 10**5, dtype=np.uint8))
        curve = run_battery(block).autocorrelation
        assert curve.tolist() == autocorrelation(block, 100).tolist()

    def test_biased_raw_improves_after_extraction(self, rng):
        # bias around 0.55, slowly modulated: a constant i.i.d. bias leaves
        # the mean-subtracted correlogram at its noise floor, so the injected
        # defect must vary on a sub-100-lag scale to register in R(j)
        n = 2**19
        p = 0.55 + 0.1 * np.sin(2 * np.pi * np.arange(n) / 1600)
        raw = (rng.random(n) < p).astype(np.uint8)
        _, p_mono = monobit_test(raw)
        assert p_mono < 0.01  # the bias itself is grossly visible
        max_abs_raw = _max_abs_r(_block(raw))
        assert max_abs_raw > 0.012
        assert _max_abs_r(_extract_half(raw)) < max_abs_raw

    def test_markov_correlated_raw_improves_after_extraction(self, rng):
        # two-state chain with P(flip) = 0.45: lag-1 autocorrelation ~ +0.1
        n = 2**19
        flips = rng.random(n) < 0.45
        raw = np.zeros(n, dtype=np.uint8)
        raw[0] = rng.integers(0, 2)
        for i in range(1, n):
            raw[i] = raw[i - 1] ^ flips[i]
        max_abs_raw = _max_abs_r(_block(raw))
        assert max_abs_raw > 0.05
        assert _max_abs_r(_extract_half(raw)) < max_abs_raw

    def test_requires_large_blocks(self, rng):
        # lags up to 100 need 102 bits
        x = rng.integers(0, 2, 102, dtype=np.uint8)
        with pytest.raises(InsufficientLengthError):
            autocorrelation(_block(x[:101]), 100)
        assert autocorrelation(_block(x), 100).size == 100
