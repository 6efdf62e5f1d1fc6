"""Toeplitz extraction: bit-exact agreement with the naive GF(2) oracle,
linearity, planning arithmetic, and session-level block accounting."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from siqrng import extractor
from siqrng.bits import BitBlock
from siqrng.entropy_math import ProtocolAbortError, final_length
from siqrng.estimation import ESTIMATE_ABORT_REASON, EstimationResult
from siqrng.extractor import _balanced_blocks, _dual_hash_blocks, _smooth_length, extract_session

from helpers import FixedBits, mp_binary_entropy, naive_dual_toeplitz, naive_toeplitz, zero_bits


def _est(e_bx=0.02, theta=0.0, log2_eps=-100.0, abort=False):
    return EstimationResult(e_bx=e_bx, theta=theta, log2_eps_theta=log2_eps, abort=abort)


def _extract(n_z, est, t_e):
    """``extract_session`` of ``n_z`` zero bits at a fixed seed."""
    return extract_session(zero_bits(n_z), est, t_e, np.random.default_rng(1))


@pytest.fixture
def transform_lengths(monkeypatch):
    """The length of every ``np.fft.rfft`` and ``np.fft.irfft`` run after it."""
    lengths = []
    real_rfft, real_irfft = np.fft.rfft, np.fft.irfft

    def rfft(a, n=None, *args, **kwargs):
        lengths.append(np.shape(a)[-1] if n is None else n)
        return real_rfft(a, n, *args, **kwargs)

    def irfft(a, n=None, *args, **kwargs):
        lengths.append(2 * (np.shape(a)[-1] - 1) if n is None else n)
        return real_irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    return lengths


class TestMakePlan:
    """The extraction plan a session makes: K and the (I | T) seed length
    that ``extract_session`` certifies for one block."""

    def test_zero_error_plan(self):
        final, _, summary = _extract(1000, _est(e_bx=0.0, theta=0.0), t_e=100)
        assert len(final) == summary["K"] == 900
        assert summary["toeplitz_seed_bits"] == 1000 - 1

    def test_reference_plan_size(self):
        # oracle: floor(1e6 * (1 - H(0.02))) - 100 = 858459, in one block
        final, _, summary = _extract(10**6, _est(e_bx=0.02), t_e=100)
        assert summary["n_blocks"] == 1
        assert len(final) == 858459

    def test_nearly_saturated_error_rate(self):
        # oracle: floor(1e6 * (1 - H(0.49))) - 100 = 188
        final, _, _ = _extract(10**6, _est(e_bx=0.49), t_e=100)
        assert len(final) == 188

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ProtocolAbortError, match="non-positive output length"):
            _extract(200, _est(e_bx=0.4), t_e=100)

    @settings(max_examples=300, deadline=None)
    @given(
        # e as an estimate gives it: at least one error, or 1/n_x, per check
        e=st.integers(2, 10**9).flatmap(lambda m: st.integers(1, m - 1).map(lambda k: k / m)),
        r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        n_z=st.integers(min_value=1, max_value=4000),
        t_e=st.integers(min_value=1, max_value=200),
    )
    @example(e=0.62, r=1.0, n_z=2000, t_e=10)  # H(0.62) = H(0.38) would certify bits
    @example(e=0.45, r=0.9, n_z=2000, t_e=10)  # e/r = 1/2 exactly
    def test_abort_boundary(self, e, r, n_z, t_e):
        # every abort raises before it draws a Toeplitz seed bit; otherwise K
        # is the exact floor(r n_z (1 - H(e/r))) - t_e, and a K <= 0 aborts
        scaled = mpf(e) / mpf(r)
        exact = (int(mp.floor(mpf(r) * n_z * (1 - mp_binary_entropy(scaled)))) - t_e
                 if scaled < 0.5 else 0)
        if exact > 0:
            final, _, summary = extract_session(zero_bits(n_z), _est(e_bx=e), t_e,
                                                np.random.default_rng(0), efficiency_ratio=r)
            assert len(final) == summary["K"] == exact
        else:
            seed = FixedBits([])
            with pytest.raises(ProtocolAbortError):
                extract_session(zero_bits(n_z), _est(e_bx=e), t_e, seed, efficiency_ratio=r)
            assert seed.drawn == 0

    def test_extraction_ratio_matches_deployment_figures(self):
        # invert 1 - H(e) = 91/115 with mpmath; e ~= 0.0329, ratio ~= 0.791
        mp.dps = 30
        e_star = mp.findroot(lambda e: 1 - mp_binary_entropy(e) - mpf(91) / 115, mpf("0.03"))
        assert abs(float(e_star) - 0.033) < 0.001
        final, _, _ = _extract(115_000, _est(e_bx=float(e_star)), t_e=100)
        assert len(final) / 115_000 == pytest.approx(0.7913, abs=0.01)


def _brute_smooth_length(n: int) -> int:
    """The first m >= n with no prime factor above 5, tried one m at a time."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


# (I | T) seed lengths, the longest block's m - 1, of the benchmark sessions
# (passive, staged, the active sweep's 0 dB session) and of the pinned
# multi-block session
FIXTURE_SEED_LENGTHS = [1_042_159, 1_041_731, 363_522, 1_000_000]


class TestSmoothLength:
    """The circular FFT length: it fixes where aliases land and the rounding
    margin reported as ``fft_max_deviation``."""

    def test_matches_brute_force_search(self):
        lengths = [*range(1, 20_001), *FIXTURE_SEED_LENGTHS]
        assert [_smooth_length(n) for n in lengths] == [_brute_smooth_length(n) for n in lengths]

    def test_matches_scipy_real_fft_length(self):
        from scipy.fft import next_fast_len

        for n in [*range(1, 20_001), *FIXTURE_SEED_LENGTHS]:
            assert _smooth_length(n) == next_fast_len(n, real=True), n


def _plain_hash(raw01: np.ndarray, seed01: np.ndarray, k_out: int) -> np.ndarray:
    """The plain K x n Toeplitz hash ``T[i][j] = seed[i - j + n - 1]`` of an
    n-bit ``raw01`` on an (n + K - 1)-bit seed, through the production
    kernel: it is the (I | T) hash of ``[0^K | raw01]`` with m = n + K."""
    padded = np.concatenate([np.zeros(k_out, dtype=np.uint8), raw01])
    out, _ = _dual_hash_blocks(BitBlock.from01(padded), [(padded.size, k_out)], seed01)
    return out


class TestToeplitzExtract:
    """The plain Toeplitz hash against the naive oracle, computed by the
    (I | T) kernel on a zero-prefixed input (:func:`_plain_hash`)."""

    def test_worked_example(self):
        # K=2, n_z=3: T = [[seed[2], seed[1], seed[0]], [seed[3], seed[2], seed[1]]]
        raw01 = np.array([1, 1, 0], dtype=np.uint8)
        seed01 = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert _plain_hash(raw01, seed01, 2).tolist() == [1, 0]
        assert naive_toeplitz(raw01, seed01, 2).tolist() == [1, 0]

    def test_zero_raw_gives_zero_output(self, rng):
        seed01 = rng.integers(0, 2, 64 + 32 - 1, dtype=np.uint8)
        assert not _plain_hash(np.zeros(64, dtype=np.uint8), seed01, 32).any()

    def test_zero_seed_gives_zero_output(self, rng):
        raw01 = rng.integers(0, 2, 64, dtype=np.uint8)
        assert not _plain_hash(raw01, np.zeros(64 + 32 - 1, dtype=np.uint8), 32).any()

    def test_matches_naive_oracle_on_1000_instances(self, rng):
        for _ in range(1000):
            n_z = int(rng.integers(1, 513))
            k_out = int(rng.integers(1, n_z + 1))
            raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
            seed01 = rng.integers(0, 2, n_z + k_out - 1, dtype=np.uint8)
            assert np.array_equal(_plain_hash(raw01, seed01, k_out),
                                  naive_toeplitz(raw01, seed01, k_out))

    def test_matches_naive_oracle_at_larger_scale(self, rng):
        n_z, k_out = 6000, 4200
        raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
        seed01 = rng.integers(0, 2, n_z + k_out - 1, dtype=np.uint8)
        assert np.array_equal(_plain_hash(raw01, seed01, k_out),
                              naive_toeplitz(raw01, seed01, k_out))

    @pytest.mark.parametrize("n_z,k_out", [
        (1, 1),        # smallest hash: seed_length 1, L 1
        (700, 700),    # K = n_z
        (700, 1),      # K = 1
        (600, 401),    # seed_length 1000 = 2^3 5^3, so L == seed_length
        (300, 213),    # seed_length 512
        (1024, 1),     # seed_length 1024 with K = 1
    ])
    def test_matches_naive_oracle_at_edge_shapes(self, rng, n_z, k_out):
        raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
        seed01 = rng.integers(0, 2, n_z + k_out - 1, dtype=np.uint8)
        assert np.array_equal(_plain_hash(raw01, seed01, k_out),
                              naive_toeplitz(raw01, seed01, k_out))

    def test_alias_boundary_with_all_ones(self):
        # L == seed_length: the first aliased coefficient lands one past the
        # band's top, and all-ones inputs make every coefficient maximal
        n_z, k_out = 600, 401
        assert _smooth_length(n_z + k_out - 1) == n_z + k_out - 1
        raw01 = np.ones(n_z, dtype=np.uint8)
        seed01 = np.ones(n_z + k_out - 1, dtype=np.uint8)
        assert np.array_equal(_plain_hash(raw01, seed01, k_out),
                              naive_toeplitz(raw01, seed01, k_out))

    def test_linearity(self, rng):
        seed01 = rng.integers(0, 2, 256 + 128 - 1, dtype=np.uint8)
        for _ in range(50):
            a = rng.integers(0, 2, 256, dtype=np.uint8)
            b = rng.integers(0, 2, 256, dtype=np.uint8)
            lhs = _plain_hash(a ^ b, seed01, 128)
            rhs = _plain_hash(a, seed01, 128) ^ _plain_hash(b, seed01, 128)
            assert np.array_equal(lhs, rhs)

    def test_deterministic(self, rng):
        raw01 = rng.integers(0, 2, 300, dtype=np.uint8)
        seed01 = rng.integers(0, 2, 300 + 200 - 1, dtype=np.uint8)
        assert np.array_equal(_plain_hash(raw01, seed01, 200), _plain_hash(raw01, seed01, 200))


def transform_count(hashed: int) -> int:
    """The real FFTs and inverses that hash ``hashed`` blocks of K < m: one
    for the seed and two per pair, a last odd block hashed alone."""
    return 1 + 2 * math.ceil(hashed / 2)


def _check_blocks(raw01, shapes, seed01):
    """``_dual_hash_blocks`` block by block against the explicit [I_K | T]
    matrix on each block's own seed prefix, and its rounding margin."""
    fast, deviation = _dual_hash_blocks(BitBlock.from01(raw01), shapes, seed01)
    start = filled = 0
    for m, k in shapes:
        own_seed = seed01[: m - 1] if k < m else seed01[:0]
        expected = naive_dual_toeplitz(raw01[start : start + m], own_seed, k)
        assert np.array_equal(fast[filled : filled + k], expected), (m, k)
        start += m
        filled += k
    assert filled == fast.size
    assert 0.0 <= deviation < 1e-6


class TestDualToeplitz:
    """The (I | T) hash of ``extract_session`` against the explicit
    [I_K | T] matrix, blocks sharing one seed spectrum."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_z=st.integers(min_value=1, max_value=3000),
        n_blocks=st.integers(min_value=1, max_value=5),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        drops=st.lists(st.booleans(), min_size=5, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocks_match_explicit_matrix(self, n_z, n_blocks, k_frac, drops, seed):
        # balanced blocks whose K differ by at most one, T wide or tall
        sizes = _balanced_blocks(n_z, math.ceil(n_z / n_blocks))
        k_top = max(1, round(k_frac * min(sizes)))
        ks = [max(1, k_top - drop) for drop, _ in zip(drops, sizes)]
        shapes = list(zip(sizes, ks))
        rng = np.random.default_rng(seed)
        raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
        seed01 = rng.integers(0, 2, max(m - 1 if k < m else 0 for m, k in shapes),
                              dtype=np.uint8)
        _check_blocks(raw01, shapes, seed01)

    @pytest.mark.parametrize("m,k_out", [
        (700, 699),   # M = 1
        (700, 1),     # K = 1
        (700, 700),   # K = m: T empty, no seed
        (1, 1),       # one bit
        (513, 300),   # seed 512 = 2^9, so L == seed length
        (1001, 900),  # seed 1000 = 2^3 5^3
        (1025, 1),    # seed 1024 with K = 1
        (1025, 1000), # seed 1024, T tall
    ])
    def test_edge_shapes(self, rng, m, k_out):
        raw01 = rng.integers(0, 2, m, dtype=np.uint8)
        seed01 = rng.integers(0, 2, m - 1 if k_out < m else 0, dtype=np.uint8)
        _check_blocks(raw01, [(m, k_out)], seed01)

    @pytest.mark.parametrize("k_out", [1, 500, 999])
    def test_alias_boundary_with_all_ones(self, k_out):
        # m - 1 = 1000 = L: the first aliased coefficient lands one past the
        # product's top, and all-ones inputs make every coefficient maximal
        m = 1001
        assert _smooth_length(m - 1) == m - 1
        _check_blocks(np.ones(m, dtype=np.uint8), [(m, k_out)], np.ones(m - 1, dtype=np.uint8))

    def test_transforms_have_the_block_seed_length(self, rng, transform_lengths, monkeypatch):
        # the seed has max_block - 1 bits: one transform for it, two per pair
        # of hashed blocks, all at the circular length of that seed
        monkeypatch.setattr(extractor, "BLOCK_SIZE", 3000)
        raw = BitBlock.from01(rng.integers(0, 2, 10_000, dtype=np.uint8))
        _, _, summary = extract_session(raw, _est(), 20, rng)
        blocks = summary["block_sizes"]
        assert blocks == [2500] * 4
        assert summary["toeplitz_seed_bits"] == max(blocks) - 1
        hashed = len(blocks)  # every block has K < m
        assert transform_count(hashed) == 5
        assert transform_lengths == [_smooth_length(max(blocks) - 1)] * transform_count(hashed)


class TestPackedPairs:
    """Two blocks share a transform as ``x_a + 2**r x_b``; every block's
    bits still match the [I_K | T] definition."""

    @staticmethod
    def _random(rng, shapes):
        """Random blocks of ``shapes``, the shapes, and a seed of the longest
        seed length: the arguments of :func:`_check_blocks`."""
        raw01 = rng.integers(0, 2, sum(m for m, _ in shapes), dtype=np.uint8)
        seed01 = rng.integers(0, 2, max(m - 1 if k < m else 0 for m, k in shapes),
                              dtype=np.uint8)
        return raw01, shapes, seed01

    @pytest.mark.parametrize("shapes", [
        [(1201, 700), (1200, 700)],                 # two, M 501 and 500
        [(1200, 700), (1201, 700), (1201, 701)],   # three: the last hashed alone
        [(1201, 700), (1200, 699), (1200, 700), (1201, 701)],  # four, M 501 and 500
        [(1000, 10), (1001, 10), (1000, 11), (1001, 11), (1000, 10)],  # T wide
        [(1025, 1000), (1024, 1000)],               # T tall, M 25 and 24
    ])
    def test_pairs_match_explicit_matrix(self, rng, shapes, transform_lengths):
        _check_blocks(*self._random(rng, shapes))
        assert len(transform_lengths) == transform_count(len(shapes))

    def test_full_length_block_between_hashed_ones_takes_no_transform(
            self, rng, transform_lengths):
        # K = m: the block is its own output, and its neighbours pair across it
        shapes = [(900, 500), (900, 900), (901, 500)]
        _check_blocks(*self._random(rng, shapes))
        assert len(transform_lengths) == transform_count(2) == 3

    @pytest.mark.parametrize("cols_a, cols_b", [
        (511, 511),   # M = 2^9 - 1: radix 2^9, every count 2^9 - 1
        (512, 512),   # M = 2^9: radix 2^10, every count 2^9
        (511, 512),   # neighbours across the radix step
        (512, 511),
    ])
    def test_counts_reaching_the_radix(self, cols_a, cols_b):
        # an all-ones seed and input make every band count equal to M, the
        # columns of T and the largest a count can be: one below the radix,
        # or its half
        k = 300
        shapes = [(cols_a + k, k), (cols_b + k, k)]
        raw01 = np.ones(sum(m for m, _ in shapes), dtype=np.uint8)
        seed01 = np.ones(max(m for m, _ in shapes) - 1, dtype=np.uint8)
        _check_blocks(raw01, shapes, seed01)

    @settings(max_examples=80, deadline=None)
    @given(
        shapes=st.lists(
            st.integers(1, 400).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
            min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_small_shapes_match_explicit_matrix(self, shapes, seed):
        # unbalanced neighbours too: the union band of a pair may be wide
        _check_blocks(*self._random(np.random.default_rng(seed), shapes))

    @pytest.mark.parametrize("shapes", [
        [(2**25 + 1, 1), (2**25 + 1, 1)],   # M = 2^25: radix 2^26, counts to 2^52
        [(2**25 + 1, 1), (10, 5)],          # the radix is the session's
    ])
    def test_oversized_radix_is_refused(self, shapes):
        # a zero-stride view stands in for the blocks: nothing of their size
        # is allocated, and the check comes before any transform
        raw01 = np.broadcast_to(np.uint8(1), (sum(m for m, _ in shapes),))
        with pytest.raises(ValueError, match=r"2\*\*50"):
            _dual_hash_blocks(BitBlock.from01(raw01), shapes, np.zeros(0, dtype=np.uint8))

    def test_hash_memory_is_bounded(self):
        # four blocks of 2^18 bits: the peak inside the hash is the output,
        # the two blocks of the pair being hashed, unpacked from the packed
        # input, the seed spectrum, the product spectrum, the float buffer and
        # two band arrays of K + 1, the rounded counts and their int64 copy,
        # plus 64 KiB for array headers and ufunc cast buffers.  A pair's int64
        # band kept alive into the next pair adds 8 K = 1.6 MB to it, and an
        # input unpacked whole 4 m = 1 MiB
        m, k = 1 << 18, 200_000
        shapes = [(m, k)] * 4
        raw01, _, seed01 = self._random(np.random.default_rng(18), shapes)
        raw = BitBlock.from01(raw01)
        length = _smooth_length(m - 1)
        transform_buffers = 2 * 16 * (length // 2 + 1) + 8 * length
        bound = 4 * k + 2 * m + transform_buffers + 2 * 8 * (k + 1) + (64 << 10)
        assert bound == 10_881_328
        # numpy keeps the plan of a transform length once it has run one
        _dual_hash_blocks(raw, shapes, seed01)
        tracemalloc.start()
        try:
            _dual_hash_blocks(raw, shapes, seed01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestExtractSession:
    def test_reference_security_report(self, rng):
        raw = BitBlock.from01(rng.integers(0, 2, 5000))
        final, report, summary = extract_session(
            raw, _est(e_bx=0.02, log2_eps=-100.0), 100, rng
        )
        # single block: eps_f = 2^-100 + 2^-100, eps_t = 2 * 2^-50
        assert summary["n_blocks"] == 1
        assert abs(report.eps_t - 2.0 * 2.0**-50) / (2.0 * 2.0**-50) < 1e-12
        assert len(final) == summary["K"] > 0

    def test_empty_session_rejected(self, rng):
        with pytest.raises(ProtocolAbortError, match="no raw bits"):
            extract_session(zero_bits(0), _est(), 100, rng)

    def test_aborted_session_rejected(self):
        seed = FixedBits([])
        with pytest.raises(ProtocolAbortError) as raised:
            extract_session(zero_bits(100), _est(abort=True), 10, seed)
        assert str(raised.value) == ESTIMATE_ABORT_REASON
        assert seed.drawn == 0

    def test_t_e_below_one_is_refused_before_any_seed(self, rng):
        # ProtocolParams refuses the same values; the stream holds enough
        # bits for any seed, so a draw would show
        raw = BitBlock.from01(rng.integers(0, 2, 5000, dtype=np.uint8))
        for t_e, est in [
            (0, _est(e_bx=0.0)),                   # K = n_z: the raw bits, unhashed
            (0, _est(e_bx=0.02)),                  # a hashed output with eps_f = 1
            (0, _est(e_bx=0.02, log2_eps=-10.0)),  # eps_f past 1
            (-5, _est(e_bx=0.02)),                 # K past n_z
        ]:
            seed = FixedBits(np.zeros(10_000, dtype=np.uint8))
            with pytest.raises(ValueError, match=f"t_e must be >= 1, got {t_e}"):
                extract_session(raw, est, t_e, seed)
            assert seed.drawn == 0

    def test_deterministic_given_seed_stream(self, rng):
        raw = BitBlock.from01(rng.integers(0, 2, 3000))
        outs = [
            extract_session(raw, _est(), 50, np.random.default_rng(5))[0]
            for _ in range(2)
        ]
        assert outs[0] == outs[1]

    def test_blocks_are_balanced_and_accounted(self, rng, monkeypatch):
        monkeypatch.setattr(extractor, "BLOCK_SIZE", 3000)
        raw = BitBlock.from01(rng.integers(0, 2, 10_000))
        final, report, summary = extract_session(
            raw, _est(e_bx=0.05, log2_eps=-80.0), 20, rng
        )
        assert summary["n_blocks"] == 4
        assert sum(summary["block_sizes"]) == 10_000
        assert max(summary["block_sizes"]) - min(summary["block_sizes"]) <= 1
        # union bound: eps_f = 2^-80 + 4 * 2^-20
        assert report.eps_f == pytest.approx(2.0**-80 + 4 * 2.0**-20, rel=1e-12)

    def test_block_split_concatenates_block_outputs(self, rng, monkeypatch):
        # the blocked result equals extracting each balanced block separately
        monkeypatch.setattr(extractor, "BLOCK_SIZE", 1000)
        raw01 = rng.integers(0, 2, 2000, dtype=np.uint8)
        raw = BitBlock.from01(raw01)
        est = _est(e_bx=0.05, log2_eps=-60.0)
        final, _, summary = extract_session(raw, est, 20, np.random.default_rng(3))
        seed_bits = np.random.default_rng(3).integers(
            0, 2, summary["toeplitz_seed_bits"], dtype=np.uint8
        )
        assert seed_bits.size == 999
        pieces = []
        for i, size in enumerate(summary["block_sizes"]):
            block = raw01[i * 1000 : i * 1000 + size]
            pieces.append(naive_dual_toeplitz(block, seed_bits[: size - 1], len(final) // 2))
        assert np.array_equal(final.to01(), np.concatenate(pieces))

    def test_mismatch_ratio_shortens_output(self, rng):
        raw = BitBlock.from01(rng.integers(0, 2, 5000))
        est = _est(e_bx=0.05, log2_eps=-80.0)
        matched, _, _ = extract_session(raw, est, 50, rng)
        shorter, _, _ = extract_session(
            raw, est, 50, rng, efficiency_ratio=0.9
        )
        assert len(shorter) < len(matched)

    def test_seed_reuse_across_raw_blocks_is_statistically_sound(self, rng):
        # one seed, many raw blocks in one call: outputs from independent raws
        # stay uncorrelated (strong-extractor reuse contract), checked via the
        # monobit statistic of the concatenated output.  Each block's first K
        # bits are zero, so its output is T x[K:], the part the seed makes
        from helpers import monobit_test

        k_out, width, blocks = 2048, 4096, 40
        raw01 = np.zeros((blocks, k_out + width), dtype=np.uint8)
        raw01[:, k_out:] = rng.integers(0, 2, (blocks, width))
        seed01 = rng.integers(0, 2, k_out + width - 1, dtype=np.uint8)
        out, _ = _dual_hash_blocks(BitBlock.from01(raw01.ravel()),
                                   [(k_out + width, k_out)] * blocks, seed01)
        _, p_value = monobit_test(out)
        assert p_value >= 0.01

    @settings(max_examples=60, deadline=None)
    @given(
        n_z=st.integers(min_value=60, max_value=3000),
        n_blocks=st.integers(min_value=1, max_value=5),
        e_bx=st.sampled_from([0.0, 0.02, 0.05, 0.11]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n_z=2999, n_blocks=3, e_bx=0.02, seed=1)  # K 853, 853, 852
    def test_shared_seed_spectrum_matches_per_block_naive(self, n_z, n_blocks, e_bx, seed):
        # one spectrum of the longest seed serves blocks whose K differ by one
        rng = np.random.default_rng(seed)
        raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
        est = _est(e_bx=e_bx, log2_eps=-60.0)
        t_e = 5
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extractor, "BLOCK_SIZE", math.ceil(n_z / n_blocks))
            final, _, summary = extract_session(
                BitBlock.from01(raw01), est, t_e, np.random.default_rng(seed)
            )
        sizes = summary["block_sizes"]
        assert sum(sizes) == n_z and max(sizes) - min(sizes) <= 1
        ks = [final_length(m, est.e_pz_bound, t_e) for m in sizes]
        seed_bits = np.random.default_rng(seed).integers(0, 2, max(sizes) - 1, dtype=np.uint8)
        assert summary["toeplitz_seed_bits"] == seed_bits.size
        pieces, start = [], 0
        for m, k in zip(sizes, ks):
            block = raw01[start : start + m]
            pieces.append(naive_dual_toeplitz(block, seed_bits[: m - 1], k))
            start += m
        assert np.array_equal(final.to01(), np.concatenate(pieces))
        assert 0.0 <= summary["fft_max_deviation"] < 1e-6

    def test_multi_block_output_is_unchanged(self):
        # the (I | T) definition fixes every output bit, so a multi-block
        # session at fixed seeds is pinned: blocks of 1000001, 1000001 and
        # 1000000 bits, whose K differ by one, share one 1000000-bit seed
        raw = BitBlock.from01(
            np.random.default_rng(20261018).integers(0, 2, 3_000_002, dtype=np.uint8)
        )
        final, _, summary = extract_session(
            raw, _est(e_bx=0.02, log2_eps=-100.0), 100, np.random.default_rng(7)
        )
        assert summary["block_sizes"] == [1_000_001, 1_000_001, 1_000_000]
        assert summary["toeplitz_seed_bits"] == 1_000_000
        assert len(final) == 2_575_379
        assert hashlib.sha256(final.data.tobytes()).hexdigest() == (
            "740d48ce9a84ed462ce6a8925215534cda3ced55f4dc58b5c41615db61d7f755"
        )
