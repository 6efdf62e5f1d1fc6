"""Squashing rules, tallies, unranking bijectivity, and the uniformity of
post-loss sampling (exhaustive, exact)."""

import hashlib
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siqrng.bits import BitBlock
from siqrng.photonic_sim import Basis, ClickEvent, ClickStream, Pattern
from siqrng.pipeline import derive_streams
from siqrng.seeds import SeedExhaustedError, SeedSource
from siqrng.squash_sample import (
    OutcomeKind,
    SessionTally,
    SquashedOutcome,
    plan_basis_positions,
    seed_length_required,
    squash,
    squash_and_tally,
    tally_session,
    unrank_combination,
)

from helpers import rank_combination, walk_unrank


def _seed_from01(bits):
    return SeedSource.from_bits(BitBlock.from01(list(bits)))


class TestSquash:
    def test_none_is_vacuum(self):
        out = squash(ClickEvent(0, Basis.Z, Pattern.NONE), _seed_from01([]))
        assert out.kind is OutcomeKind.VACUUM

    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_single_clicks_map_directly(self, basis):
        assert squash(ClickEvent(0, basis, Pattern.D0), _seed_from01([])).bit_value == 0
        assert squash(ClickEvent(0, basis, Pattern.D1), _seed_from01([])).bit_value == 1

    def test_z_double_consumes_one_seed_bit(self):
        seed = _seed_from01([1, 0])
        out = squash(ClickEvent(0, Basis.Z, Pattern.DOUBLE), seed)
        assert out.kind is OutcomeKind.BIT and out.bit_value == 1
        assert seed.bits_consumed == 1

    def test_x_double_keeps_no_bit(self):
        seed = _seed_from01([1])
        out = squash(ClickEvent(0, Basis.X, Pattern.DOUBLE), seed)
        assert out.kind is OutcomeKind.DOUBLE and out.bit_value is None
        assert seed.bits_consumed == 0

    def test_seed_exhaustion(self):
        with pytest.raises(SeedExhaustedError):
            squash(ClickEvent(0, Basis.Z, Pattern.DOUBLE), _seed_from01([]))


class TestTally:
    def test_all_vacuum(self):
        events = [(Basis.Z, SquashedOutcome(OutcomeKind.VACUUM))] * 5
        tally = tally_session(events)
        assert tally.n == 0 and len(tally.z_bits) == 0

    def test_small_mixed_session(self):
        events = [
            (Basis.Z, SquashedOutcome(OutcomeKind.BIT, 1)),
            (Basis.X, SquashedOutcome(OutcomeKind.BIT, 1)),   # a "-" outcome
            (Basis.Z, SquashedOutcome(OutcomeKind.BIT, 0)),
            (Basis.Z, SquashedOutcome(OutcomeKind.BIT, 1)),
        ]
        tally = tally_session(events)
        assert (tally.n, tally.n_x, tally.n_z) == (4, 1, 3)
        assert tally.x_minus == 1 and tally.x_double == 0
        assert tally.z_bits.to01().tolist() == [1, 0, 1]

    def test_x_doubles_counted_separately(self):
        # 10-event fixture checked against naive counting
        patterns = [
            (Basis.X, Pattern.DOUBLE), (Basis.X, Pattern.D1), (Basis.X, Pattern.D0),
            (Basis.Z, Pattern.D1), (Basis.Z, Pattern.NONE), (Basis.X, Pattern.DOUBLE),
            (Basis.Z, Pattern.DOUBLE), (Basis.X, Pattern.NONE), (Basis.Z, Pattern.D0),
            (Basis.X, Pattern.D1),
        ]
        seed = _seed_from01([1])
        outcomes = [(b, squash(ClickEvent(i, b, p), seed)) for i, (b, p) in enumerate(patterns)]
        tally = tally_session(outcomes, seed_bits_consumed=seed.bits_consumed)
        assert tally.x_double == 2
        assert tally.x_minus == 2
        assert tally.n_x == 5 and tally.n_z == 3
        assert tally.z_bits.to01().tolist() == [1, 1, 0]
        assert tally.seed_bits_consumed == 1

    def test_vectorized_path_matches_per_event_fold(self, rng):
        n = 5000
        basis = rng.integers(0, 2, n).astype(np.uint8)
        pattern = rng.integers(0, 4, n).astype(np.uint8)
        stream = ClickStream(basis=basis, pattern=pattern)

        seed_bits = rng.integers(0, 2, n).astype(np.uint8)
        fast = squash_and_tally(stream, _seed_from01(seed_bits))

        seed = _seed_from01(seed_bits)
        outcomes = [(event.basis, squash(event, seed)) for event in stream]
        slow = tally_session(outcomes, seed_bits_consumed=seed.bits_consumed)

        assert fast.to_dict() == slow.to_dict()
        assert fast.z_bits == slow.z_bits

    def test_seed_consumption_equals_z_doubles(self, rng):
        for _ in range(10):
            n = 2000
            stream = ClickStream(
                basis=rng.integers(0, 2, n).astype(np.uint8),
                pattern=rng.integers(0, 4, n).astype(np.uint8),
            )
            z_doubles = int(np.count_nonzero((stream.basis == 0) & (stream.pattern == 3)))
            seed = SeedSource.from_rng(rng)
            tally = squash_and_tally(stream, seed)
            assert tally.seed_bits_consumed == z_doubles == seed.bits_consumed

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            SessionTally(n=3, n_x=1, n_z=1, z_bits=BitBlock.zeros(1))


@st.composite
def _ranked_shapes(draw):
    """(n, k, index) with n <= 3000; the first and last index drawn often."""
    n = draw(st.integers(0, 3000))
    k = draw(st.integers(0, n))
    last = math.comb(n, k) - 1
    return n, k, draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)))


class TestUnrankCombination:
    def test_lexicographic_minimum(self):
        assert unrank_combination(0, 4, 2) == [0, 1]

    def test_enumerated_examples(self):
        # oracle: itertools enumeration of C(4, 2) in lexicographic order
        ref = list(itertools.combinations(range(4), 2))
        assert tuple(unrank_combination(5, 4, 2)) == ref[5] == (2, 3)
        assert tuple(unrank_combination(3, 4, 2)) == ref[3] == (1, 2)

    def test_bijection_exhaustive_small(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                subsets = [tuple(unrank_combination(i, n, k)) for i in range(math.comb(n, k))]
                assert subsets == list(itertools.combinations(range(n), k))

    def test_round_trip_rank_unrank(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 21))
            k = int(rng.integers(0, n + 1))
            i = int(rng.integers(0, math.comb(n, k)))
            assert rank_combination(unrank_combination(i, n, k), n) == i

    def test_stride_paths_agree_with_walk(self, rng):
        # shapes straddle the neighbour-step / jump switch at n = 8k and reach
        # the fresh-binomial fallback: far jumps near the last index, and
        # strides of ~n/k that outgrow a short C(m - 1, k) at small k
        for n, k in [(800, 100), (801, 100), (900, 100), (2000, 249), (2000, 250),
                     (2000, 251), (4000, 3999), (1000, 3), (5000, 2), (12000, 7),
                     (40000, 30), (300, 150), (3000, 1), (50000, 2)]:
            total = math.comb(n, k)
            picks = [0, total - 1, total // 2]
            picks += [int(rng.integers(0, 2**62)) * total // 2**62 for _ in range(8)]
            for i in picks:
                got = unrank_combination(i, n, k)
                assert got == walk_unrank(i, n, k)
                assert rank_combination(got, n) == i
        # paper scale: the first and the last subset are known in closed form
        n, k = 10**6, 3700
        assert unrank_combination(0, n, k) == walk_unrank(0, n, k) == list(range(k))
        assert unrank_combination(math.comb(n, k) - 1, n, k) == list(range(n - k, n))

    @settings(max_examples=60, deadline=None)
    @example((3000, 1500, 0))
    @example((3000, 1500, math.comb(3000, 1500) - 1))
    @example((3000, 7, 0))
    @example((3000, 7, math.comb(3000, 7) - 1))
    @example((2999, 2999, 0))
    @given(_ranked_shapes())
    def test_unrank_is_the_inverse_of_rank(self, shape):
        n, k, i = shape
        got = unrank_combination(i, n, k)
        assert got == sorted(set(got)) and len(got) == k
        assert all(0 <= p < n for p in got)
        assert got == walk_unrank(i, n, k)
        assert rank_combination(got, n) == i

    def test_large_scale_round_trip(self, rng):
        n, k = 10**6, 40
        i = int(rng.integers(0, 2**63)) % math.comb(n, k)
        assert rank_combination(unrank_combination(i, n, k), n) == i

    def test_range_errors(self):
        with pytest.raises(ValueError):
            unrank_combination(6, 4, 2)
        with pytest.raises(ValueError):
            unrank_combination(-1, 4, 2)
        with pytest.raises(ValueError):
            unrank_combination(0, 4, 5)


class TestSeedLengthRequired:
    def test_trivial_choices_cost_nothing(self):
        assert seed_length_required(10, 0) == 0
        assert seed_length_required(10, 10) == 0

    def test_small_case(self):
        # C(4, 2) = 6 by enumeration, ceil(log2 6) = 3
        assert len(list(itertools.combinations(range(4), 2))) == 6
        assert seed_length_required(4, 2) == 3

    def test_paper_scale_bound(self):
        bits = seed_length_required(10**6, 1352)
        assert bits <= 1352 * math.log2(10**6) < 26948

    def test_exact_value_matches_bigint_binomial(self):
        total = math.comb(10**6, 1352)
        assert seed_length_required(10**6, 1352) == (total - 1).bit_length()


class TestPlanBasisPositions:
    def test_empty_choice(self):
        seed = _seed_from01([])
        assert plan_basis_positions(9, 0, seed).size == 0
        assert seed.bits_consumed == 0

    def test_full_choice(self):
        seed = _seed_from01([])
        assert plan_basis_positions(5, 5, seed).tolist() == [0, 1, 2, 3, 4]

    def test_rejection_resampling_is_exactly_uniform(self):
        # C(6, 2) = 15 < 16 = 2^4: windows of 4 bits, value 15 rejected.
        # Exhaustive over all 8-bit seeds: every subset must appear equally
        # often among seeds that resolve within two windows.
        counts = Counter()
        exhausted = 0
        for value in range(256):
            bits = [(value >> (7 - i)) & 1 for i in range(8)]
            try:
                positions = tuple(plan_basis_positions(6, 2, _seed_from01(bits)).tolist())
                counts[positions] += 1
            except SeedExhaustedError:
                exhausted += 1
        assert len(counts) == 15
        assert set(counts.values()) == {17}  # 15 * 17 + 1 exhausted = 256
        assert exhausted == 1

    def test_consumption_is_counted_per_window(self):
        # first window = 15 (rejected), second window = 3 -> subset index 3
        seed = _seed_from01([1, 1, 1, 1, 0, 0, 1, 1])
        positions = plan_basis_positions(6, 2, seed)
        assert seed.bits_consumed == 8
        assert positions.tolist() == unrank_combination(3, 6, 2)

    def test_paper_scale_plan_is_unchanged(self):
        # the plan fixes every active-mode artifact, so its bytes and its
        # seed cost at a fixed master seed are pinned
        seed = derive_streams(20260810).basis
        plan = plan_basis_positions(10**6, 3700, seed)
        assert plan.dtype == np.int64
        assert hashlib.sha256(plan.astype("<i8").tobytes()).hexdigest() == (
            "08946ac49ff682dc22a959871158f7a53f5d5239475cb2f1a0911e8354191c30"
        )
        assert seed.bits_consumed == 35211

    def test_oversized_choice_rejected(self):
        with pytest.raises(ValueError):
            plan_basis_positions(4, 5, _seed_from01([0] * 16))


def _survivors(basis_is_x: np.ndarray, lost_if_x, lost_if_z):
    """Apply a per-position, per-basis deterministic loss pattern."""
    n = basis_is_x.size
    kept = []
    for i in range(n):
        lost = i in (lost_if_x if basis_is_x[i] else lost_if_z)
        if not lost:
            kept.append(i)
    return kept


class TestSamplingUniformityAfterLoss:
    """Surviving X positions are uniform among surviving positions."""

    @pytest.mark.parametrize("lost", [set(), {1, 3, 4, 8, 11}, {0, 2, 5, 6, 7, 9}])
    def test_exhaustive_fixed_positional_loss(self, lost):
        # Exhaustive over all C(12, 4) basis plans with a fixed loss pattern:
        # counts of each surviving-X subset must be exactly equal per size.
        n_total, n_x = 12, 4
        survivors = [i for i in range(n_total) if i not in lost]
        counts = defaultdict(Counter)
        for plan in itertools.combinations(range(n_total), n_x):
            surviving_x = tuple(p for p in plan if p not in lost)
            counts[len(surviving_x)][surviving_x] += 1
        n_lost = len(lost)
        for size, counter in counts.items():
            assert len(counter) == math.comb(len(survivors), size)
            expected = math.comb(n_lost, n_x - size)
            assert set(counter.values()) == {expected}

    def test_exact_distribution_with_basis_dependent_loss(self):
        # Basis-dependent random loss, homogeneous across positions:
        # keep probability 2/3 for X, 1/2 for Z. Enumerate every plan and
        # every loss outcome with exact rational weights; conditioned on the
        # survivor set and the surviving-X count, the surviving-X subset
        # distribution must be exactly uniform.
        n_total, n_x = 8, 3
        keep_x, keep_z = Fraction(2, 3), Fraction(1, 2)
        weights = defaultdict(lambda: defaultdict(Fraction))
        for plan in itertools.combinations(range(n_total), n_x):
            is_x = [i in plan for i in range(n_total)]
            for mask in range(1 << n_total):
                weight = Fraction(1)
                kept = []
                for i in range(n_total):
                    keep_p = keep_x if is_x[i] else keep_z
                    if (mask >> i) & 1:
                        weight *= keep_p
                        kept.append(i)
                    else:
                        weight *= 1 - keep_p
                surviving_x = tuple(i for i in kept if is_x[i])
                weights[(tuple(kept), len(surviving_x))][surviving_x] += weight
        for (kept, size), dist in weights.items():
            values = list(dist.values())
            assert len(values) == math.comb(len(kept), size)
            assert all(v == values[0] for v in values)
