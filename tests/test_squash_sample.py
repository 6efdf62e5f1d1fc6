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

from siqrng import squash_sample
from siqrng.photonic_sim import Basis, Pattern
from siqrng.pipeline import derive_streams
from siqrng.squash_sample import (
    PLAN_MAX_ATTEMPTS,
    SessionTally,
    plan_basis_positions,
    seed_length_required,
    unrank_combination,
)

from helpers import (
    ClickEvent,
    FixedBits,
    OutcomeKind,
    SquashedOutcome,
    click_events,
    click_records,
    rank_combination,
    squash,
    tally_records,
    tally_session,
    walk_unrank,
    zero_bits,
)


class TestSquash:
    def test_none_is_vacuum(self):
        out = squash(ClickEvent(0, Basis.Z, Pattern.NONE), FixedBits([]))
        assert out.kind is OutcomeKind.VACUUM

    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_single_clicks_map_directly(self, basis):
        assert squash(ClickEvent(0, basis, Pattern.D0), FixedBits([])).bit_value == 0
        assert squash(ClickEvent(0, basis, Pattern.D1), FixedBits([])).bit_value == 1

    def test_z_double_consumes_one_seed_bit(self):
        seed = FixedBits([1, 0])
        out = squash(ClickEvent(0, Basis.Z, Pattern.DOUBLE), seed)
        assert out.kind is OutcomeKind.BIT and out.bit_value == 1
        assert seed.drawn == 1

    def test_x_double_keeps_no_bit(self):
        seed = FixedBits([1])
        out = squash(ClickEvent(0, Basis.X, Pattern.DOUBLE), seed)
        assert out.kind is OutcomeKind.DOUBLE and out.bit_value is None
        assert seed.drawn == 0


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
        seed = FixedBits([1])
        outcomes = [(b, squash(ClickEvent(i, b, p), seed)) for i, (b, p) in enumerate(patterns)]
        tally = tally_session(outcomes, seed_bits_consumed=seed.drawn)
        assert tally.x_double == 2
        assert tally.x_minus == 2
        assert tally.n_x == 5 and tally.n_z == 3
        assert tally.z_bits.to01().tolist() == [1, 1, 0]
        assert tally.seed_bits_consumed == 1

    def test_vectorized_path_matches_per_event_fold(self, rng):
        n = 5000
        basis = rng.integers(0, 2, n).astype(np.uint8)
        pattern = rng.integers(0, 4, n).astype(np.uint8)
        records = click_records(basis, pattern)

        seed_bits = rng.integers(0, 2, n).astype(np.uint8)
        fast = tally_records(records, FixedBits(seed_bits))

        seed = FixedBits(seed_bits)
        outcomes = [(event.basis, squash(event, seed)) for event in click_events(records)]
        slow = tally_session(outcomes, seed_bits_consumed=seed.drawn)

        assert fast.to_dict() == slow.to_dict()
        assert fast.z_bits == slow.z_bits

    def test_seed_consumption_equals_z_doubles(self, rng):
        for _ in range(10):
            n = 2000
            records = rng.integers(0, 8, n).astype(np.uint8)
            z_doubles = int(np.count_nonzero(records == Pattern.DOUBLE))  # Z basis bit clear
            seed = FixedBits(rng.integers(0, 2, n, dtype=np.uint8))
            tally = tally_records(records, seed)
            assert tally.seed_bits_consumed == z_doubles == seed.drawn
        # no Z double click: the double-click stream is left as an untouched one
        records[records == Pattern.DOUBLE] = Pattern.D1
        untouched = derive_streams(11).double_click.bit_generator.state
        for session in (records, np.zeros(0, np.uint8)):
            stream = derive_streams(11).double_click
            assert tally_records(session, stream).seed_bits_consumed == 0
            assert stream.bit_generator.state == untouched

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            SessionTally(n=3, n_x=1, n_z=1, z_bits=zero_bits(1))

    @pytest.mark.parametrize("key", ["n", "n_x", "n_z", "x_minus", "x_double",
                                     "seed_bits_consumed"])
    def test_negative_count_rejected(self, key):
        counts = dict(n=100, n_x=50, n_z=50, x_minus=10, x_double=10, seed_bits_consumed=0)
        counts[key] = -1
        if key in ("n_x", "n_z"):
            counts["n"] = counts["n_x"] + counts["n_z"]
        with pytest.raises(ValueError, match=f"'{key}' must be >= 0"):
            SessionTally(**counts)


@st.composite
def _ranked_shapes(draw):
    """(n, k, index) with n <= 3000; the first and last index drawn often."""
    n = draw(st.integers(0, 3000))
    k = draw(st.integers(0, n))
    last = math.comb(n, k) - 1
    return n, k, draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)))


# shapes that straddle the neighbour-step / jump switch at n = 8k and reach
# the fresh-binomial fallback: far jumps near the last index, and strides
# of ~n/k that outgrow a short C(m - 1, k) at small k
STRIDE_SHAPES = [(800, 100), (801, 100), (900, 100), (2000, 249), (2000, 250),
                 (2000, 251), (4000, 3999), (1000, 3), (5000, 2), (12000, 7),
                 (40000, 30), (300, 150), (3000, 1), (50000, 2)]


class TestUnrankCombination:
    def test_lexicographic_minimum(self):
        assert unrank_combination(0, 4, 2, 6) == [0, 1]

    def test_enumerated_examples(self):
        # oracle: itertools enumeration of C(4, 2) in lexicographic order
        ref = list(itertools.combinations(range(4), 2))
        assert tuple(unrank_combination(5, 4, 2, len(ref))) == ref[5] == (2, 3)
        assert tuple(unrank_combination(3, 4, 2, len(ref))) == ref[3] == (1, 2)

    def test_bijection_exhaustive_small(self, monkeypatch):
        # the walk's constants only tune its speed: walked scaled from any t
        # and renormalised after every slot or after a few, it unranks the same
        defaults = squash_sample._SCALED_MIN_BITS, squash_sample._SCALE_BITS
        for gate, scale in [defaults, (0, 0), (0, 40)]:
            monkeypatch.setattr(squash_sample, "_SCALED_MIN_BITS", gate)
            monkeypatch.setattr(squash_sample, "_SCALE_BITS", scale)
            for n in range(0, 13):
                for k in range(0, n + 1):
                    total = math.comb(n, k)
                    subsets = [tuple(unrank_combination(i, n, k, total)) for i in range(total)]
                    assert subsets == list(itertools.combinations(range(n), k)), (gate, scale)

    def test_round_trip_rank_unrank(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 21))
            k = int(rng.integers(0, n + 1))
            total = math.comb(n, k)
            i = int(rng.integers(0, total))
            assert rank_combination(unrank_combination(i, n, k, total), n) == i

    def test_stride_paths_agree_with_walk(self, rng, monkeypatch):
        for n, k in STRIDE_SHAPES:
            total = math.comb(n, k)
            picks = [0, total - 1, total // 2]
            picks += [int(rng.integers(0, 2**62)) * total // 2**62 for _ in range(8)]
            for i in picks:
                got = unrank_combination(i, n, k, total)
                assert got == walk_unrank(i, n, k)
                assert rank_combination(got, n) == i
        # paper scale: the first and the last subset are known in closed form
        n, k = 10**6, 3700
        total = math.comb(n, k)
        assert unrank_combination(0, n, k, total) == walk_unrank(0, n, k) == list(range(k))
        assert unrank_combination(total - 1, n, k, total) == list(range(n - k, n))
        # dense shapes long enough to start scaled: 3400/1700, whose t drops
        # below the gate partway; 2400/1000; and shapes at m ~ 8k whose
        # strides outgrow the neighbour steps inside the walk.  Picks: a t
        # just above the gate, the last index (t = 1 never starts scaled)
        # and, at 3400/1700, a random subset that ends at n - 1, whose last
        # slot leaves m = 0
        stops = []
        walk, gate = squash_sample._scaled_walk, squash_sample._SCALED_MIN_BITS

        def spy(*args):
            stops.append(walk(*args))
            return stops[-1]

        monkeypatch.setattr(squash_sample, "_scaled_walk", spy)
        for n, k in [(3400, 1700), (2400, 1000), (8000, 1000), (7990, 1000)]:
            total = math.comb(n, k)
            picks = [0, total - 1, total // 2, total - 2 ** (gate + 1)]
            picks += [int(rng.integers(0, 2**62)) * total // 2**62 for _ in range(3)]
            for i in picks:
                assert unrank_combination(i, n, k, total) == walk_unrank(i, n, k), (n, k, i)
        n, k = 3400, 1700
        total = math.comb(n, k)
        subset = sorted(rng.choice(n - 1, k - 1, replace=False).tolist()) + [n - 1]
        assert unrank_combination(rank_combination(subset, n), n, k, total) == subset
        # the walk stopped on a short t, and on long strides with t still long
        assert any(t.bit_length() <= gate for _, _, t, _ in stops)
        assert any(m > 8 * k_rem and t.bit_length() > gate for m, k_rem, t, _ in stops)

    def test_forced_stride_estimates_agree_with_walk(self, rng, monkeypatch):
        # the float estimate only seeds the search: shifted either way off
        # the smallest stride, or pinned to either end of its range, it
        # leaves every subset as it is.  The counts show that estimates
        # past the smallest stride (a restart from the first candidate)
        # and short of it (a forward search of several steps) both ran
        estimate = squash_sample._stride_estimate
        forcings = {f"{shift:+d}": lambda m, r, s, shift=shift: s + shift
                    for shift in (-5, -2, -1, 1, 2, 5)}
        forcings["first"] = lambda m, r, s: 1
        forcings["last"] = lambda m, r, s: m - r + 1
        cases = []
        for n, k in STRIDE_SHAPES:
            total = math.comb(n, k)
            picks = [0, total - 1, total // 2]
            picks += [int(rng.integers(0, 2**62)) * total // 2**62 for _ in range(3)]
            for i in picks:
                expected = walk_unrank(i, n, k)
                assert rank_combination(expected, n) == i
                cases.append((n, k, total, i, expected))
        for name, force in forcings.items():
            calls = []  # (m, k_rem, forced stride) of each estimate

            def forced(m, r, t):
                calls.append((m, r, min(max(force(m, r, estimate(m, r, t)), 1), m - r + 1)))
                return calls[-1][2]

            monkeypatch.setattr(squash_sample, "_stride_estimate", forced)
            past = short = 0
            for n, k, total, i, expected in cases:
                calls.clear()
                got = unrank_combination(i, n, k, total)
                assert got == expected, (name, n, k, i)
                for m, r, s in calls:
                    # the slot with m positions left chose its smallest stride
                    smallest = expected[k - r] - (n - m) + 1
                    past += s > smallest
                    short += s < smallest
            assert past if name in ("+1", "+2", "+5", "last") else short, (name, past, short)

    @settings(max_examples=60, deadline=None)
    @example((3000, 1500, 0))
    @example((3000, 1500, math.comb(3000, 1500) - 1))
    @example((3000, 7, 0))
    @example((3000, 7, math.comb(3000, 7) - 1))
    @example((2999, 2999, 0))
    @given(_ranked_shapes())
    def test_unrank_is_the_inverse_of_rank(self, shape):
        n, k, i = shape
        got = unrank_combination(i, n, k, math.comb(n, k))
        assert got == sorted(set(got)) and len(got) == k
        assert all(0 <= p < n for p in got)
        assert got == walk_unrank(i, n, k)
        assert rank_combination(got, n) == i

    def test_large_scale_round_trip(self, rng):
        n, k = 10**6, 40
        total = math.comb(n, k)
        i = int(rng.integers(0, 2**63)) % total
        assert rank_combination(unrank_combination(i, n, k, total), n) == i

    def test_range_errors(self):
        with pytest.raises(ValueError):
            unrank_combination(6, 4, 2, 6)
        with pytest.raises(ValueError):
            unrank_combination(-1, 4, 2, 6)
        with pytest.raises(ValueError):
            unrank_combination(0, 4, 5, 0)


class TestSeedLengthRequired:
    def test_trivial_choices_cost_nothing(self):
        assert seed_length_required(math.comb(10, 0)) == 0
        assert seed_length_required(math.comb(10, 10)) == 0

    def test_small_case(self):
        # C(4, 2) = 6 by enumeration, ceil(log2 6) = 3
        assert len(list(itertools.combinations(range(4), 2))) == 6
        assert seed_length_required(math.comb(4, 2)) == 3

    def test_paper_scale_bound(self):
        bits = seed_length_required(math.comb(10**6, 1352))
        assert bits <= 1352 * math.log2(10**6) < 26948

    def test_exact_value_matches_bigint_binomial(self):
        total = math.comb(10**6, 1352)
        assert seed_length_required(total) == (total - 1).bit_length()
        assert 2 ** (seed_length_required(total) - 1) < total <= 2 ** seed_length_required(total)


@st.composite
def _plan_seeds(draw):
    """(n, k, bits) with n <= 40 and room for a few windows; three bits in
    four are 1, so windows at or above C(n, k) are often rejected before
    one is accepted, and the bits sometimes run out first."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(0, n))
    size = draw(st.integers(0, 4 * seed_length_required(math.comb(n, k)) + 3))
    bit = st.integers(0, 3).map(lambda b: min(b, 1))
    return n, k, draw(st.lists(bit, min_size=size, max_size=size))


def _assert_plan_draws_nothing(n, k, expected):
    """The plan of a single choice from a Generator: ``expected``, no seed
    bits, and the stream left as an untouched one."""
    stream = derive_streams(11).basis
    positions, seed_bits = plan_basis_positions(n, k, stream)
    assert positions.tolist() == expected and seed_bits == 0
    assert stream.bit_generator.state == derive_streams(11).basis.bit_generator.state


class TestPlanBasisPositions:
    def test_empty_choice(self):
        seed = FixedBits([])
        positions, seed_bits = plan_basis_positions(9, 0, seed)
        assert positions.size == 0
        assert seed_bits == seed.drawn == 0
        for n in (0, 9, 3400):
            _assert_plan_draws_nothing(n, 0, [])

    def test_full_choice(self):
        positions, seed_bits = plan_basis_positions(5, 5, FixedBits([]))
        assert positions.tolist() == [0, 1, 2, 3, 4] and seed_bits == 0
        for n in (1, 5, 3400):
            _assert_plan_draws_nothing(n, n, list(range(n)))

    def test_rejection_resampling_is_exactly_uniform(self):
        # C(6, 2) = 15 < 16 = 2^4: windows of 4 bits, value 15 rejected.
        # Exhaustive over all 8-bit seeds: every subset must appear equally
        # often among seeds that resolve within two windows.
        counts = Counter()
        exhausted = 0
        for value in range(256):
            bits = [(value >> (7 - i)) & 1 for i in range(8)]
            try:
                positions, _ = plan_basis_positions(6, 2, FixedBits(bits))
                counts[tuple(positions.tolist())] += 1
            except FixedBits.Exhausted:
                exhausted += 1
        assert len(counts) == 15
        assert set(counts.values()) == {17}  # 15 * 17 + 1 exhausted = 256
        assert exhausted == 1

    def test_consumption_is_counted_per_window(self):
        # first window = 15 (rejected), second window = 3 -> subset index 3
        seed = FixedBits([1, 1, 1, 1, 0, 0, 1, 1])
        positions, seed_bits = plan_basis_positions(6, 2, seed)
        assert seed_bits == seed.drawn == 8
        assert positions.tolist() == unrank_combination(3, 6, 2, 15)

    @settings(max_examples=200, deadline=None)
    @example((6, 2, [1, 1, 1, 1, 0, 0, 1, 1]))  # width 4: 15 rejected, then 3
    @example((6, 2, [1, 1, 1, 1, 0, 0, 1]))     # 15 rejected, and the bits run out
    @example((20, 10, [1] * 18 + [0] * 17 + [1]))  # width 18: 2^18 - 1 rejected, then 1
    @example((40, 20, [1] * 38 + [0, 1] * 19))  # width 38
    @given(_plan_seeds())
    def test_plan_reads_the_first_window_below_the_count(self, case):
        # oracle: each window read in plain Python, first bit most significant
        n, k, bits = case
        total = math.comb(n, k)
        width = seed_length_required(total)
        seed = FixedBits(bits)
        if width == 0:
            positions, seed_bits = plan_basis_positions(n, k, seed)
            assert positions.tolist() == list(range(k)) and seed_bits == seed.drawn == 0
            return
        values = [int("".join(map(str, bits[i : i + width])), 2)
                  for i in range(0, len(bits) - width + 1, width)]
        accepted = [i for i, value in enumerate(values) if value < total]
        if not accepted:
            with pytest.raises(FixedBits.Exhausted):
                plan_basis_positions(n, k, seed)
            return
        positions, seed_bits = plan_basis_positions(n, k, seed)
        first = accepted[0]
        assert positions.tolist() == unrank_combination(values[first], n, k, total)
        assert seed_bits == (first + 1) * width == seed.drawn

    def test_paper_scale_plan_is_unchanged(self):
        # the plan fixes every active-mode artifact, so its bytes and its
        # seed cost at a fixed master seed are pinned
        plan, seed_bits = plan_basis_positions(10**6, 3700, derive_streams(20260810).basis)
        assert plan.dtype == np.int64
        assert hashlib.sha256(plan.astype("<i8").tobytes()).hexdigest() == (
            "08946ac49ff682dc22a959871158f7a53f5d5239475cb2f1a0911e8354191c30"
        )
        assert seed_bits == 35211

    def test_dense_plan_is_unchanged(self):
        # the adversarial sessions' shape, 3400 pulses with 1700 planned X,
        # which the scaled walk unranks
        plan, seed_bits = plan_basis_positions(3400, 1700, derive_streams(7_000_000).basis)
        assert hashlib.sha256(plan.astype("<i8").tobytes()).hexdigest() == (
            "5ccc18257b3a9be036f71c392bed4e0c290843dd8415a6aa2a3d08a1ba980d76"
        )
        assert seed_bits == 3394

    def test_count_is_computed_once_per_shape(self, monkeypatch):
        # one C(n, k) per shape, with another shape planned in between, and
        # the cached count plans as the freshly computed one did
        calls = Counter()
        comb = math.comb

        def counted(n, k):
            calls[n, k] += 1
            return comb(n, k)

        squash_sample._binomial.cache_clear()
        monkeypatch.setattr(math, "comb", counted)
        cold = plan_basis_positions(3400, 1700, derive_streams(7).basis)
        plan_basis_positions(1000, 300, derive_streams(8).basis)
        memoised = plan_basis_positions(3400, 1700, derive_streams(7).basis)
        assert calls[3400, 1700] == calls[1000, 300] == 1
        assert memoised[0].tolist() == cold[0].tolist() and memoised[1] == cold[1]

    def test_exhausted_attempts_raise(self):
        # C(3, 1) = 3: 2-bit windows, and an all-ones window reads 3, always rejected
        with pytest.raises(RuntimeError, match=f"after {PLAN_MAX_ATTEMPTS} attempts"):
            plan_basis_positions(3, 1, FixedBits([1] * (2 * PLAN_MAX_ATTEMPTS)))

    def test_oversized_choice_rejected(self):
        with pytest.raises(ValueError):
            plan_basis_positions(4, 5, FixedBits([0] * 16))


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
