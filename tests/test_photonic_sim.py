"""Detection model tests: click statistics against binomial/CLT oracles,
matched-seed monotonicity, stream determinism, the record byte, the
chunked two-thread simulate stage and the blocked tally against their
full-length oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from siqrng import photonic_sim, pipeline
from siqrng.config import config_from_dict
from siqrng.extractor import extract_session
from siqrng.fileio import ClickFileWriter, read_click_file
from siqrng.photonic_sim import (
    CHUNK,
    Basis,
    ChannelConfig,
    DetectorConfig,
    Pattern,
    SourceConfig,
    SourceMode,
    click_probabilities,
    detector_intensities,
    pattern_thresholds,
    run_session,
)
from siqrng.pipeline import choose_basis_plan, derive_streams, simulate_clicks
from siqrng.squash_sample import TallyFold, squash_and_tally

from helpers import (
    ClickEvent,
    RecordsSink,
    click_events,
    click_records,
    mask_squash_and_tally,
    session_records,
    tally_records,
    where_run_session,
)

HONEST = SourceConfig(mean_photon_number=1.0, misalignment=0.02, mode=SourceMode.HONEST_PLUS)
ADVERSARIAL = SourceConfig(mean_photon_number=1.0, mode=SourceMode.ADVERSARIAL_FIXED_Z)
LOSSLESS = ChannelConfig(loss_db=0.0)
IDEAL_DET = DetectorConfig(efficiency=1.0, dark_count=0.0)
PAPER_DET = DetectorConfig(efficiency=0.45, dark_count=0.002)
NO_X = np.zeros(0, dtype=np.int64)  # a plan without X positions


class TestDetectorIntensities:
    def test_honest_x_splits_by_misalignment(self):
        mu0, mu1 = detector_intensities(HONEST, Basis.X)
        assert mu0 == pytest.approx(0.98) and mu1 == pytest.approx(0.02)

    def test_honest_z_splits_evenly(self):
        assert detector_intensities(HONEST, Basis.Z) == (0.5, 0.5)

    def test_adversarial_z_is_one_sided(self):
        assert detector_intensities(ADVERSARIAL, Basis.Z) == (1.0, 0.0)

    def test_adversarial_x_splits_evenly(self):
        assert detector_intensities(ADVERSARIAL, Basis.X) == (0.5, 0.5)


class TestDetectPulse:
    def test_no_photons_no_dark_counts(self, rng):
        dark = SourceConfig(mean_photon_number=0.0)
        records = session_records(200, dark, LOSSLESS, IDEAL_DET, NO_X, rng)
        assert not (records & 3).any()

    def test_dark_count_frequency(self, rng):
        # 1e7 gates at mu=0: each detector clicks with p = 0.002 within 3 sigma
        dark = SourceConfig(mean_photon_number=0.0)
        records = session_records(10**7, dark, LOSSLESS, PAPER_DET, NO_X, rng)
        for detector_pattern in (Pattern.D0, Pattern.D1):
            clicked = np.isin(records & 3, (detector_pattern, Pattern.DOUBLE))
            freq = np.mean(clicked)
            sigma = math.sqrt(0.002 * 0.998 / records.size)
            assert abs(freq - 0.002) < 3 * sigma

    def test_aligned_source_never_fires_minus_detector(self, rng):
        # every pulse measured in X
        aligned = SourceConfig(mean_photon_number=2.0, misalignment=0.0)
        records = session_records(300, aligned, LOSSLESS, IDEAL_DET, np.arange(300), rng)
        assert (records >> 2 == Basis.X).all()
        assert np.isin(records & 3, (Pattern.NONE, Pattern.D0)).all()

    def test_click_probability_formula(self):
        p0, p1 = click_probabilities(HONEST, ChannelConfig(loss_db=10.0), PAPER_DET, Basis.X)
        t = 10 ** -1.0
        assert p0 == pytest.approx(1 - 0.998 * math.exp(-0.45 * 0.98 * t))
        assert p1 == pytest.approx(1 - 0.998 * math.exp(-0.45 * 0.02 * t))


class TestRunSession:
    def test_empty_session(self, rng):
        assert len(session_records(0, HONEST, LOSSLESS, PAPER_DET, NO_X, rng)) == 0

    def test_all_loss_channel(self, rng):
        opaque = ChannelConfig(loss_db=400.0)
        quiet = DetectorConfig(efficiency=0.45, dark_count=0.0)
        records = session_records(2000, HONEST, opaque, quiet, np.array([0, 5, 7]), rng)
        assert not (records & 3).any()

    def test_basis_plan_is_respected(self, rng):
        for plan in ([3, 5, 8, 13], [0, 19], []):
            plan = np.array(plan, dtype=np.int64)
            records = session_records(20, HONEST, LOSSLESS, PAPER_DET, plan, rng)
            assert np.array_equal(np.flatnonzero(records >> 2 == Basis.X), plan)
        # positions outside [0, n) are the one check on a plan
        for plan in ([-1], [20], [3, 20]):
            with pytest.raises(ValueError, match="out of range"):
                session_records(20, HONEST, LOSSLESS, PAPER_DET, np.array(plan), rng)

    def test_deterministic_given_seed(self):
        a = session_records(5000, HONEST, LOSSLESS, PAPER_DET, np.arange(0, 5000, 7),
                            np.random.default_rng(99))
        b = session_records(5000, HONEST, LOSSLESS, PAPER_DET, np.arange(0, 5000, 7),
                            np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_iteration_yields_click_events(self, rng):
        records = session_records(10, HONEST, LOSSLESS, PAPER_DET, np.array([2]), rng)
        events = list(click_events(records))
        assert len(events) == 10
        assert all(isinstance(e, ClickEvent) for e in events)
        assert events[2].basis == Basis.X and events[0].basis == Basis.Z


@st.composite
def _chunked_plans(draw):
    """(n, chunk, split, plan): n often a chunk multiple or one off it,
    the split anywhere in [0, n], and plan positions often at chunk edges
    or at the split."""
    chunk = draw(st.integers(1, 32))
    tail = draw(st.one_of(st.sampled_from([0, 1, chunk - 1]), st.integers(0, chunk - 1)))
    n = chunk * draw(st.integers(0, 6)) + tail
    split = draw(st.one_of(st.just(n // 2), st.integers(0, n)))
    positions = []
    if n:
        edges = [p for k in range(n // chunk + 1)
                 for p in (k * chunk - 1, k * chunk, split - 1, split) if 0 <= p < n]
        positions = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, n - 1)),
                                  max_size=n))
    return n, chunk, split, np.array(positions, dtype=np.int64)


def _spans(n, source, plan, seed, cuts):
    """Records of pulses [0, n) simulated span by span, [cuts[k], cuts[k+1])
    on a copy of the seed's bit generator advanced by cuts[k]."""
    sink = RecordsSink(n)
    thresholds = [pattern_thresholds(*click_probabilities(source, LOSSLESS, PAPER_DET, basis))
                  for basis in (Basis.Z, Basis.X)]
    for start, stop in zip(cuts, cuts[1:]):
        bitgen = np.random.default_rng(seed).bit_generator
        bitgen.advance(start)
        photonic_sim._simulate_span(sink, np.sort(plan), *thresholds, bitgen, start, stop)
    return sink.records


class TestClickStream:
    """A session's click stream is its record array, one byte per pulse;
    the tests build records from basis and pattern values with
    ``helpers.click_records``."""

    def test_basis_and_pattern_round_trip_through_records(self, rng):
        records = rng.integers(0, 8, 1000).astype(np.uint8)
        assert np.array_equal(click_records(records >> 2, records & 3), records)

    def test_record_layout(self):
        records = click_records(basis=[0, 1, 1, 0], pattern=[3, 0, 2, 1])
        assert records.dtype == np.uint8
        assert records.tolist() == [3, 4, 6, 1]
        # the simulator sets the basis bit of exactly the planned pulses
        simulated = session_records(4, HONEST, LOSSLESS, PAPER_DET, np.array([1, 2]),
                                    np.random.default_rng(0))
        assert (simulated >> 2).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("basis, pattern", [
        ([2, 0], [1, 1]),
        ([0, 1], [1, 5]),
        ([-1, 0], [0, 0]),
        ([0, 1], [0, -1]),
        ([0.5, 0], [0, 0]),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        ([0, 1, 0], [0, 1]),
    ])
    def test_invalid_inputs_rejected(self, basis, pattern):
        with pytest.raises(ValueError):
            click_records(basis=basis, pattern=pattern)


class TestBlockedSimulation:
    """The simulator draws in chunks and, when each half holds a chunk, on
    two threads; pulse i reads output i of the stream either way, so the
    records are those of the one-draw full-length oracle."""

    @given(shape=_chunked_plans(), seed=st.integers(0, 2**32 - 1),
           source=st.sampled_from([HONEST, ADVERSARIAL]))
    @example(shape=(64, 16, 32, np.array([15, 16, 31, 32, 63])), seed=1, source=HONEST)
    @example(shape=(65, 16, 32, np.array([0, 31, 32, 63, 64])), seed=2, source=ADVERSARIAL)
    @example(shape=(63, 16, 17, np.array([15, 16, 47, 48, 62])), seed=3, source=HONEST)
    @example(shape=(33, 16, 0, np.array([0, 15, 16, 32])), seed=4, source=HONEST)
    @settings(max_examples=150, deadline=None)
    def test_equals_full_length_oracle(self, shape, seed, source):
        # the serial single-span draw, a split at any pulse, and run_session
        # (on two threads when each half holds a chunk) write the same bytes
        n, chunk, split, plan = shape
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(photonic_sim, "CHUNK", chunk)
            fast = session_records(n, source, LOSSLESS, PAPER_DET, plan,
                                   np.random.default_rng(seed))
            serial = _spans(n, source, plan, seed, [0, n])
            halves = _spans(n, source, plan, seed, [0, split, n])
        slow = where_run_session(n, source, LOSSLESS, PAPER_DET, plan,
                                 np.random.default_rng(seed))
        assert np.array_equal(fast, slow)
        assert np.array_equal(serial, slow)
        assert np.array_equal(halves, slow)

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
                                   2 * CHUNK + 1, 3 * CHUNK + 5, 32 * CHUNK - 1, 32 * CHUNK,
                                   32 * CHUNK + 1])
    def test_simulation_at_the_block_edge(self, n):
        # plans at the first chunk edges, at the split n // 2 and at both ends
        plan = [0, n // 2 - 1, n // 2, n - 1] + [p for k in range(1, 4)
                                                 for p in (k * CHUNK - 1, k * CHUNK)]
        plan = np.array(sorted({p for p in plan if 0 <= p < n}), dtype=np.int64)
        for source in (HONEST, ADVERSARIAL):
            fast = session_records(n, source, LOSSLESS, PAPER_DET, plan, np.random.default_rng(n))
            slow = where_run_session(n, source, LOSSLESS, PAPER_DET, plan,
                                     np.random.default_rng(n))
            assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("n", [3400, 2 * CHUNK - 1, 2 * CHUNK, 3 * CHUNK + 5])
    def test_generator_ends_n_outputs_on(self, n):
        rng = np.random.default_rng(n)
        expected = np.random.PCG64(0)
        expected.state = rng.bit_generator.state
        expected.advance(n)
        session_records(n, HONEST, LOSSLESS, PAPER_DET, np.arange(0, n, 5), rng)
        assert rng.bit_generator.state == expected.state

    @pytest.mark.parametrize("n, threads", [(3400, 0), (2 * CHUNK - 1, 0), (2 * CHUNK, 1),
                                            (3 * CHUNK + 5, 1)])
    def test_helper_thread_is_joined(self, n, threads, monkeypatch):
        # adversarial_batch's 3,400-pulse sessions start no thread; a
        # session with a chunk per half starts one and joins it
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(photonic_sim.threading, "Thread", CountedThread)
        before = threading.active_count()
        session_records(n, HONEST, LOSSLESS, PAPER_DET, NO_X, np.random.default_rng(1))
        assert threading.active_count() == before
        assert len(started) == threads and not any(t.is_alive() for t in started)

    def test_concurrent_sessions_under_fast_switching(self, monkeypatch, tmp_path):
        # four sessions at once, each with its helper (8 threads on fewer
        # cores), switching every microsecond: the halves write disjoint
        # slices, so every session still equals its oracle, and so do the
        # tally folds and click files two spans share
        monkeypatch.setattr(photonic_sim, "CHUNK", 16)
        n, plan = 4099, np.arange(0, 4099, 3)
        results, tallies = {}, {}

        def session(seed):
            results[seed] = session_records(n, HONEST, LOSSLESS, PAPER_DET, plan,
                                            np.random.default_rng(seed))
            with ClickFileWriter(tmp_path / f"{seed}.siqc", n) as clicks:
                fold = run_session(n, HONEST, LOSSLESS, PAPER_DET, plan,
                                   np.random.default_rng(seed), TallyFold(n, clicks))
            tallies[seed] = squash_and_tally(fold, np.random.default_rng(seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=session, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and sorted(tallies) == [0, 1, 2, 3]
        for seed, records in results.items():
            expected = where_run_session(n, HONEST, LOSSLESS, PAPER_DET, plan,
                                         np.random.default_rng(seed))
            assert np.array_equal(records, expected)
            assert (tmp_path / f"{seed}.siqc").read_bytes()[13:] == expected.tobytes()
            oracle = mask_squash_and_tally(expected, np.random.default_rng(seed))
            assert tallies[seed].to_dict() == oracle.to_dict()
            assert tallies[seed].z_bits == oracle.z_bits

    def test_helper_failure_is_raised_in_the_caller(self, monkeypatch, tmp_path):
        # the helper fails before its first chunk, or after its last one is
        # written; either way the caller raises it, and the click file both
        # spans write to leaves neither itself nor its temp file behind
        simulate_span = photonic_sim._simulate_span
        for failing in ("before", "after"):
            def failing_upper_half(sink, x_sorted, tz, tx, bitgen, start, stop):
                if start > 0 and failing == "before":
                    raise MemoryError("upper half")
                simulate_span(sink, x_sorted, tz, tx, bitgen, start, stop)
                if start > 0:
                    raise MemoryError("upper half")

            monkeypatch.setattr(photonic_sim, "_simulate_span", failing_upper_half)
            before = threading.active_count()
            with pytest.raises(MemoryError, match="upper half"):
                session_records(2 * CHUNK, HONEST, LOSSLESS, PAPER_DET, NO_X,
                                np.random.default_rng(1))
            assert threading.active_count() == before
            with pytest.raises(MemoryError, match="upper half"):
                with ClickFileWriter(tmp_path / "clicks.siqc", 2 * CHUNK) as clicks:
                    run_session(2 * CHUNK, HONEST, LOSSLESS, PAPER_DET, NO_X,
                                np.random.default_rng(1), TallyFold(2 * CHUNK, clicks))
            assert threading.active_count() == before
            assert list(tmp_path.iterdir()) == [], failing

    @pytest.mark.parametrize("source", [HONEST, ADVERSARIAL], ids=["honest", "adversarial"])
    def test_pattern_frequencies_have_the_product_law(self, source):
        # per basis, each pattern's frequency is within 5 sigma of the product
        # of the two detectors' marginal probabilities
        n = 1 << 20
        plan = np.arange(0, n, 2)
        pattern = session_records(n, source, LOSSLESS, PAPER_DET, plan, np.random.default_rng(5))
        for basis in (Basis.Z, Basis.X):
            p0, p1 = click_probabilities(source, LOSSLESS, PAPER_DET, basis)
            probs = {Pattern.NONE: (1 - p0) * (1 - p1), Pattern.D0: p0 * (1 - p1),
                     Pattern.D1: (1 - p0) * p1, Pattern.DOUBLE: p0 * p1}
            of_basis = pattern[pattern >> 2 == basis] & 3
            for code, prob in probs.items():
                freq = np.count_nonzero(of_basis == code) / of_basis.size
                sigma = math.sqrt(prob * (1 - prob) / of_basis.size)
                assert abs(freq - prob) <= 5 * sigma, (basis, code, freq, prob)

    @pytest.mark.parametrize("n", [(1 << 21) - 1, 1 << 21, (1 << 21) + 1, (1 << 21) + 4096])
    def test_tally_at_the_block_edge(self, n):
        # the fold takes 32 chunks and more, in two spans, and its last pass
        # scatters and packs a dozen blocks of Z codes and more.  Records
        # 0..7 give a Z click 3 times in 8; Z clicks alone make the upper
        # span's codes overlap their place in the move down
        rng = np.random.default_rng(n)
        for high in (8, 4):
            records = rng.integers(1 if high == 4 else 0, high, n).astype(np.uint8)
            # a Z double click on each side of a chunk edge and of the span split
            edges = (CHUNK, n // 2)
            records[[p for edge in edges for p in (edge - 2, edge - 1, edge)]] = Pattern.DOUBLE
            # an odd number of them before the split: the seed's bounded draw
            # is buffered, so a draw split there would assign other bits
            if np.count_nonzero(records[: n // 2] == Pattern.DOUBLE) % 2 == 0:
                records[0] = Pattern.D0 if records[0] == Pattern.DOUBLE else Pattern.DOUBLE
            fast_seed = np.random.default_rng(7)
            slow_seed = np.random.default_rng(7)
            fast = tally_records(records, fast_seed)
            slow = mask_squash_and_tally(records, slow_seed)
            assert fast.to_dict() == slow.to_dict()
            assert fast.z_bits == slow.z_bits
            assert fast_seed.bit_generator.state == slow_seed.bit_generator.state
            assert (fast.n_z > n // 2) == (high == 4)


def test_passive_simulate_and_tally_memory_is_bounded():
    # no stage holds a byte per pulse.  tracemalloc counts the fold's Z-code
    # buffer at its n bytes, though only the pages its n_z codes are written
    # to become resident; the plan, the chunk buffers of both threads and
    # the packed Z bits together stay within another n_z bytes
    n = 1 << 23
    config = config_from_dict({"total_pulses": n, "planned_x_count": 22000,
                               "basis_choice": "passive", "master_seed": 424242})
    tracemalloc.start()
    try:
        streams = derive_streams(config.master_seed)
        plan, _ = choose_basis_plan(config, streams)
        fold = simulate_clicks(config, streams, plan, TallyFold(n, None))
        tally = squash_and_tally(fold, streams.double_click)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tally.n_z > n // 4
    assert peak <= n + tally.n_z, f"peak {peak / 2**20:.1f} MiB"


PASSIVE_2_24 = {"total_pulses": 1 << 24, "planned_x_count": 22000, "basis_choice": "passive",
                "master_seed": 424242}


def test_tally_transient_memory_is_bounded(tmp_path):
    # the tally of a click file, as the tally subcommand takes it: the
    # fold's Z-code buffer (n bytes to tracemalloc, n_z resident), the
    # packed Z bits and the drawn double-click bits (n_z / 8 each at most),
    # and chunk-sized transients
    config = config_from_dict(PASSIVE_2_24)
    streams = derive_streams(config.master_seed)
    n = config.params.total_pulses
    with ClickFileWriter(tmp_path / "clicks.siqc", n) as clicks:
        simulate_clicks(config, streams, choose_basis_plan(config, streams)[0], clicks)
    tracemalloc.start()
    try:
        fold = read_click_file(tmp_path / "clicks.siqc",
                               lambda count: TallyFold(count, None))
        tally = squash_and_tally(fold, streams.double_click)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tally.n_z > n // 4
    assert peak <= n + tally.n_z // 4 + 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_session_extracts_from_the_packed_z_bits_alone(tmp_path, monkeypatch):
    # the session writes the click records and drops them after the tally,
    # so extraction starts from well under a quarter byte per pulse
    config = config_from_dict(PASSIVE_2_24)
    live = []

    def traced_extract_session(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return extract_session(*args, **kwargs)

    monkeypatch.setattr(pipeline, "extract_session", traced_extract_session)
    tracemalloc.start()
    try:
        result = pipeline.run_protocol_session(config, out=tmp_path)
    finally:
        tracemalloc.stop()
    n = config.params.total_pulses
    assert not result.aborted and (tmp_path / "clicks.siqc").stat().st_size == 13 + n
    assert live[0] < n // 4, f"{live[0] / 2**20:.1f} MiB live at extraction entry"


class TestChooseBasisPlan:
    def test_passive_plan_has_the_per_pulse_bernoulli_law(self):
        # each pulse is X with probability p, independently: over 4000 master
        # seeds every position's inclusion rate is within 5 sigma of p and
        # every adjacent pair's joint rate within 5 sigma of p^2; a plan of
        # exactly N_x positions would miss the pair rate by about 7 sigma
        n, n_x, seeds = 8, 2, 4000
        config = config_from_dict({"total_pulses": n, "planned_x_count": n_x,
                                   "basis_choice": "passive"})
        p = n_x / n
        chosen = np.zeros((seeds, n), dtype=bool)
        for seed in range(seeds):
            positions, bits = choose_basis_plan(config, derive_streams(seed))
            assert bits == 0 and positions.dtype == np.int64
            assert np.array_equal(positions, np.unique(positions))
            chosen[seed, positions] = True
        rate = chosen.mean(axis=0)
        assert np.all(np.abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / seeds)), rate
        pairs = (chosen[:, :-1] & chosen[:, 1:]).mean(axis=0)
        q = p * p
        assert np.all(np.abs(pairs - q) <= 5 * math.sqrt(q * (1 - q) / seeds)), pairs

    def test_passive_plan_memory_grows_with_its_x_count(self):
        # geometric gaps, one chunk of about N*p int64 and the positions'
        # copy; a partial shuffle of all N pulses takes 2.75 times the bound
        config = config_from_dict({"total_pulses": 4 * 10**6, "planned_x_count": 4 * 10**5,
                                   "basis_choice": "passive", "master_seed": 424242})
        streams = derive_streams(config.master_seed)
        tracemalloc.start()
        try:
            positions, _ = choose_basis_plan(config, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert positions.size > 0.99 * config.params.planned_x_count
        assert peak <= 4 * 8 * positions.size, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("mode", ["active", "passive"])
    def test_plan_reads_no_other_stream(self, mode):
        # the plan is a function of the config and the master seed alone, so
        # a run computes it once and every session draws the same clicks
        config = config_from_dict({"total_pulses": 5000, "planned_x_count": 200,
                                   "basis_choice": mode, "master_seed": 77})
        streams = derive_streams(config.master_seed)
        positions, bits = choose_basis_plan(config, streams)
        again, again_bits = choose_basis_plan(config, derive_streams(config.master_seed))
        assert np.array_equal(positions, again) and bits == again_bits
        assert (bits > 0) == (mode == "active")
        fresh = derive_streams(config.master_seed)
        plan_stream = "basis" if mode == "active" else "splitter"
        for name in ("physics", "basis", "double_click", "toeplitz", "splitter"):
            if name != plan_stream:
                assert (getattr(streams, name).bit_generator.state
                        == getattr(fresh, name).bit_generator.state), name


class TestDetectionStatistics:
    def test_honest_z_singles_are_balanced(self, rng):
        # chi-square over >= 1e5 single clicks must not reject at 1e-3
        quiet = DetectorConfig(efficiency=0.45, dark_count=0.0)
        pattern = session_records(10**6, HONEST, LOSSLESS, quiet, NO_X, rng) & 3
        d0 = int(np.count_nonzero(pattern == Pattern.D0))
        d1 = int(np.count_nonzero(pattern == Pattern.D1))
        assert d0 + d1 >= 10**5
        assert chisquare([d0, d1]).pvalue > 1e-3

    def test_adversarial_x_singles_are_balanced(self, rng):
        # the 50/50 X split of a fixed-Z source is what triggers the abort
        quiet = DetectorConfig(efficiency=0.45, dark_count=0.0)
        pattern = session_records(10**6, ADVERSARIAL, LOSSLESS, quiet,
                                  np.arange(10**6), rng) & 3
        d0 = int(np.count_nonzero(pattern == Pattern.D0))
        d1 = int(np.count_nonzero(pattern == Pattern.D1))
        assert d0 + d1 >= 10**5
        assert chisquare([d0, d1]).pvalue > 1e-3

    def test_detection_monotone_in_loss(self):
        rates = []
        for loss in [0, 3, 6, 10, 15, 25, 40]:
            records = session_records(10**5, HONEST, ChannelConfig(loss_db=loss), PAPER_DET,
                                      NO_X, np.random.default_rng(7))
            rates.append(np.mean(records & 3 != Pattern.NONE))
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_doubles_monotone_in_intensity(self):
        doubles = []
        for mu in [0.2, 0.5, 1.0, 2.0, 5.0]:
            source = SourceConfig(mean_photon_number=mu, misalignment=0.02)
            records = session_records(10**5, source, LOSSLESS, PAPER_DET,
                                      NO_X, np.random.default_rng(11))
            doubles.append(np.mean(records & 3 == Pattern.DOUBLE))
        assert all(a <= b for a, b in zip(doubles, doubles[1:]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "ctor, kwargs",
        [
            (SourceConfig, {"mean_photon_number": -1}),
            (SourceConfig, {"misalignment": 0.6}),
            (ChannelConfig, {"loss_db": -2}),
            (DetectorConfig, {"efficiency": 0.0}),
            (DetectorConfig, {"efficiency": 1.5}),
            (DetectorConfig, {"dark_count": 1.0}),
        ],
    )
    def test_out_of_range_rejected(self, ctor, kwargs):
        with pytest.raises(ValueError):
            ctor(**kwargs)

    def test_transmittance(self):
        assert ChannelConfig(loss_db=10).transmittance == pytest.approx(0.1)
        assert ChannelConfig(loss_db=0).transmittance == 1.0
