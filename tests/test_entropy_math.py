"""Entropy kernel tests; expected values frozen from the mpmath oracle
in helpers.py (50 decimal digits)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from siqrng.entropy_math import (
    ProtocolAbortError,
    ProtocolParams,
    binary_entropy,
    binary_entropy_derivative,
    composed_security,
    deviation_exponent,
    final_length,
    log2_deviation_failure_bound,
    trace_distance_from_fidelity,
)

from helpers import mp_binary_entropy, mp_deviation_exponent, mp_log2_failure_bound


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_fair_bit_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_against_high_precision_oracle(self):
        # oracle: mp_binary_entropy(0.02) = 0.14144054254182064...
        assert binary_entropy(0.02) == pytest.approx(0.14144054254182064, abs=1e-14)
        for e in [1e-6, 0.02, 0.11, 0.3, 0.49, 0.77]:
            assert binary_entropy(e) == pytest.approx(float(mp_binary_entropy(e)), abs=1e-13)

    def test_symmetry_on_dense_grid(self):
        grid = np.linspace(0.0, 1.0, 2001)
        for e in grid:
            assert abs(binary_entropy(e) - binary_entropy(1.0 - e)) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestBinaryEntropyDerivative:
    def test_symmetry_peak(self):
        assert binary_entropy_derivative(0.5) == 0.0

    def test_antisymmetry(self):
        assert binary_entropy_derivative(0.3) == pytest.approx(
            -binary_entropy_derivative(0.7), abs=1e-14
        )

    def test_quarter_is_log2_three(self):
        assert binary_entropy_derivative(0.25) == pytest.approx(math.log2(3), abs=1e-14)

    def test_matches_central_finite_difference(self):
        # oracle: (H(e+h) - H(e-h)) / 2h at h = 1e-6
        h = 1e-6
        for e in [0.1, 0.25, 0.4, 0.6]:
            fd = (binary_entropy(e + h) - binary_entropy(e - h)) / (2 * h)
            assert binary_entropy_derivative(e) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_domain_error_at_endpoints(self, bad):
        with pytest.raises(ValueError):
            binary_entropy_derivative(bad)


class TestDeviationExponent:
    def test_zero_deviation_cancels(self):
        for e_bx, q_x in [(0.02, 0.01), (0.3, 0.4), (0.001, 0.9)]:
            assert deviation_exponent(0.0, e_bx, q_x) == pytest.approx(0.0, abs=1e-15)

    def test_against_high_precision_oracle(self):
        # oracle: mp_deviation_exponent(0.08, 0.02, 0.01) = 7.3446871839395029e-4
        value = deviation_exponent(0.08, 0.02, 0.01)
        assert value == pytest.approx(7.3446871839395029e-4, rel=1e-12)
        assert value > 0

    def test_monotone_in_deviation(self):
        assert deviation_exponent(0.05, 0.02, 0.01) < deviation_exponent(0.10, 0.02, 0.01)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            deviation_exponent(0.6, 0.5, 0.01)  # e_bx + theta > 1


class TestDeviationFailureBound:
    def test_clamped_to_one_at_zero_deviation(self):
        # prefactor >= 1 here, so the raw bound exceeds 1 and is clamped
        assert log2_deviation_failure_bound(100, 0.01, 0.02, 0.0) == 0.0

    def test_paper_operating_regime(self):
        # oracle: mp_log2_failure_bound(1e6, 0.01, 0.02, 0.08) = -738.2688...
        log2_value = log2_deviation_failure_bound(10**6, 0.01, 0.02, 0.08)
        assert log2_value == pytest.approx(-738.26882353116034, rel=1e-12)
        assert log2_value <= -100.0

    def test_matches_oracle_on_fixtures(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 10**7))
            q_x = float(rng.uniform(1e-4, 0.9))
            e_bx = float(rng.uniform(1e-3, 0.45))
            theta = float(rng.uniform(0.0, 0.5 - e_bx))
            got = log2_deviation_failure_bound(n, q_x, e_bx, theta)
            want = float(mp_log2_failure_bound(n, q_x, e_bx, theta))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_doubling_n_strictly_decreases(self):
        small = log2_deviation_failure_bound(10**5, 0.01, 0.02, 0.05)
        large = log2_deviation_failure_bound(2 * 10**5, 0.01, 0.02, 0.05)
        assert large < small

    def test_strictly_decreasing_in_deviation(self, rng):
        for _ in range(20):
            n = int(rng.integers(10**3, 10**7))
            q_x = float(rng.uniform(1e-3, 0.5))
            e_bx = float(rng.uniform(0.005, 0.3))
            thetas = np.sort(rng.uniform(1e-4, 0.5 - e_bx - 1e-6, size=6))
            bounds = [log2_deviation_failure_bound(n, q_x, e_bx, t) for t in thetas]
            clamped = [b for b in bounds if b < 0]  # strict ordering holds off the clamp
            assert all(a > b for a, b in zip(clamped, clamped[1:]))

    def test_zero_error_rate_rejected(self):
        with pytest.raises(ValueError):
            log2_deviation_failure_bound(1000, 0.01, 0.0, 0.1)


class TestFinalLength:
    def test_zero_error(self):
        assert final_length(1000, 0.0, 100) == 900

    def test_half_error_is_abort_signal(self):
        # H is symmetric about 1/2: without the check, e = 0.62 would read
        # as H(0.38) and certify bits
        for e in (0.5, 0.62, 1.0):
            with pytest.raises(ProtocolAbortError, match=r"e_sum/r = .* >= 1/2"):
                final_length(1000, e, 100)

    def test_against_high_precision_oracle(self):
        # oracle: floor(1e6 * (1 - mp_binary_entropy(0.02))) - 100 = 858459
        assert final_length(10**6, 0.02, 100) == 858459

    def test_rounding_never_adds_a_bit(self):
        # 1 - H(5e-324) rounds to 1.0 in floats, and 3 * fl(1/3) to 1.0
        assert final_length(1000, 5e-324, 0) == 999
        assert final_length(3, 0.0, 0, 1 / 3) == 0

    @settings(max_examples=400, deadline=None)
    @given(
        e=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=2.0**-1022, exclude_min=True),  # subnormal
            st.floats(min_value=0.0, max_value=0.5),
            st.integers(2, 10**9).flatmap(lambda m: st.integers(1, m - 1).map(lambda k: k / m)),
        ),
        r=st.one_of(
            st.just(1.0),
            st.integers(3, 1000).map(lambda d: (d - 1) / d),  # 1/r is not exact
            st.integers(3, 7).map(lambda d: 1 / d),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        ),
        n_z=st.integers(1, 10**12),
        t_e=st.integers(0, 200),
    )
    @example(e=5e-324, r=1.0, n_z=1000, t_e=0)
    @example(e=0.0, r=1 / 3, n_z=3, t_e=0)
    def test_never_above_the_exact_formula(self, e, r, n_z, t_e):
        # the floats are exact rationals; K is at most the exact
        # floor(r n_z (1 - H(e/r))) - t_e, and equal to it unless that value
        # lies within the length's rounding margin above an integer
        with mp.workprec(1400):  # resolves n_z (1 - H) for a subnormal e
            scaled = mpf(e) / mpf(r)
            if scaled >= 0.5:
                with pytest.raises(ProtocolAbortError):
                    final_length(n_z, e, t_e, r)
                return
            h = mp_binary_entropy(scaled)
            value = mpf(r) * n_z * (1 - h)
            exact = int(mp.floor(value)) - t_e
            margin = mpf(r) * n_z * (h * mpf(2) ** -46 + mpf(2) ** -1060)
            near_boundary = value - mp.floor(value) <= margin
        got = final_length(n_z, e, t_e, r)
        assert got <= exact
        assert got == exact or near_boundary

    def test_monotonicity(self, rng):
        for _ in range(100):
            n_z = int(rng.integers(100, 10**6))
            e = float(rng.uniform(0.0, 0.5))
            t_e = int(rng.integers(1, 200))
            base = final_length(n_z, e, t_e)
            assert final_length(n_z, min(e + 0.01, 1.0), t_e) <= base
            assert final_length(n_z, e, t_e + 7) <= base
            assert final_length(n_z + 1000, e, t_e) >= base


class TestMismatchAdjustedLength:
    """``final_length`` at an efficiency ratio r: floor(r n_z (1 - H(e/r))) - t_e."""

    def test_reduces_to_final_length_at_unit_ratio(self):
        # oracle: floor(1000 * (1 - H(0.1))) - 10 = 521
        assert final_length(1000, 0.1, 10, 1.0) == final_length(1000, 0.1, 10) == 521

    def test_bitwise_equal_on_random_fixtures(self, rng):
        # at r = 1 the formula is the matched-detector n_z (1 - H(e)), bit for bit
        for _ in range(1000):
            n_z = int(rng.integers(1, 10**6))
            e = float(rng.uniform(0.0, 0.4999))
            t_e = int(rng.integers(1, 300))
            assert final_length(n_z, e, t_e, 1.0) == (
                math.floor(n_z * (1.0 - binary_entropy(e))) - t_e)

    def test_abort_when_scaled_error_reaches_half(self):
        # 0.46 / 0.9 = 0.511, although 0.46 alone is below 1/2
        with pytest.raises(ProtocolAbortError):
            final_length(1000, 0.46, 10, 0.9)
        assert final_length(1000, 0.46, 10) == -6

    def test_mismatch_penalty(self):
        # oracle values: 667301 (r = 0.95) vs 713503 (r = 1)
        adjusted = final_length(10**6, 0.05, 100, 0.95)
        assert adjusted == 667301
        assert adjusted < final_length(10**6, 0.05, 100, 1.0) == 713503


class TestTraceDistance:
    def test_endpoints(self):
        assert trace_distance_from_fidelity(0.0) == 0.0
        assert trace_distance_from_fidelity(1.0) == 1.0

    def test_small_value_identity(self):
        # sqrt(2^-99 * (2 - 2^-99)) = 2^-49 * sqrt(1 - 2^-100)
        result = trace_distance_from_fidelity(2.0**-99)
        assert abs(result - 2.0**-49) / 2.0**-49 < 2.0**-99

    def test_dominates_input(self, rng):
        for x in rng.uniform(0, 1, size=200):
            assert trace_distance_from_fidelity(float(x)) >= x

    def test_monotone(self):
        xs = np.linspace(0, 1, 101)
        ys = [trace_distance_from_fidelity(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            trace_distance_from_fidelity(1.5)


class TestComposedSecurity:
    def test_reference_operating_point(self):
        # eps_f = 2^-100 + 2^-100 = 2^-99; eps_t = 2 * 2^-50 up to 2^-101 relative
        report = composed_security(2.0**-100, 100)
        assert report.eps_f == 2.0**-99
        assert abs(report.eps_t - 2.0 * 2.0**-50) / (2.0 * 2.0**-50) < 1e-12

    def test_zero_sampling_failure_limit(self):
        values = [composed_security(0.0, t_e).eps_t for t_e in (10, 50, 200, 900)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-130

    def test_mid_range_value(self):
        # oracle: sqrt(2^-49 * (2 - 2^-49)) = 5.9604644775390598e-08
        report = composed_security(2.0**-50, 50)
        assert report.eps_t == pytest.approx(5.9604644775390598e-08, rel=1e-12)

    def test_rejects_composed_failure_above_one(self):
        with pytest.raises(ValueError):
            composed_security(0.99999, 1)

    def test_union_bound_over_blocks(self):
        single = composed_security(2.0**-100, 100, extraction_blocks=1)
        multi = composed_security(2.0**-100, 100, extraction_blocks=7)
        assert multi.eps_f == pytest.approx(8 * 2.0**-100, rel=1e-12)
        assert multi.eps_t > single.eps_t


class TestProtocolParams:
    def test_valid(self):
        params = ProtocolParams(total_pulses=10**6, planned_x_count=1353)
        assert params.eps_theta_exponent == 100.0
        assert params.t_e == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_pulses": 100, "planned_x_count": 100},
            {"total_pulses": 100, "planned_x_count": 0},
            {"total_pulses": 100, "planned_x_count": 10, "eps_theta_exponent": 0},
            {"total_pulses": 100, "planned_x_count": 10, "t_e": 0},
            {"total_pulses": 100, "planned_x_count": 10, "efficiency_ratio": 0.0},
            {"total_pulses": 100, "planned_x_count": 10, "efficiency_ratio": 1.2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)
