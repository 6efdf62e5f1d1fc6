"""Estimation-stage tests: error-rate accounting, the deviation solver
against a grid-scan oracle, check-count planning, and abort decisions."""

import math

import numpy as np
import pytest

from siqrng.config import config_from_dict
from siqrng.entropy_math import ProtocolParams, log2_deviation_failure_bound
from siqrng.estimation import (
    estimate_session,
    observed_x_error,
    plan_x_count,
    solve_deviation,
)
from siqrng.pipeline import run_protocol_session
from siqrng.squash_sample import SessionTally

from helpers import mp_binary_entropy, mp_binary_entropy_derivative, zero_bits


def _tally(n_x=100, x_minus=0, x_double=0, n_z=1000):
    return SessionTally(
        n=n_x + n_z, n_x=n_x, n_z=n_z, x_minus=x_minus, x_double=x_double,
        z_bits=zero_bits(n_z),
    )


class TestObservedXError:
    def test_zero_errors_falls_back_to_reciprocal(self):
        assert observed_x_error(_tally(n_x=100)) == pytest.approx(0.01)

    def test_plain_ratio(self):
        assert observed_x_error(_tally(n_x=100, x_minus=5)) == pytest.approx(0.05)

    def test_double_clicks_count_half(self):
        assert observed_x_error(_tally(n_x=100, x_minus=3, x_double=4)) == pytest.approx(0.05)

    def test_no_sample_is_an_error(self):
        with pytest.raises(ValueError):
            observed_x_error(_tally(n_x=0, n_z=10))


def _grid_scan_theta(n, q_x, e_bx, eps_exponent, resolution=1e-6):
    """Oracle: first grid point whose failure bound meets the target."""
    target = -eps_exponent
    theta = 0.0
    while theta <= 0.5 - e_bx:
        if log2_deviation_failure_bound(n, q_x, e_bx, theta) <= target:
            return theta
        theta += resolution
    return None


class TestSolveDeviation:
    def test_trivial_target_needs_no_deviation(self):
        assert solve_deviation(10**6, 0.01, 0.02, 0.0) == 0.0

    def test_paper_operating_point_against_grid_oracle(self):
        n, q_x, e_bx = 10**6, 1.35e-3, 0.02
        theta = solve_deviation(n, q_x, e_bx, 100.0)
        # oracle value from the 1e-6 grid scan; frozen: 0.078775
        oracle = _grid_scan_theta(n, q_x, e_bx, 100.0)
        assert oracle == pytest.approx(0.078775, abs=2e-6)
        assert theta == pytest.approx(oracle, abs=2e-6)
        assert 0.06 < theta < 0.10

    def test_bracketing_is_tight(self, rng):
        for _ in range(100):
            n = int(rng.integers(10**4, 10**7))
            q_x = float(rng.uniform(1e-4, 0.2))
            e_bx = float(rng.uniform(0.005, 0.4))
            eps_exponent = float(rng.uniform(20, 150))
            theta = solve_deviation(n, q_x, e_bx, eps_exponent)
            if theta is None:
                assert log2_deviation_failure_bound(n, q_x, e_bx, 0.5 - e_bx) > -eps_exponent
                continue
            assert log2_deviation_failure_bound(n, q_x, e_bx, theta) <= -eps_exponent
            if theta > 1e-9:
                assert log2_deviation_failure_bound(n, q_x, e_bx, theta - 1e-9) > -eps_exponent

    def test_monotone_in_sample_size(self):
        big = solve_deviation(10**7, 1.35e-3, 0.02, 100.0)
        small = solve_deviation(10**6, 1.35e-3, 0.02, 100.0)
        assert big < small

    def test_monotone_in_target_leniency(self, rng):
        for _ in range(20):
            n = int(rng.integers(10**5, 10**7))
            q_x = float(rng.uniform(1e-3, 0.1))
            e_bx = float(rng.uniform(0.01, 0.2))
            strict = solve_deviation(n, q_x, e_bx, 120.0)
            lenient = solve_deviation(n, q_x, e_bx, 40.0)
            if strict is not None and lenient is not None:
                assert lenient <= strict

    def test_no_solution_signal(self):
        # tiny session cannot push the bound below 2^-100
        assert solve_deviation(50, 0.3, 0.1, 100.0) is None


class TestPlanXCount:
    def test_independent_of_total_size_by_construction(self):
        # the planner takes no total-size argument; its output is a constant
        assert plan_x_count(0.02, 0.08, 100.0) == plan_x_count(0.02, 0.08, 100.0) == 1353

    def test_against_high_precision_denominator(self):
        # oracle: H(0.1) - H(0.02) - H'(0.1)*0.08 = 0.0739610509320756
        denom = float(
            mp_binary_entropy(0.1)
            - mp_binary_entropy(0.02)
            - mp_binary_entropy_derivative(0.1) * 0.08
        )
        assert denom == pytest.approx(0.0739610509320756, rel=1e-12)
        assert plan_x_count(0.02, 0.08, 100.0) == math.ceil(100.0 / denom)

    def test_doubling_exponent_doubles_count(self):
        single = plan_x_count(0.02, 0.08, 100.0)
        double = plan_x_count(0.02, 0.08, 200.0)
        assert abs(double - 2 * single) <= 1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_x_count(0.3, 0.3, 100.0)  # e + theta >= 1/2
        with pytest.raises(ValueError):
            plan_x_count(0.0, 0.1, 100.0)

    def test_approximation_tracks_exact_inversion(self):
        # oracle: smallest integer n_x with bound(n=1e8, n_x/n, e, theta) <= 2^-100,
        # by bisection on the monotone bound; planner must agree within 25%
        n = 10**8
        for e_bx, theta in [(0.01, 0.05), (0.02, 0.08), (0.05, 0.1)]:
            lo, hi = 1, n // 2
            while lo < hi:
                mid = (lo + hi) // 2
                if log2_deviation_failure_bound(n, mid / n, e_bx, theta) <= -100.0:
                    hi = mid
                else:
                    lo = mid + 1
            exact = lo
            planned = plan_x_count(e_bx, theta, 100.0)
            assert abs(planned - exact) / exact <= 0.25


class TestEstimateSession:
    def test_abort_when_error_rate_saturates(self):
        tally = _tally(n_x=1000, x_minus=600, n_z=1000)
        result = estimate_session(tally, ProtocolParams(2001, 1000))
        assert result.abort and result.e_bx == 0.6

    def test_abort_when_no_deviation_fits(self):
        tally = _tally(n_x=40, x_minus=8, n_z=60)
        result = estimate_session(tally, ProtocolParams(101, 40, eps_theta_exponent=100))
        assert result.abort
        assert result.e_pz_bound == pytest.approx(0.5)

    @pytest.mark.parametrize("tally, e_bx, theta", [
        (dict(n_x=0, n_z=11), 0.5, 0.0),          # no X event: nothing to sample
        (dict(n_x=0, n_z=0), 0.5, 0.0),
        (dict(n_x=40, x_minus=8, n_z=0), 0.2, 0.3),  # no Z event: nothing to certify
        (dict(n_x=10, x_minus=7, n_z=0), 0.7, 0.0),
    ], ids=["no-x", "no-events", "no-z", "no-z-saturated"])
    def test_session_without_x_or_z_events_aborts(self, tally, e_bx, theta):
        result = estimate_session(_tally(**tally), ProtocolParams(100, 40))
        assert result.abort and result.log2_eps_theta == 0.0
        assert result.e_bx == pytest.approx(e_bx) and result.theta == pytest.approx(theta)
        assert result.e_pz_bound >= 0.5

    def test_healthy_session(self):
        tally = _tally(n_x=1400, x_minus=28, n_z=10**6)
        params = ProtocolParams(10**6 + 1400, 1400, eps_theta_exponent=100)
        result = estimate_session(tally, params)
        assert not result.abort
        assert result.e_bx == pytest.approx(0.02)
        assert result.log2_eps_theta <= -100.0
        assert result.e_pz_bound == result.e_bx + result.theta < 0.5

    def test_adversarial_source_aborts_end_to_end(self):
        # fixed-Z source: X outcomes split 50/50, so e_bx concentrates at 1/2
        config = config_from_dict({
            "total_pulses": 4000, "planned_x_count": 1600,
            "eps_theta_exponent": 100, "t_e": 50,
            "source": {"mean_photon_number": 1.0, "mode": "adversarial-fixed-z"},
            "channel": {"loss_db": 0.0},
            "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
            "master_seed": 1234,
        })
        result = run_protocol_session(config)
        assert result.aborted
        assert result.estimation.e_bx > 0.4

    def test_honest_low_loss_session_passes(self):
        config = config_from_dict({
            "total_pulses": 4 * 10**5, "planned_x_count": 8000,
            "eps_theta_exponent": 100, "t_e": 100,
            "source": {"mean_photon_number": 1.0, "misalignment": 0.02,
                       "mode": "honest-plus"},
            "channel": {"loss_db": 0.0},
            "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
            "master_seed": 99,
        })
        result = run_protocol_session(config)
        assert not result.aborted
        assert result.estimation.e_pz_bound < 0.1
