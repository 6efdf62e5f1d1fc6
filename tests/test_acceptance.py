"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 3/4 share one matched-seed loss sweep; criterion 11 shares one
large honest session.  Every tolerance is stated inline next to its
assertion.
"""

import itertools
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from mpmath import mp, mpf

from siqrng.bits import BitBlock
from siqrng.config import config_from_dict
from siqrng.entropy_math import composed_security, log2_deviation_failure_bound
from siqrng.estimation import EstimationResult, plan_x_count, solve_deviation
from siqrng.extractor import _dual_hash_blocks, extract_session
from siqrng.pipeline import curve_csv, run_protocol_session, run_sweep
from siqrng.randtest import autocorrelation, run_battery
from siqrng.squash_sample import unrank_combination

from helpers import mp_binary_entropy, naive_dual_toeplitz, zero_bits

REFERENCE_PARAMS = {
    "eps_theta_exponent": 100,
    "t_e": 100,
    "source": {"mean_photon_number": 1.0, "misalignment": 0.02, "mode": "honest-plus"},
    "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
}


def _pass(num, text):
    print(f"\n[ACCEPTANCE {num:02d}] {text}: PASS", flush=True)


@pytest.fixture(scope="module")
def loss_sweep():
    doc = {
        "total_pulses": 10**6,
        "planned_x_count": 3700,
        "channel": {"loss_db": 0.0},
        "master_seed": 20260810,
        "sweep": {"key": "loss_db", "values": [0, 2.5, 5, 7.5, 10, 12.5, 15,
                                               17.5, 20, 22.5, 25, 30, 35, 40]},
        **REFERENCE_PARAMS,
    }
    return run_sweep(config_from_dict(doc))


@pytest.fixture(scope="module")
def big_honest_session():
    doc = {
        "total_pulses": 4 * 10**7,
        "planned_x_count": 22000,
        "channel": {"loss_db": 0.0},
        "master_seed": 424242,
        "basis_choice": "passive",
        **REFERENCE_PARAMS,
    }
    return run_protocol_session(config_from_dict(doc))


def test_criterion_01_security_parameter_reproduction():
    report = composed_security(2.0**-100, 100)
    reference = 2.0 * 2.0**-50
    assert abs(report.eps_t - reference) / reference < 1e-12
    _pass(1, "composed security of (2^-100, t_e=100) equals 2 x 2^-50 within 1e-12")


def test_criterion_02_extraction_ratio_consistency():
    mp.dps = 30
    e_star = float(
        mp.findroot(lambda e: 1 - mp_binary_entropy(e) - mpf(91) / 115, mpf("0.03"))
    )
    assert abs(e_star - 0.033) < 0.001
    est = EstimationResult(e_bx=e_star, theta=0.0, log2_eps_theta=-100.0, abort=False)
    final, _, _ = extract_session(zero_bits(115_000), est, 100, np.random.default_rng(2))
    assert len(final) / 115_000 == pytest.approx(0.7913, abs=0.01)
    _pass(2, "91/115 extraction ratio reproduced at e ~= 0.033 within 0.01")


def test_criterion_03_phase_error_vs_loss_curve(loss_sweep):
    e_pz = [p.e_pz_bound for p in loss_sweep]
    assert all(a <= b for a, b in zip(e_pz, e_pz[1:])), e_pz  # exact on matched seeds
    crossed = [p for p in loss_sweep if p.e_pz_bound > 0.20 and not p.abort]
    assert crossed, "no non-aborting point with e_pz_bound > 0.20"
    assert loss_sweep[-1].abort, "highest loss should abort"
    _pass(3, "phase-error bound is monotone in loss and exceeds 0.20 before abort")


def test_criterion_04_randomness_beyond_qkd_thresholds(loss_sweep):
    usable = [p for p in loss_sweep if 0.11 < p.e_pz_bound < 0.5 and not p.abort]
    assert usable, "no point with e_pz_bound in (0.11, 0.5)"
    assert all(p.K > 0 for p in usable)
    _pass(4, "positive output persists at phase-error bounds in (0.11, 0.5)")


def test_criterion_05_adversarial_abort_soundness():
    base = {
        "total_pulses": 3400,
        "planned_x_count": 1700,
        "eps_theta_exponent": 100,
        "t_e": 100,
        "source": {"mean_photon_number": 1.0, "mode": "adversarial-fixed-z"},
        "channel": {"loss_db": 0.0},
        "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
    }
    aborts = 0
    min_n_x = math.inf
    for session in range(1000):
        config = config_from_dict({**base, "master_seed": 7_000_000 + session})
        result = run_protocol_session(config)
        min_n_x = min(min_n_x, result.tally.n_x)
        aborts += result.aborted
    assert min_n_x >= 500, f"fixture too small: min n_x = {min_n_x}"
    assert aborts >= 999  # empirical frequency >= 1 - 1e-3
    _pass(5, f"fixed-Z source aborted {aborts}/1000 sessions (all with n_x >= 500)")


def test_criterion_06_toeplitz_oracle_equivalence():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        n_z = int(rng.integers(1, 513))
        k_out = int(rng.integers(1, n_z + 1))
        raw01 = rng.integers(0, 2, n_z, dtype=np.uint8)
        # the (I | T) seed: n_z - 1 bits, none when T is empty (K = n_z)
        seed01 = rng.integers(0, 2, n_z - 1 if k_out < n_z else 0, dtype=np.uint8)
        fast, _ = _dual_hash_blocks(BitBlock.from01(raw01), [(n_z, k_out)], seed01)
        assert np.array_equal(fast, naive_dual_toeplitz(raw01, seed01, k_out))
    _pass(6, "fast (I | T) Toeplitz path bit-identical to naive GF(2) multiply, 1000 cases")


def test_criterion_07_sampling_uniformity_exhaustive():
    n_total, n_x = 12, 4
    for lost in [set(), {1, 3, 4, 8, 11}]:
        survivors = [i for i in range(n_total) if i not in lost]
        counts = defaultdict(Counter)
        total = math.comb(n_total, n_x)
        for index in range(total):
            plan = unrank_combination(index, n_total, n_x, total)
            surviving_x = tuple(p for p in plan if p not in lost)
            counts[len(surviving_x)][surviving_x] += 1
        for size, counter in counts.items():
            # every subset of the survivors occurs, with exactly equal counts
            assert len(counter) == math.comb(len(survivors), size)
            expected = math.comb(len(lost), n_x - size)
            assert set(counter.values()) == {expected}
    _pass(7, "surviving-X positions exactly uniform over exhaustive plans (N=12)")


def test_criterion_08_unranking_bijectivity_exhaustive():
    for n in range(0, 21):
        for k in range(0, n + 1):
            total = math.comb(n, k)
            for index, reference in enumerate(itertools.combinations(range(n), k)):
                assert tuple(unrank_combination(index, n, k, total)) == reference
    _pass(8, "combination unranking bijective for all N <= 20 (exhaustive)")


def test_criterion_09_deviation_solver_tightness():
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 100:
        n = int(rng.integers(10**4, 10**7))
        q_x = float(rng.uniform(1e-4, 0.2))
        e_bx = float(rng.uniform(0.005, 0.4))
        eps_exponent = float(rng.uniform(20, 150))
        theta = solve_deviation(n, q_x, e_bx, eps_exponent)
        if theta is None or theta <= 1e-9:
            continue
        assert log2_deviation_failure_bound(n, q_x, e_bx, theta) <= -eps_exponent
        assert log2_deviation_failure_bound(n, q_x, e_bx, theta - 1e-9) > -eps_exponent
        checked += 1
    _pass(9, "solved deviation meets the target and theta - 1e-9 misses it, 100 fixtures")


def test_criterion_10_check_count_planner():
    # the planner has no total-size input, so its output cannot depend on n
    assert plan_x_count(0.02, 0.08, 100.0) == plan_x_count(0.02, 0.08, 100.0) == 1353
    n = 10**8
    for e_bx, theta in [(0.01, 0.05), (0.02, 0.08), (0.05, 0.1)]:
        lo, hi = 1, n // 2
        while lo < hi:  # exact inversion of the failure bound over integer n_x
            mid = (lo + hi) // 2
            if log2_deviation_failure_bound(n, mid / n, e_bx, theta) <= -100.0:
                hi = mid
            else:
                lo = mid + 1
        assert abs(plan_x_count(e_bx, theta, 100.0) - lo) / lo <= 0.25
    _pass(10, "planner output n-invariant and within 25% of direct inversion at n=1e8")


def test_criterion_11_statistical_quality(big_honest_session):
    result = big_honest_session
    assert not result.aborted
    final = result.final_bits
    assert len(final) >= 10**7

    report = run_battery(final)
    for record in report.records:
        assert record.p_value >= 0.01, record
        assert record.proportion_pass >= 0.96, record

    # deliberately biased raw data (bias around 0.55, slow modulation so the
    # defect registers in the correlogram) vs its own extraction
    rng = np.random.default_rng(1111)
    n = 2**20
    p = 0.55 + 0.1 * np.sin(2 * np.pi * np.arange(n) / 1600)
    biased_raw = (rng.random(n) < p).astype(np.uint8)
    est = EstimationResult(e_bx=0.1, theta=0.0, log2_eps_theta=-60.0, abort=False)
    extracted, _, _ = extract_session(
        BitBlock.from01(biased_raw), est, 20, rng
    )
    max_abs_raw, max_abs_final = (
        float(np.max(np.abs(autocorrelation(block, 100))))
        for block in (BitBlock.from01(biased_raw), extracted)
    )
    assert max_abs_final < max_abs_raw  # strict
    _pass(11, f"{len(final)} extracted bits pass all tests (min proportion "
              f"{report.proportion_pass:.2f}); extraction shrinks max|R| "
              f"{max_abs_raw:.4f} -> {max_abs_final:.4f}")


def test_criterion_12_hardware_rates_excluded_by_design(loss_sweep):
    # the physical 5e3 bit/s figure and the 20 Mbps dead-time ceiling are
    # hardware-bound and not reproduced; the substitute is the simulated-rate
    # column, capped by the configured dead time
    csv = curve_csv(loss_sweep)
    header = csv.splitlines()[0].split(",")
    assert "rate_bits_per_s" in header
    ceiling = 1.0 / 50e-9  # 20 Mbps at the default 50 ns dead time
    assert all(p.rate_bits_per_s <= ceiling for p in loss_sweep)
    _pass(12, "hardware-bound rates excluded; simulated-rate column present and capped")
