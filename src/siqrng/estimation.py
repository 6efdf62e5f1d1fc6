"""Finite-size parameter estimation: observed check-basis error rate, the
statistical deviation meeting a target failure probability, and the abort
decision.

The deviation solver inverts the sampling failure bound by bisection over
the interval (0, 1/2 - e_bx]; the bound is strictly decreasing there, so
the smallest admissible deviation is found to absolute tolerance 1e-12.
Sessions whose error rate plus deviation reaches 1/2 certify nothing and
abort.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .entropy_math import (
    PARAM_KINDS,
    ProtocolParams,
    binary_entropy,
    binary_entropy_derivative,
    log2_deviation_failure_bound,
)
from .fileio import record_field
from .squash_sample import SessionTally

BISECTION_TOL = 1e-12
# the abort reason of a session whose estimate aborted: it certifies nothing
ESTIMATE_ABORT_REASON = "e_bx + theta >= 1/2"


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of parameter estimation for one session.

    ``e_pz_bound = e_bx + theta`` bounds the phase error rate of the
    generation-basis data except with probability ``2**log2_eps_theta``;
    ``abort`` is set when the bound reaches 1/2 (or no deviation meets the
    target failure probability).
    """

    e_bx: float
    theta: float
    log2_eps_theta: float
    abort: bool

    @property
    def e_pz_bound(self) -> float:
        return self.e_bx + self.theta

    @property
    def eps_theta(self) -> float:
        return 2.0 ** self.log2_eps_theta

    def to_dict(self) -> dict:
        return {
            "e_bx": self.e_bx,
            "theta": self.theta,
            "log2_theta": math.log2(self.theta) if self.theta > 0 else -math.inf,
            "e_pz_bound": self.e_pz_bound,
            "eps_theta": self.eps_theta,
            "log2_eps_theta": self.log2_eps_theta,
            "abort": self.abort,
        }

    def record(self, params: ProtocolParams, tally: SessionTally) -> dict:
        """The ``estimation.json`` record: :meth:`to_dict`, the parameters the
        estimate was made under and its tally's counts, all extraction needs."""
        return {**self.to_dict(), "params": asdict(params), "tally": tally.to_dict()}

    @classmethod
    def from_record(cls, doc: dict) -> tuple["EstimationResult", ProtocolParams, SessionTally]:
        """Read a :meth:`record` back; ValueError on a missing key, a wrong
        type, a value out of its range (``0 < e_bx <= 1``, ``theta >= 0``,
        ``log2_eps_theta <= 0``), or values the parameters' or the tally's
        checks reject."""
        e_bx, theta, log2_eps_theta = (record_field(doc, key, float)
                                       for key in ("e_bx", "theta", "log2_eps_theta"))
        if not 0 < e_bx <= 1:
            raise ValueError(f"key 'e_bx' must be in (0, 1], got {e_bx!r}")
        if not theta >= 0:
            raise ValueError(f"key 'theta' must be >= 0, got {theta!r}")
        if not log2_eps_theta <= 0:
            raise ValueError(f"key 'log2_eps_theta' must be <= 0, got {log2_eps_theta!r}")
        result = cls(e_bx=e_bx, theta=theta, log2_eps_theta=log2_eps_theta,
                     abort=record_field(doc, "abort", bool))
        params = record_field(doc, "params", dict)
        params = ProtocolParams(**{key: record_field(params, key, kind)
                                   for key, kind in PARAM_KINDS.items()})
        return result, params, SessionTally.from_dict(record_field(doc, "tally", dict))


def observed_x_error(tally: SessionTally) -> float:
    """Check-basis error rate: "-" singles plus half the double clicks.

    A zero error count is replaced by the fallback value 1/n_x, below
    which the failure bound is vacuous.

    Raises
    ------
    ValueError
        If the session has no X-basis events (nothing to certify from).
    """
    if tally.n_x < 1:
        raise ValueError("no X-basis events: cannot estimate the error rate")
    errors = tally.x_minus + 0.5 * tally.x_double
    if errors == 0:
        return 1.0 / tally.n_x
    return errors / tally.n_x


def solve_deviation(n: int, q_x: float, e_bx: float, eps_exponent: float) -> float | None:
    """Smallest deviation whose failure bound is at most 2**(-eps_exponent).

    Bisects the strictly decreasing bound over (0, 1/2 - e_bx]; the result
    is tight to within 1e-12.  Returns None when even the largest usable
    deviation misses the target (the caller must abort).
    """
    if not 0.0 < e_bx < 0.5:
        raise ValueError(f"e_bx must be in (0, 1/2), got {e_bx}")
    if eps_exponent < 0:
        raise ValueError(f"eps_exponent must be >= 0, got {eps_exponent}")
    target = -eps_exponent

    if log2_deviation_failure_bound(n, q_x, e_bx, 0.0) <= target:
        return 0.0
    theta_max = 0.5 - e_bx
    if log2_deviation_failure_bound(n, q_x, e_bx, theta_max) > target:
        return None

    lo, hi = 0.0, theta_max
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if log2_deviation_failure_bound(n, q_x, e_bx, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def plan_x_count(e_bx_expected: float, theta_target: float, security_exponent: float) -> int:
    """Check-basis sample size achieving a target deviation, any total size.

    Linearizing the failure-bound exponent for a small check fraction gives
    ``n_x ~= s / (H(e+θ) - H(e) - H'(e+θ)·θ)`` with s the security
    exponent; the total session size drops out, so the required number of
    effective check measurements is a constant.

    Raises
    ------
    ValueError
        If the linearized denominator is not positive (degenerate inputs).
    """
    if not 0.0 < e_bx_expected < e_bx_expected + theta_target < 0.5:
        raise ValueError(
            f"need 0 < e_bx < e_bx+theta < 1/2, got e_bx={e_bx_expected}, "
            f"theta={theta_target}"
        )
    shifted = e_bx_expected + theta_target
    denom = (
        binary_entropy(shifted)
        - binary_entropy(e_bx_expected)
        - binary_entropy_derivative(shifted) * theta_target
    )
    if denom <= 0:
        raise ValueError(f"nonpositive planning denominator {denom}")
    return math.ceil(security_exponent / denom)


def estimate_session(tally: SessionTally, params: ProtocolParams) -> EstimationResult:
    """Estimate e_bx and theta for a session and decide abort.

    The realized check fraction ``q_x = n_x / n`` (after losses) feeds the
    failure bound.  When no deviation meets the target, theta is pinned to
    ``1/2 - e_bx`` so that the reported bound reaches 1/2 and abort is set.
    A session without X events (e_bx reads 1/2) or without Z events has
    nothing to sample from or nothing to certify, and aborts the same way.
    """
    e_bx = observed_x_error(tally) if tally.n_x else 0.5
    if e_bx >= 0.5 or tally.n_z < 1:
        return EstimationResult(e_bx=e_bx, theta=max(0.0, 0.5 - e_bx), log2_eps_theta=0.0,
                                abort=True)

    q_x = tally.n_x / tally.n
    theta = solve_deviation(tally.n, q_x, e_bx, params.eps_theta_exponent)
    if theta is None:
        theta = 0.5 - e_bx
        achieved = log2_deviation_failure_bound(tally.n, q_x, e_bx, theta)
        return EstimationResult(e_bx=e_bx, theta=theta, log2_eps_theta=achieved, abort=True)

    achieved = log2_deviation_failure_bound(tally.n, q_x, e_bx, theta)
    abort = e_bx + theta >= 0.5
    return EstimationResult(e_bx=e_bx, theta=theta, log2_eps_theta=achieved, abort=abort)
