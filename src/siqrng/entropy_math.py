"""Entropy formulas, finite-size failure bounds, and output-length arithmetic.

Pure numerical kernel shared by the estimation and extraction stages.  All
functions are stateless and safe to call concurrently.

Conventions
-----------
- Logarithms are base 2 throughout; entropies are in bits.
- Failure probabilities of the form 2**(-k) with k in the hundreds are
  carried as base-2 exponents (the ``log2_*`` functions and fields). Linear
  values may underflow to 0.0 for extremely small probabilities; the log2
  value is the canonical representation.
- Output lengths are floored to an integer (rounding down is the
  conservative direction for certified randomness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ProtocolAbortError(RuntimeError):
    """Raised when a session certifies nothing: its estimate aborted, it
    holds no raw bits, or the length formula leaves no output."""


@dataclass(frozen=True)
class ProtocolParams:
    """Security and sampling knobs for one protocol session.

    Attributes
    ----------
    total_pulses : int
        Number of source pulses N in the session.
    planned_x_count : int
        Number of check-basis (X) positions N_x chosen before losses.
    eps_theta_exponent : float
        Target exponent for the sampling failure probability; the
        estimation stage solves for a deviation meeting 2**(-exponent).
    t_e : int
        Extraction failure exponent; extraction fails with probability
        2**(-t_e) per extracted block.
    efficiency_ratio : float
        Ratio r in (0, 1] between the minimum and maximum detector
        efficiencies; r = 1 means matched detectors.
    """

    total_pulses: int
    planned_x_count: int
    eps_theta_exponent: float = 100.0
    t_e: int = 100
    efficiency_ratio: float = 1.0

    def __post_init__(self):
        if not 0 < self.planned_x_count < self.total_pulses:
            raise ValueError(
                f"planned_x_count must satisfy 0 < N_x < N, got "
                f"N_x={self.planned_x_count}, N={self.total_pulses}"
            )
        if self.eps_theta_exponent <= 0:
            raise ValueError(f"eps_theta_exponent must be > 0, got {self.eps_theta_exponent}")
        if self.t_e < 1:
            raise ValueError(f"t_e must be >= 1, got {self.t_e}")
        if not 0 < self.efficiency_ratio <= 1:
            raise ValueError(f"efficiency_ratio must be in (0, 1], got {self.efficiency_ratio}")


# the JSON type of each ProtocolParams field, for the records and configs
PARAM_KINDS = {"total_pulses": int, "planned_x_count": int, "eps_theta_exponent": float,
               "t_e": int, "efficiency_ratio": float}


@dataclass(frozen=True)
class SecurityReport:
    """Composable security parameters of one extraction.

    ``eps_f`` is the total failure probability in the fidelity measure;
    ``eps_t = sqrt(eps_f * (2 - eps_f))`` is the equivalent trace-distance
    security parameter. ``log2_*`` fields carry the exact exponents when the
    linear values underflow.
    """

    eps_f: float
    eps_t: float
    log2_eps_f: float
    log2_eps_t: float

    def to_dict(self) -> dict:
        return {
            "eps_f": self.eps_f,
            "eps_t": self.eps_t,
            "log2_eps_f": self.log2_eps_f,
            "log2_eps_t": self.log2_eps_t,
        }


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy H(e) in bits.

    H(0) = H(1) = 0 by the 0*log(0) = 0 convention.

    Raises
    ------
    ValueError
        If e is outside [0, 1].
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -(e * math.log2(e) + (1.0 - e) * math.log2(1.0 - e))


def binary_entropy_derivative(e: float) -> float:
    """Derivative H'(e) = log2((1-e)/e); diverges at the endpoints.

    Raises
    ------
    ValueError
        If e is outside the open interval (0, 1).
    """
    if not 0.0 < e < 1.0:
        raise ValueError(f"derivative argument must be in (0, 1), got {e}")
    return math.log2((1.0 - e) / e)


def deviation_exponent(theta: float, e_bx: float, q_x: float) -> float:
    """Large-deviation exponent of the random-sampling failure bound.

    Equals ``H(e_bx + theta - q_x*theta) - q_x*H(e_bx) - (1-q_x)*H(e_bx + theta)``;
    zero at theta = 0, strictly increasing in theta while e_bx + theta < 1/2.

    Raises
    ------
    ValueError
        If either entropy argument leaves [0, 1].
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    mixed = e_bx + theta - q_x * theta
    shifted = e_bx + theta
    if not 0.0 <= mixed <= 1.0 or not 0.0 <= shifted <= 1.0:
        raise ValueError(
            f"entropy arguments out of range: e_bx+theta-q_x*theta={mixed}, "
            f"e_bx+theta={shifted}"
        )
    return (
        binary_entropy(mixed)
        - q_x * binary_entropy(e_bx)
        - (1.0 - q_x) * binary_entropy(shifted)
    )


def log2_deviation_failure_bound(n: int, q_x: float, e_bx: float, theta: float) -> float:
    """Base-2 exponent of the sampling failure bound, clamped to <= 0.

    The bound on the probability that the phase error rate exceeds
    ``e_bx + theta`` is ``prefactor * 2**(-n * exponent)`` with
    ``prefactor = (q_x*(1-q_x)*e_bx*(1-e_bx)*n)**(-1/2)``; this returns its
    log2, never above 0 (a probability bound above 1 carries no information).

    The caller must substitute a positive stand-in (conventionally 1/n_x)
    when the observed error count is zero; e_bx = 0 or 1 is rejected here.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < q_x < 1.0:
        raise ValueError(f"q_x must be in (0, 1), got {q_x}")
    if not 0.0 < e_bx < 1.0:
        raise ValueError(
            f"e_bx must be in (0, 1), got {e_bx} "
            "(apply the 1/n_x substitution for a zero error count)"
        )
    log2_prefactor = -0.5 * math.log2(q_x * (1.0 - q_x) * e_bx * (1.0 - e_bx) * n)
    return min(0.0, log2_prefactor - n * deviation_exponent(theta, e_bx, q_x))


def _entropy_upper_bound(num: int, den: int) -> float:
    """An upper bound on H(num / den) for an exact ratio in [0, 1/2]
    (``num >= 0``, ``den > 0``); H(0) is 0 exactly.

    H increases on [0, 1/2], so it is evaluated at the float at or above
    the ratio, with ``log1p`` keeping the (1 - x) term accurate for small
    x.  The result is raised by 2**-48 relative, which covers its few
    rounding steps, and by 2**-1070 absolute, which covers a subnormal x.
    """
    if num == 0:
        return 0.0
    x = num / den  # correctly rounded
    x_num, x_den = x.as_integer_ratio()
    if x_num * den < num * x_den:
        x = math.nextafter(x, 1.0)
    h = -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / math.log(2.0))
    return h * (1.0 + 2.0**-48) + 2.0**-1070


def final_length(n_z: int, e_pz_bound: float, t_e: int, efficiency_ratio: float = 1.0) -> int:
    """Certified output length ``floor(r * n_z * (1 - H(e_pz_bound / r))) - t_e``.

    ``r`` is the detector efficiency ratio (1 for matched detectors).  May
    be zero or negative; the caller aborts when the result is <= 0.  The
    float inputs are taken as the exact ratios of integers they hold and H
    is bounded from above, so the length is never above the exact
    formula's; it equals it unless the exact value lies within about
    2**-48 relative of an integer.

    Raises
    ------
    ProtocolAbortError
        If ``e_pz_bound / r >= 1/2`` (the scaled error rate certifies
        nothing; H is symmetric about 1/2, so the formula alone would not
        show it).
    """
    if not 0.0 < efficiency_ratio <= 1.0:
        raise ValueError(f"efficiency ratio must be in (0, 1], got {efficiency_ratio}")
    if n_z < 1:
        raise ValueError(f"n_z must be >= 1, got {n_z}")
    if not e_pz_bound >= 0.0:
        raise ValueError(f"error rate bound must be >= 0, got {e_pz_bound}")
    r_num, r_den = efficiency_ratio.as_integer_ratio()
    # an infinite bound reads as 1/0, which is past 1/2 like any other
    e_num, e_den = e_pz_bound.as_integer_ratio() if math.isfinite(e_pz_bound) else (1, 0)
    scaled_num, scaled_den = e_num * r_den, e_den * r_num  # e / r, exactly
    if 2 * scaled_num >= scaled_den:
        raise ProtocolAbortError(
            f"scaled error rate e_sum/r = {e_pz_bound / efficiency_ratio:.6f} >= 1/2: "
            "no extractable bits"
        )
    h_num, h_den = _entropy_upper_bound(scaled_num, scaled_den).as_integer_ratio()
    return r_num * n_z * (h_den - h_num) // (r_den * h_den) - t_e


def trace_distance_from_fidelity(eps_f: float) -> float:
    """Convert a fidelity-measure failure probability to trace distance.

    ``eps_t = sqrt(eps_f * (2 - eps_f))``, monotone, maps [0, 1] onto [0, 1].
    """
    if not 0.0 <= eps_f <= 1.0:
        raise ValueError(f"eps_f must be in [0, 1], got {eps_f}")
    return math.sqrt(eps_f * (2.0 - eps_f))


def composed_security(eps_theta: float, t_e: int, extraction_blocks: int = 1) -> SecurityReport:
    """Compose the sampling and extraction failure probabilities.

    ``eps_f = eps_theta + extraction_blocks * 2**(-t_e)`` (union bound over
    independently extracted blocks), converted to the trace-distance
    parameter ``eps_t = sqrt(eps_f * (2 - eps_f))``.

    Raises
    ------
    ValueError
        If the composed eps_f exceeds 1.
    """
    if eps_theta < 0:
        raise ValueError(f"eps_theta must be >= 0, got {eps_theta}")
    if extraction_blocks < 1:
        raise ValueError(f"extraction_blocks must be >= 1, got {extraction_blocks}")
    eps_f = eps_theta + extraction_blocks * 2.0 ** (-t_e)
    if eps_f > 1.0:
        raise ValueError(f"composed eps_f = {eps_f} exceeds 1")
    eps_t = trace_distance_from_fidelity(eps_f)
    log2_eps_f = math.log2(eps_f) if eps_f > 0 else -math.inf
    log2_eps_t = math.log2(eps_t) if eps_t > 0 else -math.inf
    return SecurityReport(eps_f=eps_f, eps_t=eps_t, log2_eps_f=log2_eps_f, log2_eps_t=log2_eps_t)
