"""Squashed-outcome classification, basis-choice planning, and session tallies.

Click patterns are squashed to vacuum / qubit / double-click outcomes:
losses become vacua and are postselected away, single clicks carry a bit,
and double clicks are kept — assigned a uniformly random bit in the
generation (Z) basis, or retained as a distinct category in the check (X)
basis where they later count as half an error.  Silently dropping double
clicks would blind the protocol to strong multiphoton pulses, so the
random assignment consumes auditable seed bits.

Basis choice dilutes a short uniform seed into a uniform choice of
``N_x`` out of ``N`` positions via exact combinadic (lexicographic
combination) unranking over big integers; rejection resampling on
``ceil(log2 C(N, N_x))``-bit windows preserves exact uniformity when
``C(N, N_x)`` is not a power of two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .bits import BitBlock
from .photonic_sim import Basis, ClickEvent, ClickStream, Pattern
from .seeds import SeedSource


class OutcomeKind(enum.Enum):
    VACUUM = "vacuum"
    BIT = "bit"
    DOUBLE = "double"


@dataclass(frozen=True)
class SquashedOutcome:
    kind: OutcomeKind
    bit_value: int | None = None

    def __post_init__(self):
        if (self.kind is OutcomeKind.BIT) != (self.bit_value is not None):
            raise ValueError("bit_value must be present exactly when kind is BIT")


@dataclass
class SessionTally:
    """Aggregated counts of one session after squashing and postselection.

    ``n = n_x + n_z`` counts non-vacuum squashed events; ``x_minus`` and
    ``x_double`` are the "-" single clicks and the double clicks among the
    X-basis events; ``z_bits`` is the raw Z-basis bitstream in pulse order;
    ``seed_bits_consumed`` counts the bits drawn for Z double clicks.
    """

    n: int = 0
    n_x: int = 0
    n_z: int = 0
    x_minus: int = 0
    x_double: int = 0
    z_bits: BitBlock = field(default_factory=lambda: BitBlock.zeros(0))
    seed_bits_consumed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.n != self.n_x + self.n_z:
            raise ValueError(f"n={self.n} != n_x+n_z={self.n_x + self.n_z}")
        if self.x_minus + self.x_double > self.n_x:
            raise ValueError("more X errors than X events")
        if len(self.z_bits) != self.n_z:
            raise ValueError(f"z_bits has {len(self.z_bits)} bits, expected n_z={self.n_z}")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_x": self.n_x,
            "n_z": self.n_z,
            "x_minus": self.x_minus,
            "x_double": self.x_double,
            "seed_bits_consumed": self.seed_bits_consumed,
        }


def squash(event: ClickEvent, seed: SeedSource) -> SquashedOutcome:
    """Classify one click event under the squashing rules.

    Z-basis double clicks consume one bit from ``seed``; X-basis double
    clicks stay unassigned (they are discarded after error accounting).
    """
    if event.pattern == Pattern.NONE:
        return SquashedOutcome(OutcomeKind.VACUUM)
    if event.pattern == Pattern.D0:
        return SquashedOutcome(OutcomeKind.BIT, 0)
    if event.pattern == Pattern.D1:
        return SquashedOutcome(OutcomeKind.BIT, 1)
    if event.basis == Basis.Z:
        return SquashedOutcome(OutcomeKind.BIT, seed.take_bit())
    return SquashedOutcome(OutcomeKind.DOUBLE)


def tally_session(outcomes, seed_bits_consumed: int = 0) -> SessionTally:
    """Fold (basis, SquashedOutcome) pairs, in pulse order, into a tally."""
    tally = SessionTally()
    z_bits: list[int] = []
    for basis, outcome in outcomes:
        if outcome.kind is OutcomeKind.VACUUM:
            continue
        tally.n += 1
        if basis == Basis.X:
            tally.n_x += 1
            if outcome.kind is OutcomeKind.DOUBLE:
                tally.x_double += 1
            elif outcome.bit_value == 1:
                tally.x_minus += 1
        else:
            tally.n_z += 1
            z_bits.append(outcome.bit_value)
    tally.z_bits = BitBlock.from01(z_bits)
    tally.seed_bits_consumed = seed_bits_consumed
    tally.validate()
    return tally


def squash_and_tally(stream: ClickStream, seed: SeedSource) -> SessionTally:
    """Vectorized squash + tally of a whole click stream.

    Equivalent to squashing every event in pulse order and folding with
    :func:`tally_session`; Z double clicks consume seed bits in pulse order.
    """
    basis = stream.basis
    pattern = stream.pattern
    is_x = basis == Basis.X
    non_vacuum = pattern != Pattern.NONE

    x_events = is_x & non_vacuum
    n_x = int(np.count_nonzero(x_events))
    x_minus = int(np.count_nonzero(x_events & (pattern == Pattern.D1)))
    x_double = int(np.count_nonzero(x_events & (pattern == Pattern.DOUBLE)))

    z_events = ~is_x & non_vacuum
    z_patterns = pattern[z_events]
    z_bits01 = np.empty(z_patterns.size, dtype=np.uint8)
    z_bits01[z_patterns == Pattern.D0] = 0
    z_bits01[z_patterns == Pattern.D1] = 1
    doubles = z_patterns == Pattern.DOUBLE
    n_doubles = int(np.count_nonzero(doubles))
    if n_doubles:
        z_bits01[doubles] = seed.take_bits(n_doubles)

    return SessionTally(
        n=n_x + z_patterns.size,
        n_x=n_x,
        n_z=int(z_patterns.size),
        x_minus=x_minus,
        x_double=x_double,
        z_bits=BitBlock.from01(z_bits01),
        seed_bits_consumed=n_doubles,
    )


# neighbour steps while the expected stride m / k_rem is at most this
_SHORT_STRIDE = 8


def unrank_combination(index: int, n: int, k: int) -> list[int]:
    """Return the ``index``-th k-subset of {0..n-1} in lexicographic order.

    Bijective over ``0 <= index < C(n, k)``; all arithmetic is exact.  With
    ``m`` positions left and ``k_rem`` still to choose, the exact integer
    ``t = C(m, k_rem) - rank`` fixes the next chosen position: it is the
    ``s``-th candidate, for the smallest stride ``s >= 1`` with
    ``C(m - s, k_rem) < t``.  Short expected strides walk candidate by
    candidate with exact neighbour steps; long ones jump to a
    float-lgamma estimate of ``s``, evaluate the binomial there exactly and
    finish with exact neighbour steps, so floats only seed the search.
    After each slot ``t`` drops by ``C(m - s, k_rem)``.

    Raises
    ------
    ValueError
        If the index is outside [0, C(n, k)) or k > n.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"invalid combination shape C({n}, {k})")
    total = math.comb(n, k)
    if not 0 <= index < total:
        raise ValueError(f"combination index {index} out of range [0, C({n},{k})={total})")
    out: list[int] = []
    t = total - index          # 1 <= t <= C(m, k_rem)
    y = total * (n - k) // n if n else 0  # C(m - 1, k_rem): the binomial at stride 1
    m, k_rem = n, k
    while k_rem > 0:
        if m <= _SHORT_STRIDE * k_rem:
            s, x = 1, y
        else:
            s = _stride_estimate(m, k_rem, t)
            x = _comb_at_stride(y, m, k_rem, s)
        # x = C(m - s, k_rem); make s the smallest stride with x < t
        if x >= t:
            while x >= t:
                x = x * (m - s - k_rem) // (m - s)
                s += 1
        else:
            while s > 1:
                free = m - s + 1 - k_rem
                prev = x * (m - s + 1) // free if free else 1  # C(m - s + 1, k_rem)
                if prev >= t:
                    break
                x, s = prev, s - 1
        out.append(n - m + s - 1)
        t -= x
        m -= s
        if k_rem > 1:
            y = x * k_rem // m  # C(m - 1, k_rem - 1) from x = C(m, k_rem)
        k_rem -= 1
    return out


def _stride_estimate(m: int, r: int, t: int) -> int:
    """Float estimate of the smallest s in [1, m - r + 1] with C(m - s, r) < t.

    Newton's method on f(j) = log C(j, r) - log t over the real j = m - s,
    from j = m - 1 down: f is increasing and concave for j >= r, so after
    the first step the iterates approach the root from below.
    """
    base = math.lgamma(r + 1) + math.log(t)
    j = float(m - 1)
    for _ in range(32):
        f = math.lgamma(j + 1) - math.lgamma(j - r + 1) - base
        step = f / math.log((j + 0.5) / (j - r + 0.5))
        j = max(j - step, float(r))
        if abs(step) < 0.25:
            break
    return min(max(m - math.floor(j), 1), m - r + 1)


def _comb_at_stride(y: int, m: int, r: int, s: int) -> int:
    """C(m - s, r) exactly, from y = C(m - 1, r).

    For s - 1 < r the ratio C(m - s, r) / C(m - 1, r) equals
    C(m - 1 - r, s - 1) / C(m - 1, s - 1), whose binomials are far shorter
    than y for short jumps; a long jump, whose ratio would outgrow y,
    takes a fresh binomial instead.
    """
    j = s - 1
    if j == 0:
        return y
    if j >= r or j * (m - 1).bit_length() > y.bit_length():
        return math.comb(m - s, r)
    return y * math.comb(m - 1 - r, j) // math.comb(m - 1, j)


def seed_length_required(n: int, k: int) -> int:
    """Seed bits needed for one uniform choice window: ceil(log2 C(n, k)).

    Never exceeds ``k * log2(n)`` for k >= 1.
    """
    if k < 0 or k > n:
        raise ValueError(f"invalid combination shape C({n}, {k})")
    total = math.comb(n, k)
    bits = (total - 1).bit_length()
    assert k == 0 or bits <= k * math.log2(n) + 1e-9
    return bits


def plan_basis_positions(n: int, k: int, seed: SeedSource, max_attempts: int = 1000) -> np.ndarray:
    """Choose k of n positions uniformly, consuming seed bits.

    Reads ``ceil(log2 C(n, k))``-bit windows from ``seed`` and rejects
    window values >= C(n, k); each window accepts with probability > 1/2,
    so the expected consumption is below two windows.  Returns the sorted
    chosen positions.
    """
    if k > n:
        raise ValueError(f"cannot choose {k} of {n} positions")
    total = math.comb(n, k)
    width = seed_length_required(n, k)
    if width == 0:
        return np.arange(k, dtype=np.int64)  # single possibility (k == 0 or k == n)
    for _ in range(max_attempts):
        value = seed.take(width)
        if value < total:
            return np.asarray(unrank_combination(value, n, k), dtype=np.int64)
    raise RuntimeError(
        f"no window value below C({n},{k}) after {max_attempts} attempts; "
        "seed stream is not plausibly uniform"
    )
