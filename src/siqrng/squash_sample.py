"""Squashed-outcome classification, basis-choice planning, and session tallies.

Click patterns are squashed to vacuum / qubit / double-click outcomes:
losses become vacua and are postselected away, single clicks carry a bit,
and double clicks are kept — assigned a uniformly random bit in the
generation (Z) basis, or retained as a distinct category in the check (X)
basis where they later count as half an error.  Silently dropping double
clicks would blind the protocol to strong multiphoton pulses, so the
random assignment takes seed bits, one per Z double click, all drawn in
one call and counted by the tally as ``seed_bits_consumed``.

Basis choice dilutes a short uniform seed into a uniform choice of
``N_x`` out of ``N`` positions via exact combinadic (lexicographic
combination) unranking over big integers; rejection resampling on
``ceil(log2 C(N, N_x))``-bit windows preserves exact uniformity when
``C(N, N_x)`` is not a power of two.  Each window is one draw, read first
bit most significant, and the plan returns the bits its windows drew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitBlock
from .fileio import record_field
from .photonic_sim import X_RECORD, Pattern

# records per tally block; it bounds the tally's transient memory and changes no count or bit
BLOCK_SIZE = 1 << 21

# windows a basis plan reads before it gives up; each accepts with probability > 1/2
PLAN_MAX_ATTEMPTS = 1000


@dataclass
class SessionTally:
    """Aggregated counts of one session after squashing and postselection.

    ``n = n_x + n_z`` counts non-vacuum squashed events; ``x_minus`` and
    ``x_double`` are the "-" single clicks and the double clicks among the
    X-basis events; ``z_bits`` is the raw Z-basis bitstream in pulse order,
    or None for a tally read from its record, which holds only the counts;
    ``seed_bits_consumed`` counts the bits :func:`squash_and_tally` drew.
    """

    n: int = 0
    n_x: int = 0
    n_z: int = 0
    x_minus: int = 0
    x_double: int = 0
    z_bits: BitBlock | None = None
    seed_bits_consumed: int = 0

    _COUNTS = ("n", "n_x", "n_z", "x_minus", "x_double", "seed_bits_consumed")

    def __post_init__(self):
        for key in self._COUNTS:
            if getattr(self, key) < 0:
                raise ValueError(f"key {key!r} must be >= 0, got {getattr(self, key)}")
        if self.n != self.n_x + self.n_z:
            raise ValueError(f"n={self.n} != n_x+n_z={self.n_x + self.n_z}")
        if self.x_minus + self.x_double > self.n_x:
            raise ValueError("more X errors than X events")
        if self.z_bits is not None and len(self.z_bits) != self.n_z:
            raise ValueError(f"z_bits has {len(self.z_bits)} bits, expected n_z={self.n_z}")

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self._COUNTS}

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionTally":
        """Read a :meth:`to_dict` record back, validated (ValueError).  The
        record holds no bits, and estimation reads only the counts, so the
        tally carries none; nothing is allocated by a count from the file."""
        return cls(**{key: record_field(doc, key, int) for key in cls._COUNTS})


def squash_and_tally(records: np.ndarray, rng: np.random.Generator) -> SessionTally:
    """Vectorized squash + tally of a session's click records.

    Equivalent to squashing every event in pulse order and folding the
    outcomes one by one (``tests/helpers.py`` keeps that fold as an
    oracle); Z double clicks take one ``rng`` draw's bits in pulse order.
    The records are walked in blocks of :data:`BLOCK_SIZE` pulses, and the
    per-block Z selections are dropped once concatenated, so the transient
    memory beyond the records stays within ``2 * n_z + 3 * BLOCK_SIZE``
    bytes: two bytes per Z record (the selections and their concatenation,
    then the concatenation and the boolean mask of its double clicks), plus
    a block's two comparison arrays and its selection.
    """
    x_counts = np.zeros(X_RECORD + len(Pattern), dtype=np.int64)
    z_blocks = []
    for start in range(0, records.size, BLOCK_SIZE):
        block = records[start : start + BLOCK_SIZE]
        x_counts += np.bincount(block[block >= X_RECORD], minlength=x_counts.size)
        # Z single and double clicks are the records 1..3
        z_blocks.append(np.compress((block - np.uint8(1)) < 3, block))
    z_bits01 = np.concatenate(z_blocks) if z_blocks else np.zeros(0, dtype=np.uint8)
    del z_blocks
    z_bits01 -= 1  # D0 -> bit 0, D1 -> bit 1, and 2 marks a double click
    doubles = z_bits01 == 2
    n_doubles = int(np.count_nonzero(doubles))
    if n_doubles:
        # one call: the generator's bounded draw is buffered, so splitting
        # it per block would change the assigned bits
        z_bits01[doubles] = rng.integers(0, 2, n_doubles, dtype=np.uint8)

    _, x_plus, x_minus, x_double = (int(c) for c in x_counts[X_RECORD:])
    n_x = x_plus + x_minus + x_double
    return SessionTally(
        n=n_x + z_bits01.size,
        n_x=n_x,
        n_z=int(z_bits01.size),
        x_minus=x_minus,
        x_double=x_double,
        z_bits=BitBlock.from01(z_bits01),
        seed_bits_consumed=n_doubles,
    )


# neighbour steps while the expected stride m / k_rem is at most this
_SHORT_STRIDE = 8


def unrank_combination(index: int, n: int, k: int, total: int) -> list[int]:
    """Return the ``index``-th k-subset of {0..n-1} in lexicographic order.

    ``total`` is C(n, k), evaluated once by the caller.  Bijective over
    ``0 <= index < C(n, k)``; all arithmetic is exact.  With ``m``
    positions left and ``k_rem`` still to choose, the exact integer
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


def seed_length_required(choices: int) -> int:
    """Seed bits of one uniform window over ``choices`` values:
    ceil(log2 choices), which for C(n, k) choices never exceeds
    ``k * log2(n)``."""
    return (choices - 1).bit_length()


def plan_basis_positions(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Choose k of n positions uniformly: ``(positions, seed_bits)``.

    Reads ``width = ceil(log2 C(n, k))``-bit windows, each one
    ``rng.integers(0, 2, width, dtype=np.uint8)`` draw read with the first
    bit drawn as the most significant, and rejects window values >= C(n, k);
    each window accepts with probability > 1/2, so the expected consumption
    is below two windows.  C(n, k) is evaluated once per plan.  Returns the
    sorted positions and ``seed_bits``, ``width`` per window read.
    """
    if k > n:
        raise ValueError(f"cannot choose {k} of {n} positions")
    total = math.comb(n, k)
    width = seed_length_required(total)
    if width == 0:
        return np.arange(k, dtype=np.int64), 0  # single possibility (k == 0 or k == n)
    for attempt in range(1, PLAN_MAX_ATTEMPTS + 1):
        window = np.packbits(rng.integers(0, 2, width, dtype=np.uint8))
        value = int.from_bytes(window.tobytes(), "big") >> (-width % 8)
        if value < total:
            positions = unrank_combination(value, n, k, total)
            return np.asarray(positions, dtype=np.int64), attempt * width
    raise RuntimeError(
        f"no window value below C({n},{k}) after {PLAN_MAX_ATTEMPTS} attempts; "
        "seed stream is not plausibly uniform"
    )
