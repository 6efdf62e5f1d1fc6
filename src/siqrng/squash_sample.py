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

The unranking walks candidate positions with exact binomial steps, each
a multiplication and a division by a small integer, forward only: a long
stride walks from one candidate before a float estimate of its end, or
from its first candidate when the estimate overshoots.  On numbers of
thousands of bits the division costs about five multiplications, so while
the remainder is long a dense shape walks scaled: it keeps the binomial
and the remainder multiplied by one integer scale, each step becomes
three multiplications, and the scale is divided out exactly, in two long
divisions, once it has grown to a few hundred bits.  Short numbers keep
the plain steps, on which the scaled walk's extra multiplications cost
more than the divisions they save.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitBlock
from .fileio import record_field
from .photonic_sim import CHUNK, X_RECORD, Pattern

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


class _SpanTally:
    """The tally of one span of consecutive pulses, folded chunk by chunk:
    its X pattern counts, its Z double clicks, and its Z codes, written to
    the session's code buffer from the span's own first pulse on."""

    def __init__(self, z_codes: np.ndarray, start: int, write):
        self.z_codes = z_codes
        self.start = self.stop = start  # its Z codes are z_codes[start:stop]
        self.write = write
        self.pulses = 0
        self.x_counts = np.zeros(X_RECORD + len(Pattern), dtype=np.int64)
        self.doubles = 0

    def add(self, lo: int, records: np.ndarray):
        if self.write is not None:
            self.write(lo, records)
        # D0 -> 0, D1 -> 1, a Z double click -> 2; X records and Z vacua are 3 and up
        shifted = records - np.uint8(1)
        z = shifted < 3
        codes = self.z_codes[self.stop : self.stop + int(np.count_nonzero(z))]
        np.compress(z, shifted, out=codes)
        self.stop += codes.size
        self.doubles += int(np.count_nonzero(codes == 2))
        self.x_counts += np.bincount(records[records >= X_RECORD], minlength=self.x_counts.size)
        self.pulses += records.size


class TallyFold:
    """Squash and tally as a fold over a session's click records, taken
    chunk by chunk by the sink protocol of
    :func:`~siqrng.photonic_sim.run_session`: each span of consecutive
    pulses folds its chunks through its own :meth:`span`, from any thread.

    The Z codes go to one buffer of ``n`` bytes, each span's from its own
    first pulse on; pages no span writes cost no resident memory.  When
    ``clicks``, a :class:`~siqrng.fileio.ClickFileWriter`, is not None,
    each chunk is also written to the click file before it is folded.
    :func:`squash_and_tally` finishes the fold.

    Each span keeps its codes contiguous, rather than writing each chunk's
    codes at the chunk's own first pulse, for resident memory: numpy asks
    the kernel for huge pages on large arrays (``madvise``), which Linux
    grants where transparent huge pages are set to ``madvise`` or
    ``always``, and codes spread over the buffer would then touch every
    2 MiB page of it.  The fold would grow with n instead of with about
    1.5 n_z (at 4e7 pulses a prototype of that layout raised simulate +
    tally maximum RSS from 65 to 81 MB).
    """

    def __init__(self, n: int, clicks):
        self.z_codes = np.empty(n, dtype=np.uint8)
        self.clicks = clicks
        self.spans = []  # list.append is atomic, so spans may open on any thread

    def __len__(self) -> int:
        """The records folded so far; ``perfbench``'s tracer counts pulses by it."""
        return sum(span.pulses for span in self.spans)

    def span(self, start: int):
        """The chunk folder ``add(lo, records)`` of the span whose first
        pulse is ``start``; it takes the span's chunks in pulse order."""
        write = None if self.clicks is None else self.clicks.span(start)
        span = _SpanTally(self.z_codes, start, write)
        self.spans.append(span)
        return span.add


def squash_and_tally(fold: TallyFold, rng: np.random.Generator) -> SessionTally:
    """Finish a :class:`TallyFold`: the session's tally.

    Equivalent to squashing every event in pulse order and folding the
    outcomes one by one (``tests/helpers.py`` keeps that fold as an
    oracle).  The spans' Z codes are moved down behind one another in pulse
    order, in the fold's own buffer.  Z double clicks then take one
    ``rng`` draw's bits in pulse order, scattered by index block by block,
    each block of :data:`~siqrng.photonic_sim.CHUNK` codes (a multiple of
    8) packed into whole bytes as it is done; the memory beyond the fold's
    buffer is the packed bits, the drawn bits and one block's transients.
    """
    z_codes = fold.z_codes
    x_counts = np.zeros(X_RECORD + len(Pattern), dtype=np.int64)
    n_z = doubles = 0
    for span in sorted(fold.spans, key=lambda span: span.start):
        if span.start > n_z:
            # a move down: numpy copies a 1-d slice forward where the two overlap
            z_codes[n_z : n_z + span.stop - span.start] = z_codes[span.start : span.stop]
        n_z += span.stop - span.start
        x_counts += span.x_counts
        doubles += span.doubles
    # one call: the generator's bounded draw is buffered, so splitting it
    # per block would change the assigned bits; an empty draw draws nothing
    bits = rng.integers(0, 2, doubles, dtype=np.uint8)
    packed = np.empty((n_z + 7) // 8, dtype=np.uint8)
    taken = 0
    for start in range(0, n_z, CHUNK):
        block = z_codes[start : min(start + CHUNK, n_z)]
        at = np.flatnonzero(block == 2)
        block[at] = bits[taken : taken + at.size]
        taken += at.size
        packed[start // 8 : (start + block.size + 7) // 8] = np.packbits(block, bitorder="little")

    _, x_plus, x_minus, x_double = (int(c) for c in x_counts[X_RECORD:])
    n_x = x_plus + x_minus + x_double
    return SessionTally(
        n=n_x + n_z,
        n_x=n_x,
        n_z=n_z,
        x_minus=x_minus,
        x_double=x_double,
        z_bits=BitBlock(packed, n_z),
        seed_bits_consumed=doubles,
    )


# neighbour steps while the expected stride m / k_rem is at most this
_SHORT_STRIDE = 8
# a dense walk starts scaled when t is longer than this many bits, and
# divides the scale out once it is longer than _SCALE_BITS (measured: see
# _scaled_walk)
_SCALED_MIN_BITS = 1024
_SCALE_BITS = 600


def unrank_combination(index: int, n: int, k: int, total: int) -> list[int]:
    """Return the ``index``-th k-subset of {0..n-1} in lexicographic order.

    ``total`` is C(n, k), evaluated by the caller.  Bijective over
    ``0 <= index < C(n, k)``; all arithmetic is exact.  With ``m``
    positions left and ``k_rem`` still to choose, the exact integer
    ``t = C(m, k_rem) - rank`` fixes the next chosen position: it is the
    ``s``-th candidate, for the smallest stride ``s >= 1`` with
    ``C(m - s, k_rem) < t``.  Short expected strides walk candidate by
    candidate with exact neighbour steps; a long one evaluates the binomial
    exactly one candidate before a float-lgamma estimate of ``s`` and walks
    forward from there, or from the first candidate if the binomial there
    is already below ``t``, so floats only seed the search.  After each
    slot ``t`` drops by ``C(m - s, k_rem)``.

    A dense shape (``n <= 8k``) whose ``t`` is longer than
    ``_SCALED_MIN_BITS`` takes its first slots in :func:`_scaled_walk`,
    which replaces each neighbour step's division by multiplications, and
    goes on with the plain steps where the walk stops.  Short numbers keep
    the plain steps throughout: on them the walk's extra multiplications
    cost more than the divisions they save.  The walk is entered only at
    the first slot, so a short shape pays one length test per call; as
    ``t`` only shrinks, only a shape whose strides cross 8 while ``t`` is
    still long would gain from entering it again.

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
    # t longer than _SCALED_MIN_BITS; the shift is the cheapest test on a small t
    if t >> _SCALED_MIN_BITS and n <= _SHORT_STRIDE * k:
        m, k_rem, t, y = _scaled_walk(out, n, m, k_rem, t, y)
    while k_rem > 0:
        s, x = 1, y
        if m > _SHORT_STRIDE * k_rem:
            # one candidate before the estimate, kept only if the stride lies beyond it
            guess = max(1, _stride_estimate(m, k_rem, t) - 1)
            at_guess = _comb_at_stride(y, m, k_rem, guess)
            if at_guess >= t:
                s, x = guess, at_guess
        # x = C(m - s, k_rem) and the stride is at least s: step to the smallest with x < t
        while x >= t:
            x = x * (m - s - k_rem) // (m - s)
            s += 1
        out.append(n - m + s - 1)
        t -= x
        m -= s
        if k_rem > 1:
            y = x * k_rem // m  # C(m - 1, k_rem - 1) from x = C(m, k_rem)
        k_rem -= 1
    return out


def _scaled_walk(
    out: list[int], n: int, m: int, k_rem: int, t: int, y: int
) -> tuple[int, int, int, int]:
    """The first neighbour-step slots of :func:`unrank_combination`, on
    scaled numbers: appends their positions to ``out`` and returns
    ``(m, k_rem, t, y)`` exact where the walk stops.

    With ``x = C(d, k_rem)`` the candidate binomial (``d = m - s``), the
    walk keeps ``x·g`` in ``y`` and ``t·g`` in ``t`` for an integer scale
    ``g``, so ``y >= t`` decides exactly as ``x >= t`` does.  A candidate
    step ``x -> x·(d - k_rem)/d`` multiplies ``y``, ``t`` and ``g`` by
    ``d - k_rem``, ``d`` and ``d``; a chosen slot subtracts ``y`` from
    ``t``, then multiplies them and ``g`` by ``k_rem``, ``d`` and ``d``
    for the next slot's ``C(d - 1, k_rem - 1)``.  Once ``g`` is longer than ``_SCALE_BITS`` it
    is divided out of both numbers exactly, and there the walk stops if
    the strides have grown long (``m > 8·k_rem``) or ``t`` has become
    short.  It also stops before the last slot, whose ``d`` may be 0.

    The constants are measured (2 cores, CPython 3.11): a division by a
    small integer takes 0.81 µs at 3400 bits and 0.21 µs at 800, a
    multiplication 0.12 and 0.06 µs, and the two divisions by a 600-bit
    scale 11 µs at 3400 bits.  Walked scaled throughout, dense shapes of
    200–800 bits were 14–45% slower than the plain steps and broke even at
    1600 bits, hence the 1024-bit gate; 3400/1700 unranked fastest with a scale
    of 480–720 bits, 1.6–1.7 ms against 2.05 ms (a shorter scale divides
    more often, a longer one lengthens every multiplication).
    """
    g = 1
    while k_rem > 1:
        d = m - 1
        while y >= t:
            y *= d - k_rem
            t *= d
            g *= d
            d -= 1
        out.append(n - 1 - d)
        t = (t - y) * d
        y *= k_rem
        g *= d
        m = d
        k_rem -= 1
        if g.bit_length() > _SCALE_BITS:
            y //= g
            t //= g
            g = 1
            if m > _SHORT_STRIDE * k_rem or t.bit_length() <= _SCALED_MIN_BITS:
                break
    return m, k_rem, t // g, y // g


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


@functools.lru_cache(maxsize=8)
def _binomial(n: int, k: int) -> int:
    """C(n, k), kept for the last eight shapes planned: a batch of sessions
    of one shape computes its count once (0.4 ms at 3400/1700).  The
    largest shipped shape's, C(1e6, 3700), takes about 4.4 KB."""
    return math.comb(n, k)


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
    is below two windows.  C(n, k) is evaluated once per shape per process
    (:func:`_binomial`); a single choice (k = 0 or k = n) reads one empty
    window, which draws nothing.  Returns the sorted positions and
    ``seed_bits``, ``width`` per window read.
    """
    if k > n:
        raise ValueError(f"cannot choose {k} of {n} positions")
    total = _binomial(n, k)
    width = seed_length_required(total)
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
