"""Stochastic simulator of an untrusted photonic source read by trusted
threshold detectors.

The source emits coherent pulses; a lossy channel attenuates them; two
gated threshold detectors (one per basis eigenstate) click independently
with probability ``1 - (1 - p_d) * exp(-eta * mu_i * t)`` where ``mu_i`` is
the mean photon number routed to detector i, ``t`` the channel
transmittance, ``eta`` the detector efficiency, and ``p_d`` the per-gate
dark count probability.

Per-detector intensities by source mode and measurement basis:

=====================  =========================  =====================
mode                   X basis (d0 = "+")         Z basis (d0 = "0")
=====================  =========================  =====================
honest-plus            mu*(1-e_mis), mu*e_mis     mu/2, mu/2
adversarial-fixed-z    mu/2, mu/2                 mu, 0
=====================  =========================  =====================

The honest source prepares the "+" superposition with a small intensity
leak ``e_mis`` into the orthogonal mode; the adversarial source emits a
fixed Z eigenstate, which yields deterministic Z outcomes but a 50/50
split (and frequent double clicks) in the X basis.

The two detectors are independent given the basis, so a pulse's pattern
(none, d0, d1, double) has the product law of their marginals, and one
uniform per pulse draws it against three cumulative thresholds.  Pulse i
reads output i of the physics stream.  :func:`run_session` draws the
lower half of a session on the calling thread and the upper half on one
helper thread, from a copy of the generator moved on by
``advance(n // 2)``; since no pulse reads another's output, the records
are those of one serial draw, whatever the split or the chunk size.  Each
half hands its records to the caller's sink one chunk at a time, while
the chunk is in cache, and keeps no array of a byte per pulse.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np


class Basis(enum.IntEnum):
    Z = 0
    X = 1


class Pattern(enum.IntEnum):
    """Joint outcome of the two threshold detectors for one gate."""

    NONE = 0
    D0 = 1
    D1 = 2
    DOUBLE = 3


class SourceMode(str, enum.Enum):
    HONEST_PLUS = "honest-plus"
    ADVERSARIAL_FIXED_Z = "adversarial-fixed-z"


@dataclass(frozen=True)
class SourceConfig:
    """Untrusted source: mean photon number, misalignment leak, mode."""

    mean_photon_number: float = 1.0
    misalignment: float = 0.0
    mode: SourceMode = SourceMode.HONEST_PLUS

    def __post_init__(self):
        if self.mean_photon_number < 0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photon_number}")
        if not 0 <= self.misalignment <= 0.5:
            raise ValueError(f"misalignment must be in [0, 1/2], got {self.misalignment}")


@dataclass(frozen=True)
class ChannelConfig:
    """Attenuation between source and detectors, in dB."""

    loss_db: float = 0.0

    def __post_init__(self):
        if self.loss_db < 0:
            raise ValueError(f"loss must be >= 0 dB, got {self.loss_db}")

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorConfig:
    """Shared parameters of the two gated threshold detectors."""

    efficiency: float = 0.45
    dark_count: float = 0.002

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0 <= self.dark_count < 1:
            raise ValueError(f"dark count must be in [0, 1), got {self.dark_count}")


X_RECORD = Basis.X << 2  # the basis bit; X records are X_RECORD + pattern

# pulses drawn per chunk: 2^16 doubles (512 KiB) stay in cache; pulse i reads
# output i of the physics stream in any chunk, so this sets the speed only
CHUNK = 1 << 16


def detector_intensities(source: SourceConfig, basis: Basis) -> tuple[float, float]:
    """Mean photon numbers (mu_0, mu_1) reaching each detector before loss."""
    mu = source.mean_photon_number
    if source.mode is SourceMode.HONEST_PLUS:
        if basis is Basis.X:
            return mu * (1.0 - source.misalignment), mu * source.misalignment
        return mu / 2.0, mu / 2.0
    # adversarial fixed Z eigenstate
    if basis is Basis.Z:
        return mu, 0.0
    return mu / 2.0, mu / 2.0


def click_probabilities(
    source: SourceConfig, channel: ChannelConfig, det: DetectorConfig, basis: Basis
) -> tuple[float, float]:
    """Marginal click probability of each detector for one gate."""
    mu0, mu1 = detector_intensities(source, basis)
    t = channel.transmittance
    p0 = 1.0 - (1.0 - det.dark_count) * math.exp(-det.efficiency * mu0 * t)
    p1 = 1.0 - (1.0 - det.dark_count) * math.exp(-det.efficiency * mu1 * t)
    return p0, p1


def pattern_thresholds(p0: float, p1: float) -> np.ndarray:
    """Cumulative probabilities ``(c1, c2, c3)`` of the patterns none, d0
    and d1 of two independent detectors that click with probabilities
    ``p0`` and ``p1``; a uniform ``u`` in [0, 1) has the pattern
    ``[u >= c1] + [u >= c2] + [u >= c3]``, the count of thresholds <= u."""
    c1 = (1.0 - p0) * (1.0 - p1)
    c2 = c1 + p0 * (1.0 - p1)
    c3 = c2 + (1.0 - p0) * p1
    return np.array([c1, c2, c3])


def _simulate_span(sink, x_sorted, z_thresholds, x_thresholds, bitgen, start, stop):
    """Hand the records of pulses ``[start, stop)`` to ``sink.span(start)``
    chunk by chunk: pulse ``start + k`` reads output ``k`` of ``bitgen`` as
    its uniform.  Each chunk compares its uniforms with the Z thresholds,
    then rewrites its X pulses from the same uniforms with the X thresholds.
    It allocates its three chunk buffers and its X pulses' indices."""
    add = sink.span(start)
    draw = np.random.Generator(bitgen).random
    uniforms = np.empty(min(CHUNK, stop - start))
    flags = np.empty(uniforms.size, dtype=np.bool_)
    records = np.empty(uniforms.size, dtype=np.uint8)
    for lo in range(start, stop, CHUNK):
        m = min(CHUNK, stop - lo)
        u = draw(m, out=uniforms[:m])
        block = records[:m]
        np.greater_equal(u, z_thresholds[0], out=block.view(np.bool_))
        for c in z_thresholds[1:]:
            block += np.greater_equal(u, c, out=flags[:m]).view(np.uint8)
        a, b = np.searchsorted(x_sorted, (lo, lo + m))
        x = x_sorted[a:b] - lo
        block[x] = X_RECORD + np.searchsorted(x_thresholds, u[x], side="right")
        add(lo, block)


def run_session(
    n: int,
    source: SourceConfig,
    channel: ChannelConfig,
    det: DetectorConfig,
    basis_plan: np.ndarray,
    rng: np.random.Generator,
    sink,
):
    """Simulate the ``n`` pulses of one session, handing their click
    records to ``sink`` chunk by chunk; returns ``sink``.

    The records are one uint8 per pulse: the detector pattern in bits 0-1
    (0 none, 1 d0, 2 d1, 3 double), the basis in bit 2 (0 Z, 1 X), upper
    bits zero.  It is the byte the click file stores (see
    :mod:`siqrng.fileio`).  ``basis_plan`` is the int array of the pulse
    indices measured in the X basis, each in ``[0, n)``, in any order.

    The pulses are drawn in spans of consecutive pulses, and each span in
    chunks of :data:`CHUNK`.  A span starting at pulse ``start`` calls
    ``sink.span(start)`` once, on the thread that draws it, and hands each
    of its chunks, in pulse order, to the function that returns:
    ``add(lo, records)`` with the records of pulses ``lo, lo + 1, ...``.
    The records live in a buffer the span reuses, so ``add`` copies what it
    keeps.  A sink (a :class:`~siqrng.squash_sample.TallyFold`, a
    :class:`~siqrng.fileio.ClickFileWriter`) keeps each span's state apart.

    Pulse ``i`` reads output ``i`` of ``rng`` as one uniform ``u`` and has
    the pattern ``[u >= c1] + [u >= c2] + [u >= c3]`` on the
    :func:`pattern_thresholds` of its basis: the product law of the two
    detectors, which are independent given the basis, exact up to double
    rounding.  When each half holds a chunk, the caller draws the span of
    pulses ``[0, n // 2)`` and one helper thread the span ``[n // 2, n)``,
    on a copy of ``rng``'s bit generator moved on by ``advance(n // 2)``;
    otherwise the caller draws one span ``[0, n)``.  The thread is joined,
    and its exception re-raised, before the call returns.  Since every
    pulse reads its own output, neither the chunk size nor the split
    changes a byte: the records are those of one serial draw of ``n``
    uniforms, and ``rng`` is left ``n`` outputs on, as by that draw.
    ``rng``'s bit generator must be a PCG64, as ``np.random.default_rng``
    makes, whose ``advance(k)`` moves exactly ``k`` outputs on.
    """
    x_sorted = np.sort(basis_plan)
    if x_sorted.size and (x_sorted[0] < 0 or x_sorted[-1] >= n):
        raise ValueError("basis plan positions out of range")
    span = partial(_simulate_span, sink, x_sorted,
                   pattern_thresholds(*click_probabilities(source, channel, det, Basis.Z)),
                   pattern_thresholds(*click_probabilities(source, channel, det, Basis.X)))
    bitgen = rng.bit_generator
    half = n // 2
    if half < CHUNK:
        span(bitgen, 0, n)
        return sink

    # a copy of the caller's state, not a fresh seed, which would read OS entropy
    upper = type(bitgen)(0)
    upper.state = bitgen.state
    upper.advance(half)
    failures = []

    def simulate_upper_half():
        try:
            span(upper, half, n)
        except BaseException as exc:
            failures.append(exc)

    helper = threading.Thread(target=simulate_upper_half)
    helper.start()
    try:
        span(bitgen, 0, half)
    finally:
        helper.join()
    if failures:
        raise failures[0]
    bitgen.advance(n - half)
    return sink
