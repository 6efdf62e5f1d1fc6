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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


# pulses per simulation block; it fixes which uniforms go to which detector,
# so it is part of the stream's definition, and the tally walks the same blocks
BLOCK_SIZE = 1 << 21

X_RECORD = Basis.X << 2  # the basis bit; X records are X_RECORD + pattern


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


def run_session(
    n: int,
    source: SourceConfig,
    channel: ChannelConfig,
    det: DetectorConfig,
    basis_plan: np.ndarray,
    rng: np.random.Generator,
    block_size: int = BLOCK_SIZE,
) -> np.ndarray:
    """Simulate the ``n`` pulses of one session; returns its click records.

    The records are one uint8 per pulse: the detector pattern in bits 0-1
    (0 none, 1 d0, 2 d1, 3 double), the basis in bit 2 (0 Z, 1 X), upper
    bits zero.  It is the byte the click file stores (see
    :mod:`siqrng.fileio`).  ``basis_plan`` is the int array of the pulse
    indices measured in the X basis, each in ``[0, n)``, in any order.

    The X bits of the plan are set in the records first, and each block
    finds its X pulses in the plan, sorted once.  Pulses are then
    simulated in blocks of ``block_size``: each block draws one uniform per
    pulse for detector 0, then one per pulse for detector 1, and a detector
    clicks when its uniform is below the click probability of the pulse's
    basis.  The block size therefore decides which uniforms go to which
    detector and is part of the stream's definition: a given rng seed and
    block size reproduce the stream exactly.  Memory beyond the one record
    byte per pulse is bounded by the block.
    """
    records = np.zeros(n, dtype=np.uint8)
    x_sorted = np.sort(basis_plan)
    if x_sorted.size:
        if x_sorted[0] < 0 or x_sorted[-1] >= n:
            raise ValueError("basis plan positions out of range")
        records[x_sorted] = X_RECORD

    pz = click_probabilities(source, channel, det, Basis.Z)
    px = click_probabilities(source, channel, det, Basis.X)

    uniforms = np.empty(min(block_size, n))
    clicks = np.empty(uniforms.size, dtype=np.bool_)
    for start in range(0, n, block_size):
        block = records[start : start + block_size]
        m = block.size
        lo, hi = np.searchsorted(x_sorted, (start, start + m))
        x = x_sorted[lo:hi] - start  # the block's X pulses
        for detector in (0, 1):
            u = rng.random(m, out=uniforms[:m])
            click = np.less(u, pz[detector], out=clicks[:m])
            click[x] = u[x] < px[detector]
            block |= click.view(np.uint8) << detector
    return records
