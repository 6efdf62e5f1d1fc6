"""End-to-end orchestration: simulate, squash and tally, estimate, extract,
and sweep.

Every random stream of a run is derived from the 64-bit master seed:
child 0 drives the physics (detector clicks and, in passive mode, the
per-pulse basis draw), child 1 the basis-plan seed, child 2 the
double-click assignment seed, child 3 the Toeplitz seed.  Identical config
plus master seed therefore reproduces every artifact byte for byte.

Basis choice is *active* by default: positions are planned by exact seed
dilution before the session.  The *passive* mode instead draws each
pulse's basis independently with probability ``planned_x_count /
total_pulses`` (a biased-splitter stand-in); it consumes no plan seed and
is the practical choice for very large sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitBlock
from .config import RunConfig
from .entropy_math import ProtocolAbortError, composed_security
from .estimation import EstimationResult, estimate_session
from .extractor import ExtractionError, extract_session
from .photonic_sim import ClickStream, run_session
from .seeds import SeedSource
from .squash_sample import SessionTally, plan_basis_positions, squash_and_tally

CURVE_COLUMNS = (
    "loss_db", "mean_photon_number", "e_bx", "theta", "e_pz_bound",
    "n", "n_x", "n_z", "K", "rate_bits_per_s", "eps_t", "abort",
)


@dataclass
class RandomStreams:
    physics: np.random.Generator
    basis: SeedSource
    double_click: SeedSource
    toeplitz: SeedSource


def derive_streams(master_seed: int) -> RandomStreams:
    children = np.random.SeedSequence(master_seed).spawn(4)
    return RandomStreams(
        physics=np.random.default_rng(children[0]),
        basis=SeedSource.from_rng(np.random.default_rng(children[1])),
        double_click=SeedSource.from_rng(np.random.default_rng(children[2])),
        toeplitz=SeedSource.from_rng(np.random.default_rng(children[3])),
    )


@dataclass
class SessionResult:
    config: RunConfig
    stream: ClickStream | None
    tally: SessionTally
    estimation: EstimationResult
    final_bits: BitBlock | None
    security: dict | None
    extraction: dict | None
    seed_ledger: dict
    abort_reason: str | None = None

    @property
    def aborted(self) -> bool:
        return self.estimation.abort or self.abort_reason is not None


def choose_basis_plan(config: RunConfig, streams: RandomStreams) -> np.ndarray:
    """X-basis positions for one session, per the configured choice mode."""
    n = config.params.total_pulses
    n_x = config.params.planned_x_count
    if config.basis_choice == "active":
        return plan_basis_positions(n, n_x, streams.basis)
    # passive: biased-splitter behaviour, one independent draw per pulse
    mask = streams.physics.random(n) < n_x / n
    return np.flatnonzero(mask)


def run_protocol_session(
    config: RunConfig,
    basis_plan: np.ndarray | None = None,
    basis_plan_bits: int = 0,
    keep_stream: bool = False,
) -> SessionResult:
    """Run one full session: simulate, tally, estimate, and extract.

    A precomputed ``basis_plan`` (with its seed cost) may be supplied to
    share one plan across matched-seed sweep points; by default the plan
    is derived from the config's own streams.
    """
    streams = derive_streams(config.master_seed)
    if basis_plan is None:
        basis_plan = choose_basis_plan(config, streams)
        basis_plan_bits = streams.basis.bits_consumed

    stream = run_session(
        config.params, config.source, config.channel, config.detector,
        basis_plan, streams.physics,
    )
    tally = squash_and_tally(stream, streams.double_click)
    if tally.n_x < 1 or tally.n_z < 1:
        raise ValueError(
            f"session degenerated to n_x={tally.n_x}, n_z={tally.n_z}: "
            "nothing to certify"
        )
    estimation = estimate_session(tally, config.params)

    final_bits = None
    security = None
    extraction = None
    abort_reason = "e_bx + theta >= 1/2" if estimation.abort else None
    toeplitz_bits = 0
    if not estimation.abort:
        try:
            final_bits, report, extraction = extract_session(
                tally.z_bits,
                estimation,
                config.params.t_e,
                streams.toeplitz,
                block_size=config.extraction_block_size,
                efficiency_ratio=config.params.efficiency_ratio,
            )
            security = report.to_dict()
            toeplitz_bits = extraction["toeplitz_seed_bits"]
        except (ExtractionError, ProtocolAbortError) as exc:
            # estimation passed but the length formula certifies nothing
            abort_reason = str(exc)

    double_click_bits = tally.seed_bits_consumed
    seed_ledger = {
        "basis_plan_bits": basis_plan_bits,
        "double_click_bits": double_click_bits,
        "toeplitz_seed_bits": toeplitz_bits,
        "total_bits": basis_plan_bits + double_click_bits + toeplitz_bits,
        "non_toeplitz_bits": basis_plan_bits + double_click_bits,
        "output_bits": len(final_bits) if final_bits is not None else 0,
    }
    return SessionResult(
        config=config,
        stream=stream if keep_stream else None,
        tally=tally,
        estimation=estimation,
        final_bits=final_bits,
        security=security,
        extraction=extraction,
        seed_ledger=seed_ledger,
        abort_reason=abort_reason,
    )


@dataclass
class CurvePoint:
    """One sweep point; column set mirrors CURVE_COLUMNS."""

    loss_db: float
    mean_photon_number: float
    e_bx: float
    theta: float
    e_pz_bound: float
    n: int
    n_x: int
    n_z: int
    K: int
    rate_bits_per_s: float
    eps_t: float | None
    abort: bool

    def csv_row(self) -> str:
        eps = "" if self.eps_t is None else repr(self.eps_t)
        return ",".join([
            repr(self.loss_db), repr(self.mean_photon_number),
            repr(self.e_bx), repr(self.theta), repr(self.e_pz_bound),
            str(self.n), str(self.n_x), str(self.n_z), str(self.K),
            repr(self.rate_bits_per_s), eps, str(int(self.abort)),
        ])


def curve_point_from_session(result: SessionResult) -> CurvePoint:
    """Reduce one session to its sweep-curve row.

    The rate is the simulated session duration divided into the output
    length, capped by the detector dead-time ceiling; ``eps_t`` reports the
    design-target security parameter of the extraction.
    """
    config = result.config
    k = result.seed_ledger["output_bits"]
    if result.aborted:
        rate, eps_t = 0.0, None
    else:
        duration_s = config.params.total_pulses / config.repetition_rate_hz
        rate = min(k / duration_s, 1.0 / config.dead_time_s)
        blocks = result.extraction.get("n_blocks", 1) if result.extraction else 1
        eps_t = composed_security(
            2.0 ** -config.params.eps_theta_exponent, config.params.t_e, blocks
        ).eps_t
    return CurvePoint(
        loss_db=config.channel.loss_db,
        mean_photon_number=config.source.mean_photon_number,
        e_bx=result.estimation.e_bx,
        theta=result.estimation.theta,
        e_pz_bound=result.estimation.e_pz_bound,
        n=result.tally.n,
        n_x=result.tally.n_x,
        n_z=result.tally.n_z,
        K=k,
        rate_bits_per_s=rate,
        eps_t=eps_t,
        abort=result.aborted,
    )


def shared_basis_plan(config: RunConfig) -> tuple[np.ndarray | None, int]:
    """The active basis plan of ``config`` and its seed cost, for sharing.

    Every session of one run derives the same plan from the master seed, so
    computing it once and handing it to :func:`run_protocol_session` changes
    no artifact.  Passive mode returns ``(None, 0)``: its per-pulse basis
    draw belongs to each session's own physics stream.
    """
    if config.basis_choice != "active":
        return None, 0
    streams = derive_streams(config.master_seed)
    return choose_basis_plan(config, streams), streams.basis.bits_consumed


def run_sweep(
    config: RunConfig,
    basis_plan: np.ndarray | None = None,
    basis_plan_bits: int = 0,
) -> list[CurvePoint]:
    """Run one session per sweep value with matched seeds.

    Every point reuses the same master seed, so detector-click uniforms and
    seed streams are common random numbers across points.  The sweep keys
    (``loss_db``, ``mean_photon_number``) never change ``total_pulses`` or
    ``planned_x_count``, so every point has the same active basis plan: it
    is computed once, or taken precomputed (with its seed cost) like
    :func:`run_protocol_session` does.
    """
    if config.sweep is None:
        raise ValueError("config has no sweep specification")
    if basis_plan is None:
        basis_plan, basis_plan_bits = shared_basis_plan(config)
    return [
        curve_point_from_session(
            run_protocol_session(config.with_sweep_value(value), basis_plan, basis_plan_bits)
        )
        for value in config.sweep.values
    ]


def curve_csv(points: list[CurvePoint]) -> str:
    lines = [",".join(CURVE_COLUMNS)]
    lines.extend(p.csv_row() for p in points)
    return "\n".join(lines) + "\n"


def autocorrelation_csv(lags, raw_curve, final_curve) -> str:
    lines = ["j,R_raw,R_final"]
    for j, r_raw, r_final in zip(lags, raw_curve, final_curve):
        lines.append(f"{j},{r_raw!r},{r_final!r}")
    return "\n".join(lines) + "\n"
