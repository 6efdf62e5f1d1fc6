"""End-to-end orchestration: simulate, squash and tally, estimate, extract,
and sweep.

Every random stream of a run is a ``numpy.random.Generator`` that
:func:`derive_streams` builds from one child of the 64-bit master seed,
and each stage that draws randomness draws from one stream:

    choose_basis_plan, active         basis (child 1)
    choose_basis_plan, passive        splitter (child 4)
    simulate_clicks                   physics (child 0)
    squash_sample.squash_and_tally    double_click (child 2)
    extractor.extract_session         toeplitz (child 3)

Identical config plus master seed therefore reproduces every artifact byte
for byte.  The active plan, the tally and the extraction each return the
seed bits they drew, and the seed ledger is the sum of those counts.

:func:`run_protocol_session` chains the stages, with
:func:`~siqrng.estimation.estimate_session` between the tally and the
extraction, on one set of streams and, given an output directory, writes
each stage's record as the stage ends.  The CLI's staged subcommands call
the same functions and the same record writers on streams derived from
the same master seed, so both routes write the same bytes.

Basis choice is *active* by default: positions are planned by exact seed
dilution before the session.  The *passive* mode is a biased-splitter
stand-in: each pulse goes to X independently with probability
``planned_x_count / total_pulses``.  It draws the gaps between X pulses
from the geometric law, which is the same law as one Bernoulli draw per
pulse, from the splitter stream; it consumes no plan seed, and its
memory is in proportion to the X count.  Neither mode reads the physics
stream, so the plan is a function of the config and the master seed
alone: a run computes it once and hands it to every session, sweep
points included.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fileio
from .bits import BitBlock
from .config import RunConfig
from .entropy_math import ProtocolAbortError, ProtocolParams, SecurityReport, composed_security
from .estimation import EstimationResult, estimate_session
from .extractor import extract_session
from .photonic_sim import run_session
from .squash_sample import SessionTally, TallyFold, plan_basis_positions, squash_and_tally


@dataclass
class RandomStreams:
    physics: np.random.Generator
    basis: np.random.Generator
    double_click: np.random.Generator
    toeplitz: np.random.Generator
    splitter: np.random.Generator


def derive_streams(master_seed: int) -> RandomStreams:
    # children are indexed, so adding one leaves the seeds of the others as they were
    children = np.random.SeedSequence(master_seed).spawn(5)
    return RandomStreams(
        physics=np.random.default_rng(children[0]),
        basis=np.random.default_rng(children[1]),
        double_click=np.random.default_rng(children[2]),
        toeplitz=np.random.default_rng(children[3]),
        splitter=np.random.default_rng(children[4]),
    )


@dataclass
class SessionResult:
    config: RunConfig
    tally: SessionTally
    estimation: EstimationResult
    final_bits: BitBlock | None
    extraction: dict | None
    seed_ledger: dict
    abort_reason: str | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def choose_basis_plan(config: RunConfig, streams: RandomStreams) -> tuple[np.ndarray, int]:
    """X-basis positions for one session, per the configured choice mode,
    and the plan-seed bits they cost: ``(positions, seed_bits)``.

    Active: exact seed dilution on the basis seed.  Passive: each pulse is
    X with probability ``N_x / N``, independently: the gaps between X
    pulses are geometric, drawn from the splitter stream in chunks of
    ``N_x + 8·sqrt(N_x) + 64`` (almost always one) until a position passes
    ``N``; no plan seed is consumed.
    """
    n = config.params.total_pulses
    n_x = config.params.planned_x_count
    if config.basis_choice == "active":
        return plan_basis_positions(n, n_x, streams.basis)
    chunk = n_x + int(8 * math.sqrt(n_x)) + 64
    parts, last = [], -1
    while last < n:
        positions = streams.splitter.geometric(n_x / n, chunk)
        np.cumsum(positions, out=positions)
        positions += last
        last = int(positions[-1])
        parts.append(positions[: np.searchsorted(positions, n)])
    return np.concatenate(parts), 0


def simulate_clicks(config: RunConfig, streams: RandomStreams, positions: np.ndarray, sink):
    """Simulate stage: hand the click records of a session whose X-basis
    pulses are ``positions``, drawn from the physics stream, to ``sink``
    chunk by chunk (see :func:`~siqrng.photonic_sim.run_session`); returns
    ``sink``."""
    return run_session(
        config.params.total_pulses, config.source, config.channel, config.detector,
        positions, streams.physics, sink,
    )


# each stage record has one writer, shared by the session and the staged commands

def write_tally(out: Path, tally: SessionTally):
    fileio.write_bit_file(out / "zbits.siq", tally.z_bits)
    fileio.write_json(out / "tally.json", tally.to_dict())


def write_estimation(out: Path, est: EstimationResult, params: ProtocolParams, tally: SessionTally):
    fileio.write_json(out / "estimation.json", est.record(params, tally))


def write_extraction(out: Path, final_bits: BitBlock, report: SecurityReport, summary: dict):
    fileio.write_bit_file(out / "final.siq", final_bits)
    fileio.write_json(out / "security.json", {**report.to_dict(), **summary})


def write_abort(out: Path, reason: str, est: EstimationResult, tally: SessionTally):
    fileio.write_json(out / "abort.json", {"abort": True, "reason": reason,
                                           "estimation": est.to_dict(), "tally": tally.to_dict()})


def run_protocol_session(
    config: RunConfig, plan: tuple[np.ndarray, int] | None = None, out: Path | None = None
) -> SessionResult:
    """Run one full session: simulate, tally, estimate, and extract.

    ``plan`` is the session's :func:`choose_basis_plan`; a run computes it
    once and shares it between its sessions.  By default it is computed
    from the config's own streams, which gives the same plan.

    With ``out``, each stage writes its record there as it ends:
    ``clicks.siqc``; ``zbits.siq`` and ``tally.json``; ``estimation.json``;
    then ``seed_ledger.json`` and ``final.siq`` with ``security.json``, or
    ``abort.json`` when the session certifies nothing.  The click records
    never exist whole: the simulating threads fold each chunk into the
    tally, and write it to ``clicks.siqc``, while it is in cache, so
    extraction starts from the packed Z bits alone.
    """
    streams = derive_streams(config.master_seed)
    positions, basis_plan_bits = plan if plan is not None else choose_basis_plan(config, streams)
    n = config.params.total_pulses
    with (contextlib.nullcontext() if out is None
          else fileio.ClickFileWriter(out / "clicks.siqc", n)) as clicks:
        fold = simulate_clicks(config, streams, positions, TallyFold(n, clicks))
    tally = squash_and_tally(fold, streams.double_click)
    del fold
    if out is not None:
        write_tally(out, tally)
    estimation = estimate_session(tally, config.params)
    if out is not None:
        write_estimation(out, estimation, config.params, tally)

    final_bits = report = extraction = abort_reason = None
    try:
        final_bits, report, extraction = extract_session(
            tally.z_bits, estimation, config.params.t_e, streams.toeplitz,
            efficiency_ratio=config.params.efficiency_ratio,
        )
    except ProtocolAbortError as exc:
        abort_reason = str(exc)

    double_click_bits = tally.seed_bits_consumed
    toeplitz_bits = extraction["toeplitz_seed_bits"] if extraction else 0
    seed_ledger = {
        "basis_plan_bits": basis_plan_bits,
        "double_click_bits": double_click_bits,
        "toeplitz_seed_bits": toeplitz_bits,
        "total_bits": basis_plan_bits + double_click_bits + toeplitz_bits,
        "non_toeplitz_bits": basis_plan_bits + double_click_bits,
        "output_bits": len(final_bits) if final_bits is not None else 0,
    }
    if out is not None:
        fileio.write_json(out / "seed_ledger.json", seed_ledger)
        if abort_reason is None:
            write_extraction(out, final_bits, report, extraction)
        else:
            write_abort(out, abort_reason, estimation, tally)
    return SessionResult(config, tally, estimation, final_bits, extraction, seed_ledger,
                         abort_reason)


@dataclass
class CurvePoint:
    """One sweep point, one ``sweep.csv`` row: the columns are the fields,
    in order."""

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
        eps_t = composed_security(2.0 ** -config.params.eps_theta_exponent,
                                  config.params.t_e, result.extraction["n_blocks"]).eps_t
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


def run_sweep(
    config: RunConfig,
    plan: tuple[np.ndarray, int] | None = None,
    session: SessionResult | None = None,
) -> list[CurvePoint]:
    """Run one session per sweep value with matched seeds.

    Every point reuses the same master seed, so detector-click uniforms and
    seed streams are common random numbers across points.  The sweep keys
    (``loss_db``, ``mean_photon_number``) never change ``total_pulses`` or
    ``planned_x_count``, so every point has the same basis plan: it is
    computed once, or taken precomputed like :func:`run_protocol_session`
    does.  ``session`` is a session already run on this plan; a point whose
    config equals its config takes it instead of running again.  Equal
    configs differ at most in how a number is written (``0`` and ``0.0``),
    so the row carries the point's own config.
    """
    if config.sweep is None:
        raise ValueError("config has no sweep specification")
    if plan is None:
        plan = choose_basis_plan(config, derive_streams(config.master_seed))
    points = []
    for value in config.sweep.values:
        point = config.with_sweep_value(value)
        if session is not None and session.config == point:
            result = replace(session, config=point)
        else:
            result = run_protocol_session(point, plan)
        points.append(curve_point_from_session(result))
    return points


def _csv_cell(value) -> str:
    """``repr`` of a float, ``str`` of an int, 0/1 for a bool, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def curve_csv(points: list[CurvePoint]) -> str:
    columns = [f.name for f in fields(CurvePoint)]
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(getattr(p, c)) for c in columns) for p in points)
    return "\n".join(lines) + "\n"


def autocorrelation_csv(raw_curve, final_curve) -> str:
    """One row per lag j = 1, 2, ...: R(j) of the raw Z bits and of the output."""
    lines = ["j,R_raw,R_final"]
    for j, (r_raw, r_final) in enumerate(zip(raw_curve, final_curve, strict=True), start=1):
        lines.append(f"{j},{float(r_raw)!r},{float(r_final)!r}")
    return "\n".join(lines) + "\n"
