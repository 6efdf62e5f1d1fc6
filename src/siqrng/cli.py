"""Command-line interface.

Subcommands map one-to-one onto the pipeline stages::

    siqrng simulate  --config cfg.json --out DIR [--seed HEX64]
    siqrng tally     --clicks FILE --out DIR [--seed HEX64]
    siqrng estimate  --tally FILE --config cfg.json --out DIR [--eps-exponent N]
    siqrng extract   --zbits FILE --estimation FILE --out DIR [--te N] [--seed HEX64]
    siqrng test      --bits FILE --out DIR
    siqrng sweep     --config cfg.json --out DIR [--sweep KEY=v1,v2,...] [--seed HEX64]
    siqrng pipeline  --config cfg.json --out DIR [--seed HEX64] [--sweep ...]

Exit codes: 0 success, 2 protocol abort (a machine-readable ``abort.json``
is written), 1 any other error.  Every subcommand is a deterministic
function of its inputs and the master seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .config import ConfigError, RunConfig, SweepSpec, load_config
from .entropy_math import ProtocolParams
from .estimation import EstimationResult, estimate_session
from .extractor import extract_session
from .pipeline import (
    autocorrelation_csv,
    choose_basis_plan,
    curve_csv,
    curve_point_from_session,
    derive_streams,
    run_protocol_session,
    run_sweep,
    shared_basis_plan,
)
from .randtest import compare_raw_vs_final, run_battery
from .seeds import SeedSource
from .squash_sample import squash_and_tally

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for protocol aborts here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _parse_sweep(text: str) -> SweepSpec:
    key, _, values = text.partition("=")
    if not values:
        raise ConfigError(f"--sweep expects KEY=v1,v2,..., got {text!r}")
    return SweepSpec(key=key, values=tuple(float(v) for v in values.split(",")))


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=int(args.seed, 16))
    if getattr(args, "te", None) is not None:
        config = replace(config, params=replace(config.params, t_e=args.te))
    if getattr(args, "eps_exponent", None) is not None:
        config = replace(
            config, params=replace(config.params, eps_theta_exponent=args.eps_exponent)
        )
    if getattr(args, "sweep", None) is not None:
        config = replace(config, sweep=_parse_sweep(args.sweep))
    return config


def _write_abort_record(out: Path, result) -> int:
    fileio.write_json(out / "abort.json", {
        "abort": True,
        "reason": result.abort_reason,
        "estimation": result.estimation.to_dict(),
        "tally": result.tally.to_dict(),
    })
    print(f"protocol abort: {result.abort_reason}", file=sys.stderr)
    return EXIT_ABORT


def cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    streams = derive_streams(config.master_seed)
    plan = choose_basis_plan(config, streams)
    from .photonic_sim import run_session

    stream = run_session(
        config.params, config.source, config.channel, config.detector,
        plan, streams.physics,
    )
    out = Path(args.out)
    fileio.write_click_file(out / "clicks.siqc", stream)
    fileio.write_json(out / "simulate.json", {
        "total_pulses": len(stream),
        "planned_x_count": config.params.planned_x_count,
        "basis_choice": config.basis_choice,
        "basis_plan_bits": streams.basis.bits_consumed,
        "master_seed": config.master_seed,
    })
    return EXIT_OK


def cmd_tally(args) -> int:
    stream = fileio.read_click_file(args.clicks)
    seed_rng = np.random.default_rng(int(args.seed, 16) if args.seed else 0)
    seed = SeedSource.from_rng(seed_rng)
    tally = squash_and_tally(stream, seed)
    out = Path(args.out)
    fileio.write_bit_file(out / "zbits.siq", tally.z_bits)
    fileio.write_json(out / "tally.json", tally.to_dict())
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    doc = fileio.read_json(args.tally)
    from .bits import BitBlock
    from .squash_sample import SessionTally

    tally = SessionTally(
        n=doc["n"], n_x=doc["n_x"], n_z=doc["n_z"],
        x_minus=doc["x_minus"], x_double=doc["x_double"],
        z_bits=BitBlock.zeros(doc["n_z"]),
        seed_bits_consumed=doc["seed_bits_consumed"],
    )
    est = estimate_session(tally, config.params)
    out = Path(args.out)
    fileio.write_json(out / "estimation.json", est.to_dict())
    if est.abort:
        fileio.write_json(out / "abort.json", {
            "abort": True, "reason": "e_bx + theta >= 1/2", "estimation": est.to_dict(),
        })
        print("protocol abort: e_bx + theta >= 1/2", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def cmd_extract(args) -> int:
    z_bits = fileio.read_bit_file(args.zbits)
    doc = fileio.read_json(args.estimation)
    est = EstimationResult(
        e_bx=doc["e_bx"], theta=doc["theta"],
        log2_eps_theta=doc["log2_eps_theta"], abort=doc["abort"],
    )
    seed = SeedSource.from_rng(np.random.default_rng(int(args.seed, 16) if args.seed else 0))
    final, report, summary = extract_session(z_bits, est, args.te, seed)
    out = Path(args.out)
    fileio.write_bit_file(out / "final.siq", final)
    fileio.write_json(out / "security.json", {**report.to_dict(), **summary})
    return EXIT_OK


def cmd_test(args) -> int:
    bits = fileio.read_bit_file(args.bits)
    report = run_battery(bits)
    out = Path(args.out)
    fileio.write_json(out / "randtest.json", report.to_dict())
    for record in report.records:
        status = "pass" if record.passed else "FAIL"
        print(f"{record.name}: p={record.p_value:.4f} proportion={record.proportion_pass:.2f} {status}")
    return EXIT_OK if report.all_passed else EXIT_ERROR


def cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    points = run_sweep(config)
    out = Path(args.out)
    fileio.atomic_write_bytes(out / "sweep.csv", curve_csv(points).encode())
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out = Path(args.out)

    # one active plan serves the sweep and the session alike
    plan, plan_bits = shared_basis_plan(config)
    if config.sweep is not None:
        points = run_sweep(config, plan, plan_bits)
        fileio.atomic_write_bytes(out / "sweep.csv", curve_csv(points).encode())

    result = run_protocol_session(config, plan, plan_bits, keep_stream=True)
    fileio.write_click_file(out / "clicks.siqc", result.stream)
    fileio.write_bit_file(out / "zbits.siq", result.tally.z_bits)
    fileio.write_json(out / "tally.json", result.tally.to_dict())
    fileio.write_json(out / "estimation.json", result.estimation.to_dict())
    fileio.write_json(out / "seed_ledger.json", result.seed_ledger)
    if result.aborted:
        return _write_abort_record(out, result)

    fileio.write_bit_file(out / "final.siq", result.final_bits)
    fileio.write_json(out / "security.json", {**result.security, **result.extraction})
    fileio.write_json(out / "curve_point.json",
                      {k: getattr(curve_point_from_session(result), k)
                       for k in ("loss_db", "K", "rate_bits_per_s", "eps_t")})

    report = run_battery(result.final_bits)
    fileio.write_json(out / "randtest.json", report.to_dict())
    if min(result.tally.n_z, len(result.final_bits)) >= 10**5:
        comparison = compare_raw_vs_final(result.tally.z_bits, result.final_bits)
        fileio.atomic_write_bytes(
            out / "autocorrelation.csv",
            autocorrelation_csv(
                comparison.lags, comparison.raw_curve, comparison.final_curve
            ).encode(),
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="siqrng", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.add_argument("--out", type=Path, required=True)
        p.set_defaults(func=func)
        return p

    seed_arg = {"type": str, "default": None, "metavar": "HEX64"}
    config_arg = {"type": Path, "required": True}

    p = add("simulate", cmd_simulate, config=config_arg)
    p.add_argument("--seed", **seed_arg)

    p = add("tally", cmd_tally, clicks={"type": Path, "required": True})
    p.add_argument("--seed", **seed_arg)

    p = add("estimate", cmd_estimate,
            tally={"type": Path, "required": True}, config=config_arg)
    p.add_argument("--eps-exponent", dest="eps_exponent", type=float, default=None)

    p = add("extract", cmd_extract,
            zbits={"type": Path, "required": True},
            estimation={"type": Path, "required": True})
    p.add_argument("--te", type=int, default=100)
    p.add_argument("--seed", **seed_arg)

    add("test", cmd_test, bits={"type": Path, "required": True})

    for name, func in (("sweep", cmd_sweep), ("pipeline", cmd_pipeline)):
        p = add(name, func, config=config_arg)
        p.add_argument("--seed", **seed_arg)
        p.add_argument("--sweep", type=str, default=None)
        p.add_argument("--te", type=int, default=None)
        p.add_argument("--eps-exponent", dest="eps_exponent", type=float, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
