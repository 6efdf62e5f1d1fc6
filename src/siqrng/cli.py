"""Command-line interface.

Subcommands map one-to-one onto the pipeline stages::

    siqrng simulate  --config cfg.json --out DIR [--seed HEX64]
    siqrng tally     --clicks FILE --out DIR [--seed HEX64]
    siqrng estimate  --tally FILE --config cfg.json --out DIR [--eps-exponent N]
    siqrng extract   --zbits FILE --estimation FILE --out DIR [--te N] [--seed HEX64]
    siqrng test      --bits FILE --out DIR
    siqrng sweep     --config cfg.json --out DIR [--sweep KEY=v1,v2,...] [--seed HEX64]
    siqrng pipeline  --config cfg.json --out DIR [--seed HEX64] [--sweep ...]

Every ``--seed`` is the 64-bit master seed (default: the config's, or 0
without a config); each stage derives its stream from it as
:mod:`siqrng.pipeline` describes.  With a config, ``--seed``, ``--te``,
``--eps-exponent`` and ``--sweep KEY=v1,v2,...`` stand in for the
config's keys ``master_seed``, ``t_e``, ``eps_theta_exponent`` and
``sweep`` before the config reader reads the file, so a flag passes the
same checks as the key, and a config error names the file.  ``extract``
takes ``t_e`` (``--te`` overrides it) and the efficiency ratio from the
parameters ``estimate`` records in ``estimation.json``.  The staged
subcommands run the stage functions ``pipeline`` runs and write its
records, so ``simulate``, ``tally``, ``estimate`` and ``extract`` at one
master seed write ``pipeline``'s bytes, byte for byte.

Exit codes: 0 success, 2 protocol abort (a machine-readable ``abort.json``
is written), 1 any other error, such as a malformed file.  Every record is
strict JSON: a number that is not finite is written as ``null``.  Every
subcommand is a deterministic function of its inputs and the master seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio
from .config import ConfigError, RunConfig, load_config
from .entropy_math import ProtocolAbortError
from .estimation import ESTIMATE_ABORT_REASON, EstimationResult, estimate_session
from .extractor import extract_session
from .pipeline import (
    autocorrelation_csv,
    choose_basis_plan,
    curve_csv,
    curve_point_from_session,
    derive_streams,
    run_protocol_session,
    run_sweep,
    simulate_clicks,
    write_abort,
    write_estimation,
    write_extraction,
    write_tally,
)
from .randtest import BATTERY_MIN_BITS, autocorrelation, run_battery
from .squash_sample import SessionTally, TallyFold, squash_and_tally

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for protocol aborts here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def hex64(text: str) -> int:
    """A master seed given as up to 16 hex digits."""
    seed = int(text, 16)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"master seed must be a 64-bit value, got {text!r}")
    return seed


# each override flag and the configuration key it stands for
_OVERRIDE_KEYS = {"seed": "master_seed", "te": "t_e", "eps_exponent": "eps_theta_exponent",
                  "sweep": "sweep"}


def _parse_sweep(text: str) -> dict:
    key, _, values = text.partition("=")
    if not values:
        raise ConfigError(f"--sweep expects KEY=v1,v2,..., got {text!r}")
    try:
        return {"key": key, "values": [float(v) for v in values.split(",")]}
    except ValueError as exc:  # names the item: could not convert string to float: 'abc'
        raise ConfigError(f"--sweep {text!r}: {exc}") from None


def _load_config(args) -> RunConfig:
    """The ``--config`` file, each override flag given standing in for its key."""
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDE_KEYS.items()
                 if getattr(args, flag, None) is not None}
    if "sweep" in overrides:
        overrides["sweep"] = _parse_sweep(overrides["sweep"])
    return load_config(args.config, overrides)


def _protocol_abort(reason: str) -> int:
    print(f"protocol abort: {reason}", file=sys.stderr)
    return EXIT_ABORT


def cmd_simulate(args) -> int:
    config = _load_config(args)
    streams = derive_streams(config.master_seed)
    positions, plan_bits = choose_basis_plan(config, streams)
    out = Path(args.out)
    n = config.params.total_pulses
    with fileio.ClickFileWriter(out / "clicks.siqc", n) as clicks:
        simulate_clicks(config, streams, positions, clicks)
    fileio.write_json(out / "simulate.json", {
        "total_pulses": n,
        "planned_x_count": config.params.planned_x_count,
        "basis_choice": config.basis_choice,
        "basis_plan_bits": plan_bits,
        "master_seed": config.master_seed,
    })
    return EXIT_OK


def cmd_tally(args) -> int:
    fold = fileio.read_click_file(args.clicks, lambda count: TallyFold(count, None))
    tally = squash_and_tally(fold, derive_streams(args.seed).double_click)
    write_tally(Path(args.out), tally)
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = _load_config(args)
    tally = fileio.read_record(args.tally, SessionTally.from_dict)
    est = estimate_session(tally, config.params)
    out = Path(args.out)
    write_estimation(out, est, config.params, tally)
    if est.abort:
        write_abort(out, ESTIMATE_ABORT_REASON, est, tally)
        return _protocol_abort(ESTIMATE_ABORT_REASON)
    return EXIT_OK


def cmd_extract(args) -> int:
    est, params, tally = fileio.read_record(args.estimation, EstimationResult.from_record)
    if args.te is not None:
        params = replace(params, t_e=args.te)
    z_bits = fileio.read_bit_file(args.zbits)
    if len(z_bits) != tally.n_z:
        raise ValueError(
            f"{args.zbits}: {len(z_bits)} bits, but {args.estimation} "
            f"was estimated from n_z={tally.n_z}"
        )
    out = Path(args.out)
    try:
        final_bits, report, summary = extract_session(
            z_bits, est, params.t_e, derive_streams(args.seed).toeplitz,
            efficiency_ratio=params.efficiency_ratio,
        )
    except ProtocolAbortError as exc:
        write_abort(out, str(exc), est, tally)
        return _protocol_abort(str(exc))
    write_extraction(out, final_bits, report, summary)
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
    config = _load_config(args)
    points = run_sweep(config)
    out = Path(args.out)
    fileio.atomic_write_bytes(out / "sweep.csv", curve_csv(points).encode())
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = _load_config(args)
    out = Path(args.out)

    # one basis plan serves the session and the sweep alike, and a sweep
    # point at the config's own value takes the session instead of a rerun
    plan = choose_basis_plan(config, derive_streams(config.master_seed))
    result = run_protocol_session(config, plan, out)
    if config.sweep is not None:
        points = run_sweep(config, plan, result)
        fileio.atomic_write_bytes(out / "sweep.csv", curve_csv(points).encode())
    if result.aborted:
        return _protocol_abort(result.abort_reason)

    fileio.write_json(out / "curve_point.json",
                      {k: getattr(curve_point_from_session(result), k)
                       for k in ("loss_db", "K", "rate_bits_per_s", "eps_t")})

    # too short a certified output is still a success; it only goes untested
    if len(result.final_bits) < BATTERY_MIN_BITS:
        print(f"statistical battery skipped: {len(result.final_bits)} certified bits, "
              f"needs >= {BATTERY_MIN_BITS}", file=sys.stderr)
        return EXIT_OK
    report = run_battery(result.final_bits)
    fileio.write_json(out / "randtest.json", report.to_dict())
    if min(result.tally.n_z, len(result.final_bits)) >= 10**5:
        # the final curve is the battery's own
        raw_curve = autocorrelation(result.tally.z_bits, report.autocorrelation.size)
        fileio.atomic_write_bytes(
            out / "autocorrelation.csv",
            autocorrelation_csv(raw_curve, report.autocorrelation).encode(),
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

    # None keeps the config's master seed; without a config it is 0
    seed_arg = {"type": hex64, "default": None, "metavar": "HEX64"}
    staged_seed_arg = {**seed_arg, "default": 0}
    config_arg = {"type": Path, "required": True}
    te_arg = {"type": int}  # extract's default: the recorded t_e
    eps_arg = {"type": float}

    add("simulate", cmd_simulate, config=config_arg, seed=seed_arg)
    add("tally", cmd_tally, clicks={"type": Path, "required": True}, seed=staged_seed_arg)
    add("estimate", cmd_estimate, tally={"type": Path, "required": True}, config=config_arg,
        eps_exponent=eps_arg)
    add("extract", cmd_extract, zbits={"type": Path, "required": True},
        estimation={"type": Path, "required": True}, te=te_arg, seed=staged_seed_arg)
    add("test", cmd_test, bits={"type": Path, "required": True})
    for name, func in (("sweep", cmd_sweep), ("pipeline", cmd_pipeline)):
        add(name, func, config=config_arg, seed=seed_arg, sweep={"type": str},
            te=te_arg, eps_exponent=eps_arg)

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
