"""The benchmark's workloads: generated configs, one timed repetition each,
and the output checks.

Every workload drives ``siqrng`` only through its public entry points:
``siqrng.cli.main`` in-process for the CLI workloads and
``siqrng.pipeline.run_protocol_session`` for the batch.  The program
receives nothing but the config generated here from the workload seed.

The checks hold for any correct implementation of the protocol, so an
intended output change (for example one Toeplitz hash per session instead
of blocks) does not count as a failure.  Artifact digests are compared
only between repetitions of one invocation.  The statistical battery is
reported, never gated: honest seeds fail p >= 0.01 about 5% of the time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK, EXIT_ERROR, EXIT_ABORT = 0, 1, 2

# the release-criteria reference parameters of the tier-1 acceptance suite
REFERENCE = {
    "eps_theta_exponent": 100,
    "t_e": 100,
    "source": {"mean_photon_number": 1.0, "misalignment": 0.02, "mode": "honest-plus"},
    "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
}
LOSS_SWEEP_DB = [0, 2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 22.5, 25, 30, 35, 40]

# artifacts whose bytes must repeat across repetitions of one invocation;
# timing or log files a later version may add are deliberately not listed
DIGESTED = ("clicks.siqc", "zbits.siq", "final.siq", "tally.json",
            "estimation.json", "sweep.csv", "abort.json")

SIQ1_MAGIC = b"SIQ1"
SIQ1_HEADER = 13  # magic, version byte, 8-byte little-endian bit count


@dataclass
class Rep:
    """One timed repetition of a workload and what its checks found."""

    wall_s: float = 0.0
    session_s: list[float] = field(default_factory=list)  # batch sessions only
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    output_bits: int = 0
    battery_passed: bool | None = None

    def fail(self, problems: list[str]):
        """Count one failed operation if its checks found any problem."""
        if problems:
            self.failures.extend(problems)
            self.failed += 1


# ---------------------------------------------------------------- checks


def binary_entropy(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -(e * math.log2(e) + (1.0 - e) * math.log2(1.0 - e))


def certified_bound(n_z: int, e_pz_bound: float, t_e: int) -> int:
    """The largest output the session-wide phase-error bound certifies."""
    return math.floor(n_z * (1.0 - binary_entropy(e_pz_bound))) - t_e


def siq1_bit_count(path: Path) -> int:
    """Bit count of a packed-bit file, after checking that the payload holds it."""
    with open(path, "rb") as fh:
        header = fh.read(SIQ1_HEADER)
    if len(header) < SIQ1_HEADER or header[:4] != SIQ1_MAGIC:
        raise ValueError(f"{path.name}: not a SIQ1 file")
    count = int.from_bytes(header[5:13], "little")
    payload = path.stat().st_size - SIQ1_HEADER
    if payload != (count + 7) // 8:
        raise ValueError(f"{path.name}: {payload} payload bytes cannot hold {count} bits")
    return count


def check_exit(step: str, code: int, expected: tuple[int, ...], out: Path) -> list[str]:
    if code not in expected:
        return [f"{step}: exit code {code}, expected {expected}"]
    if code == EXIT_ABORT and not (out / "abort.json").exists():
        return [f"{step}: exit code 2 without abort.json"]
    return []


def check_tally(n: int, n_x: int, n_z: int, z_len: int) -> list[str]:
    problems = []
    if n != n_x + n_z:
        problems.append(f"tally: n={n} != n_x+n_z={n_x + n_z}")
    if z_len != n_z:
        problems.append(f"tally: {z_len} z bits, expected n_z={n_z}")
    return problems


def check_output_length(k: int, n_z: int, e_pz_bound: float, t_e: int) -> list[str]:
    bound = certified_bound(n_z, e_pz_bound, t_e)
    if not 0 < k <= bound:
        return [f"extract: K={k} outside (0, {bound}] at n_z={n_z}, e_pz_bound={e_pz_bound}"]
    return []


def check_sweep(rows: list[dict]) -> list[str]:
    """Matched-seed sweep: the bound never falls with loss, the last point aborts."""
    if not rows:
        return ["sweep: no rows"]
    e_pz = [float(r["e_pz_bound"]) for r in rows]
    problems = []
    if any(b < a for a, b in zip(e_pz, e_pz[1:])):
        problems.append(f"sweep: e_pz_bound not monotone in loss: {e_pz}")
    if rows[-1]["abort"] not in ("1", "True", "true"):
        problems.append("sweep: highest-loss point did not abort")
    return problems


def check_session_artifacts(out: Path, t_e: int) -> tuple[list[str], int]:
    """Tally and output-length checks on an honest session's artifacts.

    Returns the problems found and the certified output length.
    """
    try:
        tally = json.loads((out / "tally.json").read_text())
        estimation = json.loads((out / "estimation.json").read_text())
        problems = check_tally(tally["n"], tally["n_x"], tally["n_z"],
                               siq1_bit_count(out / "zbits.siq"))
        k = siq1_bit_count(out / "final.siq")
        problems += check_output_length(k, tally["n_z"], estimation["e_pz_bound"], t_e)
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifacts: {exc}"], 0
    return problems, k


def digest_files(out: Path) -> str:
    h = hashlib.sha256()
    for name in DIGESTED:
        path = out / name
        if path.exists():
            h.update(name.encode())
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 22), b""):
                    h.update(chunk)
    return h.hexdigest()


def check_digests(digests: list[str]) -> list[str]:
    """The same config and seed must give the same artifacts on every repetition."""
    if len(set(digests)) > 1:
        return [f"artifact digests differ across repetitions: {sorted(set(digests))}"]
    return []


def battery_passed(out: Path) -> bool | None:
    try:
        return bool(json.loads((out / "randtest.json").read_text())["all_passed"])
    except (OSError, ValueError, KeyError):
        return None


# ------------------------------------------------------------- workloads


def run_cli(argv: list[str]) -> tuple[int, float]:
    """One in-process CLI call with its output captured; returns (exit code, seconds)."""
    from siqrng.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed


class Workload:
    name = ""
    why = ""
    default_seed = 0

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.config_doc = self.make_config(seed, smoke)
        self.config = work / "config.json"
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps(self.config_doc))

    @property
    def t_e(self) -> int:
        return int(self.config_doc.get("t_e", 100))

    def make_config(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def clear_out(self):
        """Start each repetition from an empty output directory, so no check
        can pass on a file an earlier repetition left behind."""
        shutil.rmtree(self.out, ignore_errors=True)

    def rep(self) -> Rep:
        raise NotImplementedError


class PipelineWorkload(Workload):
    """``siqrng pipeline`` on one config."""

    def rep(self) -> Rep:
        self.clear_out()
        rep = Rep(attempted=1)
        code, rep.wall_s = run_cli(["pipeline", "--config", str(self.config),
                                    "--out", str(self.out)])
        problems = check_exit("pipeline", code, (EXIT_OK,), self.out)
        if not problems:
            found, rep.output_bits = check_session_artifacts(self.out, self.t_e)
            problems += found + self.extra_checks()
        rep.fail(problems)
        rep.battery_passed = battery_passed(self.out)
        rep.digest = digest_files(self.out)
        return rep

    def extra_checks(self) -> list[str]:
        return []


class PassiveSession(PipelineWorkload):
    name = "passive_session"
    why = ("4e7-pulse passive honest session (criterion-11 config): extractor, "
           "battery and simulator dominate; the basis unranker is bypassed")
    default_seed = 424242

    def make_config(self, seed, smoke):
        pulses, planned_x = (6 * 10**5, 6000) if smoke else (4 * 10**7, 22000)
        return {"total_pulses": pulses, "planned_x_count": planned_x,
                "channel": {"loss_db": 0.0}, "master_seed": seed,
                "basis_choice": "passive", **REFERENCE}


class ActiveSweep(PipelineWorkload):
    name = "active_sweep"
    why = ("14-point loss sweep at 1e6 pulses, 3700 planned X, active basis "
           "choice (criteria 3/4): the sparse-shape basis plan dominates")
    default_seed = 20260810

    def make_config(self, seed, smoke):
        pulses, planned_x = (10**5, 3700) if smoke else (10**6, 3700)
        return {"total_pulses": pulses, "planned_x_count": planned_x,
                "channel": {"loss_db": 0.0}, "master_seed": seed,
                "sweep": {"key": "loss_db", "values": LOSS_SWEEP_DB}, **REFERENCE}

    def extra_checks(self) -> list[str]:
        try:
            with open(self.out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return [f"sweep: {exc}"]
        return check_sweep(rows)


class AdversarialBatch(Workload):
    """Consecutive sessions of a fixed-Z source; every one must abort."""

    name = "adversarial_batch"
    why = ("1000 fixed-Z sessions of 3400 pulses, 1700 planned X (criterion 5): "
           "dense-shape basis plan, per-session fixed costs and the abort path")
    default_seed = 7_000_000

    def __init__(self, seed, work, smoke=False):
        super().__init__(seed, work, smoke)
        from siqrng.config import config_from_dict

        sessions = 20 if smoke else 1000
        self.configs = [config_from_dict({**self.config_doc, "master_seed": seed + i})
                        for i in range(sessions)]

    def make_config(self, seed, smoke):
        return {"total_pulses": 3400, "planned_x_count": 1700,
                "eps_theta_exponent": 100, "t_e": 100,
                "source": {"mean_photon_number": 1.0, "mode": "adversarial-fixed-z"},
                "channel": {"loss_db": 0.0},
                "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
                "master_seed": seed}

    def rep(self) -> Rep:
        from siqrng import pipeline

        rep = Rep(attempted=len(self.configs))
        h = hashlib.sha256()
        for config in self.configs:
            start = time.perf_counter()
            result = pipeline.run_protocol_session(config)
            rep.session_s.append(time.perf_counter() - start)
            t, e = result.tally, result.estimation
            problems = check_tally(t.n, t.n_x, t.n_z, len(t.z_bits))
            if not result.aborted:
                problems.append(f"session {config.master_seed}: fixed-Z source did not abort")
            rep.fail(problems)
            h.update(repr((t.n, t.n_x, t.n_z, t.x_minus, t.x_double,
                           e.e_bx, e.theta, result.aborted)).encode())
        rep.wall_s = sum(rep.session_s)
        rep.digest = h.hexdigest()
        return rep


class StagedCli(Workload):
    """simulate -> tally -> estimate -> extract -> test, reading artifacts back."""

    name = "staged_cli"
    why = ("2e7-pulse passive session through the staged subcommands: the only "
           "workload that reads click and z-bit files back")
    default_seed = 0xDEADBEEF

    def make_config(self, seed, smoke):
        pulses, planned_x = (6 * 10**5, 6000) if smoke else (2 * 10**7, 22000)
        return {"total_pulses": pulses, "planned_x_count": planned_x,
                "channel": {"loss_db": 0.0}, "master_seed": seed,
                "basis_choice": "passive", **REFERENCE}

    def rep(self) -> Rep:
        out, seed = str(self.out), f"{self.seed:016x}"
        steps = [
            ("simulate", ["--config", str(self.config), "--seed", seed], (EXIT_OK,)),
            ("tally", ["--clicks", f"{out}/clicks.siqc", "--seed", seed], (EXIT_OK,)),
            ("estimate", ["--tally", f"{out}/tally.json", "--config", str(self.config)],
             (EXIT_OK,)),
            ("extract", ["--zbits", f"{out}/zbits.siq", "--estimation",
                         f"{out}/estimation.json", "--te", str(self.t_e), "--seed", seed],
             (EXIT_OK,)),
            # the battery's own verdict is reported, not gated
            ("test", ["--bits", f"{out}/final.siq"], (EXIT_OK, EXIT_ERROR)),
        ]
        self.clear_out()
        rep = Rep(attempted=1)
        problems: list[str] = []
        for step, argv, expected in steps:
            code, seconds = run_cli([step, *argv, "--out", out])
            rep.wall_s += seconds
            problems = check_exit(step, code, expected, self.out)
            if problems:
                break
        if not problems:
            problems, rep.output_bits = check_session_artifacts(self.out, self.t_e)
        rep.fail(problems)
        rep.battery_passed = battery_passed(self.out)
        rep.digest = digest_files(self.out)
        return rep


WORKLOADS = {w.name: w for w in (PassiveSession, ActiveSweep, AdversarialBatch, StagedCli)}
