"""siqrng benchmark: one workload per run, or all four with a report.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S]

Run from the repository root; the package is imported from ``src/``.  A run
repeats the workload until the next repetition would overrun ``--seconds``
(at least once), checks every repetition's outputs, and prints the metrics
one per line followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, measured untraced; ``--trace 1``
alternates untraced and traced repetitions and gives the per-layer metrics
and the tracing overhead.  The load is this single process: no thread or
process runs beside a timed repetition.  Scratch files and a JSON record of
each result (environment, digests, spans) go to ``.perfbench/``.  The exit
code is 1 when any check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

SETUP_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# end-to-end metrics of BENCHMARK.json: the ones that apply to every workload
# and are never 0.  The report adds per-session latency (adversarial_batch
# only), certified bits per second (not adversarial_batch) and failed_frac.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "session_ms_p50": "ms", "session_ms_p99": "ms",
            "certified_bits_per_s": "bits/s", "failed_frac": "ratio"}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import siqrng.cli
from siqrng.config import load_config
load_config(sys.argv[2])
"""


def cap_thread_pools():
    """Cap BLAS/OpenMP pools at the core count, before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def environment() -> dict:
    import numpy
    import scipy
    import siqrng

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "siqrng": getattr(siqrng, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(config: Path) -> float:
    """Median time for a fresh interpreter to import the CLI and parse the config.

    The interpreters run one after another, never concurrently.
    """
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat(workload, seconds: float, tracer=None):
    """Run repetitions until the next one would overrun ``seconds``.

    With a tracer, repetitions alternate untraced and traced, starting
    untraced, and both kinds run at least once; traced repetition i is the
    tracer's run i.  Returns (untraced reps, traced reps).
    """
    from tracing import install

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None and len(traced) < len(untraced):
            tracer.start_run(len(traced))
            uninstall = install(tracer)
            try:
                traced.append(workload.rep())
            finally:
                uninstall()
        else:
            untraced.append(workload.rep())
        step = time.perf_counter() - began
        done = time.perf_counter() - start
        if done + step > seconds and (tracer is None or traced):
            return untraced, traced


def summarize(reps, setup_s: float | None) -> dict:
    walls = [r.wall_s for r in reps]
    sessions = [s for r in reps for s in r.session_s]
    wall = statistics.median(walls)
    output_bits = statistics.median(r.output_bits for r in reps)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "session_ms_p50": 1e3 * statistics.median(sessions) if sessions else None,
        "session_ms_p99": 1e3 * percentile(sessions, 0.99) if sessions else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_bits_per_s": output_bits / wall if output_bits else None,
        "reps": len(reps),
        "sessions": len(sessions),
        "rep_wall_s": walls,
    }


def run_one(args) -> int:
    import workloads
    from tracing import PER_LAYER, Tracer, per_layer_metrics

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    try:
        workload = cls(seed, work, smoke=args.smoke)
        setup_s = None if args.trace else measure_setup(workload.config)
        tracer = Tracer() if args.trace else None
        untraced, traced = repeat(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    failures = [f for r in reps for f in r.failures]
    digests = sorted({r.digest for r in reps})
    mismatch = workloads.check_digests([r.digest for r in reps])
    if mismatch:
        failures += mismatch
        failed = attempted
    report = summarize(untraced, setup_s)
    report["failed_frac"] = failed / attempted
    report["battery_passed"] = [r.battery_passed for r in reps]

    if args.trace:
        metrics = per_layer_metrics(tracer, [r.wall_s for r in untraced],
                                    [r.wall_s for r in traced])
        units = PER_LAYER
    else:
        metrics = {name: report[name] for name in END_TO_END}
        units = END_TO_END

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(), "report": report,
              "metrics": metrics, "digests": digests, "failures": failures}
    if tracer is not None:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for name, unit in REPORTED.items():
        if name not in metrics:
            value = report[name]
            print(f"{args.workload} {name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    print(f"{args.workload} reps {report['reps']} sessions {report['sessions']}")
    print("report: " + json.dumps(report))
    print("environment: " + json.dumps(record["environment"]))
    print("digests: " + json.dumps(digests))
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter so peak RSS is its own."""
    import workloads

    rows, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        report = next((json.loads(line[len("report: "):]) for line in lines
                       if line.startswith("report: ")), None)
        ok = ok and proc.returncode == 0 and report is not None
        rows[name] = report
        print("\n".join(line for line in lines if line.startswith(f"{name} ")))
    print()
    print("workload".ljust(19) + "".join(f"{c} ({u})".rjust(30) for c, u in REPORTED.items()))
    for name, report in rows.items():
        cells = ["n/a" if report is None or report.get(c) is None else f"{report[c]:.6g}"
                 for c in REPORTED]
        print(name.ljust(19) + "".join(c.rjust(30) for c in cells))
    print(json.dumps({"correct": ok, "workloads": rows}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["passive_session", "active_sweep", "adversarial_batch",
                                 "staged_cli", "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; default: the tier-1 fixture seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's self-test")
    args = parser.parse_args()
    if args.seed is not None and not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be a non-negative 63-bit integer")

    if not (SRC / "siqrng" / "__init__.py").is_file():
        print(f"error: no siqrng package under {SRC}", file=sys.stderr)
        return 2
    cap_thread_pools()
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
