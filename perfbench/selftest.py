"""Self-test of the benchmark: a reduced-size smoke run of every workload,
and for each output check a corrupted artifact or result it must catch.

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest perfbench/selftest.py  # the same tests under pytest

The smoke runs use ``run.py --smoke`` in a child interpreter, one at a
time; the corruption tests call the checks in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _scratch() -> Path:
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=base))


# ------------------------------------------------------------- smoke runs


def test_smoke_every_workload_and_trace_mode():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == PER_LAYER
    for entry in BENCHMARK["workloads"]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = _run(["perfbench/run.py", "--workload", entry["name"], "--seed", "5",
                         "--seconds", "1", "--trace", str(trace), "--smoke"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run([*BENCHMARK["command"][1:], "--workload", "passive_session",
                     "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# ------------------------------------------------- corrupted artifacts


def _honest_session(work: Path) -> workloads.PassiveSession:
    session = workloads.PassiveSession(5, work, smoke=True)
    rep = session.rep()
    assert rep.failed == 0, rep.failures
    return session


def test_truncated_final_bits_are_caught():
    work = _scratch()
    try:
        session = _honest_session(work)
        final = session.out / "final.siq"
        final.write_bytes(final.read_bytes()[:-1])
        problems, _ = workloads.check_session_artifacts(session.out, session.t_e)
        assert problems and "payload" in problems[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_output_above_the_certified_bound_is_caught():
    work = _scratch()
    try:
        session = _honest_session(work)
        tally = json.loads((session.out / "tally.json").read_text())
        estimation = json.loads((session.out / "estimation.json").read_text())
        bound = workloads.certified_bound(tally["n_z"], estimation["e_pz_bound"], session.t_e)
        k = bound + 1
        (session.out / "final.siq").write_bytes(
            b"SIQ1\x01" + k.to_bytes(8, "little") + bytes((k + 7) // 8))
        problems, _ = workloads.check_session_artifacts(session.out, session.t_e)
        assert problems and "K=" in problems[0]
        assert workloads.check_output_length(0, 1000, 0.1, 100)
        assert not workloads.check_output_length(bound, tally["n_z"],
                                                 estimation["e_pz_bound"], session.t_e)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_inconsistent_tally_is_caught():
    work = _scratch()
    try:
        session = _honest_session(work)
        path = session.out / "tally.json"
        tally = json.loads(path.read_text())
        path.write_text(json.dumps({**tally, "n": tally["n"] + 1}))
        problems, _ = workloads.check_session_artifacts(session.out, session.t_e)
        assert any("n_x+n_z" in p for p in problems)
        path.write_text(json.dumps({**tally, "n": tally["n"] + 1, "n_z": tally["n_z"] + 1}))
        problems, _ = workloads.check_session_artifacts(session.out, session.t_e)
        assert any("z bits" in p for p in problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_bad_exit_codes_are_caught():
    no_abort_record = ROOT / ".perfbench" / "no-such-dir"
    assert workloads.check_exit("pipeline", 1, (0,), no_abort_record)
    assert workloads.check_exit("estimate", 2, (0, 2), no_abort_record)
    assert not workloads.check_exit("test", 1, (0, 1), no_abort_record)


def test_sweep_checks():
    rows = [{"e_pz_bound": str(e), "abort": a}
            for e, a in ((0.1, "0"), (0.2, "0"), (0.5, "1"))]
    assert not workloads.check_sweep(rows)
    assert workloads.check_sweep([rows[1], rows[0], rows[2]])
    assert workloads.check_sweep(rows[:2])


def test_non_aborting_adversarial_session_is_caught():
    from siqrng import pipeline

    original = pipeline.run_protocol_session

    def never_aborts(config):
        result = original(config)
        return replace(result, estimation=replace(result.estimation, abort=False),
                       abort_reason=None)

    work = _scratch()
    pipeline.run_protocol_session = never_aborts
    try:
        rep = workloads.AdversarialBatch(5, work, smoke=True).rep()
    finally:
        pipeline.run_protocol_session = original
        shutil.rmtree(work, ignore_errors=True)
    assert rep.failed == rep.attempted > 0


def test_differing_digests_are_caught():
    assert workloads.check_digests(["a", "b"])
    assert not workloads.check_digests(["a", "a"])


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
