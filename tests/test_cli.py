"""CLI contract tests: exit codes, artifact layout, reproducibility, and
the exact seed ledger."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from helpers import child_env, read_click_records, zero_bits
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from siqrng.cli import main
from siqrng.config import config_from_dict, load_config
from siqrng.fileio import read_bit_file, read_json
from siqrng.photonic_sim import CHUNK
from siqrng.squash_sample import seed_length_required

HONEST_DOC = {
    "total_pulses": 600_000,
    "planned_x_count": 6000,
    "eps_theta_exponent": 100,
    "t_e": 100,
    "source": {"mean_photon_number": 1.0, "misalignment": 0.02, "mode": "honest-plus"},
    "channel": {"loss_db": 0.0},
    "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.002},
    "master_seed": "00000000deadbeef",
}

# a JSON array nested deeper than the decoder recurses: a malformed record
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.fixture
def honest_config(tmp_path):
    doc = dict(HONEST_DOC)
    doc["master_seed"] = int(doc["master_seed"], 16)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def adversarial_config(tmp_path):
    doc = dict(HONEST_DOC)
    doc["master_seed"] = int(doc["master_seed"], 16)
    doc["total_pulses"] = 20_000
    doc["planned_x_count"] = 4000
    doc["source"] = {"mean_photon_number": 1.0, "mode": "adversarial-fixed-z"}
    path = tmp_path / "adversarial.json"
    path.write_text(json.dumps(doc))
    return path


class TestPipeline:
    def test_honest_run_produces_all_artifacts(self, honest_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out)]) == 0
        for name in (
            "clicks.siqc", "zbits.siq", "tally.json", "estimation.json",
            "seed_ledger.json", "final.siq", "security.json", "randtest.json",
            "autocorrelation.csv", "curve_point.json",
        ):
            assert (out / name).exists(), name
        assert len(read_bit_file(out / "final.siq")) > 0
        assert not (out / "abort.json").exists()

    def test_reruns_are_byte_identical(self, honest_config, tmp_path):
        # one active session, and an active sweep, whose sessions one process repeats
        sweep_config = tmp_path / "sweep.json"
        sweep_config.write_text(json.dumps({**HONEST_DOC, "total_pulses": 200_000,
                                            "sweep": {"key": "loss_db", "values": [0, 5, 10]}}))
        for config in (honest_config, sweep_config):
            outs = [tmp_path / config.stem / name for name in ("a", "b")]
            for out in outs:
                assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
            written = sorted(p.name for p in outs[0].iterdir())
            assert written == sorted(p.name for p in outs[1].iterdir())
            assert "final.siq" in written and ("sweep.csv" in written) == (config == sweep_config)
            for name in written:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_seed_changes_output(self, honest_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out_b),
                     "--seed", "0000000000000001"]) == 0
        assert (out_a / "final.siq").read_bytes() != (out_b / "final.siq").read_bytes()

    def test_seed_ledger_is_exact(self, honest_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out)]) == 0
        ledger = read_json(out / "seed_ledger.json")
        assert ledger["total_bits"] == (
            ledger["basis_plan_bits"]
            + ledger["double_click_bits"]
            + ledger["toeplitz_seed_bits"]
        )
        tally = read_json(out / "tally.json")
        assert ledger["double_click_bits"] == tally["seed_bits_consumed"]
        security = read_json(out / "security.json")
        assert ledger["toeplitz_seed_bits"] == security["toeplitz_seed_bits"]
        assert ledger["output_bits"] == len(read_bit_file(out / "final.siq"))

    @pytest.mark.parametrize("mode", ["active", "passive"])
    def test_seed_ledger_matches_what_the_streams_gave(self, mode, monkeypatch):
        # replaying the ledger's counts on fresh streams, in each stage's own
        # call pattern, leaves every seed stream where the session left it
        import siqrng.pipeline as pipeline

        # at this master seed the active plan rejects its first window
        config = config_from_dict({**HONEST_DOC, "total_pulses": 300_000, "planned_x_count": 3000,
                                   "basis_choice": mode, "master_seed": 0xDEADBEF5})
        real_derive = pipeline.derive_streams
        kept = []

        def keeping_derive(master_seed):
            kept.append(real_derive(master_seed))
            return kept[-1]

        monkeypatch.setattr(pipeline, "derive_streams", keeping_derive)
        ledger = pipeline.run_protocol_session(config).seed_ledger
        [session] = kept
        assert ledger["toeplitz_seed_bits"] > 0 and ledger["double_click_bits"] > 0

        replay = real_derive(config.master_seed)
        n, n_x = config.params.total_pulses, config.params.planned_x_count
        width = seed_length_required(math.comb(n, n_x))
        windows, rest = divmod(ledger["basis_plan_bits"], width)
        assert (windows, rest) == ((2, 0) if mode == "active" else (0, 0))
        for _ in range(windows):
            replay.basis.integers(0, 2, width, dtype=np.uint8)
        replay.double_click.integers(0, 2, ledger["double_click_bits"], dtype=np.uint8)
        replay.toeplitz.integers(0, 2, ledger["toeplitz_seed_bits"], dtype=np.uint8)
        replay.physics.bit_generator.advance(n)
        for name in ("physics", "basis", "double_click", "toeplitz"):
            assert (getattr(replay, name).bit_generator.state
                    == getattr(session, name).bit_generator.state), name

    def test_security_reports_fft_rounding_margin(self, honest_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out)]) == 0
        deviation = read_json(out / "security.json")["fft_max_deviation"]
        assert 0.0 <= deviation < 1e-6

    def test_sweep_plans_the_active_basis_once(self, honest_config, tmp_path, monkeypatch):
        # one basis plan per run in both choice modes, shared by every sweep
        # point and the session; an active plan evaluates one unranking
        import siqrng.cli as cli
        import siqrng.pipeline as pipeline

        plans, unrankings = [], []
        real_choose, real_plan = pipeline.choose_basis_plan, pipeline.plan_basis_positions

        def counting_choose(config, streams):
            plans.append(config.basis_choice)
            return real_choose(config, streams)

        def counting_plan(*args, **kwargs):
            unrankings.append(args[:2])
            return real_plan(*args, **kwargs)

        for module in (cli, pipeline):
            monkeypatch.setattr(module, "choose_basis_plan", counting_choose)
        monkeypatch.setattr(pipeline, "plan_basis_positions", counting_plan)
        for mode in ("active", "passive"):
            plans.clear()
            unrankings.clear()
            config = tmp_path / f"{mode}.json"
            config.write_text(json.dumps({**HONEST_DOC, "basis_choice": mode}))
            out = tmp_path / mode
            assert main(["pipeline", "--config", str(config), "--out", str(out),
                         "--sweep", "loss_db=0,6"]) == 0
            assert plans == [mode]
            shape = (HONEST_DOC["total_pulses"], HONEST_DOC["planned_x_count"])
            assert unrankings == ([shape] if mode == "active" else [])
            assert (out / "sweep.csv").exists()

            # a session that derives its own plan spends the same seed, bit for bit
            own = pipeline.run_protocol_session(load_config(config))
            assert plans == [mode, mode]
            assert read_json(out / "seed_ledger.json") == own.seed_ledger
            assert read_bit_file(out / "final.siq") == own.final_bits

    @pytest.mark.parametrize("extra, clicks, zbits", [
        # passive, across one tally block edge, simulated on two threads
        ({"total_pulses": (1 << 21) + 1000, "planned_x_count": 20000,
          "basis_choice": "passive", "master_seed": 5},
         "a5c40a95b88814ab513af62fc5493a703d31539f0e0994847c33348ab9f3b5af",
         "210570aaaaf34b05d61b8642495ec8e327f5f67485f7131d36afb4ddc15f3e05"),
        ({"master_seed": 0xDEADBEEF},
         "55d4b1d9355177fd0614eefd8beb63b829d842fa468e1fd1e057117a46af9ab3",
         "0dfba38104cd256d27abb59b83efe44164c1fb673b975026b82ed7c78e57b6f6"),
    ], ids=["passive", "active"])
    def test_click_and_zbit_files_are_unchanged(self, extra, clicks, zbits, tmp_path):
        # the simulator and the tally fix every later artifact, so the bytes
        # of their files at a fixed config and seed are pinned
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**HONEST_DOC, **extra}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert [hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("clicks.siqc", "zbits.siq")] == [clicks, zbits]

    def test_battery_files_are_unchanged(self, tmp_path):
        # the battery's report and the raw-vs-final curve at the passive
        # config above, pinned while the battery ran on one byte per bit
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**HONEST_DOC, "total_pulses": (1 << 21) + 1000,
                                      "planned_x_count": 20000, "basis_choice": "passive",
                                      "master_seed": 5}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert [hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("randtest.json", "autocorrelation.csv")] == [
            "1a4fc3b46c52bddc052fa49ab79792165eadc6101374e6a11881d48185b27d44",
            "e17329eaefafcfa31e74628f552d45ac182823b699734a0b3c9140d2195b5b70"]

    def test_csv_artifacts_hold_numbers(self, honest_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out),
                     "--sweep", "loss_db=0,6"]) == 0
        for name in ("autocorrelation.csv", "sweep.csv"):
            with open(out / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows, name
            for row in rows:
                assert len(row) == len(header), name
                for field in filter(None, row):
                    float(field)

    def test_short_certified_output_skips_battery(self, tmp_path, capsys):
        # 9888 certified bits: too few for 100 battery partitions of 128 bits
        doc = {**HONEST_DOC, "total_pulses": 60_000, "planned_x_count": 3000,
               "master_seed": 11, "basis_choice": "passive"}
        config = tmp_path / "short.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert len(read_bit_file(out / "final.siq")) == 9888
        assert not (out / "randtest.json").exists()
        assert "battery skipped" in capsys.readouterr().err

        assert main(["test", "--bits", str(out / "final.siq"), "--out", str(out)]) == 1
        assert ("statistical battery needs >= 12800 bits, got 9888"
                in capsys.readouterr().err)
        assert not (out / "randtest.json").exists()

    def test_adversarial_source_aborts_with_exit_2(self, adversarial_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(adversarial_config), "--out", str(out)]) == 2
        record = read_json(out / "abort.json")
        assert record["abort"] is True
        assert record["estimation"]["e_bx"] > 0.4
        assert not (out / "final.siq").exists()

    def test_override_flags_write_the_bytes_of_config_keys(self, tmp_path):
        doc = {**HONEST_DOC, "total_pulses": 200_000, "basis_choice": "passive"}
        flagged = tmp_path / "flagged.json"
        flagged.write_text(json.dumps(doc))
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps({**doc, "master_seed": 7, "t_e": 80,
                                     "eps_theta_exponent": 90.0,
                                     "sweep": {"key": "loss_db", "values": [0, 3]}}))
        assert main(["pipeline", "--config", str(flagged), "--out", str(tmp_path / "a"),
                     "--seed", "7", "--te", "80", "--eps-exponent", "90",
                     "--sweep", "loss_db=0,3"]) == 0
        assert main(["pipeline", "--config", str(keyed), "--out", str(tmp_path / "b")]) == 0
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert "sweep.csv" in names
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_records_are_strict_json(self, honest_config, adversarial_config, tmp_path):
        # an abort without X events has theta = 0, so log2_theta is -inf, and
        # a lopsided file's runs statistic is nan; both must be null, since
        # NaN and Infinity are no JSON
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        from siqrng.bits import BitBlock
        from siqrng.fileio import write_bit_file

        lopsided = tmp_path / "lopsided.siq"
        write_bit_file(lopsided, BitBlock.from01(np.random.default_rng(3).random(20_000) < 0.9))
        assert main(["test", "--bits", str(lopsided), "--out", str(tmp_path / "test")]) == 1
        assert main(["pipeline", "--config", str(honest_config),
                     "--out", str(tmp_path / "honest")]) == 0
        assert main(["pipeline", "--config", str(adversarial_config),
                     "--out", str(tmp_path / "abort")]) == 2
        no_x = tmp_path / "no_x"
        no_x.mkdir()
        (no_x / "tally.json").write_text(json.dumps(
            {"n": 100, "n_x": 0, "n_z": 100, "x_minus": 0, "x_double": 0,
             "seed_bits_consumed": 0}))
        assert main(["estimate", "--tally", str(no_x / "tally.json"),
                     "--config", str(honest_config), "--out", str(no_x)]) == 2
        records = sorted(tmp_path.glob("*/*.json"))
        assert {path.parent.name for path in records} == {"test", "honest", "abort", "no_x"}
        for path in records:
            json.loads(path.read_text(), parse_constant=reject)
        assert read_json(no_x / "abort.json")["estimation"]["log2_theta"] is None
        runs = read_json(tmp_path / "test" / "randtest.json")["tests"][2]
        assert runs["name"] == "runs" and runs["statistic"] is None


class TestStagedSubcommands:
    def test_simulate_tally_estimate_extract_test_chain(self, honest_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(honest_config), "--out", str(out)]) == 0
        clicks = read_click_records(out / "clicks.siqc")
        assert len(clicks) == HONEST_DOC["total_pulses"]

        assert main(["tally", "--clicks", str(out / "clicks.siqc"), "--out", str(out),
                     "--seed", "0000000000000002"]) == 0
        tally = read_json(out / "tally.json")
        assert tally["n"] == tally["n_x"] + tally["n_z"]

        assert main(["estimate", "--tally", str(out / "tally.json"),
                     "--config", str(honest_config), "--out", str(out)]) == 0
        estimation = read_json(out / "estimation.json")
        assert estimation["abort"] is False

        assert main(["extract", "--zbits", str(out / "zbits.siq"),
                     "--estimation", str(out / "estimation.json"),
                     "--out", str(out), "--te", "100",
                     "--seed", "0000000000000003"]) == 0
        final = read_bit_file(out / "final.siq")
        assert len(final) > 10_000

        assert main(["test", "--bits", str(out / "final.siq"), "--out", str(out)]) == 0
        report = read_json(out / "randtest.json")
        assert report["all_passed"] is True

    def test_test_step_report_is_unchanged(self, honest_config, tmp_path):
        # randtest.json of the chain above, pinned while the battery ran on
        # one byte per bit
        out = tmp_path / "stages"
        steps = [
            ["simulate", "--config", str(honest_config)],
            ["tally", "--clicks", str(out / "clicks.siqc"), "--seed", "0000000000000002"],
            ["estimate", "--tally", str(out / "tally.json"), "--config", str(honest_config)],
            ["extract", "--zbits", str(out / "zbits.siq"), "--estimation",
             str(out / "estimation.json"), "--te", "100", "--seed", "0000000000000003"],
            ["test", "--bits", str(out / "final.siq")],
        ]
        for step in steps:
            assert main([*step, "--out", str(out)]) == 0, step[0]
        assert hashlib.sha256((out / "randtest.json").read_bytes()).hexdigest() == (
            "59f948ca27abf6bce0bcc03b55fc515c5155a55d69209291abea02dc076aba83")

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_file_gets_a_failing_report(self, value, tmp_path, capsys):
        # a stuck source is what the battery is there to report: every
        # test fails, and the undefined autocorrelation is written as null
        from siqrng.bits import BitBlock
        from siqrng.fileio import write_bit_file

        bits = tmp_path / "stuck.siq"
        write_bit_file(bits, BitBlock.from01(np.full(20_000, value, dtype=np.uint8)))
        out = tmp_path / "test"
        assert main(["test", "--bits", str(bits), "--out", str(out)]) == 1
        assert "error" not in capsys.readouterr().err
        report = read_json(out / "randtest.json")
        assert [r["name"] for r in report["tests"]] == [
            "monobit", "block_frequency", "runs", "longest_run", "cusum"]
        for record in report["tests"]:
            assert record["pass"] is False and record["proportion_pass"] == 0.0, record
        assert report["all_passed"] is False
        assert report["autocorrelation"] == [None] * 100

    def test_estimate_abort_exit_code(self, adversarial_config, honest_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(adversarial_config), "--out", str(out)]) == 0
        assert main(["tally", "--clicks", str(out / "clicks.siqc"), "--out", str(out)]) == 0
        code = main(["estimate", "--tally", str(out / "tally.json"),
                     "--config", str(adversarial_config), "--out", str(out)])
        assert code == 2
        assert read_json(out / "abort.json")["abort"] is True


# the artifacts the staged chain and pipeline both write
PARITY_FILES = ("clicks.siqc", "zbits.siq", "tally.json", "estimation.json",
                "final.siq", "security.json", "abort.json")


def _run_staged_chain(config, seed: str, out) -> int:
    """simulate -> tally -> estimate -> extract at one master seed, stopping
    at the first nonzero exit code, which it returns."""
    steps = [
        ["simulate", "--config", str(config), "--seed", seed],
        ["tally", "--clicks", str(out / "clicks.siqc"), "--seed", seed],
        ["estimate", "--tally", str(out / "tally.json"), "--config", str(config)],
        ["extract", "--zbits", str(out / "zbits.siq"),
         "--estimation", str(out / "estimation.json"), "--seed", seed],
    ]
    for step in steps:
        code = main([*step, "--out", str(out)])
        if code:
            return code
    return 0


@st.composite
def _parity_configs(draw):
    """Small sessions of either basis choice; active plans are kept short
    because unranking time grows with the planned X count."""
    choice = draw(st.sampled_from(["active", "passive"]))
    return {
        **HONEST_DOC,
        "total_pulses": draw(st.integers(50_000, 600_000)),
        "planned_x_count": draw(st.integers(1500, 3000 if choice == "active" else 8000)),
        "basis_choice": choice,
        "efficiency_ratio": draw(st.floats(0.85, 1.0)),
        "t_e": draw(st.integers(20, 150)),
        "master_seed": draw(st.integers(0, (1 << 64) - 1)),
    }


class TestStagedParity:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_parity_configs())
    # the fixed-Z source aborts at the estimate
    @example(doc={**HONEST_DOC, "total_pulses": 20_000, "planned_x_count": 4000,
                  "source": {"mean_photon_number": 1.0, "mode": "adversarial-fixed-z"}})
    # the estimate passes, but e/r >= 1/2 leaves nothing to extract
    @example(doc={**HONEST_DOC, "total_pulses": 100_000, "planned_x_count": 8000,
                  "basis_choice": "passive", "efficiency_ratio": 0.85,
                  "source": {"mean_photon_number": 1.0, "misalignment": 0.35}})
    # the estimate passes, but K <= 0
    @example(doc={**HONEST_DOC, "total_pulses": 100_000, "planned_x_count": 8000,
                  "basis_choice": "passive",
                  "source": {"mean_photon_number": 1.0, "misalignment": 0.35}})
    # the mismatch-adjusted length, which extract once dropped
    @example(doc={**HONEST_DOC, "efficiency_ratio": 0.9})
    def test_staged_chain_writes_pipeline_bytes(self, doc, tmp_path_factory):
        work = tmp_path_factory.mktemp("parity")
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        seed = doc["master_seed"]
        seed = f"{seed:016x}" if isinstance(seed, int) else seed

        assert main(["pipeline", "--config", str(config), "--out", str(work / "pipeline"),
                     "--seed", seed]) == _run_staged_chain(config, seed, work / "staged")
        for name in PARITY_FILES:
            piped, staged = work / "pipeline" / name, work / "staged" / name
            assert piped.exists() == staged.exists(), name
            if piped.exists():
                assert piped.read_bytes() == staged.read_bytes(), name


def _holder(doc: dict, keys: tuple) -> tuple[dict, str]:
    """The dict in ``doc`` that holds the last of the nested ``keys``, and that key."""
    *parents, key = keys
    for parent in parents:
        doc = doc[parent]
    return doc, key


class TestStagedErrorPaths:
    @pytest.fixture
    def passive_config(self, tmp_path):
        path = tmp_path / "passive.json"
        path.write_text(json.dumps({**HONEST_DOC, "total_pulses": 200_000,
                                    "basis_choice": "passive"}))
        return path

    @pytest.fixture
    def estimated(self, passive_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(passive_config), "--out", str(out)]) == 0
        assert main(["tally", "--clicks", str(out / "clicks.siqc"), "--out", str(out)]) == 0
        assert main(["estimate", "--tally", str(out / "tally.json"),
                     "--config", str(passive_config), "--out", str(out)]) == 0
        return out

    def _extract(self, out, *extra):
        return main(["extract", "--zbits", str(out / "zbits.siq"),
                     "--estimation", str(out / "estimation.json"), "--out", str(out), *extra])

    def test_extract_of_an_aborted_estimate_exits_2(self, adversarial_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(adversarial_config), "--out", str(out)]) == 0
        assert main(["tally", "--clicks", str(out / "clicks.siqc"), "--out", str(out)]) == 0
        assert main(["estimate", "--tally", str(out / "tally.json"),
                     "--config", str(adversarial_config), "--out", str(out)]) == 2
        estimated = (out / "abort.json").read_bytes()
        (out / "abort.json").unlink()

        assert self._extract(out) == 2
        assert (out / "abort.json").read_bytes() == estimated
        assert read_json(out / "abort.json")["tally"] == read_json(out / "tally.json")
        assert not (out / "final.siq").exists()

    def test_extract_of_a_tampered_estimate_exits_2(self, estimated):
        # e_bx = 0.62 with theta = 0 and abort false: H(0.62) = H(0.38), so
        # only the e/r >= 1/2 check of the length formula stops it
        record = read_json(estimated / "estimation.json")
        assert record["params"]["efficiency_ratio"] == 1.0
        record.update(e_bx=0.62, theta=0.0, abort=False)
        (estimated / "estimation.json").write_text(json.dumps(record))
        assert self._extract(estimated) == 2
        assert read_json(estimated / "abort.json")["reason"] == (
            "scaled error rate e_sum/r = 0.620000 >= 1/2: no extractable bits")
        assert not (estimated / "final.siq").exists()

    def test_estimate_allocates_nothing_by_a_recorded_count(self, passive_config, tmp_path,
                                                            capsys):
        # a tally record holds counts only; n_z = 2^62 bits would not fit in memory
        n_x, n_z = 10**6, 1 << 62
        tally = tmp_path / "tally.json"
        tally.write_text(json.dumps({"n": n_x + n_z, "n_x": n_x, "n_z": n_z, "x_minus": 20_000,
                                     "x_double": 0, "seed_bits_consumed": 0}))
        out = tmp_path / "out"
        assert main(["estimate", "--tally", str(tally), "--config", str(passive_config),
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        record = read_json(out / "estimation.json")
        assert record["tally"]["n_z"] == n_z and record["abort"] is False
        assert record["e_bx"] == 0.02 and 0 < record["theta"] < 0.01

    def test_te_defaults_to_the_recorded_value(self, estimated):
        record = read_json(estimated / "estimation.json")
        assert record["params"]["t_e"] == HONEST_DOC["t_e"]
        record["params"]["t_e"] = 40
        (estimated / "estimation.json").write_text(json.dumps(record))
        assert self._extract(estimated) == 0
        assert read_json(estimated / "security.json")["t_e"] == 40
        assert self._extract(estimated, "--te", "60") == 0
        assert read_json(estimated / "security.json")["t_e"] == 60

    @pytest.mark.parametrize("record, keys", [
        ("tally.json", ("x_minus",)),
        ("estimation.json", ("theta",)),
        ("estimation.json", ("params",)),
        ("estimation.json", ("params", "efficiency_ratio")),
        ("estimation.json", ("tally", "n_z")),
    ])
    def test_record_missing_a_key_is_exit_1(self, estimated, passive_config, record, keys,
                                             capsys):
        path = estimated / record
        doc = read_json(path)
        holder, key = _holder(doc, keys)
        del holder[key]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._read_back(estimated, passive_config, record) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and repr(key) in err

    @pytest.mark.parametrize("record, keys, value", [
        ("tally.json", ("x_double",), -10),  # counts x_minus - 5 errors
        ("estimation.json", ("theta",), -0.001),
        ("estimation.json", ("tally", "n_z"), -1),
    ])
    def test_record_with_a_negative_count_is_exit_1(self, estimated, passive_config, record,
                                                    keys, value, capsys):
        path = estimated / record
        doc = read_json(path)
        holder, key = _holder(doc, keys)
        holder[key] = value
        if key == "n_z":
            holder["n"] = holder["n_x"] + value  # n = n_x + n_z still holds
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._read_back(estimated, passive_config, record) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and repr(key) in err

    @pytest.mark.parametrize("key, value", [
        ("e_bx", -0.1),
        ("e_bx", 0.0),  # no estimate gives less than 1/n_x
        ("e_bx", 2.0),
        ("log2_eps_theta", 5.0),
    ])
    def test_estimate_out_of_range_is_exit_1(self, estimated, key, value, capsys):
        path = estimated / "estimation.json"
        doc = read_json(path)
        doc[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._extract(estimated) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and repr(key) in err
        assert not (estimated / "final.siq").exists()

    @pytest.mark.parametrize("keys, value", [
        (("theta",), math.inf),             # passes the range check, then aborts
        (("log2_eps_theta",), -math.inf),   # certifies eps_f = 2^-t_e alone
        (("e_bx",), math.nan),
        (("params", "efficiency_ratio"), 10**400),  # too large for a float
    ], ids=["theta-inf", "log2_eps_theta-minus-inf", "e_bx-nan", "efficiency_ratio-10**400"])
    def test_estimate_not_finite_is_exit_1(self, estimated, keys, value, capsys):
        # JSON NaN and Infinity parse; a record holding one is malformed
        path = estimated / "estimation.json"
        doc = read_json(path)
        holder, key = _holder(doc, keys)
        holder[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._extract(estimated) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: key {key!r} must be a finite number, got {value!r}\n")
        assert not (estimated / "abort.json").exists()
        assert not (estimated / "final.siq").exists()

    def _read_back(self, estimated, passive_config, record) -> int:
        """Run the stage that reads ``record``: estimate for the tally,
        extract for the estimate."""
        if record == "tally.json":
            return main(["estimate", "--tally", str(estimated / record),
                         "--config", str(passive_config), "--out", str(estimated)])
        return self._extract(estimated)

    def test_record_with_a_wrong_type_is_exit_1(self, estimated, passive_config, capsys):
        path = estimated / "estimation.json"
        doc = read_json(path)
        doc["abort"] = "no"
        path.write_text(json.dumps(doc))
        assert self._extract(estimated) == 1
        assert "'abort' must be bool" in capsys.readouterr().err
        # an array, nested too deep to decode, where the object should be
        for record in ("tally.json", "estimation.json"):
            (estimated / record).write_text(DEEP_JSON)
            assert self._read_back(estimated, passive_config, record) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {estimated / record}: maximum recursion depth"), err

    def test_zbits_of_another_session_is_exit_1(self, estimated, capsys):
        from siqrng.fileio import write_bit_file

        write_bit_file(estimated / "zbits.siq", zero_bits(1000))
        assert self._extract(estimated) == 1
        assert "n_z=" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv_columns_and_override(self, honest_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(honest_config), "--out", str(out),
                     "--sweep", "loss_db=0,6,12"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ("loss_db,mean_photon_number,e_bx,theta,e_pz_bound,"
                            "n,n_x,n_z,K,rate_bits_per_s,eps_t,abort")
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["0.0", "6.0", "12.0"]

    def test_pipeline_runs_each_sweep_point_once(self, tmp_path, monkeypatch):
        # the config's own value, written as the integer 0, is one of 14 sweep
        # values: its session runs once, for the sweep row and the artifacts
        import siqrng.pipeline as pipeline

        doc = {**HONEST_DOC, "total_pulses": 200_000, "planned_x_count": 2000,
               "channel": {"loss_db": 0}}
        config = tmp_path / "own.json"
        config.write_text(json.dumps(doc))
        losses = []
        real_simulate = pipeline.simulate_clicks

        def counting_simulate(config, streams, positions, sink):
            losses.append(config.channel.loss_db)
            return real_simulate(config, streams, positions, sink)

        monkeypatch.setattr(pipeline, "simulate_clicks", counting_simulate)
        sweep = "loss_db=0,2.5,5,7.5,10,12.5,15,17.5,20,22.5,25,30,35,40"
        runs = {name: tmp_path / name for name in ("pipeline", "sweep", "alone")}
        assert main(["pipeline", "--config", str(config), "--out", str(runs["pipeline"]),
                     "--sweep", sweep]) == 0
        assert len(losses) == 14 and sorted(losses) == sorted(set(losses))

        # the bytes of the sweep and of the session, each run on its own
        assert main(["sweep", "--config", str(config), "--out", str(runs["sweep"]),
                     "--sweep", sweep]) == 0
        assert main(["pipeline", "--config", str(config), "--out", str(runs["alone"])]) == 0
        assert len(losses) == 14 + 14 + 1
        assert ((runs["pipeline"] / "sweep.csv").read_bytes()
                == (runs["sweep"] / "sweep.csv").read_bytes())
        written = sorted(p.name for p in runs["alone"].iterdir())
        assert "final.siq" in written and "curve_point.json" in written
        assert sorted(p.name for p in runs["pipeline"].iterdir()) == sorted(
            [*written, "sweep.csv"])
        for name in written:
            assert (runs["pipeline"] / name).read_bytes() == (runs["alone"] / name).read_bytes()

    def test_a_point_without_x_events_aborts_and_keeps_the_others(self, tmp_path):
        # no dark counts: at 40 dB the 2e5 pulses give a few Z clicks and no X
        doc = {**HONEST_DOC, "total_pulses": 200_000, "planned_x_count": 2000,
               "detector": {"efficiency": 0.45, "dark_count_per_gate": 0.0},
               "master_seed": 3}
        config = tmp_path / "dark.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out),
                     "--sweep", "loss_db=0,40"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["abort"] for row in rows] == ["0", "1"]
        assert rows[1]["n_x"] == "0" and float(rows[1]["rate_bits_per_s"]) == 0.0

        # the same session alone: pipeline and estimate abort, tally succeeds
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        config.write_text(json.dumps({**doc, "channel": {"loss_db": 40.0}}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        staged = tmp_path / "staged"
        assert main(["simulate", "--config", str(config), "--out", str(staged)]) == 0
        assert main(["tally", "--clicks", str(staged / "clicks.siqc"), "--out", str(staged)]) == 0
        assert read_json(staged / "tally.json")["n_x"] == 0
        assert main(["estimate", "--tally", str(staged / "tally.json"), "--config", str(config),
                     "--out", str(staged)]) == 2
        for record in (tmp_path / "run" / "abort.json", staged / "abort.json"):
            doc = json.loads(record.read_text(), parse_constant=reject)
            assert doc["abort"] is True and doc["tally"]["n_x"] == 0


class TestErrorHandling:
    def test_missing_config_is_exit_1(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"total_pulses": 100}))
        assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 1
        # a value of the wrong JSON type: the key is named, nothing is coerced
        for key, value, named in [
            ("total_pulses", None, "total_pulses"),
            ("total_pulses", 4e7, "total_pulses"),
            ("source", 5, "source"),
            ("sweep", 5, "sweep"),
            ("sweep", {"values": [1]}, "'key'"),
            ("sweep", {"key": "loss_db", "values": 5}, "values"),
            ("master_seed", 1.5, "master_seed"),
            ("detector", {"efficiency": "x"}, "efficiency"),
            # a sweep value out of range is named before any session runs
            ("sweep", {"key": "loss_db", "values": [0, -1]}, "sweep: values[1]: loss"),
            ("sweep", {"key": "mean_photon_number", "values": [-2]},
             "sweep: values[0]: mean photon number"),
        ]:
            capsys.readouterr()
            bad.write_text(json.dumps({**HONEST_DOC, key: value}))
            assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err, (key, value, err)
        # an array nested too deep to decode is reported like any malformed file
        bad.write_text(DEEP_JSON)
        assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: maximum recursion depth"), err

    @pytest.mark.parametrize("section, key, value, argv", [
        *(pytest.param(section, key, value, ["pipeline"], id=f"{section}-{key}-{value}")
          for section, key, value in [
              (None, "repetition_rate_hz", math.inf),
              (None, "eps_theta_exponent", math.nan),
              ("source", "mean_photon_number", math.nan),
              ("channel", "loss_db", math.nan),
              ("channel", "loss_db", -math.inf),
              ("detector", "efficiency", math.nan),
              ("sweep", "values[1]", math.nan),
          ]),
        # an override flag is a key of the config and passes the same check
        pytest.param("sweep", "values[0]", math.nan, ["pipeline", "--sweep", "loss_db=nan"],
                     id="flag-sweep-loss_db-nan"),
        pytest.param("sweep", "values[0]", math.inf,
                     ["pipeline", "--sweep", "mean_photon_number=inf"],
                     id="flag-sweep-mean_photon_number-inf"),
        pytest.param(None, "eps_theta_exponent", math.nan,
                     ["pipeline", "--eps-exponent", "nan"], id="flag-pipeline-eps-exponent-nan"),
        pytest.param(None, "eps_theta_exponent", math.nan,
                     ["estimate", "--tally", "tally.json", "--eps-exponent", "nan"],
                     id="flag-estimate-eps-exponent-nan"),
    ])
    def test_non_finite_number_is_exit_1(self, tmp_path, capsys, section, key, value, argv):
        # JSON NaN and Infinity parse, and NaN passes every range check
        doc = {**HONEST_DOC, "total_pulses": 200_000, "planned_x_count": 2000}
        if len(argv) == 1:  # no flag: the value is in the file
            if section == "sweep":
                doc["sweep"] = {"key": "loss_db", "values": [0.0, value]}
            elif section:
                doc[section] = {**doc.get(section, {}), key: value}
            else:
                doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([*argv, "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: {section or 'configuration'}: key {key!r} must be a finite "
            f"number, got {value!r}\n")

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(HONEST_DOC)
        doc["master_seed"] = 0
        doc["typo_field"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_usage_error_is_exit_1(self):
        assert main(["estimate"]) == 1

    @pytest.mark.parametrize("values, item", [("1,,2", ""), ("abc", "abc")])
    def test_sweep_value_not_a_number_is_exit_1(self, honest_config, tmp_path, capsys,
                                                values, item):
        assert main(["sweep", "--config", str(honest_config), "--out", str(tmp_path / "run"),
                     "--sweep", f"loss_db={values}"]) == 1
        assert capsys.readouterr().err == (
            f"error: --sweep 'loss_db={values}': could not convert string to float: {item!r}\n")

    def test_extraction_block_size_is_an_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**HONEST_DOC, "extraction_block_size": 1 << 20}))
        assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "extraction_block_size" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"SIQ1", b"SIQ1\x01\x00\x00"])
    def test_truncated_bit_file_is_exit_1(self, tmp_path, capsys, header):
        path = tmp_path / "short.siq"
        path.write_bytes(header)
        assert main(["test", "--bits", str(path), "--out", str(tmp_path)]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("count, payload, bad", [
        (2 * CHUNK + 5, 2 * CHUNK + 5, 2 * CHUNK + 4),  # in the last partial chunk
        (2 * CHUNK + 5, 2 * CHUNK + 5, CHUNK + 2),  # just past the span split
        (2 * CHUNK + 5, 2 * CHUNK + 4, None),  # a payload one byte short
        (2 * CHUNK + 5, 2 * CHUNK + 6, None),  # and one byte long
    ], ids=["reserved-bit-last-chunk", "reserved-bit-past-split", "short", "long"])
    def test_bad_click_file_is_exit_1(self, tmp_path, capsys, count, payload, bad):
        records = np.zeros(payload, dtype=np.uint8)
        if bad is not None:
            records[bad] = 0x08
        path = tmp_path / "clicks.siqc"
        path.write_bytes(b"SIQC" + bytes([1]) + count.to_bytes(8, "little") + records.tobytes())
        out = tmp_path / "out"
        assert main(["tally", "--clicks", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    def test_bad_seed_is_exit_1(self, tmp_path):
        assert main(["tally", "--clicks", str(tmp_path / "c.siqc"), "--out", str(tmp_path),
                     "--seed", "1" * 17]) == 1


def test_module_entry_point(honest_config, tmp_path):
    out = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "siqrng", "pipeline",
         "--config", str(honest_config), "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "final.siq").exists()


def test_cli_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: a fresh interpreter that imports the
    # CLI and runs a passive pipeline through the battery holds no scipy
    # module afterwards, also none imported lazily on the way
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**HONEST_DOC, "basis_choice": "passive"}))
    out = tmp_path / "run"
    code = (
        "import sys, siqrng.cli\n"
        "code = siqrng.cli.main(['pipeline', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(out)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert read_json(out / "randtest.json")["tests"]


def test_expansion_property_at_protocol_scale(tmp_path):
    # at N = 1e6 and low loss the certified output exceeds every consumed
    # input-seed bit except the reusable Toeplitz seed
    from siqrng.pipeline import run_protocol_session

    doc = dict(HONEST_DOC)
    doc["master_seed"] = 7
    doc["total_pulses"] = 10**6
    doc["planned_x_count"] = 2000
    result = run_protocol_session(config_from_dict(doc))
    assert not result.aborted
    ledger = result.seed_ledger
    assert ledger["output_bits"] > ledger["non_toeplitz_bits"]


def test_cli_import_loads_no_thread_pool():
    # the simulator's helper is a bare threading.Thread: importing
    # concurrent.futures would add about 6 ms to every cold start
    code = ("import sys, siqrng.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
