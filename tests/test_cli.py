"""CLI contract tests: exit codes, artifact layout, reproducibility, and
the exact seed ledger."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import siqrng
from siqrng.cli import main
from siqrng.config import config_from_dict, load_config
from siqrng.fileio import read_bit_file, read_click_file, read_json

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
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["pipeline", "--config", str(honest_config), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("clicks.siqc", "zbits.siq", "final.siq", "tally.json",
                     "estimation.json", "security.json", "seed_ledger.json"):
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

    def test_sweep_plans_the_active_basis_once(self, honest_config, tmp_path, monkeypatch):
        import siqrng.pipeline as pipeline

        calls = []
        real_plan = pipeline.plan_basis_positions

        def counting_plan(*args, **kwargs):
            calls.append(args[:2])
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(pipeline, "plan_basis_positions", counting_plan)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(honest_config), "--out", str(out),
                     "--sweep", "loss_db=0,6"]) == 0
        assert calls == [(HONEST_DOC["total_pulses"], HONEST_DOC["planned_x_count"])]
        assert (out / "sweep.csv").exists()

        # a session that derives its own plan spends the same seed, bit for bit
        own = pipeline.run_protocol_session(load_config(honest_config))
        assert len(calls) == 2
        assert read_json(out / "seed_ledger.json") == own.seed_ledger
        assert read_bit_file(out / "final.siq") == own.final_bits

    def test_adversarial_source_aborts_with_exit_2(self, adversarial_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(adversarial_config), "--out", str(out)]) == 2
        record = read_json(out / "abort.json")
        assert record["abort"] is True
        assert record["estimation"]["e_bx"] > 0.4
        assert not (out / "final.siq").exists()


class TestStagedSubcommands:
    def test_simulate_tally_estimate_extract_test_chain(self, honest_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(honest_config), "--out", str(out)]) == 0
        clicks = read_click_file(out / "clicks.siqc")
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

    def test_estimate_abort_exit_code(self, adversarial_config, honest_config, tmp_path):
        out = tmp_path / "stages"
        assert main(["simulate", "--config", str(adversarial_config), "--out", str(out)]) == 0
        assert main(["tally", "--clicks", str(out / "clicks.siqc"), "--out", str(out)]) == 0
        code = main(["estimate", "--tally", str(out / "tally.json"),
                     "--config", str(adversarial_config), "--out", str(out)])
        assert code == 2
        assert read_json(out / "abort.json")["abort"] is True


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


class TestErrorHandling:
    def test_missing_config_is_exit_1(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_invalid_config_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"total_pulses": 100}))
        assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(HONEST_DOC)
        doc["master_seed"] = 0
        doc["typo_field"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_usage_error_is_exit_1(self):
        assert main(["estimate"]) == 1


def test_module_entry_point(honest_config, tmp_path):
    out = tmp_path / "proc"
    # the child finds the package where this process found it, also when
    # that is a pytest ``pythonpath`` entry rather than PYTHONPATH
    package_root = str(Path(siqrng.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "siqrng", "pipeline",
         "--config", str(honest_config), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "final.siq").exists()


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
