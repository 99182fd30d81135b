import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import dstc
from dstc import dimming, linalg
from dstc.channel import CHANNEL_MODELS
from dstc.cli import build_parser, main
from dstc.configio import _KEYS, MODES, ConfigError, load_config
from dstc.experiments import ALL_RECEIVERS, ExperimentConfig, SystemConfig, default_scenarios
from dstc.receivers import krf_detect, krf_detect_grid


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def write_cfg(path, text):
    path.write_text(dedent(text))
    return str(path)


SMALL_SIM = """\
[scenario]
k_t = 4
l_t = 2
k_r = 4
l_r = 2
n_states = 12
block_len = 25

[dimming]
p_m = 0.5
alpha = 0.4

[experiment]
mode = ber
snr_grid_db = 10 20
n_symbols_total = 250
base_seed = 77
receivers = ZF VLC-KRF
channel_model = gaussian
"""


class TestEta:
    def test_single_case(self, capsys):
        assert run_cli(["eta", "3", "2", "8", "10"]) == 0
        out = capsys.readouterr().out
        assert "eta_zf=0.4651" in out and "eta_krf=0.4938" in out

    def test_table_flag(self, capsys):
        assert run_cli(["eta", "--table2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        row = lines[1].split("|")
        assert row[1].strip() == "0.4651" and row[2].strip() == "0.4938"
        assert abs(float(row[3]) - 6.1) <= 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "3", "2", "8"],
            ["eta", "0", "2", "8", "10"],
            ["eta", "3", "2", "8", "10", "--table2"],
            ["eta", "three", "2", "8", "10"],
            # eta_krf = 10**400 overflows a float
            ["eta", str(10**400), str(10**400), "1", "1"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert run_cli(argv) == 1

    def test_missing_subcommand_exits_1(self):
        assert run_cli([]) == 1


class TestDesign:
    def test_feasible_design_writes_files(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "d.cfg",
            """\
            [scenario]
            k_t = 4
            l_t = 2
            k_r = 4
            l_r = 2
            n_states = 12
            block_len = 100

            [dimming]
            p_m = 0.5
            alpha = 0.4
            """,
        )
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "design_report.txt").read_text()
        assert "all checks: pass" in report
        code = np.loadtxt(tmp_path / "out" / "dimming_matrix.csv", delimiter=",")
        assert code.shape == (12, 8)
        assert set(np.round(code.ravel(), 12)) == {0.1, 0.9}

    def test_infeasible_alpha_exits_2_naming_constraint(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "bad.cfg",
            """\
            [scenario]
            k_t = 4
            l_t = 2
            k_r = 4
            l_r = 2
            n_states = 12
            block_len = 100

            [dimming]
            p_m = 0.5
            alpha = 0.6
            """,
        )
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "alpha <= min(P_m, 1 - P_m)" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert run_cli(["design", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_out_naming_a_file_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["design", "--config", DESIGN_ONLY, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err, err

    # SHA-256 of (design_report.txt, dimming_matrix.csv) for each bundled config;
    # the code's construction and its report must not move by one byte.
    PINNED_OUTPUTS = {
        "qled2x2": (
            "07610dbbae0e78c77326c16087f3c8bf58974239518fef762e851b4c6d5813db",
            "b3efb1472ff2276873ddb1c4937ff5b851f711681b1ecf8f6f7ba9bb7f9b2ce5",
        ),
        "alpha_qled2x2": (
            "07610dbbae0e78c77326c16087f3c8bf58974239518fef762e851b4c6d5813db",
            "b3efb1472ff2276873ddb1c4937ff5b851f711681b1ecf8f6f7ba9bb7f9b2ce5",
        ),
        "tled2x2_design": (
            "3e36f60ff80475d0927722f5f4b9b2309b72bbec264e1a57448c7d6d4a897e97",
            "0fbb171fe5fc3f423e5fe1cf9ecaa72c6c5a833a7ad1a8c10f32c797fd05de1e",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_bundled_outputs_are_pinned(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["design", "--config", f"configs/{name}.cfg", "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("design_report.txt", "dimming_matrix.csv")
        )
        assert digests == self.PINNED_OUTPUTS[name]


class TestSimulate:
    # SHA-256 of (curves CSV, summary.txt) of each bundled simulate config at
    # its own seed: every count, NMSE and cond must stay byte-identical
    PINNED_OUTPUTS = {
        "qled2x2": (
            "ber_nmse.csv",
            "fc9d597aa4c9d56df4d93c081d70d72de94c7daffe84ad1772d0536151cfd84e",
            "1207da23c85cc7284c1f0055c2d1077cc851cba59ddbe2970797d3998c526fa4",
        ),
        "alpha_qled2x2": (
            "alpha_sweep.csv",
            "9d38f06962dad8cec1e49c18e62abab7ddb4392ac3a8378f72c11bddf81331e0",
            "8f1b3e0441ad46797ce6ed241c6ba91c3c4e5687f0a6b118161f6508bd3b3d84",
        ),
        "wide30": (
            "ber_nmse.csv",
            "e49410c7fd8a9ee76fc0539f3b98f8199ca1ea25aa332bf6dc81a949afd7c1bc",
            "4c13521e316f4e4a0241f4798f4b456d42d25006a4d70a52d4e7f1ff2677691b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_bundled_outputs_are_pinned(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", f"configs/{name}.cfg", "--out", str(out)]) == 0
        csv_name, *pinned = self.PINNED_OUTPUTS[name]
        digests = [
            hashlib.sha256((out / f).read_bytes()).hexdigest() for f in (csv_name, "summary.txt")
        ]
        assert digests == pinned

    @staticmethod
    def run_qled2x2(tmp_path, channel_model, *flags, name="qled2x2", csv_name="ber_nmse.csv"):
        """SHA-256 of (``csv_name``, summary.txt) of configs/``name``.cfg on ``channel_model``."""
        text, key = Path(f"configs/{name}.cfg").read_text(), "channel_model = "
        assert text.count(key + "gaussian") == 1
        cfg = tmp_path / f"{channel_model}.cfg"
        cfg.write_text(text.replace(key + "gaussian", key + channel_model))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
        return [
            hashlib.sha256((out / f).read_bytes()).hexdigest() for f in (csv_name, "summary.txt")
        ]

    def test_diagonal_variant_is_pinned(self, tmp_path, capsys):
        # the bundled qled2x2 config on the diagonal channel, whose BER grid
        # leaves 10 of plain CSK's 700 blocks to the exact path at the config's
        # seed (drawing ZF's pilots with them, since ZF's draws come first)
        assert self.run_qled2x2(tmp_path, "diagonal") == [
            "0e1c542fcbdde37bc726a7a769a620293cc693e33f53775d2b8f0ff8c89b676b",
            "86ca01bfda98bd1c39bb2e69f0b4aea441ccc34548d996e17e9aebd433f3622e",
        ]

    # the bundled qled2x2 config at --seed 7, whose BER grid leaves other
    # blocks to the exact path than its own seed does: 11 of plain CSK's 700
    # on either channel model
    PINNED_SEED_7 = {
        "gaussian": [
            "52dbddb7433a6427c2008b4dcdaebcdd4de9f7f87db6f7e108992c1e103b1871",
            "80315b28e61608e7cb7e8eb7a4d0419d3b1b917c7abc0739150c54669787d092",
        ],
        "diagonal": [
            "56702dbd31133491610ef6951811bcb789846b8a37fad7c7811b150ccf3b24d6",
            "fc244d41d1b861fa6a36b083a9264952c8d3a5944b3501e4261fb85880ebc221",
        ],
    }

    @pytest.mark.parametrize("channel_model", sorted(PINNED_SEED_7))
    def test_qled2x2_at_seed_7_is_pinned(self, channel_model, tmp_path, capsys):
        pinned = self.PINNED_SEED_7[channel_model]
        assert self.run_qled2x2(tmp_path, channel_model, "--seed", "7") == pinned

    # the bundled alpha_qled2x2 config at --seed 7: five dimming depths at 20 dB
    PINNED_ALPHA_SEED_7 = {
        "gaussian": [
            "102c7a90457a417bab3d028f97222371aaafa16317f627075f20beed457fe0d0",
            "bacd0cec134d44e72f9319c2ba552f64a783994f52ae1f67534a5c8129f45ba9",
        ],
        "diagonal": [
            "52edd89957f83e86b63bd048c084d151436f358f9badeaefdce1739853245977",
            "80ad258705c7df55b3b0f0e9594c802420065463ec7502c548f291df60e8385f",
        ],
    }

    @pytest.mark.parametrize("channel_model", sorted(PINNED_ALPHA_SEED_7))
    def test_alpha_qled2x2_at_seed_7_is_pinned(self, channel_model, tmp_path, capsys):
        digests = self.run_qled2x2(
            tmp_path, channel_model, "--seed", "7", name="alpha_qled2x2",
            csv_name="alpha_sweep.csv",
        )
        assert digests == self.PINNED_ALPHA_SEED_7[channel_model]

    def test_small_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "ber_nmse.csv").read_text().splitlines()
        assert csv[0] == "x,receiver,ber,nmse,cond,n_bits,n_errors,n_trials,failures"
        assert len(csv) == 1 + 2 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"]["base_seed"] == 77
        for name in manifest["outputs"]:
            assert (out / name).is_file()
        assert (out / "summary.txt").read_text().startswith("[ber_nmse]")

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        out = tmp_path / "out"
        with monkeypatch.context() as m:  # the record starts no process
            m.setattr(subprocess, "Popen", None)
            assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": {
                "system": platform.system(),
                "release": platform.release(),
                "machine": platform.machine(),
            },
        }
        assert all(isinstance(v, str) and v for v in (
            environment["python"], environment["numpy"], *environment["platform"].values()))

    def test_18_led_row_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "w.cfg", WIDE18)
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        csv = (tmp_path / "o" / "ber_nmse.csv").read_text().splitlines()
        assert len(csv) == 1 + 3 and all(line.endswith(",2,0") for line in csv[1:])

    def test_output_taken_by_a_directory_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        taken = tmp_path / "out" / "ber_nmse.csv"
        taken.mkdir(parents=True)
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(taken) in err, err

    def test_unwritable_output_refused_before_any_sweep(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        taken = tmp_path / "out" / "summary.txt"
        taken.mkdir(parents=True)
        sweeps = []
        real_run_sweeps = dstc.cli.run_sweeps
        monkeypatch.setattr(
            "dstc.cli.run_sweeps", lambda *args: sweeps.append(args) or real_run_sweeps(*args)
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(taken) in err, err
        assert sweeps == []
        assert not (tmp_path / "out" / "ber_nmse.csv").exists()

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "ber_nmse.csv").read_bytes() == (b / "ber_nmse.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
        assert (a / "ber_nmse.csv").read_bytes() != (b / "ber_nmse.csv").read_bytes()

    def test_noiseless_flag_zeroes_ber(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out), "--noiseless"]) == 0
        rows = (out / "ber_nmse.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0" for row in rows)

    def test_alpha_mode_writes_alpha_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("mode = ber", "mode = alpha")
            + "alpha_grid = 0.2 0.4\nalpha_sweep_snr_db = 20\n",
        )
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "alpha_sweep.csv").read_text().splitlines()
        assert not (out / "ber_nmse.csv").exists()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.2", "0.2", "0.4", "0.4"]

    def test_both_mode_writes_both(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "sim.cfg", SMALL_SIM.replace("mode = ber", "mode = both")
        )
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ber_nmse.csv").is_file() and (out / "alpha_sweep.csv").is_file()

    def test_both_mode_checks_identifiability_once(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM.replace("mode = ber", "mode = both"))
        calls = []
        check = dstc.experiments.check_scenario_identifiability
        monkeypatch.setattr(
            "dstc.experiments.check_scenario_identifiability",
            lambda *args: calls.append(args) or check(*args),
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_unidentifiable_scenario_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("k_r = 4", "k_r = 1")
            .replace("l_r = 2", "l_r = 1")
            .replace("block_len = 25", "block_len = 2")
            .replace("n_symbols_total = 250", "n_symbols_total = 10"),
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "identifiability" in capsys.readouterr().err

    def test_infeasible_dimming_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM.replace("alpha = 0.4", "alpha = 0.7"))
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_infeasible_depth_of_a_later_sweep_exits_2_before_any_sweep(self, tmp_path, capsys):
        # mode = both runs the BER sweep first; its alpha grid's 0.6 exceeds p_m = 0.5
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("mode = ber", "mode = both") + "alpha_grid = 0.1 0.6\n",
        )
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha <= min(P_m, 1 - P_m)" in err, err
        assert list(out.glob("*.csv")) == []

    def test_design_only_config_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "d.cfg",
            """\
            [scenario]
            k_t = 4
            l_t = 2
            k_r = 4
            l_r = 2
            n_states = 12
            block_len = 100
            """,
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "[experiment]" in capsys.readouterr().err

    def test_all_trials_failing_exits_4(self, tmp_path, monkeypatch):
        def flagged(*args):
            result = krf_detect(*args)
            return dataclasses.replace(result, failed=np.ones_like(result.failed))

        def flagged_grid(*args):  # the BER grid's points are detected together
            result = krf_detect_grid(*args)
            return dataclasses.replace(result, failed=np.ones_like(result.failed))

        monkeypatch.setattr("dstc.experiments.krf_detect", flagged)
        monkeypatch.setattr("dstc.experiments.krf_detect_grid", flagged_grid)
        cfg = write_cfg(
            tmp_path / "sim.cfg", SMALL_SIM.replace("receivers = ZF VLC-KRF", "receivers = VLC-KRF")
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_powerless_block_exits_4_with_one_line(self, tmp_path, capsys):
        # the received power underflows, so no SNR can be set
        tiny = "p_m = 1e-293\nalpha = 1e-293"
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM.replace("p_m = 0.5\nalpha = 0.4", tiny))
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "power is zero" in err

    def test_underflowing_noise_variance_exits_4_with_one_line(self, tmp_path, capsys):
        # the received power is subnormal, so its 60 dB noise variance underflows
        text = SMALL_SIM.replace("p_m = 0.5\nalpha = 0.4", "p_m = 1e-160\nalpha = 1e-160")
        cfg = write_cfg(tmp_path / "sim.cfg", text.replace("snr_grid_db = 10 20", "snr_grid_db = 60"))
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise variance underflows at 60 dB" in err

    def test_underflow_at_a_later_point_exits_4_with_one_line(self, tmp_path, capsys):
        # 20 dB leaves a normal noise variance; 60 dB underflows
        text = SMALL_SIM.replace("p_m = 0.5\nalpha = 0.4", "p_m = 1e-152\nalpha = 1e-152")
        cfg = write_cfg(tmp_path / "sim.cfg", text.replace("snr_grid_db = 10 20", "snr_grid_db = 20 60"))
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise variance underflows at 60 dB" in err
        assert "Traceback" not in err
        assert not (out / "ber_nmse.csv").exists()

    @staticmethod
    def tiny_zf_probe(tmp_path, capsys, scale):
        """The rows of a noiseless ZF alpha sweep of the alpha config at ``p_m = alpha = scale``."""
        text = Path("configs/alpha_qled2x2.cfg").read_text()
        for old, new in [
            ("p_m = 0.5", f"p_m = {scale}"),
            ("alpha = 0.4", f"alpha = {scale}"),
            ("alpha_grid = 0.1 0.2 0.3 0.4 0.5", f"alpha_grid = {scale}"),
            ("n_symbols_total = 10000", "n_symbols_total = 500"),
            ("receivers = ZF VLC-KRF", "receivers = ZF"),
        ]:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        cfg, out = write_cfg(tmp_path / f"tiny-{scale}.cfg", text), tmp_path / f"o-{scale}"
        assert run_cli(["simulate", "--config", cfg, "--noiseless", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        return list(csv.DictReader((out / "alpha_sweep.csv").read_text().splitlines()))

    def test_noiseless_zf_on_subnormal_gram_matrices_makes_no_error(self, tmp_path, capsys):
        # at a 1e-160 swing ZF's Gram matrices are subnormal: their cond reads
        # well, but their inverse overflows, so they take the pseudoinverse
        rows = self.tiny_zf_probe(tmp_path, capsys, "1e-160")
        assert [(r["receiver"], r["n_bits"], r["n_errors"], r["failures"]) for r in rows] == [
            ("ZF", "1980", "0", "0")
        ]

    def test_cond_does_not_depend_on_the_code_scale(self, tmp_path, capsys):
        # the effective channel's cond is scale-free: from a 1e-160 swing down,
        # the code's own Gram matrix would be subnormal or zero, and read inf
        (reference,) = self.tiny_zf_probe(tmp_path, capsys, "1e-150")
        for scale in ("1e-160", "1e-165", "1e-200", "1e-307"):
            (row,) = self.tiny_zf_probe(tmp_path, capsys, scale)
            assert row["n_errors"] == "0"
            assert float(row["cond"]) == pytest.approx(float(reference["cond"]), rel=1e-12, abs=0)

    def test_failure_in_a_later_sweep_writes_no_csv(self, tmp_path, capsys):
        # mode = both: the BER sweep at 20 dB succeeds, the alpha sweep at 60 dB underflows
        text = (
            SMALL_SIM.replace("p_m = 0.5\nalpha = 0.4", "p_m = 1e-152\nalpha = 1e-152")
            .replace("mode = ber", "mode = both")
            .replace("snr_grid_db = 10 20", "snr_grid_db = 20")
        )
        text += "alpha_grid = 1e-152\nalpha_sweep_snr_db = 60\n"
        cfg = write_cfg(tmp_path / "sim.cfg", text)
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise variance underflows at 60 dB" in err
        assert list(out.glob("*.csv")) == []

    def test_repeated_receiver_exits_1_with_one_line(self, tmp_path, capsys):
        # a receiver listed twice would pool its trials twice into one curve
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("receivers = ZF VLC-KRF", "receivers = ZF ZF VLC-KRF"),
        )
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "receiver 'ZF' is listed twice" in err
        assert not (out / "ber_nmse.csv").exists()

    def test_plain_csk_on_short_channel_exits_1_with_one_line(self, tmp_path, capsys):
        # 6 photodiodes cannot zero-force 8 LEDs without a dimming code
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("k_r = 4", "k_r = 3").replace(
                "receivers = ZF VLC-KRF", "receivers = ZF VLC-KRF plain-CSK"
            ),
        )
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_rx >= n_tx, got 6 < 8" in err


# The paper's 30-LED Table 2 row: the simplex symbol block is not full column
# rank, so its k-rank is searched over 30 columns, as far as the verdict needs.
WIDE30 = """[scenario]
k_t = 3
l_t = 10
k_r = 3
l_r = 10
n_states = 32
block_len = 100

[experiment]
n_symbols_total = 200
receivers = ZF VLC-KRF plain-CSK
"""


# The 18-LED Table 2 row, whose symbol block is also wider than the k-rank guard.
WIDE18 = WIDE30.replace("l_t = 10", "l_t = 6").replace("l_r = 10", "l_r = 6").replace(
    "n_states = 32", "n_states = 20"
)


class TestSizeLimit:
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_wide_array_exits_5_with_one_line(self, command, tmp_path, capsys):
        # 12 photodiodes: the 12 x 30 channel factor is not full column rank,
        # and only the symbols are searched short of their k-rank
        text = WIDE30.replace("l_r = 10", "l_r = 4").replace("ZF VLC-KRF plain-CSK", "ZF VLC-KRF")
        cfg = write_cfg(tmp_path / "wide.cfg", text)
        argv = [command, "--config", cfg]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "too large" in captured.err
        assert "needs <= 14 columns, got 30" in captured.err
        assert not (tmp_path / "o" / "ber_nmse.csv").exists()


class TestManyStates:
    """65536 states: the code takes only its 8 Hadamard columns, never all 65536²."""

    CAP = 1 << 30  # bytes of address space for the child

    @classmethod
    def cap_address_space(cls):
        resource.setrlimit(resource.RLIMIT_AS, (cls.CAP, cls.CAP))

    @pytest.mark.parametrize("command", ["check", "design", "audit"])
    def test_runs_within_one_gib(self, command, tmp_path):
        cfg = write_cfg(tmp_path / "big.cfg", SMALL_SIM.replace("n_states = 12", "n_states = 65536"))
        argv = [command, "--config", cfg]
        if command == "design":
            argv += ["--out", str(tmp_path / "o")]
        src = str(Path(dstc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # one BLAS thread keeps the child's reserved buffers small under the cap
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "dstc.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=self.cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        if command == "design":
            assert "all checks: pass" in proc.stdout
            assert len((tmp_path / "o" / "dimming_matrix.csv").read_text().splitlines()) == 65536


class TestArrayBudget:
    """Inputs whose arrays exceed linalg.MAX_ARRAY_BYTES exit 5 before allocating them."""

    # (command, edits to SMALL_SIM, the array refused first)
    OVERSIZED = [
        pytest.param(
            command,
            (("k_t = 4", "k_t = 3"), ("k_r = 4", "k_r = 3"),
             ("n_states = 12", "n_states = 134217728")),
            what,
            id=f"{command}-2**27-states",
        )
        for command, what in (("check", "stacked reception"), ("design", "dimming code"))
    ] + [
        pytest.param(
            "check",
            (("block_len = 25", "block_len = 100000000"),
             ("n_symbols_total = 250", "n_symbols_total = 100000000")),
            "stacked reception",
            id="check-1e8-slots",
        ),
    ]

    @pytest.mark.parametrize("command,edits,what", OVERSIZED)
    def test_oversized_input_exits_5_within_one_gib(self, command, edits, what, tmp_path):
        text = SMALL_SIM
        for old, new in edits:
            text = text.replace(old, new)
        argv = [command, "--config", write_cfg(tmp_path / "big.cfg", text)]
        if command == "design":
            argv += ["--out", str(tmp_path / "o")]
        src = str(Path(dstc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "dstc.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=TestManyStates.cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("input too large: ") and what in proc.stderr

    def test_a_kept_code_is_refused_like_a_new_one(self, tmp_path, monkeypatch, capsys):
        # design keeps the code it builds, and the budget still refuses it on the next run
        monkeypatch.setattr(dimming, "_codes", {})
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM)
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert len(dimming._codes) == 1
        capsys.readouterr()
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 8 * 12 * 8 - 1)
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path / "b")]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "the 12 x 8 dimming code" in captured.err
        assert not any((tmp_path / "b").glob("*"))

    @pytest.mark.parametrize("command", ["check", "simulate", "design", "audit"])
    def test_every_command_exits_5_with_one_line(self, command, tmp_path, monkeypatch, capsys):
        # smaller than the 12 x 8 code, so every command refuses its first array
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 8 * 12 * 8 - 1)
        argv = [command, "--config", write_cfg(tmp_path / "c.cfg", SMALL_SIM)]
        if command in ("simulate", "design"):
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input too large: ")
        assert not any((tmp_path / "o").glob("*"))


class TestVanishingSwing:
    """A swing this small next to P_m leaves the 30-LED code short of full column rank."""

    @pytest.mark.parametrize("alpha", ["1e-9", "1e-300"])
    @pytest.mark.parametrize("command", ["design", "audit", "check", "simulate"])
    def test_exits_2_with_one_line(self, command, alpha, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "wide.cfg", WIDE30 + f"\n[dimming]\nalpha = {alpha}\n")
        argv = [command, "--config", cfg]
        if command in ("design", "simulate"):
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "full column rank" in captured.err


# Values `check` and `simulate` refuse: (edits to SMALL_SIM, exit code, message).
REJECTED = [
    pytest.param(
        (("alpha = 0.4", "alpha = nan"),), 2, "alpha <= min(P_m, 1 - P_m)", id="alpha-nan"
    ),
    pytest.param((("p_m = 0.5", "p_m = nan"),), 2, "0 < P_m < 1", id="p_m-nan"),
    # 1 / (alpha * sqrt(K)) would overflow in the code's inverse, noisy or noiseless
    *(
        pytest.param(
            (("p_m = 0.5\nalpha = 0.4", "p_m = 1e-310\nalpha = 1e-310"), *edits),
            2,
            "alpha > 0 and not subnormal",
            id=f"alpha-subnormal{name}",
        )
        for name, edits in [
            ("", ()),
            ("-noiseless-zf", (("ZF VLC-KRF", "ZF\nnoiseless = true"),)),
            ("-noiseless-krf", (("ZF VLC-KRF", "VLC-KRF\nnoiseless = true"),)),
        ]
    ),
    pytest.param(
        (("snr_grid_db = 10 20", "snr_grid_db = 10 1e308"),), 1, "noiseless = true", id="snr-huge"
    ),
    pytest.param(
        (("snr_grid_db = 10 20", "snr_grid_db = nan"),), 1, "noiseless = true", id="snr-nan"
    ),
    pytest.param(
        (("n_symbols_total = 250", "n_symbols_total = 0"),), 1, "at least one", id="no-block"
    ),
    pytest.param(
        (("k_r = 4", "k_r = 3"), ("channel_model = gaussian", "channel_model = diagonal")),
        1,
        "diagonal channel model needs n_rx >= n_tx",
        id="diagonal-short",
    ),
]


class TestRejectedValues:
    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("edits,code,message", REJECTED)
    def test_exits_with_one_line(self, command, edits, code, message, tmp_path, capsys):
        text = SMALL_SIM
        for old, new in edits:
            text = text.replace(old, new)
        argv = [command, "--config", write_cfg(tmp_path / "c.cfg", text)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


RECEIVER_SETS = [
    " ".join(c) for n in range(1, 4) for c in itertools.combinations(ALL_RECEIVERS, n)
]

# Values no config field may get through unchecked.
SPECIAL_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.5", "-100", str(10**30 + 1)]
GRID_KEYS = ("snr_grid_db", "alpha_grid")

# Small links: k_t without a default constellation (2), and state counts
# with and without a Hadamard matrix or enough states for the LEDs.
SMALL_GEOMETRIES = st.builds(
    SystemConfig,
    k_t=st.integers(2, 4),
    l_t=st.integers(1, 3),
    k_r=st.integers(1, 4),
    l_r=st.integers(1, 3),
    n_states=st.sampled_from([2, 4, 6, 8, 12, 16]),
    block_len=st.integers(2, 5),
)


def grids(lo, hi):
    """Sweep grids of up to four points that may be empty or repeat a point."""
    return st.lists(st.floats(lo, hi), max_size=3).flatmap(
        lambda points: st.lists(st.sampled_from(points), max_size=4) if points else st.just([])
    )


@given(
    scenario=st.one_of(
        st.sampled_from(sorted(default_scenarios().values(), key=repr)), SMALL_GEOMETRIES
    ),
    mode=st.sampled_from(MODES),
    p_m=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 0.5),
    snr_grid=grids(-20.0, 60.0),
    alpha_grid=grids(0.0, 0.5),
    corrupt=st.sampled_from([None, "p_m", "alpha", "n_symbols_total", *GRID_KEYS, "constellation"]),
    special=st.sampled_from(SPECIAL_VALUES),
    channel_model=st.sampled_from(CHANNEL_MODELS),
    receivers=st.sampled_from(RECEIVER_SETS),
)
# NaN is the one special value that a plain range test lets through
@example(
    scenario=default_scenarios()["qled2x2-k12"], mode="both", p_m=0.5, alpha=0.4,
    snr_grid=[10.0], alpha_grid=[0.2], corrupt="constellation", special="nan",
    channel_model="gaussian", receivers="ZF VLC-KRF",
)
@settings(
    max_examples=100, deadline=None, derandomize=True,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
def test_cli_contract_under_generated_input(
    scenario, mode, p_m, alpha, snr_grid, alpha_grid, corrupt, special, channel_model, receivers
):
    """Whatever the config says, every config command exits 0-5 with at most one stderr line.

    Each example takes a default or a small generated geometry, sweep grids
    that may be empty or repeat a point, and sets at most one field
    (``corrupt``) to a special value, a ``[constellation]`` level included;
    it runs one block per sweep point.  A warning would reach stderr as more
    lines, so each one counts as a line.
    """
    values = {
        "p_m": repr(p_m),
        "alpha": repr(alpha),
        "snr_grid_db": " ".join(map(repr, snr_grid)),
        "alpha_grid": " ".join(map(repr, alpha_grid)),
        "n_symbols_total": str(scenario.block_len),
    }
    if corrupt in GRID_KEYS:
        values[corrupt] += f" {special}"
    elif corrupt is not None:
        values[corrupt] = special
    geometry = "\n".join(
        f"{key} = {getattr(scenario, key)}"
        for key in ("k_t", "l_t", "k_r", "l_r", "n_states", "block_len")
    )
    text = (
        f"[scenario]\n{geometry}\n\n"
        f"[dimming]\np_m = {values['p_m']}\nalpha = {values['alpha']}\n\n"
        f"[experiment]\nmode = {mode}\nsnr_grid_db = {values['snr_grid_db']}\n"
        f"alpha_grid = {values['alpha_grid']}\n"
        f"n_symbols_total = {values['n_symbols_total']}\nreceivers = {receivers}\n"
        f"channel_model = {channel_model}\n"
    )
    if corrupt == "constellation":
        levels = [[str(float(i == j)) for j in range(scenario.k_t)] for i in range(4)]
        levels[0][0] = special
        text += "\n[constellation]\n" + "".join(
            f"point_{label} = {', '.join(row)}\n"
            for label, row in zip(("00", "01", "10", "11"), levels)
        )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "gen.cfg"
        cfg.write_text(text)
        for argv in (
            ["design", "--out", str(Path(tmp) / "d")],
            ["audit", "--rows", "100"],
            ["check"],
            ["simulate", "--out", str(Path(tmp) / "o")],
        ):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_cli(argv + ["--config", str(cfg)])
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert code in range(6), (argv, code, text)
            assert len(lines) <= 1, (argv, lines, text)
            assert "Traceback" not in err.getvalue()


# k_t = 5 has no default constellation, so check and simulate need a
# [constellation] section; design never draws symbols.
NO_DEFAULT_CONSTELLATION = """\
[scenario]
k_t = 5
l_t = 1
k_r = 5
l_r = 1
n_states = 8
block_len = 20

[experiment]
n_symbols_total = 40
"""

# The fourth point lies in the span of two others, which makes the symbol
# block's k-rank 1; the default constellation would give a unique model.
DEGENERATE_CONSTELLATION = """
[constellation]
point_00 = 1, 0, 0, 0
point_01 = 0, 1, 0, 0
point_10 = 0, 0, 1, 0
point_11 = 0.5, 0.5, 0, 0
"""


# A five-channel constellation and chromaticity table for the k_t = 5 config.
K5_SECTIONS = """
[constellation]
point_00 = 1, 0, 0, 0, 0
point_01 = 0, 1, 0, 0, 0
point_10 = 0, 0, 1, 0, 0
point_11 = 0, 0, 0, 0.6, 0.4

[chromaticity]
channel_0 = 0.70, 0.29
channel_1 = 0.30, 0.60
channel_2 = 0.15, 0.06
channel_3 = 0.40, 0.50
channel_4 = 0.33, 0.33
"""


class TestNoDefaultConstellation:
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_exits_1_with_one_line(self, command, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "k5.cfg", NO_DEFAULT_CONSTELLATION)
        argv = [command, "--config", cfg]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no default constellation for k_t = 5" in err

    def test_design_still_works(self, tmp_path):
        cfg = write_cfg(tmp_path / "k5.cfg", NO_DEFAULT_CONSTELLATION)
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_audit_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "k5.cfg", NO_DEFAULT_CONSTELLATION)
        assert run_cli(["audit", "--config", cfg, "--rows", "10"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no default" in err

    def test_audit_reads_constellation_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "k5.cfg", NO_DEFAULT_CONSTELLATION + K5_SECTIONS)
        assert run_cli(["check", "--config", cfg]) == 0
        capsys.readouterr()
        assert run_cli(["audit", "--config", cfg, "--rows", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("scenario: SystemConfig(k_t=5")


class TestCheck:
    def test_default_scenario_is_unique(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SMALL_SIM)
        assert run_cli(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "uniqueness: unique" in out and "k-rank(code)=8" in out
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("row", ["18", "30"])
    def test_wide_rows_print_a_bound_on_the_symbols(self, row, tmp_path, capsys):
        text = WIDE18 if row == "18" else Path("configs/wide30.cfg").read_text()
        assert run_cli(["check", "--config", write_cfg(tmp_path / "w.cfg", text)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"k-rank(channel)={row}", "k-rank(symbols)>=2", f"k-rank(code)={row}",
            f"columns={row}", f"k-rank sum {2 * int(row) + 2} >= {2 * int(row) + 2}: yes",
            "uniqueness: unique",
        ]

    def test_starved_scenario_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "sim.cfg",
            SMALL_SIM.replace("k_r = 4", "k_r = 1")
            .replace("l_r = 2", "l_r = 1")
            .replace("block_len = 25", "block_len = 2")
            .replace("n_symbols_total = 250", "n_symbols_total = 10"),
        )
        assert run_cli(["check", "--config", cfg]) == 3
        assert "NOT unique" in capsys.readouterr().out

    def test_constellation_section_agrees_with_simulate(self, tmp_path, capsys):
        text = Path("configs/qled2x2.cfg").read_text() + DEGENERATE_CONSTELLATION
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert run_cli(["check", "--config", cfg]) == 3
        assert "k-rank(symbols)=1" in capsys.readouterr().out
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "k_symbols=1" in capsys.readouterr().err


class TestSeedDomain:
    """A seed outside [0, 2**64) would run as its residue modulo 2**64; it is refused."""

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_seed_flag_exits_1_with_one_line(self, command, seed, tmp_path, capsys):
        argv = [command, "--config", write_cfg(tmp_path / "c.cfg", SMALL_SIM), "--seed", str(seed)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err and "outside [0, 2**64)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_base_seed_exits_1_with_one_line(self, seed, tmp_path, capsys):
        text = SMALL_SIM.replace("base_seed = 77", f"base_seed = {seed}")
        assert run_cli(["check", "--config", write_cfg(tmp_path / "c.cfg", text)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "base_seed" in err and "outside [0, 2**64)" in err

    def test_largest_seed_runs(self, tmp_path, capsys):
        argv = ["check", "--config", write_cfg(tmp_path / "c.cfg", SMALL_SIM)]
        assert run_cli(argv + ["--seed", str(2**64 - 1)]) == 0


DESIGN_ONLY = "configs/tled2x2_design.cfg"


class TestAudit:
    def test_prints_power_and_chromaticity(self, capsys):
        assert run_cli(["audit", "--config", DESIGN_ONLY, "--rows", "2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("scenario: SystemConfig(k_t=3")
        assert lines[1] == "average power target (p_m):   0.5"
        assert abs(float(lines[2].split()[-1]) - 0.5) < 1e-2
        assert lines[5].startswith("chromaticity shift:")

    def test_reads_chromaticity_section(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            Path(DESIGN_ONLY).read_text()
            + "\n[chromaticity]\nchannel_0 = 0.6, 0.3\nchannel_1 = 0.6, 0.3\nchannel_2 = 0.6, 0.3\n",
        )
        assert run_cli(["audit", "--config", cfg, "--rows", "100"]) == 0
        out = capsys.readouterr().out
        assert "chromaticity before dimming:  (0.600000, 0.300000)" in out

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert run_cli(["audit", "--config", str(tmp_path / "nosuch.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "[dimming]\np_m = 0.5\n")
        assert run_cli(["audit", "--config", cfg]) == 1
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["10x", "0", "-3"])
    def test_bad_rows_exit_1(self, rows, capsys):
        assert run_cli(["audit", "--config", DESIGN_ONLY, "--rows", rows]) == 1
        assert "positive integer" in capsys.readouterr().err

    def test_rows_past_a_million_run(self, capsys):
        assert run_cli(["audit", "--config", DESIGN_ONLY, "--rows", "1000001"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_rows_over_the_array_budget_exit_5_with_one_line(self, capsys):
        assert run_cli(["audit", "--config", DESIGN_ONLY, "--rows", str(10**15)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input too large: the audited bit draw")

    def test_dark_constellation_exits_1_with_one_line(self, tmp_path, capsys):
        points = "".join(f"point_{i:02b} = 0, 0, 0\n" for i in range(4))
        cfg = write_cfg(
            tmp_path / "c.cfg", Path(DESIGN_ONLY).read_text() + "\n[constellation]\n" + points
        )
        assert run_cli(["audit", "--config", cfg, "--rows", "100"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{cfg}: symbol block has zero mean")

    def test_infeasible_code_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg", Path(DESIGN_ONLY).read_text().replace("alpha = 0.4", "alpha = 0.6")
        )
        assert run_cli(["audit", "--config", cfg]) == 2
        assert "alpha <= min(P_m, 1 - P_m)" in capsys.readouterr().err

    @pytest.mark.parametrize("p_m", ["2", "nan", "1e308", "-1"])
    def test_constant_code_checks_p_m_as_design_does(self, p_m, tmp_path, capsys):
        # alpha = 0 audits a constant code, which build_dimming_matrix never sees
        text = SMALL_SIM.replace("p_m = 0.5\nalpha = 0.4", f"p_m = {p_m}\nalpha = 0")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert run_cli(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        design = capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["audit", "--config", cfg]) == 2
        audit = capsys.readouterr()
        assert audit.out == ""
        assert audit.err == design.err and audit.err.count("\n") == 1
        assert "0 < P_m < 1" in audit.err


class TestConfigParsing:
    def test_bundled_configs_load(self):
        for name in ("configs/qled2x2.cfg", "configs/alpha_qled2x2.cfg"):
            bundle = load_config(name)
            assert bundle.experiment is not None
            assert bundle.scenario.n_tx == 8
        design = load_config("configs/tled2x2_design.cfg")
        assert design.experiment is None and design.scenario.n_tx == 6

    def test_constellation_override(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SIM
            + dedent("""
            [constellation]
            point_00 = 1, 0, 0, 0
            point_01 = 0, 1, 0, 0
            point_10 = 0, 0, 1, 0
            point_11 = 0.25, 0.25, 0.25, 0.25
            """),
        )
        bundle = load_config(cfg)
        assert bundle.constellation is not None
        assert bundle.constellation.points[3][0] == 0.25

    def test_constellation_wrong_arity_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SIM
            + dedent("""
            [constellation]
            point_00 = 1, 0
            point_01 = 0, 1
            point_10 = 1, 1
            point_11 = 0, 0
            """),
        )
        with pytest.raises(ConfigError, match="expected 4 levels"):
            load_config(cfg)

    def test_chromaticity_section(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SIM
            + dedent("""
            [chromaticity]
            channel_0 = 0.70, 0.29
            channel_1 = 0.30, 0.60
            channel_2 = 0.15, 0.06
            channel_3 = 0.40, 0.50
            """),
        )
        table = load_config(cfg).chromaticity
        assert table is not None and len(table) == 4
        assert table.coords[0] == (0.70, 0.29)

    def test_dimming_columns_threaded(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SIM.replace("alpha = 0.4", "alpha = 0.4\ncolumns = 2 3 4 5 6 7 8 9"),
        )
        assert load_config(cfg).scenario.code_columns == (2, 3, 4, 5, 6, 7, 8, 9)

    def test_unknown_mode_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM.replace("mode = ber", "mode = fast"))
        with pytest.raises(ConfigError, match="mode"):
            load_config(cfg)

    def test_missing_scenario_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "[dimming]\np_m = 0.5\n")
        with pytest.raises(ConfigError, match="scenario"):
            load_config(cfg)

    @pytest.mark.parametrize("command", ["design", "audit", "check", "simulate"])
    def test_non_utf8_config_exits_1_with_one_line(self, command, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"[scenario]\nk_t = 4\xff\n")
        with pytest.raises(ConfigError, match="utf-8"):
            load_config(cfg)
        assert run_cli([command, "--config", str(cfg)]) == 1  # fails before any output
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err, err

    def test_unknown_key_rejected_with_hint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM.replace("alpha = 0.4", "alpah = 0.1"))
        with pytest.raises(ConfigError, match=r"unknown key 'alpah' in section \[dimming\]; "
                           r"did you mean 'alpha'\?"):
            load_config(cfg)
        assert run_cli(["check", "--config", cfg]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_unknown_section_rejected_with_hint(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM.replace("[dimming]", "[dimmming]"))
        with pytest.raises(ConfigError, match=r"unknown section \[dimmming\]; "
                           r"did you mean 'dimming'\?"):
            load_config(cfg)

    def test_chromaticity_channel_beyond_k_t_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SIM
            + dedent("""
            [chromaticity]
            channel_0 = 0.70, 0.29
            channel_1 = 0.30, 0.60
            channel_2 = 0.15, 0.06
            channel_3 = 0.40, 0.50
            channel_4 = 0.33, 0.33
            """),
        )
        with pytest.raises(ConfigError, match="unknown key 'channel_4'"):
            load_config(cfg)

    def test_bad_number_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM.replace("base_seed = 77", "base_seed = x"))
        with pytest.raises(ConfigError, match="base_seed"):
            load_config(cfg)

    def test_left_out_keys_take_the_dataclass_defaults(self, tmp_path):
        geometry = SMALL_SIM.split("\n\n")[0]
        bundle = load_config(write_cfg(tmp_path / "c.cfg", geometry + "\n\n[experiment]\n"))
        scenario = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=25)
        assert bundle.scenario == scenario
        assert bundle.experiment == ExperimentConfig(scenario=scenario)
        assert bundle.mode == MODES[0]

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("p_m = 0.5", "p_m = y", "[dimming] p_m: expected numbers, got 'y'"),
            ("k_t = 4", "k_t = x", "[scenario] k_t: expected integers, got 'x'"),
            ("k_t = 4\n", "", "missing key 'k_t' in section [scenario]"),
        ],
    )
    def test_error_names_its_section_once(self, old, new, message, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SIM.replace(old, new))
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == message

    def test_help_epilog_names_every_key(self):
        epilog = build_parser().epilog
        for section, keys in _KEYS.items():
            assert f"[{section}]" in epilog
            for key in keys or ("channel_0",):
                assert key in epilog, (section, key)


class TestConsoleScript:
    def test_installed_entry_point(self):
        # the child finds the package where this process imported it from
        src = str(Path(dstc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dstc.cli", "eta", "--table2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "0.4651" in proc.stdout
