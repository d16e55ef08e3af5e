"""End-to-end checks of the command-line front end."""

import numpy as np
import pytest

from perturba import HyperfineConfig, PhysicalConstants, SweepSpec, cli, run_sweep
from perturba.cli import CONFIG_ENV_VAR, main, parse_config_text

BASE_ARGS = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1e-8", "--samples", "64"]


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


class TestConfigParsing:
    def test_keys_and_comments(self):
        values = parse_config_text(
            """
            # constants override
            mu_e = 9.3e-24
            b_field 2e-3   # bare key/value also accepted
            """
        )
        assert values == {"mu_e": 9.3e-24, "b_field": 2e-3}

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config_text("planck = 6.6e-34")

    def test_bad_number(self):
        with pytest.raises(ValueError):
            parse_config_text("mu_e = lots")

    def test_three_tokens(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_text("mu_e = 9.3e-24 J/T")


class TestMain:
    def test_time_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(BASE_ARGS + ["--out", str(out)]) == 0
        data = read_csv(out)
        expected = run_sweep(
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-8, samples=64),
            HyperfineConfig(b_field=1e-3),
        )
        np.testing.assert_array_equal(data[:, 0], expected.x)
        np.testing.assert_array_equal(data[:, 1], expected.p_exact)

    def test_csv_to_stdout(self, capsys):
        assert main(BASE_ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("x,p_exact")
        assert len(lines) == 65

    def test_threshold_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "30",
             "--samples", "100000", "--threshold", "2.0", "--out", str(out)]
        )
        assert code == 0
        report = capsys.readouterr().out
        assert "first_crossing_traditional = inf" in report
        assert "first_crossing_improved = inf" in report

    def test_field_mode(self, tmp_path):
        out = tmp_path / "field.csv"
        code = main(
            ["--mode", "field", "--fixed", "1.0", "--start", "1e-4", "--stop", "1e-2",
             "--samples", "33", "--scale", "log", "--out", str(out)]
        )
        assert code == 0
        data = read_csv(out)
        assert data.shape == (33, 6)
        assert data[0, 0] == 1e-4 and data[-1, 0] == 1e-2

    def test_config_file_supplies_field(self, tmp_path):
        config = tmp_path / "constants.cfg"
        config.write_text("b_field = 2e-3\n")
        out = tmp_path / "sweep.csv"
        args = ["--config", str(config), "--mode", "time", "--start", "0",
                "--stop", "1e-8", "--samples", "16", "--out", str(out)]
        assert main(args) == 0
        expected = run_sweep(
            SweepSpec(mode="time", fixed_value=2e-3, start=0.0, stop=1e-8, samples=16),
            HyperfineConfig(b_field=2e-3),
        )
        np.testing.assert_array_equal(read_csv(out)[:, 1], expected.p_exact)

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "constants.cfg"
        config.write_text("b_field = 2e-3\n")
        out = tmp_path / "sweep.csv"
        args = ["--config", str(config)] + BASE_ARGS + ["--out", str(out)]
        assert main(args) == 0
        expected = run_sweep(
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-8, samples=64),
            HyperfineConfig(b_field=1e-3),
        )
        np.testing.assert_array_equal(read_csv(out)[:, 1], expected.p_exact)

    def test_constants_override_changes_output(self, tmp_path):
        config = tmp_path / "constants.cfg"
        config.write_text("delta_nu_h = 1.5e9\nb_field = 1e-3\n")
        out = tmp_path / "sweep.csv"
        args = ["--config", str(config), "--mode", "time", "--start", "0",
                "--stop", "1e-8", "--samples", "16", "--out", str(out)]
        assert main(args) == 0
        expected = run_sweep(
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-8, samples=16),
            HyperfineConfig(
                b_field=1e-3, constants=PhysicalConstants(delta_nu_h=1.5e9)
            ),
        )
        np.testing.assert_array_equal(read_csv(out)[:, 1], expected.p_exact)

    def test_config_via_environment(self, tmp_path, monkeypatch):
        config = tmp_path / "constants.cfg"
        config.write_text("b_field = 2e-3\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        out = tmp_path / "sweep.csv"
        args = ["--mode", "time", "--start", "0", "--stop", "1e-8",
                "--samples", "16", "--out", str(out)]
        assert main(args) == 0

    def test_missing_fixed_without_config(self, capsys):
        code = main(["--mode", "time", "--start", "0", "--stop", "1", "--samples", "8"])
        assert code == 1
        assert "b_field" in capsys.readouterr().err

    def test_field_mode_requires_fixed(self):
        assert main(["--mode", "field", "--start", "1e-4", "--stop", "1e-2", "--samples", "8"]) == 1

    def test_threshold_rejected_in_field_mode(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        args = ["--mode", "field", "--fixed", "1.0", "--start", "1e-4", "--stop", "1e-2",
                "--samples", "8", "--threshold", "0.5", "--out", str(out)]
        assert main(args) == 1
        assert not out.exists()
        assert "needs a time sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan"])
    def test_non_positive_threshold_exits_one(self, tmp_path, capsys, threshold):
        out = tmp_path / "sweep.csv"
        assert main(BASE_ARGS + ["--threshold", threshold, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("perturba: error: threshold must be positive")

    def test_invalid_flag_value_exits_one(self):
        assert main(BASE_ARGS + ["--scale", "cubic"]) == 1

    def test_invalid_spec_exits_one(self):
        assert main(["--mode", "time", "--fixed", "1e-3", "--start", "5", "--stop", "1",
                     "--samples", "8"]) == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        config = tmp_path / "constants.cfg"
        config.write_text("fine_structure = 0.007\n")
        assert main(["--config", str(config)] + BASE_ARGS) == 1

    @pytest.mark.parametrize(
        "line", ["mu_e = nan", "planck_h = 0", "delta_nu_h = -1e9", "elementary_charge = inf"]
    )
    def test_invalid_constant_exits_one(self, tmp_path, capsys, line):
        config = tmp_path / "constants.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "sweep.csv"
        assert main(["--config", str(config)] + BASE_ARGS + ["--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("perturba: error: ") and "must be finite and > 0" in err

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")] + BASE_ARGS) == 2

    def test_oversized_sweep_exits_one(self, monkeypatch, capsys):
        def out_of_memory(spec, config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(cli, "run_sweep", out_of_memory)
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1",
                "--samples", "1000000000000"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("perturba: error: ") and "7.28 TiB" in err
        assert "Traceback" not in err

    def test_unwritable_out_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main(BASE_ARGS + ["--out", str(out)]) == 2
