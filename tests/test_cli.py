"""End-to-end checks of the command-line front end."""

import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perturba
from perturba import (
    HyperfineConfig,
    PhysicalConstants,
    SweepSpec,
    SweepTable,
    cli,
    emit_csv,
    hyperfine,
    sweep,
)
from perturba.cli import CONFIG_ENV_VAR, build_parser, main, parse_config_text

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
        expected = oracles.run_sweep(
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

    def test_field_sweep_ignores_config_field(self, tmp_path):
        # the held value of a field sweep is a time; the config's b_field is
        # for time sweeps only and is not checked here
        config = tmp_path / "neg.cfg"
        config.write_text("b_field = -1\n")
        args = ["--mode", "field", "--fixed", "1.0", "--start", "1e-4", "--stop", "1e-2",
                "--samples", "4"]
        with_config, without = tmp_path / "with.csv", tmp_path / "without.csv"
        assert main(["--config", str(config)] + args + ["--out", str(with_config)]) == 0
        assert main(args + ["--out", str(without)]) == 0
        assert with_config.read_bytes() == without.read_bytes()

    def test_config_file_supplies_field(self, tmp_path):
        config = tmp_path / "constants.cfg"
        config.write_text("b_field = 2e-3\n")
        out = tmp_path / "sweep.csv"
        args = ["--config", str(config), "--mode", "time", "--start", "0",
                "--stop", "1e-8", "--samples", "16", "--out", str(out)]
        assert main(args) == 0
        expected = oracles.run_sweep(
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
        expected = oracles.run_sweep(
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
        expected = oracles.run_sweep(
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

    def test_constants_whose_hbar_underflows_exit_one(self, tmp_path, capsys):
        # both inputs are valid alone; hbar in eV s underflows to 0
        config = tmp_path / "constants.cfg"
        config.write_text("planck_h = 1e-320\nelementary_charge = 1e300\n")
        out = tmp_path / "sweep.csv"
        assert main(["--config", str(config)] + BASE_ARGS + ["--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "perturba: error: derived hbar_evs must be finite and > 0, got 0.0"
        ]

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main builds its parser once; a flag given to one call does not
        # reach the next
        out = tmp_path / "sweep.csv"
        assert main(BASE_ARGS + ["--threshold", "2.0", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("first_crossing_traditional = ")
        assert main(BASE_ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("value", ["-2e-6", "-.5E+3", "-1.", "-3E7"])
    def test_negative_value_in_scientific_notation_is_a_value(self, tmp_path, value):
        # argparse reads only -1 and -.5 as negative numbers; the separated
        # form of any other float must give the bytes of the joined one
        written = []
        for start in (["--start", value], [f"--start={value}"]):
            out = tmp_path / "sweep.csv"
            args = ["--mode", "time", "--fixed", "1e-3", *start, "--stop", "0", "--samples", "2"]
            assert main(args + ["--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert read_csv(tmp_path / "sweep.csv")[0, 0] == float(value)

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_negative_non_finite_value_is_a_value(self, tmp_path, capsys, value):
        # the separated form reaches the finiteness check as the joined one
        # does, instead of argparse's "expected one argument"
        errors = []
        for start in (["--start", value], [f"--start={value}"]):
            out = tmp_path / "sweep.csv"
            args = ["--mode", "time", "--fixed", "1e-3", *start, "--stop", "0", "--samples", "2"]
            assert main(args + ["--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1] == "perturba: error: start must be finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")] + BASE_ARGS) == 2

    def test_oversized_sweep_exits_one(self, monkeypatch, capsys):
        def out_of_memory(spec, constants):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(cli, "SweepTable", out_of_memory)
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1",
                "--samples", "1000000000000"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("perturba: error: ") and "7.28 TiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            # x**4 overflows a Python float in the crossing envelope
            ["--mode", "time", "--fixed", "1e82", "--start", "0", "--stop", "1e-9",
             "--samples", "3", "--threshold", "0.5"],
            # the improved gap is -inf, so p_improved would be nan
            ["--mode", "time", "--fixed", "1e81", "--start", "0", "--stop", "1e-9",
             "--samples", "3", "--threshold", "0.5"],
            # 4.5e9 rad/s for 1e300 s: every curve would be nan
            ["--mode", "field", "--fixed", "1e300", "--start", "0", "--stop", "1e-3",
             "--samples", "3"],
        ],
    )
    def test_overflowing_phase_exits_one(self, capsys, args):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("perturba: error: phases leave float64")

    def test_window_wider_than_float64_exits_one(self, capsys):
        # stop - start overflows to inf; the refusal comes with no warning
        args = ["--mode", "time", "--fixed", "1e-3", "--start=-1e308", "--stop", "1e308",
                "--samples", "3", "--threshold", "0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("perturba: error: phases leave float64")

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1e270",
              "--samples", "3", "--threshold", "0.5"],
             "phases leave float64 at |B| <= 0.001 T, |t| <= 1e+270 s"),
            # only the upper end's gap overflows: 2W t is 4.4e307
            (["--mode", "field", "--fixed", "1e260", "--start", "0", "--stop", "1e53",
              "--samples", "3"],
             "phases leave float64 at |B| <= 1e+53 T, |t| <= 1e+260 s"),
        ],
        ids=["time", "field"],
    )
    def test_phase_overflowing_before_the_division_by_hbar_exits_one(self, tmp_path, capsys,
                                                                      args, error):
        # with hbar = 9.9e37 eV s, (gap / hbar) t stays finite but the
        # curves' gap t overflows first, which left rows of nan and, with a
        # threshold, crossings of inf
        config = tmp_path / "constants.cfg"
        config.write_text("planck_h = 1e20\n")
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(config), *args, "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"perturba: error: {error}"]

    def test_csv_that_cannot_fit_exits_two(self, tmp_path, monkeypatch, capsys):
        # 100,000 rows need at least 2.4 MB; the directory has 1 MB free
        disk_usage = shutil.disk_usage
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: disk_usage(path)._replace(free=10**6))
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1e-5",
                "--samples", "100000", "--out", str(tmp_path / "sweep.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("perturba: i/o error: ") and "1000000 are free" in err
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    def test_unwritable_out_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main(BASE_ARGS + ["--out", str(out)]) == 2


class TestAliasingWarning:
    """A time grid whose step exceeds a quarter period of the fastest
    sin^2(rate t) gets one warning line on stderr, and nothing else changes."""

    def test_criterion_7_grid_warns(self, monkeypatch, capsys):
        # rate dt = 4.46e9 rad/s * 1e-5 s; the CSV is stubbed, and the lazy
        # 3M-row table evaluates no row without it
        monkeypatch.setattr(cli, "emit_csv", lambda table, destination: 0)
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "30",
                "--samples", "3000000"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("perturba: warning: ") and "4.46e+04 rad" in lines[0]
        assert "aliases" in lines[0]

    def test_warning_leaves_csv_and_report_unchanged(self, tmp_path, capsys):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3001)
        config = HyperfineConfig(b_field=1e-3)
        expected = tmp_path / "expected.csv"
        emit_csv(SweepTable(spec), expected)
        t_traditional, t_improved = oracles.first_crossings(oracles.run_sweep(spec, config), 0.5)
        out = tmp_path / "sweep.csv"
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "30",
                "--samples", "3001", "--threshold", "0.5", "--out", str(out)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert out.read_bytes() == expected.read_bytes()
        assert captured.out == (
            f"first_crossing_traditional = {t_traditional!r}\n"
            f"first_crossing_improved = {t_improved!r}\n"
        )
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("perturba: warning: ")

    def test_coarse_log_grid_warns(self, tmp_path, capsys):
        # 64 geometric samples over [1e-12, 1e-8] s: the last step, 1.36e-9 s,
        # advances the phase by 6.07 rad
        args = ["--mode", "time", "--fixed", "1e-3", "--start", "1e-12", "--stop", "1e-8",
                "--samples", "64", "--scale", "log", "--out", str(tmp_path / "sweep.csv")]
        assert main(args) == 0
        assert "by 6.07 rad > pi/2" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, start", [("linear", "0"), ("log", "5e-9")])
    def test_fine_grid_is_quiet(self, tmp_path, capsys, scale, start):
        # the widest steps, 1.6e-10 s and 1.1e-10 s, advance the phase by
        # 0.71 and 0.49 rad < pi/2
        out = tmp_path / "sweep.csv"
        args = ["--mode", "time", "--fixed", "1e-3", "--start", start, "--stop", "1e-8",
                "--samples", "64", "--scale", scale, "--out", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("mode, fixed, calls", [("time", "1e-3", 1), ("field", "1e-9", 2)])
    def test_rates_are_read_once_per_field(self, monkeypatch, tmp_path, mode, fixed, calls):
        # the table checks the gaps of every field it holds in one call of
        # the float64 rule, and keeps the fastest rate for the aliasing
        # phase; sweep calls the rule nowhere else (the curves and the
        # envelope evaluate their gaps inside hyperfine)
        evaluations = []

        def counting(constants, b_field, t_max=0.0):
            evaluations.append(np.array(b_field))
            return hyperfine._checked_gaps(constants, b_field, t_max)

        monkeypatch.setattr(sweep, "_checked_gaps", counting)
        args = ["--mode", mode, "--fixed", fixed, "--start", "1e-4", "--stop", "1e-2",
                "--samples", "8", "--out", str(tmp_path / "sweep.csv")]
        threshold = ["--threshold", "0.5"] if mode == "time" else []
        assert main([*args, *threshold]) == 0
        assert [x.shape for x in evaluations] == [(calls,)]


def powers_of_ten():
    return st.floats(-300.0, 300.0).map(lambda k: 10.0**k)


class TestExtremeSpecs:
    """Constants and specs anywhere in float64's range end in exit 0 with
    finite rows or in exit 1 with one error line: never in a traceback or a
    numpy warning."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_every_run_exits_zero_or_one(self, tmp_path, capsys, data):
        constants = data.draw(st.dictionaries(st.sampled_from(cli._CONSTANT_KEYS),
                                              powers_of_ten()))
        mode = data.draw(st.sampled_from(["time", "field"]))
        fixed = data.draw(st.one_of(st.just(0.0), powers_of_ten()))
        # a time window may reach below 0, a field range may not
        sign = data.draw(st.sampled_from((0.0, 1.0, -1.0) if mode == "time" else (0.0, 1.0)))
        start = sign * data.draw(powers_of_ten())
        stop = max(start + data.draw(powers_of_ten()), math.nextafter(start, math.inf))
        scale = data.draw(st.sampled_from(["linear", "log"])) if start > 0.0 else "linear"
        config, out = tmp_path / "constants.cfg", tmp_path / "sweep.csv"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in constants.items()))
        args = ["--config", str(config), "--mode", mode, f"--fixed={fixed!r}",
                f"--start={start!r}", f"--stop={stop!r}", "--samples", "3",
                "--scale", scale, "--out", str(out)]
        if mode == "time":
            args += ["--threshold", repr(data.draw(st.floats(1e-3, 1.2)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1)
        if code == 1:
            assert len(err) == 1 and err[0].startswith("perturba: error: ")
        else:
            assert np.isfinite(read_csv(out)).all()


class TestModuleEntryPoint:
    """``python -m perturba.cli`` runs ``main`` and exits with its code. It runs
    with ``-W error``, so a warning fails it as it would fail the pytest process."""

    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(perturba.__file__).parents[1]))
        env.pop(CONFIG_ENV_VAR, None)
        return subprocess.run([sys.executable, "-W", "error", "-m", "perturba.cli", *args],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_time_sweep_exits_zero(self):
        result = self.run("--mode", "time", "--fixed", "1e-3", "--start", "0",
                          "--stop", "1e-9", "--samples", "4")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 5
        assert result.stderr == ""

    def refused(self, *args):
        """stderr of a run that exits 1 with one error line and no traceback."""
        result = self.run(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("perturba: error: ")
        assert "Traceback" not in result.stderr
        return result.stderr

    def test_w_whose_cube_leaves_float64_exits_zero(self, tmp_path):
        # planck_h = 1e100 gives W = 2.2e127 eV, whose (4W)^3 overflowed a
        # Python float: the run ended in a traceback
        config, out = tmp_path / "constants.cfg", tmp_path / "sweep.csv"
        config.write_text("planck_h = 1e100\n")
        result = self.run("--config", str(config), "--mode", "time", "--fixed", "1e-3",
                          "--start", "0", "--stop", "1e-9", "--samples", "3", "--out", str(out))
        assert result.returncode == 0
        # 4.5e9 rad/s over 0.5 ns steps
        assert result.stderr.startswith("perturba: warning: one grid step advances")
        assert len(result.stderr.splitlines()) == 1
        assert read_csv(out).shape == (3, 6) and np.isfinite(read_csv(out)).all()

    def test_overflowing_phase_exits_one(self):
        self.refused("--mode", "time", "--fixed", "1e82", "--start", "0",
                     "--stop", "1e-9", "--samples", "3", "--threshold", "0.5")

    @pytest.mark.parametrize("threshold", [(), ("--threshold", "0.5")])
    def test_sample_count_beyond_an_index_exits_one(self, threshold):
        # 2**63 rows: len() of the table, or the bisection of its grid with
        # a threshold, raised OverflowError; the spec refuses the count first
        err = self.refused("--mode", "time", "--fixed", "1e-3", "--start", "0", "--stop", "1",
                           "--samples", "9223372036854775808", *threshold)
        assert err.startswith("perturba: error: samples must be an integer >= 2")
