"""Self-tests of the benchmark: tiny runs of every workload, and checks
that corrupted program output is caught and fails the command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_workloads()

import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from perturba import cli, perturb  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_registry():
    return {
        w.name: w
        for w in (
            workloads.CliSweepCsv(rows=300),
            workloads.DivergenceLong(samples=20_000),
            workloads.EngineHyperfine(),
            workloads.EngineDense(n=5),
        )
    }


def run_tiny(name, trace, monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)]
    code = run.main(argv, registry=tiny_registry(), setup_repeats=1)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_reports_every_end_to_end_metric(name, monkeypatch, capsys):
    code, result, lines = run_tiny(name, 0, monkeypatch, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("digest sha256:") for line in lines)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_reports_every_layer_metric(name, monkeypatch, capsys):
    code, result, _ = run_tiny(name, 1, monkeypatch, capsys)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert 0.5 <= metrics["trace.accounted_ratio"] <= 1.0 + 1e-9
    assert metrics["bench.call.self_s"] > 0 and metrics["bench.check.s"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert (metrics["sweep.emit_csv.rows"] > 0) == (name == "cli_sweep_csv")
    assert (metrics["perturb.g_paths"] > 0) == name.startswith("engine")
    assert (metrics["hyperfine.build_problem.s"] > 0) == (name == "engine_hyperfine")


def test_layer_map_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in spans.LAYER_METRICS.items()
    }
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}


def test_inputs_depend_only_on_the_seed():
    for workload in tiny_registry().values():
        first, again, other = (workload.inputs(s, 0) for s in (3, 3, 4))
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)


def test_flipped_csv_digit_fails_the_run(monkeypatch, capsys):
    emit = cli.emit_csv

    def emit_with_flipped_digit(table, path):
        written = emit(table, path)
        text = Path(path).read_bytes()
        at = text.index(b"\n") + 5  # a mantissa digit of the first row's x
        flipped = b"1" if text[at : at + 1] != b"1" else b"2"
        Path(path).write_bytes(text[:at] + flipped + text[at + 1 :])
        return written

    monkeypatch.setattr(cli, "emit_csv", emit_with_flipped_digit)
    code, result, lines = run_tiny("cli_sweep_csv", 0, monkeypatch, capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("metric failed_ratio") and " 1 " in line for line in lines)


@pytest.mark.parametrize("name", ["engine_hyperfine", "engine_dense"])
def test_perturbed_energy_fails_the_run(name, monkeypatch, capsys):
    improved = perturb.improved_energies

    def perturbed(r, order=4):
        spectrum = improved(r, order)
        energies = spectrum.energies.copy()
        energies[0] += 1e-6 * np.max(np.abs(energies))
        return perturb.ImprovedSpectrum(spectrum.order, energies, spectrum.g_terms)

    monkeypatch.setattr(perturb, "improved_energies", perturbed)
    code, result, _ = run_tiny(name, 0, monkeypatch, capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "engine_hyperfine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_steadiness_spread_uses_quartiles():
    median, q1, q3, ratio = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert ratio == pytest.approx(1.0)
    assert steady.flags(0.2, 0.15) == "OVER BOUND, not within 0.1"
    assert steady.flags(0.09, 0.25) == "over 1/3 bound"
    assert steady.flags(0.01, 0.1) == "ok"


def test_setup_probes_are_spread_over_the_window():
    timer = run.SetupTimer("engine_hyperfine", 1, repeats=3)
    assert timer.due(0.0)
    timer.times = [0.1]
    assert not timer.due(0.3) and timer.due(0.34)
    timer.times = [0.1, 0.3, 0.2]
    assert not timer.due(1.0)
    assert timer.median() == 0.2


def test_unattributed_program_time_lowers_the_accounted_ratio():
    tracer = spans.Tracer()
    tracer.call_id, tracer.wall_ns = 1, 130
    tracer.spans = [
        ["bench.call", 0, 100, -1, 1],
        ["perturb.g2", 10, 60, 0, 1],
        ["bench.check", 100, 120, -1, 1],
    ]
    values = spans.layer_metrics(tracer, untraced_s=1e-7)
    assert values["bench.call.self_s"] == pytest.approx(50e-9)
    assert values["bench.check.s"] == pytest.approx(20e-9)
    assert values["perturb.g2.s"] == pytest.approx(50e-9)
    assert values["trace.accounted_ratio"] == pytest.approx(70 / 130)
