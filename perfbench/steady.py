"""Steadiness check: run each workload repeatedly, each time with another
seed, and report every end-to-end metric's median and quartile spread
against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Run i uses seed i. The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is flagged when its spread
exceeds its bound, a third of its bound, or a tenth (0.1). Runs are made
one after another, each in its own process, for BENCHMARK.json's
run_seconds. The summary is also written to
.perfbench_out/steady-<workloads>.json. Exit status 1 when any run failed
or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def flags(ratio: float, bound: float) -> str:
    marks = []
    if ratio > bound:
        marks.append("OVER BOUND")
    elif ratio > bound / 3.0:
        marks.append("over 1/3 bound")
    if ratio > 0.1:
        marks.append("not within 0.1")
    return ", ".join(marks) or "ok"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, status = {}, 0
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            if not result.get("correct"):
                print(f"{workload} seed {seed}: run failed {result}", flush=True)
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, bound in bounds.items():
            if len(values[name]) < 2:
                continue
            median, q1, q3, ratio = spread(values[name])
            mark = flags(ratio, bound)
            status |= int("OVER BOUND" in mark)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": ratio,
                                       "bound": bound, "flags": mark, "values": values[name]}
            print(f"{workload:17s} {name:17s} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {ratio:6.3f} bound {bound:4.2f}  {mark}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{'+'.join(summary)}.json").write_text(json.dumps(summary, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
