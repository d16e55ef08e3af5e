"""perturba benchmark: one workload, one closed-loop caller, one process.

Run from the repository root:

    python3 perfbench/run.py --workload engine_hyperfine --seed 1 --seconds 25 --trace 0

The caller sends its next call only after the previous one returned and
its output was checked. BLAS/OpenMP threads are pinned to 1. Every output
is checked against an independent reference (see workloads.py); a call
that raises or fails its check counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced calls on the same inputs and
reports the per-layer metrics from the spans (see spans.py), plus the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Each run
also writes its result, with the run environment, under .perfbench_out/.
Exit status: 0 when every check passed, 1 when any call failed, 2 when the
program under test cannot be found or set up (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("cli_sweep_csv", "divergence_long", "engine_hyperfine", "engine_dense")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: fresh processes timed for setup_s, spread over the run; the median is reported
SETUP_REPEATS = 9
#: untimed calls before measuring, so first-call costs stay out of the figures
WARMUP_CALLS = 1
PROBE_TIMEOUT_S = 60


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def benchmark_spec() -> dict:
    """BENCHMARK.json: the metric names each mode reports in its JSON line."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def import_workloads():
    """Import perturba from this checkout's src/ (never from elsewhere) and
    the workload definitions that use it."""
    package = SRC / "perturba"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no perturba package at {package}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import perturba

    if Path(perturba.__file__).resolve().parent != package.resolve():
        raise SetupError(f"perturba imported from {perturba.__file__}, not {package}")
    import workloads

    return workloads


def probe_setup(name: str, seed: int) -> float:
    """Seconds to import perturba and generate the workload's first input batch."""
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[name].inputs(seed, 0)
    return time.perf_counter() - start


class SetupTimer:
    """Times ``repeats`` setups, each in a fresh interpreter, spread evenly
    over the measuring window so that they meet the same machine conditions
    as the calls. ``median()`` is the reported setup_s."""

    def __init__(self, name: str, seed: int, repeats: int = SETUP_REPEATS):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                     "--workload", name, "--seed", str(seed)]
        self.repeats = repeats
        self.times = []

    def due(self, fraction: float) -> bool:
        """Whether the next probe is due when ``fraction`` of the window has passed."""
        return len(self.times) < self.repeats and len(self.times) <= fraction * self.repeats

    def probe(self) -> float:
        """Run one probe; return the wall seconds it took, interpreter start included."""
        env = dict(os.environ)
        pin_threads(env)
        start = time.perf_counter()
        probe = subprocess.run(self.argv, capture_output=True, text=True, env=env,
                               timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0:
            raise SetupError(f"setup probe failed: {probe.stderr.strip()}")
        self.times.append(float(probe.stdout.split()[-1]))
        return time.perf_counter() - start

    def median(self) -> float:
        while len(self.times) < self.repeats:
            self.probe()
        return statistics.median(self.times)


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    def l3_size():
        size = first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")
        return f"{int(size[:-1]) / 1024:g} MiB" if size[:-1].isdigit() and size[-1] == "K" else size

    def first_line(path, prefix=""):
        try:
            with open(path, encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "l3": l3_size(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Tally:
    """Attempts, failures, timed latencies and the output digest of one run."""

    def __init__(self, digest_calls: int, check_failed: type):
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.units = 0
        self.digest = hashlib.sha256()
        self.digest_calls = digest_calls
        self.digested = 0

    def attempt(self, workload, item, scratch, call, check):
        """Run one call and its check; return (seconds, digest bytes) or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(item, scratch)
            elapsed = time.perf_counter() - start
            digest = check(item, output)
        except Exception as exc:  # a failing call is counted, and the run goes on
            self.failed += 1
            print(f"perfbench: {workload.name} call {self.attempted} failed: {exc!r}",
                  file=sys.stderr)
            if not isinstance(exc, self.check_failed):
                traceback.print_exc(file=sys.stderr)
            return None
        return elapsed, digest

    def keep_digest(self, index, digest) -> None:
        if index < self.digest_calls:
            self.digest.update(digest)
            self.digested += 1


def run_untraced(workload, seed, seconds, scratch, tally, setup) -> None:
    """Calls until ``seconds`` of measuring have passed, taking the setup
    probes as they fall due; time spent in probes does not count."""
    deadline = None
    for index, item in enumerate(workload.stream(seed)):
        if index == WARMUP_CALLS:
            deadline = time.perf_counter() + seconds
        result = tally.attempt(workload, item, scratch, workload.call, workload.check)
        if result is not None:
            tally.keep_digest(index, result[1])
            if index >= WARMUP_CALLS:
                tally.latencies.append(result[0])
                tally.units += workload.units(item)
        if deadline is not None:
            if setup.due(1.0 - (deadline - time.perf_counter()) / seconds):
                deadline += setup.probe()
            if time.perf_counter() >= deadline:
                return


def run_traced(workload, seed, seconds, scratch, tally):
    """Each input is run untraced and traced, in alternating order, so the
    overhead ratio compares the same work. Returns (tracer, untraced seconds)."""
    import spans

    tracer = spans.Tracer()
    call = tracer.wrap("bench.call", workload.call)
    check = tracer.wrap("bench.check", workload.check)
    untraced_times = []

    def untraced(index, item):
        result = tally.attempt(workload, item, scratch, workload.call, workload.check)
        if result is not None:
            tally.keep_digest(index, result[1])
            if index >= WARMUP_CALLS:
                untraced_times.append(result[0])
        return result

    def traced(index, item):
        tracer.call_id += 1
        with spans.installed(tracer):
            start = time.perf_counter_ns()
            result = tally.attempt(workload, item, scratch, call, check)
            tracer.wall_ns += time.perf_counter_ns() - start
        return result

    deadline = None
    for index, item in enumerate(workload.stream(seed)):
        if index < WARMUP_CALLS:
            untraced(index, item)
            continue
        if index == WARMUP_CALLS:
            deadline = time.perf_counter() + seconds
        order = (untraced, traced) if index % 2 else (traced, untraced)
        outputs = [result[1] for result in (run(index, item) for run in order) if result]
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            tally.failed += 1
            print(f"perfbench: {workload.name} call {index}: traced output differs",
                  file=sys.stderr)
        if time.perf_counter() >= deadline:
            break

    residual_max, diff_max = spans.eigen_accuracy(tracer.eigen_samples)
    if max(residual_max, diff_max) > spans.EIGEN_TOL:
        tally.failed += 1
        print(f"perfbench: eigensolver accuracy {residual_max:.2e} / {diff_max:.2e} "
              f"exceeds {spans.EIGEN_TOL:g}", file=sys.stderr)
    return tracer, sum(untraced_times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, tally, setup) -> dict[str, tuple[float, str, str]]:
    lat = tally.latencies
    p50 = statistics.median(lat) if lat else 0.0
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else p50
    beyond = sum(1 for x in lat if x > p90)
    total = sum(lat)
    return {
        "setup_s": (setup.median(), "s", f"median of {len(setup.times)} fresh processes "
                    "spread over the run: import perturba + first input batch; "
                    + " ".join(f"{t:.4f}" for t in setup.times)),
        "throughput_per_s": (tally.units / total if total else 0.0, "1/s",
                             f"{workload.unit} per second of call time"),
        "latency_p50_ms": (p50 * 1e3, "ms", f"per {workload.call_label}, n={len(lat)}"),
        "latency_p90_ms": (p90 * 1e3, "ms", f"per {workload.call_label}, n={len(lat)}, "
                           f"{beyond} beyond p90"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "peak resident memory of this process"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, registry=None, setup_repeats=SETUP_REPEATS) -> int:
    args = parse_args(argv)
    pin_threads(os.environ)
    try:
        if args.probe_setup:
            print(f"{probe_setup(args.workload, args.seed):.9f}")
            return 0
        spec = benchmark_spec()
        workloads = import_workloads()
        setup = SetupTimer(args.workload, args.seed, setup_repeats)
        # setup_s is an end-to-end metric, so the traced run takes no probes;
        # the first probe runs here, so a checkout that cannot set up fails early
        if not args.trace:
            setup.probe()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    workload = (registry or workloads.WORKLOADS)[args.workload]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir()
    tally = Tally(workload.digest_calls, workloads.CheckFailed)
    try:
        if args.trace:
            tracer, untraced_s = run_traced(workload, args.seed, args.seconds, scratch, tally)
        else:
            run_untraced(workload, args.seed, args.seconds, scratch, tally, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + f" threads=1 ({','.join(THREAD_VARS)})")
    if args.trace:
        import spans

        values = spans.layer_metrics(tracer, untraced_s)
        for name, (unit, moves) in spans.LAYER_METRICS.items():
            print(f"layer {name:44s} {values[name]:<14.6g} {unit:6s} -> {moves}")
        missing = spans.missing_boundaries()
        if missing:
            print("layer boundaries not found (their metrics read 0): " + ", ".join(missing))
        tracer.write(OUT_DIR / f"{tag}-spans.tsv")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        e2e = end_to_end(workload, tally, setup)
        bounded = {m["name"] for m in spec["end_to_end"]}
        for name, (value, unit, note) in e2e.items():
            kind = "bounded" if name in bounded else "report only"
            print(f"metric {name:18s} {value:<14.6g} {unit:4s} [{kind}] {note}")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"metric {'failed_ratio':18s} {tally.failed / max(tally.attempted, 1):<14.6g} "
          f"ratio {tally.failed} of {tally.attempted} calls")
    print(f"digest sha256:{tally.digest.hexdigest()} over the first {tally.digested} "
          f"checked outputs")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env,
                   "digest": tally.digest.hexdigest()}, handle, indent=1)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
