"""In-memory spans around perturba's public functions, and the per-layer
metrics computed from them.

``installed(tracer)`` replaces each layer-boundary function with a
wrapper, in every module namespace that calls it, and puts the originals
back on exit; the program's source is untouched. A span records its name,
start and end (perf_counter_ns), the index of its parent span and the
workload call it belongs to. Calls are single-threaded and nested, so a
span's children never overlap and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from perturba import cli, hermitian, hyperfine, perturb, sweep

#: the eigensolver must reproduce H and agree with eigvalsh to this, relative to ||H||
EIGEN_TOL = 1e-12


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, call id]
        self.totals = {}  # counter name -> total over traced calls
        self.eigen_samples = []  # (matrix, SpectralDecomposition) per eigendecompose call
        self.call_id = 0
        self.wall_ns = 0  # traced loop time, summed over traced workload calls
        self._stack = []

    def add(self, counter: str, value: float) -> None:
        self.totals[counter] = self.totals.get(counter, 0.0) + value

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\tcall\n")
            for name, start, end, parent, call in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\t{call}\n")


def _count_csv(tracer, args, written):
    tracer.add("sweep.emit_csv.rows", len(args[0]))
    tracer.add("sweep.emit_csv.bytes", written)


def _count_points(tracer, args, result):
    tracer.add("hyperfine.curves.points", np.size(result[0]))


def _count_paths(tracer, args, result):
    # coupling paths the G sums visit per level: g2 n-1, g3 (n-1)^2,
    # g4 (n-1)^3 for the path sum plus (n-1)^2 for its collapse term
    n = args[0].dim
    order = args[1] if len(args) > 1 else 4
    m = n - 1
    per_level = (m if order >= 2 else 0) + (m**2 if order >= 3 else 0)
    per_level += (m**3 + m**2) if order >= 4 else 0
    tracer.add("perturb.g_paths", n * per_level)


def _keep_eigen(tracer, args, result):
    tracer.eigen_samples.append((args[0], result))


# (owner, attribute, span name, counter): every namespace through which the
# benchmark or another layer reaches the function is patched
BOUNDARIES = (
    (cli, "main", "cli.main", None),
    (cli, "run_sweep", "sweep.run_sweep", None),
    (cli, "emit_csv", "sweep.emit_csv", _count_csv),
    (cli, "first_crossings", "sweep.first_crossings", None),
    (sweep, "run_sweep", "sweep.run_sweep", None),
    (sweep, "emit_csv", "sweep.emit_csv", _count_csv),
    (sweep, "first_crossings", "sweep.first_crossings", None),
    (sweep, "sweep_grid", "sweep.sweep_grid", None),
    (sweep, "divergence_report", "sweep.divergence_report", None),
    (sweep, "_normalized_triple", "hyperfine.curves", _count_points),
    (hyperfine, "build_problem", "hyperfine.build_problem", None),
    (perturb.PerturbationProblem, "__post_init__", "perturb.problem_init", None),
    (perturb, "redivide", "perturb.redivide", None),
    (perturb, "improved_energies", "perturb.improved_energies", _count_paths),
    (perturb, "g2", "perturb.g2", None),
    (perturb, "g3", "perturb.g3", None),
    (perturb, "g4", "perturb.g4", None),
    (perturb, "transition_probability_exact", "perturb.transition_exact", None),
    (perturb, "transition_probability_improved", "perturb.transition_improved", None),
    (perturb, "transition_probability_traditional", "perturb.transition_traditional", None),
    (hermitian, "require_hermitian", "hermitian.require_hermitian", None),
    (hermitian, "eigendecompose", "hermitian.eigendecompose", _keep_eigen),
)


def missing_boundaries() -> list[str]:
    """Boundaries the program no longer has; their metrics read 0."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in BOUNDARIES
        if not hasattr(owner, attr)
    ]


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, count in BOUNDARIES:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# per-layer metric -> (unit, the end-to-end metric it should move, where).
# Times and counts are per workload call (one CLI call, one divergence_report
# call or one problem).
_CLI = "throughput_per_s on cli_sweep_csv, slightly; not elsewhere"
_CSV = "throughput_per_s on cli_sweep_csv; zero elsewhere"
_SWEEP = "throughput_per_s, peak_rss_mb on divergence_long; minor on cli_sweep_csv"
_BUILD = "throughput_per_s on engine_hyperfine; absent from engine_dense"
_ENGINE = "throughput_per_s, latency_p90_ms on engine_dense; less on engine_hyperfine"
_SOLVER = "throughput_per_s on engine_hyperfine; smaller share on engine_dense"
LAYER_METRICS = {
    "cli.main.calls": ("count", _CLI),
    "cli.main.self_s": ("s", _CLI),
    "sweep.emit_csv.s": ("s", _CSV),
    "sweep.emit_csv.rows": ("count", _CSV),
    "sweep.emit_csv.bytes": ("B", _CSV),
    "sweep.emit_csv.bytes_per_s": ("B/s", _CSV),
    "sweep.run_sweep.s": ("s", _SWEEP),
    "sweep.run_sweep.self_s": ("s", _SWEEP),
    "sweep.sweep_grid.s": ("s", _SWEEP),
    "sweep.first_crossings.s": ("s", _SWEEP),
    "sweep.divergence_report.self_s": ("s", "throughput_per_s, peak_rss_mb on divergence_long"),
    "hyperfine.curves.s": ("s", "throughput_per_s on divergence_long"),
    "hyperfine.curves.points": ("count", "throughput_per_s on divergence_long"),
    "hyperfine.build_problem.s": ("s", _BUILD),
    "hyperfine.build_problem.self_s": ("s", _BUILD),
    "perturb.problem_init.s": ("s", _ENGINE),
    "perturb.redivide.s": ("s", _ENGINE),
    "perturb.improved_energies.s": ("s", _ENGINE),
    "perturb.improved_energies.self_s": ("s", _ENGINE),
    "perturb.g2.s": ("s", _ENGINE),
    "perturb.g3.s": ("s", _ENGINE),
    "perturb.g4.s": ("s", _ENGINE),
    "perturb.g_paths": ("count", "computed from n, not measured: the G sums' operation count"),
    "perturb.transition_exact.self_s": ("s", _ENGINE),
    "perturb.transition_improved.s": ("s", _ENGINE),
    "perturb.transition_traditional.s": ("s", _ENGINE),
    "hermitian.require_hermitian.s": ("s", _SOLVER),
    "hermitian.require_hermitian.calls": ("count", _SOLVER),
    "hermitian.eigendecompose.s": ("s", _SOLVER),
    "hermitian.eigendecompose.calls": ("count", _SOLVER),
    "hermitian.eigendecompose.residual_max": ("ratio", f"solver accuracy, must stay <= {EIGEN_TOL:g}"),
    "hermitian.eigendecompose.eigvalsh_diff_max": ("ratio", f"solver accuracy, must stay <= {EIGEN_TOL:g}"),
    "bench.check.s": ("s", "the benchmark's own correctness checks, per call"),
    "bench.call.self_s": ("s", "unattributed: program code outside every layer boundary, per call"),
    "bench.calls": ("count", "traced workload calls the per-call figures average over"),
    "trace.overhead_ratio": ("ratio", "traced call time over untraced call time, same inputs"),
    "trace.accounted_ratio": ("ratio", "layer self times plus bench.check.s over the traced loop time"),
}


def eigen_accuracy(samples) -> tuple[float, float]:
    """(max ||V^H H V - diag(w)||_F / ||H||_F, max |w - eigvalsh(H)| / ||H||_2)."""
    residual_max = diff_max = 0.0
    for matrix, decomposition in samples:
        h = np.asarray(matrix, dtype=np.complex128)
        w, v = decomposition.eigenvalues, decomposition.eigenvectors
        norm_f, norm_2 = np.linalg.norm(h), np.linalg.norm(h, 2)
        if norm_f == 0.0:
            continue
        residual = np.linalg.norm(v.conj().T @ h @ v - np.diag(w)) / norm_f
        diff = np.max(np.abs(w - np.linalg.eigvalsh(h))) / norm_2
        residual_max, diff_max = max(residual_max, residual), max(diff_max, diff)
    return float(residual_max), float(diff_max)


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Every LAYER_METRICS entry, from the spans and counters of a traced run."""
    spans = tracer.spans
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total_ns, self_ns, calls = {}, {}, {}
    for (name, start, end, _, _), children in zip(spans, covered):
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - children)
        calls[name] = calls.get(name, 0) + 1

    n_calls = max(tracer.call_id, 1)
    residual_max, diff_max = eigen_accuracy(tracer.eigen_samples)
    traced_call_s = total_ns.get("bench.call", 0) * 1e-9
    emit_s = total_ns.get("sweep.emit_csv", 0) * 1e-9

    values = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = total_ns.get(span, 0) * 1e-9 / n_calls
        elif kind == "self_s":
            values[metric] = self_ns.get(span, 0) * 1e-9 / n_calls
        elif kind == "calls":
            values[metric] = calls.get(span, 0) / n_calls
        else:
            values[metric] = tracer.totals.get(metric, 0.0) / n_calls
    values["sweep.emit_csv.bytes_per_s"] = (
        tracer.totals.get("sweep.emit_csv.bytes", 0.0) / emit_s if emit_s else 0.0
    )
    values["hermitian.eigendecompose.residual_max"] = residual_max
    values["hermitian.eigendecompose.eigvalsh_diff_max"] = diff_max
    values["bench.calls"] = float(tracer.call_id)
    values["trace.overhead_ratio"] = traced_call_s / untraced_s if untraced_s else 0.0
    # bench.call's self time is program code that no layer boundary covers,
    # so it lowers the ratio instead of counting as accounted for
    accounted_ns = total_ns.get("bench.check", 0) + sum(
        ns for name, ns in self_ns.items() if not name.startswith("bench.")
    )
    values["trace.accounted_ratio"] = accounted_ns / tracer.wall_ns if tracer.wall_ns else 0.0
    return values
