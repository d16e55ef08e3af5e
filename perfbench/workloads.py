"""The benchmark's workloads: seeded inputs, the timed library call, and
independent correctness checks.

Each workload turns (seed, batch index) into a batch of inputs, so the
same seed always yields the same input stream however many calls a run
completes. ``call`` is the only timed part; ``check`` compares its output
with references computed here (closed forms, numpy eigensolvers, the
parsed CSV) and returns canonical bytes (or a hash of them) for the
output digest.

Importing this module imports numpy and perturba; ``run.py`` imports it
only after pinning BLAS/OpenMP threads and putting the checkout's
``src`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct

import numpy as np

from perturba import cli, hyperfine, perturb, sweep

CSV_HEADER = b"x,p_exact,p_improved,p_traditional,dev_improved,dev_traditional\n"

#: reference curves against the emitted CSV columns (phases stay below ~5e4 rad)
CURVE_ATOL = 1e-9
#: divergence crossings: reference deviations may differ from the library's by
#: float64 phase granularity (~1.5e-5 rad at t = 30 s), far below this
CROSSING_ATOL = 1e-3
#: engine_hyperfine: engine energies against the closed form, as a share of W
#: (the worst seen over 2000 seeded fields is 1.4e-16)
HYPERFINE_ENERGY_RTOL = 1e-14
#: transition probabilities against independent references (worst seen 5e-13)
PROBABILITY_ATOL = 1e-10
#: engine_dense: improved energies may differ from eigvalsh by the fifth-order
#: remainder, bounded by DENSE_FIFTH_ORDER_FACTOR * ||g1||_2^5 / gap^4 (the
#: worst seen is 0.0034 of ||g1||_2^5 / gap^4), plus a roundoff floor
DENSE_FIFTH_ORDER_FACTOR = 10.0
DENSE_ROUNDOFF_ULPS = 64.0


class CheckFailed(Exception):
    """A workload's output disagrees with its reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _log_uniform(rng, low: float, high: float, size=None):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high), size)


def _floats(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class _Constants:
    """Plain floats for the reference formulas, read once from the defaults
    the CLI and the engine use."""

    def __init__(self):
        c = hyperfine.PhysicalConstants()
        self.w = c.w_ev
        self.hbar = c.hbar_evs
        self.mu = c.mu_e_ev_per_tesla


def _rate_exact(k: _Constants, x):
    return np.sqrt(4.0 * k.w * k.w + x * x) / k.hbar


def _rate_improved(k: _Constants, x):
    w = k.w
    return (2.0 * w + x * x / (4.0 * w) - x**4 / (4.0 * w) ** 3) / k.hbar


def _rate_traditional(k: _Constants, x):
    return 2.0 * k.w / k.hbar


def _reference_exact(k: _Constants, x, t):
    return np.sin(_rate_exact(k, x) * t) ** 2 / (1.0 + x * x / (4.0 * k.w * k.w))


def _reference_curves(k: _Constants, x, t):
    """(exact, improved, traditional) normalized 2 -> 4 curves, written out
    from the paper's formulas independently of ``hyperfine``."""
    return (
        _reference_exact(k, x, t),
        np.sin(_rate_improved(k, x) * t) ** 2,
        np.sin(_rate_traditional(k, x) * t) ** 2,
    )


class Workload:
    """One workload. Subclasses set the class attributes and the four methods."""

    name = ""
    unit = ""  # what throughput counts: "rows" or "problems"
    call_label = ""  # what one timed call is, for the report
    batch = 1  # inputs generated per batch
    digest_calls = 1  # the first calls, warm-up included, whose outputs enter the digest

    def inputs(self, seed: int, batch_index: int) -> list:
        raise NotImplementedError

    def call(self, item, scratch: str):
        raise NotImplementedError

    def check(self, item, output) -> bytes:
        raise NotImplementedError

    def units(self, item) -> int:
        return 1

    def stream(self, seed: int):
        batch_index = 0
        while True:
            yield from self.inputs(seed, batch_index)
            batch_index += 1


class CliSweepCsv(Workload):
    """In-process ``perturba`` CLI calls that each write one CSV table.

    Even calls sweep time linearly at a seeded field, with --threshold 0.5;
    odd calls sweep the field on a log scale at a seeded time.
    """

    name = "cli_sweep_csv"
    unit = "rows"
    call_label = "CLI call"
    batch = 8
    digest_calls = 4
    CHUNK_ROWS = 1_000

    def __init__(self, rows: int = 50_000):
        self.rows = rows
        self.k = None

    def inputs(self, seed, batch_index):
        rng = np.random.default_rng([seed, batch_index])
        items = []
        for j in range(self.batch):
            if (batch_index * self.batch + j) % 2 == 0:
                b_field = float(_log_uniform(rng, 1e-4, 1e-2))
                stop = float(_log_uniform(rng, 1e-7, 1e-5))
                items.append(
                    {"mode": "time", "fixed": b_field, "start": 0.0, "stop": stop,
                     "scale": "linear", "threshold": 0.5}
                )
            else:
                t = float(_log_uniform(rng, 1e-7, 1e-6))
                lo, hi = np.sort(rng.uniform(-4.0, -2.0, 2))
                hi = max(hi, lo + 0.1)
                items.append(
                    {"mode": "field", "fixed": t, "start": float(10.0**lo),
                     "stop": float(10.0**hi), "scale": "log", "threshold": None}
                )
        for item in items:
            argv = ["--mode", item["mode"], "--fixed", repr(item["fixed"]),
                    "--start", repr(item["start"]), "--stop", repr(item["stop"]),
                    "--samples", str(self.rows), "--scale", item["scale"]]
            if item["threshold"] is not None:
                argv += ["--threshold", repr(item["threshold"])]
            item["argv"] = argv
        return items

    def units(self, item):
        return self.rows

    def call(self, item, scratch):
        path = os.path.join(scratch, "sweep.csv")
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(item["argv"] + ["--out", path])
        return code, path, report.getvalue()

    def check(self, item, output):
        code, path, report = output
        require(code == 0, f"perturba exited with {code}")
        if self.k is None:
            self.k = _Constants()
        space = np.linspace if item["scale"] == "linear" else np.geomspace
        grid = space(item["start"], item["stop"], self.rows)
        threshold = item["threshold"]
        crossings = {"dev_traditional": None, "dev_improved": None}
        # parsed CHUNK_ROWS rows at a time, so the check's own memory stays
        # below the call's and peak_rss_mb measures the call
        with open(path, encoding="ascii", newline="") as handle:
            require(handle.readline().encode() == CSV_HEADER, "CSV header differs")
            for row in range(0, self.rows, self.CHUNK_ROWS):
                end = min(row + self.CHUNK_ROWS, self.rows)
                table = np.loadtxt(handle, delimiter=",", max_rows=end - row, ndmin=2)
                require(table.shape == (end - row, 6), f"CSV rows {row}.. have shape {table.shape}")
                x, p_exact, p_improved, p_traditional, dev_improved, dev_traditional = table.T
                require(np.array_equal(x, grid[row:end]), "x column is not bit-equal to the grid")
                require(np.array_equal(dev_improved, np.abs(p_improved - p_exact)),
                        "dev_improved != |p_improved - p_exact|")
                require(np.array_equal(dev_traditional, np.abs(p_traditional - p_exact)),
                        "dev_traditional != |p_traditional - p_exact|")
                if item["mode"] == "time":
                    refs = _reference_curves(self.k, self.k.mu * item["fixed"], x)
                else:
                    refs = _reference_curves(self.k, self.k.mu * x, item["fixed"])
                for column, ref in zip((p_exact, p_improved, p_traditional), refs):
                    require(np.max(np.abs(column - ref)) <= CURVE_ATOL,
                            "a probability column strays from the reference curve")
                if threshold is not None:
                    for key, dev in (("dev_traditional", dev_traditional),
                                     ("dev_improved", dev_improved)):
                        hits = np.nonzero(dev > threshold)[0]
                        if crossings[key] is None and hits.size:
                            crossings[key] = repr(float(x[hits[0]]))
            require(handle.readline() == "", f"CSV has more than {self.rows} rows")
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            while block := handle.read(1 << 16):
                digest.update(block)

        if threshold is None:
            require(report == "", f"unexpected CLI output {report!r}")
        else:
            expected = (
                f"first_crossing_traditional = {crossings['dev_traditional'] or 'inf'}\n"
                f"first_crossing_improved = {crossings['dev_improved'] or 'inf'}\n"
            )
            require(report == expected, f"crossings {report!r} != {expected!r}")
        return digest.digest() + report.encode()


class DivergenceLong(Workload):
    """``sweep.divergence_report`` on criterion 7's grid: 3M samples over [0, 30] s."""

    name = "divergence_long"
    unit = "rows"
    call_label = "divergence_report call"
    batch = 8
    digest_calls = 4
    stop = 30.0
    chunk = 250_000

    def __init__(self, samples: int = 3_000_000):
        self.samples = samples
        self.k = None

    def inputs(self, seed, batch_index):
        rng = np.random.default_rng([seed, batch_index])
        fields = _log_uniform(rng, 1e-4, 1e-2, self.batch)
        thresholds = rng.uniform(0.3, 0.7, self.batch)
        return [{"b_field": float(b), "threshold": float(th)}
                for b, th in zip(fields, thresholds)]

    def units(self, item):
        return self.samples

    def call(self, item, scratch):
        spec = sweep.SweepSpec(mode="time", fixed_value=item["b_field"], start=0.0,
                               stop=self.stop, samples=self.samples)
        config = hyperfine.HyperfineConfig(b_field=item["b_field"])
        return sweep.divergence_report(spec, config, item["threshold"])

    def check(self, item, output):
        t_traditional, t_improved = output
        if self.k is None:
            self.k = _Constants()
        grid = np.linspace(0.0, self.stop, self.samples)
        x = self.k.mu * item["b_field"]
        threshold = item["threshold"]
        for rate, reported in ((_rate_traditional, t_traditional), (_rate_improved, t_improved)):
            if math.isinf(reported):
                index, end = self.samples, self.samples
            else:
                index = int(np.searchsorted(grid, reported))
                require(index < self.samples and grid[index] == reported,
                        f"crossing {reported!r} is not a grid point")
                end = index + 1
            # chunked, so the check adds little to the call's own peak memory
            for lo in range(0, end, self.chunk):
                hi = min(lo + self.chunk, end)
                t = grid[lo:hi]
                dev = np.abs(np.sin(rate(self.k, x) * t) ** 2 - _reference_exact(self.k, x, t))
                if hi == index + 1:
                    require(dev[-1] > threshold - CROSSING_ATOL,
                            f"reference does not cross at the reported {reported!r}")
                    dev = dev[:-1]
                require(np.all(dev <= threshold + CROSSING_ATOL),
                        f"reference crosses before the reported {reported!r}")
        return _floats(t_traditional, t_improved)


class EngineHyperfine(Workload):
    """The 4x4 worked example at a seeded field, through the whole engine."""

    name = "engine_hyperfine"
    unit = "problems"
    call_label = "problem"
    batch = 256
    digest_calls = 200
    gamma, beta = 3, 1  # the 2 -> 4 transition

    def inputs(self, seed, batch_index):
        rng = np.random.default_rng([seed, batch_index])
        # B mu_e < 0.1 W below ~2.5e-3 T: the range spans both regimes
        fields = _log_uniform(rng, 1e-4, 3e-2, self.batch)
        times = rng.uniform(0.0, 1e-6, self.batch)
        return [{"b_field": float(b), "t": float(t)} for b, t in zip(fields, times)]

    def call(self, item, scratch):
        config = hyperfine.HyperfineConfig(b_field=item["b_field"])
        problem = hyperfine.build_problem(config)
        redivided = perturb.redivide(problem)
        spectrum = perturb.improved_energies(redivided, order=4)
        hbar = config.constants.hbar_evs
        args = (self.gamma, self.beta, item["t"], hbar)
        exact = perturb.transition_probability_exact(problem, *args)
        improved = perturb.transition_probability_improved(redivided, spectrum, *args)
        traditional = perturb.transition_probability_traditional(redivided, *args)
        return spectrum.energies, exact.probability, improved.probability, traditional.probability

    def check(self, item, output):
        energies, p_exact, p_improved, p_traditional = output
        config = hyperfine.HyperfineConfig(b_field=item["b_field"])
        w = config.constants.w_ev
        hbar = config.constants.hbar_evs
        x = config.coupling_ev
        t = item["t"]

        closed = hyperfine.improved_energies_closed_form(config)
        require(np.max(np.abs(energies - closed)) <= HYPERFINE_ENERGY_RTOL * w,
                "improved energies differ from the closed form")

        e, v = hyperfine.exact_eigensystem_closed_form(config)
        z = np.sum(v[self.gamma, :] * v[self.beta, :] * np.exp(-1j * e * (t / hbar)))
        require(abs(p_exact - abs(z) ** 2) <= PROBABILITY_ATOL,
                "exact probability differs from the closed-form eigensystem")

        # phase from improved (or plain) gaps, amplitude from the plain gap -4W
        envelope = x * x / (2.0 * w) ** 2
        omega_tilde = closed[self.gamma] - closed[self.beta]
        ref_improved = envelope * math.sin(omega_tilde * t / (2.0 * hbar)) ** 2
        ref_traditional = envelope * math.sin(-4.0 * w * t / (2.0 * hbar)) ** 2
        require(abs(p_improved - ref_improved) <= PROBABILITY_ATOL,
                "improved probability differs from the closed form")
        require(abs(p_traditional - ref_traditional) <= PROBABILITY_ATOL,
                "traditional probability differs from the closed form")
        return energies.tobytes() + _floats(p_exact, p_improved, p_traditional)


class EngineDense(Workload):
    """Seeded random complex Hermitian problems with well separated levels.

    Levels sit near 0, 1, ..., n - 1 (gaps >= 0.5); the off-diagonal
    coupling has ||g1||_2 = COUPLING * smallest gap. Time is in units with
    hbar = 1.
    """

    name = "engine_dense"
    unit = "problems"
    call_label = "problem"
    batch = 16
    digest_calls = 16
    coupling = 1e-2
    hbar = 1.0

    def __init__(self, n: int = 12):
        self.n = n
        self.pairs = ((n - 1, 0), (1, 0))

    def inputs(self, seed, batch_index):
        rng = np.random.default_rng([seed, batch_index])
        n = self.n
        items = []
        for _ in range(self.batch):
            e0 = np.arange(n) + rng.uniform(-0.25, 0.25, n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h1 = (a + a.conj().T) / 2.0
            off = h1 - np.diag(np.diag(h1))
            h1 *= self.coupling * np.min(np.diff(e0)) / np.linalg.norm(off, 2)
            items.append({"e0": e0, "h1": h1, "t": float(rng.uniform(0.0, 10.0))})
        return items

    def call(self, item, scratch):
        problem = perturb.PerturbationProblem(e0=item["e0"], h1=item["h1"])
        redivided = perturb.redivide(problem)
        spectrum = perturb.improved_energies(redivided, order=4)
        probabilities = []
        for gamma, beta in self.pairs:
            args = (gamma, beta, item["t"], self.hbar)
            probabilities += [
                perturb.transition_probability_exact(problem, *args).probability,
                perturb.transition_probability_improved(redivided, spectrum, *args).probability,
                perturb.transition_probability_traditional(redivided, *args).probability,
            ]
        return spectrum.energies, probabilities

    def check(self, item, output):
        energies, probabilities = output
        e0, h1, t = item["e0"], item["h1"], item["t"]
        h = np.diag(e0) + h1
        d = e0 + np.diag(h1).real
        g1 = h1 - np.diag(np.diag(h1))
        gap = np.min(np.diff(np.sort(d)))

        reference, vectors = np.linalg.eigh(h)
        norm_h = np.max(np.abs(reference))
        bound = (DENSE_FIFTH_ORDER_FACTOR * np.linalg.norm(g1, 2) ** 5 / gap**4
                 + DENSE_ROUNDOFF_ULPS * self.n * np.finfo(float).eps * norm_h)
        error = np.max(np.abs(np.sort(energies) - reference))
        require(error <= bound, f"improved energies miss eigvalsh by {error:.3e} > {bound:.3e}")

        phases = np.exp(-1j * reference * (t / self.hbar))
        for k, (gamma, beta) in enumerate(self.pairs):
            p_exact, p_improved, p_traditional = probabilities[3 * k : 3 * k + 3]
            z = np.sum(vectors[gamma, :] * np.conj(vectors[beta, :]) * phases)
            require(abs(p_exact - abs(z) ** 2) <= PROBABILITY_ATOL,
                    f"exact probability {gamma}<-{beta} differs from eigh")
            omega = d[gamma] - d[beta]
            envelope = abs(g1[gamma, beta]) ** 2 / (omega / 2.0) ** 2
            omega_tilde = energies[gamma] - energies[beta]
            for got, phase_gap in ((p_improved, omega_tilde), (p_traditional, omega)):
                ref = envelope * math.sin(phase_gap * t / (2.0 * self.hbar)) ** 2
                require(abs(got - ref) <= 1e-12 * envelope + 1e-300,
                        f"first-order probability {gamma}<-{beta} differs from its formula")
        return energies.tobytes() + _floats(*probabilities)


WORKLOADS = {
    w.name: w for w in (CliSweepCsv(), DivergenceLong(), EngineHyperfine(), EngineDense())
}
