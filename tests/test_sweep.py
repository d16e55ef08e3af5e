"""Sweep grids, deviation tables, divergence report, and CSV emission."""

import bisect
import contextlib
import dataclasses
import errno
import io
import math
import os
import shutil
import stat
import sys
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st
from oracles import ColumnTable, powers_of_ten, reference_csv_rows

from perturba import (
    HyperfineConfig,
    InvalidSweepSpec,
    IoFailure,
    PhysicalConstants,
    SweepSpec,
    divergence_report,
    emit_csv,
    SweepTable,
    hyperfine,
    sweep,
)
from perturba.sweep import CSV_HEADER, first_crossings

CONFIG = HyperfineConfig(b_field=1e-3)
#: the CODATA 2018 inputs, which differ from the defaults in each derived value
CODATA_2018 = PhysicalConstants(mu_e=9.2847647043e-24, planck_h=6.62607015e-34,
                                elementary_charge=1.602176634e-19)


def window_spec(center, periods=3.0, samples=4001, b_field=1e-3):
    """Time window `periods` oscillations wide around `center` seconds."""
    rate = 4.4632e9  # close enough for a window width
    half = periods * np.pi / rate / 2.0
    return SweepSpec(
        mode="time",
        fixed_value=b_field,
        start=center - half,
        stop=center + half,
        samples=samples,
    )


class TestSpecValidation:
    def test_bad_mode(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="both", fixed_value=1.0, start=0, stop=1, samples=10)

    def test_bad_scale(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="time", fixed_value=1.0, start=0, stop=1, samples=10, scale="log2")

    def test_start_not_below_stop(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="time", fixed_value=1.0, start=1.0, stop=1.0, samples=10)

    def test_too_few_samples(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="time", fixed_value=1.0, start=0, stop=1, samples=1)

    def test_log_needs_positive_start(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="time", fixed_value=1.0, start=0.0, stop=1, samples=10, scale="log")

    def test_field_sweep_needs_nonnegative_field(self):
        with pytest.raises(InvalidSweepSpec):
            SweepSpec(mode="field", fixed_value=1.0, start=-1e-3, stop=1e-3, samples=10)

    @pytest.mark.parametrize("name", ["fixed_value", "start", "stop"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, name, bad):
        fields = dict(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=10)
        fields[name] = bad
        with pytest.raises(InvalidSweepSpec, match=f"{name} must be finite"):
            SweepSpec(**fields)

    def test_time_sweep_needs_nonnegative_held_field(self):
        with pytest.raises(InvalidSweepSpec, match="must be >= 0"):
            SweepSpec(mode="time", fixed_value=-1e-3, start=0.0, stop=1.0, samples=10)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_samples(self, bad):
        with pytest.raises(InvalidSweepSpec, match="samples must be an integer >= 2"):
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=bad)

    @pytest.mark.parametrize("bad", [3.0, np.float64(3.0), 2**63], ids=["float", "np", "2**63"])
    def test_samples_are_integers_that_fit_an_index(self, bad):
        # a whole float is no count, and len() of a larger table cannot be taken
        with pytest.raises(InvalidSweepSpec, match="samples must be an integer >= 2"):
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=bad)

    def test_largest_sample_count_builds_a_table(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=sys.maxsize)
        table = SweepTable(spec)
        assert len(table) == sys.maxsize
        assert table.x[0] == 0.0 and table.x[-1] == 1.0
        assert table.aliasing_phase is None
        assert len(SweepTable(SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0,
                                        samples=np.int64(3)))) == 3


TINY = 5e-324  # the smallest subnormal


@st.composite
def grid_specs(draw):
    """Linear windows from t < 0 or t >= 0, log windows, and windows a few
    subnormals wide, whose step underflows to 0 once samples > 2."""
    kind = draw(st.sampled_from(["linear", "log", "subnormal"]))
    if kind == "subnormal":
        start = draw(st.integers(-4, 4)) * TINY
        stop = start + draw(st.integers(1, 8)) * TINY
    elif kind == "linear":
        start = draw(st.floats(-1e3, 1e3))
        stop = start + 10.0 ** draw(st.floats(-9.0, 4.0))
    else:
        start = 10.0 ** draw(st.floats(-12.0, 3.0))
        stop = start * 10.0 ** draw(st.floats(1e-9, 6.0))
    assume(start < stop)
    samples = draw(st.one_of(st.just(2), st.integers(2, 64), st.integers(2, 3 * sweep._CHUNK_ROWS)))
    return SweepSpec(mode="time", fixed_value=1e-3, start=start, stop=stop, samples=samples,
                     scale="log" if kind == "log" else "linear")


class TestGrid:
    @settings(max_examples=300, deadline=None)
    @given(grid_specs(), st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=-TINY, stop=TINY, samples=5),
             [0.0, 0.5, 1.0, 0.25, 0.75, 0.1])
    # 10**log10(0.3) != 0.3: numpy sets a log grid's first row to start
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=0.3, stop=30.0, samples=2,
                       scale="log"), [0.0] * 6)
    def test_lazy_slices_are_bit_equal_to_numpy(self, spec, spots):
        # spots place each slice's first row, then the scalar row, in the grid
        space = np.linspace if spec.scale == "linear" else np.geomspace
        expected = space(spec.start, spec.stop, spec.samples).view(np.uint64)
        grid, n = sweep._Grid(spec), spec.samples
        assert len(grid) == n
        sizes = (1, sweep._CHUNK_ROWS - 1, sweep._CHUNK_ROWS, sweep._CHUNK_ROWS + 1, n)
        for size, spot in zip(sizes, spots):  # the last slice ends at the last row
            lo = int(spot * (n - 1))
            np.testing.assert_array_equal(grid[lo : lo + size].view(np.uint64),
                                          expected[lo : lo + size])
        np.testing.assert_array_equal(grid[:].view(np.uint64), expected)
        row = int(spots[-1] * (2 * n - 1)) - n
        assert np.asarray(grid[row]).view(np.uint64) == expected[row]

    @pytest.mark.parametrize("spec", [
        SweepSpec(mode="time", fixed_value=1e-3, start=-0.7, stop=30.0, samples=10_001),
        SweepSpec(mode="field", fixed_value=1.0, start=1e-4, stop=1e-2, samples=501,
                  scale="log"),
        SweepSpec(mode="time", fixed_value=1e-3, start=-2 * TINY, stop=4 * TINY, samples=9),
    ])
    def test_row_reads_agree_on_every_path(self, spec):
        # a Python int inner row takes the short path; the ends, negative
        # rows, numpy integers and slices take the general one
        space = np.linspace if spec.scale == "linear" else np.geomspace
        expected = space(spec.start, spec.stop, spec.samples).view(np.uint64)
        grid, n = sweep._Grid(spec), spec.samples
        for row in (0, 1, n // 2, n - 2, n - 1, -1, -n):
            for value in (grid[row], grid[np.int64(row)], grid[row : row + 1 or None]):
                assert np.asarray(value).view(np.uint64).item() == expected[row], row
        for row in (n, -n - 1):
            with pytest.raises(IndexError):
                grid[row]

    def test_linear_matches_formula_within_one_ulp(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=10001)
        grid = sweep._Grid(spec)[:]
        step = (spec.stop - spec.start) / (spec.samples - 1)
        formula = spec.start + np.arange(spec.samples) * step
        np.testing.assert_array_max_ulp(grid, formula, maxulp=1)
        assert grid[0] == spec.start and grid[-1] == spec.stop

    def test_log_matches_formula(self):
        spec = SweepSpec(
            mode="field", fixed_value=1.0, start=1e-4, stop=1e-2, samples=501, scale="log"
        )
        grid = sweep._Grid(spec)[:]
        lo, hi = np.log10(spec.start), np.log10(spec.stop)
        formula = 10 ** (lo + np.arange(spec.samples) * ((hi - lo) / (spec.samples - 1)))
        np.testing.assert_array_max_ulp(grid, formula, maxulp=1)
        assert grid[0] == spec.start and grid[-1] == spec.stop


def whole(table):
    """Every row of a lazy sweep table, as one (rows, 6) block."""
    return table.rows(0, len(table))


class TestRunSweep:
    def test_row_count_and_fields(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-8, samples=11)
        table = SweepTable(spec)
        assert len(table) == 11
        x, p_exact, p_improved, p_traditional, dev_improved, dev_traditional = whole(table).T
        for column in (x, p_exact, p_improved, p_traditional, dev_improved, dev_traditional):
            assert column.shape == (11,)
        np.testing.assert_array_equal(x, np.linspace(spec.start, spec.stop, spec.samples))
        assert dev_improved[3] == abs(p_improved[3] - p_exact[3])
        assert dev_traditional[3] == abs(p_traditional[3] - p_exact[3])

    def test_deviations_match_columns_exactly(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=1000)
        block = whole(SweepTable(spec))
        np.testing.assert_array_equal(block[:, 4], np.abs(block[:, 2] - block[:, 1]))
        np.testing.assert_array_equal(block[:, 5], np.abs(block[:, 3] - block[:, 1]))

    def test_deterministic_output(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=2.0, samples=500)
        first, second = io.StringIO(), io.StringIO()
        emit_csv(SweepTable(spec), first)
        emit_csv(SweepTable(spec), second)
        assert first.getvalue() == second.getvalue()

    def test_window_near_edge_of_validity(self):
        # around t = 1 s the traditional curve has slipped ~0.87 rad of
        # phase against the exact one while the improved curve has slipped
        # only ~0.016 rad; measured window maxima are 0.82 and 0.0167
        dev_improved, dev_traditional = whole(SweepTable(window_spec(1.0)))[:, 4:].T
        assert dev_traditional.max() > 1e-2
        assert dev_improved.max() < 2e-2
        assert dev_improved.max() < dev_traditional.max() / 10

    def test_window_at_small_time(self):
        # at t ~ 1e-7 s both perturbative curves still hug the exact one;
        # the improved deviation is bounded by the amplitude mismatch
        # u/(1+u) ~ 3.9e-4, the traditional one by its 0.087 rad slip
        dev_improved, dev_traditional = whole(SweepTable(window_spec(1e-7)))[:, 4:].T
        assert dev_improved.max() <= 5e-4
        assert dev_traditional.max() <= 0.1

    def test_field_mode_around_weak_field(self):
        spec = SweepSpec(
            mode="field", fixed_value=1.0, start=0.9e-4, stop=1.1e-4, samples=2001
        )
        block = whole(SweepTable(spec))
        assert np.max(np.abs(block[:, 1] - block[:, 2])) <= 1e-3
        # traditional curve is flat in B
        assert np.all(block[:, 3] == block[0, 3])

    @pytest.mark.parametrize(
        "spec, constants",
        [
            # 4.46e9 rad/s out to 1e300 s
            (SweepSpec(mode="time", fixed_value=1e-3, start=-1e300, stop=0.0, samples=3),
             CONFIG.constants),
            # the improved gap is -inf: x**4 overflows
            (SweepSpec(mode="time", fixed_value=1e81, start=0.0, stop=1e-9, samples=3),
             CONFIG.constants),
            # at B = 1e157 T the improved rate is nan while the exact one,
            # 8.8e167 rad/s, stays finite out to 1e-9 s
            (SweepSpec(mode="field", fixed_value=1e-9, start=0.0, stop=1e157, samples=3),
             CONFIG.constants),
            # an infinite rate at t = 0 is nan all the same
            (SweepSpec(mode="field", fixed_value=0.0, start=0.0, stop=1e157, samples=3),
             CONFIG.constants),
            # hbar = 9.9e37 eV s: the rates times 1e270 s stay finite, but the
            # curves' gap t, 4.4e47 eV times 1e270 s, overflows before / hbar
            (SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e270, samples=3),
             PhysicalConstants(planck_h=1e20)),
            # the improved gap, -1.4e293 eV, is finite and so is its phase over
            # 1e-300 s, but its rate, gap / hbar, is not: the fastest rate is
            (SweepSpec(mode="time", fixed_value=4e73, start=0.0, stop=1e-300, samples=3),
             CONFIG.constants),
        ],
        ids=[f"spec{case}" for case in range(6)],
    )
    def test_phases_beyond_float64_are_rejected(self, spec, constants):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSweepSpec, match="phases leave float64"):
                SweepTable(spec, constants)

    def test_phases_near_the_float64_limit_are_kept(self):
        # 4.46e9 rad/s out to 1e298 s stays below 1.8e308 rad
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=-1e298, stop=0.0, samples=3)
        assert np.isfinite(whole(SweepTable(spec))).all()

    def test_phases_the_curves_compute_are_kept_at_the_last_ulp(self):
        # the fastest rate times t rounds to inf here, while the curves' own
        # (gap t) / hbar stays finite: the table refuses by the curves' order
        spec = SweepSpec(mode="time", fixed_value=0.02235395216983277, start=0.0,
                         stop=3.6860039226612526e298, samples=3)
        rates = hyperfine.angular_rates(CONFIG.constants, spec.fixed_value)
        assert not math.isfinite(max(abs(float(rate)) for rate in rates) * spec.stop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(whole(SweepTable(spec))).all()

    def test_a_window_wider_than_float64_is_refused_without_a_warning(self):
        # stop - start overflows to inf; the grid's geometry is held in
        # Python floats, which never warn, so the refusal comes first
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=-1e308, stop=1e308, samples=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSweepSpec, match="phases leave float64"):
                SweepTable(spec)


def counted_rows(monkeypatch):
    """The row count of each curve evaluation the sweep makes from now on."""
    rows = []

    def counting(w, x, hbar, t, **switches):
        rows.append(len(t))
        return hyperfine._normalized_triple(w, x, hbar, t, **switches)

    monkeypatch.setattr(sweep, "_normalized_triple", counting)
    return rows


def walked_rows(monkeypatch, curve=None):
    """The (lo, hi) of each ``SweepTable.deviation`` call the divergence
    walks make from now on, or of those of ``curve`` alone."""
    walked = []
    deviation = SweepTable.deviation

    def recording(table, lo, hi, of):
        if curve in (None, of):
            walked.append((lo, hi))
        return deviation(table, lo, hi, of)

    monkeypatch.setattr(SweepTable, "deviation", recording)
    return walked


class TestDivergenceReport:
    def test_requires_time_mode(self):
        spec = SweepSpec(mode="field", fixed_value=1.0, start=1e-4, stop=1e-2, samples=10)
        with pytest.raises(InvalidSweepSpec):
            divergence_report(spec, CONFIG, 0.5)

    def test_requires_positive_threshold(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=10)
        with pytest.raises(InvalidSweepSpec):
            divergence_report(spec, CONFIG, 0.0)

    def test_unreachable_threshold_gives_sentinels(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=1000)
        assert divergence_report(spec, CONFIG, 2.0) == (math.inf, math.inf)

    def test_traditional_strays_before_improved(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=300_000)
        t_traditional, t_improved = divergence_report(spec, CONFIG, 0.5)
        assert t_traditional <= t_improved
        assert t_traditional < 1e-2  # aliased grid trips almost immediately
        # the improved deviation's envelope never exceeds ~0.474 on [0, 30]
        assert t_improved == math.inf

    def test_crossings_nondecreasing_in_threshold(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=100_000)
        crossings = [divergence_report(spec, CONFIG, thr) for thr in (0.05, 0.2, 0.4)]
        for (lo_t, lo_i), (hi_t, hi_i) in zip(crossings, crossings[1:]):
            assert lo_t <= hi_t
            assert lo_i <= hi_i

    def test_criterion_7_grid_evaluates_one_chunk(self, monkeypatch):
        # the improved envelope peaks below 0.5 on [0, 30] s, so that curve
        # is never evaluated; the traditional one crosses at row 2, in the
        # first 64-row chunk of the walk (a whole 2,048-row chunk before)
        rows = counted_rows(monkeypatch)
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        t_traditional, t_improved = divergence_report(spec, CONFIG, 0.5)
        assert t_improved == math.inf and t_traditional < 1e-4
        assert rows == [64]

    def test_threshold_above_the_cap_evaluates_no_row(self, monkeypatch):
        # 1.0003 lies below 1 + floor, so only the cap on computed deviations
        # (1 + 10 eps) shows that no row of criterion 7's grid can cross it
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        _, floor = envelope_at(1e-3)
        assert hyperfine._DEVIATION_CAP < 1.0003 < 1.0 + floor
        full = oracles.first_crossings(oracles.run_sweep(spec, CONFIG), 1.0003)
        rows = counted_rows(monkeypatch)
        assert divergence_report(spec, CONFIG, 1.0003) == full == (math.inf, math.inf)
        assert rows == []

    def test_late_crossing_evaluates_at_most_two_chunks(self, monkeypatch):
        # the improved curve crosses at 23.97 s. The sine envelope's cutoff,
        # 23.95 s, lies about 2,000 rows before it; the linear one, 22.78 s,
        # lay about 119,000 rows before, and the walk evaluated 60 chunks.
        # After the traditional curve's first 64 rows, the improved curve's
        # chunks double from 64 rows at the cutoff: one chunk's worth of rows
        # in all, where two whole chunks (4,096 rows) were evaluated before
        b_field = 1.0559497443981638e-3
        spec = SweepSpec(mode="time", fixed_value=b_field, start=0.0, stop=30.0,
                         samples=3_000_000)
        rows = counted_rows(monkeypatch)
        config = HyperfineConfig(b_field=b_field)
        t_traditional, t_improved = divergence_report(spec, config, 0.5198374750692237)
        assert t_improved == 23.968957989652665 and t_traditional < 1e-4
        assert rows == [64, 64, 128, 256, 512, 1024]

    def test_divergence_report_holds_no_grid(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        divergence_report(spec, CONFIG, 0.5)  # warm up
        tracemalloc.start()
        try:
            divergence_report(spec, CONFIG, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the eager grid alone was 24 MB
        assert peak < 1024 * 1024


def constants_and_field(b_field):
    k = CONFIG.constants
    return k.w_ev, k.mu_e_ev_per_tesla * b_field, k.hbar_evs


def envelope_at(b_field):
    """The certificate of a time sweep held at ``b_field``, read as
    first_crossings reads it: from the gaps of the table's float64 rule."""
    gaps, _ = hyperfine._checked_gaps(CONFIG.constants, (b_field,))
    return hyperfine._deviation_envelope(*constants_and_field(b_field), gaps)


@st.composite
def time_specs(draw, max_samples=3 * sweep._CHUNK_ROWS + 100):
    """Time sweeps within +-reach, reach from 0.1 us (where the traditional
    envelope cuts off) to 30 s: linear windows from t <= 0, or log ones."""
    b_field = draw(st.one_of(st.just(0.0), st.floats(-5.0, -1.0).map(lambda k: 10.0**k)))
    scale = draw(st.sampled_from(sweep._SCALES))
    reach = 10.0 ** draw(st.floats(-7.0, math.log10(30.0)))
    if scale == "log":
        start = reach * draw(st.floats(1e-9, 0.99))
        stop = start + (reach - start) * draw(st.floats(0.01, 1.0))
    else:
        start = -reach * draw(st.floats(0.0, 1.0))
        stop = reach * draw(st.floats(0.01, 1.0))
    samples = draw(st.one_of(st.integers(2, 64), st.integers(2, max_samples)))
    return SweepSpec(mode="time", fixed_value=b_field, start=start, stop=stop,
                     samples=samples, scale=scale)


@st.composite
def field_specs(draw):
    """Field sweeps at t up to 1e4 s: linear ones from 0 or above, log ones,
    over ranges from 1e-8 T to 100 T, which straddle the improved gap's
    slope peaks near 0.04-0.05 T, or windows a few ulps to 1e-6 wide."""
    scale = draw(st.sampled_from(sweep._SCALES))
    start = 10.0 ** draw(st.floats(-8.0, 2.0))
    if scale == "linear" and draw(st.booleans()):
        start = 0.0
    stop = draw(st.one_of(st.floats(-8.0, 2.0).map(lambda k: 10.0**k),
                          st.floats(-15.5, -6.0).map(lambda k: start * (1.0 + 10.0**k))))
    assume(start < stop)
    samples = draw(st.one_of(st.integers(2, 64), st.integers(2, 5000)))
    return SweepSpec(mode="field", fixed_value=10.0 ** draw(st.floats(-12.0, 4.0)),
                     start=start, stop=stop, samples=samples, scale=scale)


@st.composite
def adjacent_log_specs(draw):
    """Log grids whose endpoints are 1 to 3 floats apart; their log10
    endpoints are often equal, which leaves a zero delta."""
    start = 10.0 ** draw(st.floats(-12.0, 3.0))
    stop = start
    for _ in range(draw(st.integers(1, 3))):
        stop = math.nextafter(stop, math.inf)
    return SweepSpec(mode="time", fixed_value=1e-3, start=start, stop=stop,
                     samples=draw(st.integers(2, 200)), scale="log")


class TestGridBisect:
    """The bisect module's bisection of the lazy grid equals its bisection
    of numpy's grid, and reads about log2(len) rows."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(grid_specs(), time_specs(), adjacent_log_specs()), st.floats(0.0, 1.0))
    # a subnormal step of 0.75 ulp rounds to 1, so the last two rows are 5
    # and 4 ulps; one of 0.25 ulp rounds to 0; a log grid's first row is
    # start, not 10**log10(start)
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=-2 * TINY, stop=4 * TINY,
                       samples=9), 0.9)
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=-2 * TINY, stop=4 * TINY,
                       samples=9), 1.0)
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=2 * TINY, samples=9), 0.5)
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=0.3, stop=30.0, samples=3,
                       scale="log"), 0.0)
    def test_bisect_equals_bisect_on_numpy_grid(self, spec, spot):
        # t at +-inf, +-0 and below 0; at a drawn row, the first and the
        # last row, and their neighbouring floats; before and past the grid
        space = np.linspace if spec.scale == "linear" else np.geomspace
        expected = space(spec.start, spec.stop, spec.samples)
        grid, row = sweep._Grid(spec), int(spot * (spec.samples - 1))
        width = spec.stop - spec.start
        probes = [math.inf, -math.inf, 0.0, -0.0, -1.0, spec.start - width, spec.stop + width]
        for value in expected[[0, max(row - 1, 0), row, min(row + 1, spec.samples - 1), -1]]:
            value = float(value)
            probes += [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
        for t in probes:
            assert bisect.bisect_left(grid, t) == bisect.bisect_left(expected, t), t
            assert bisect.bisect_right(grid, t) == bisect.bisect_right(expected, t), t

    def test_unsafe_rows_bisects_without_a_scan(self, monkeypatch):
        # two bisections of criterion 7's 3M-row grid read at most
        # ceil(log2(len)) + 1 rows each
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        grid, reads = sweep._Grid(spec), []
        getitem = sweep._Grid.__getitem__

        def counting(self, key):
            reads.append(key)
            return getitem(self, key)

        monkeypatch.setattr(sweep._Grid, "__getitem__", counting)
        most = 2 * (math.ceil(math.log2(len(grid))) + 1)
        times = np.random.default_rng(7).uniform(0.0, 30.0, 200).tolist()
        for t_safe in [0.0, 1e-5, 30.0, math.inf, *times]:
            reads.clear()
            sweep._unsafe_rows(grid, t_safe)
            assert 0 < len(reads) <= most, t_safe


class TestAliasingPhase:
    """SweepTable.aliasing_phase is the phase by which one grid step advances
    the curves, when that exceeds pi/2; None otherwise. A time sweep's is
    the fastest rate at the held field times the widest grid step."""

    @settings(max_examples=200, deadline=None)
    @given(time_specs())
    # 0.71 rad over [0, 10] ns in 64 linear samples; 6.07 rad on a log grid
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-8, samples=64))
    @example(SweepSpec(mode="time", fixed_value=1e-3, start=1e-12, stop=1e-8, samples=64,
                       scale="log"))
    def test_time_sweeps_equal_the_rates_times_the_widest_step(self, spec):
        space = np.geomspace if spec.scale == "log" else np.linspace
        x = space(spec.start, spec.stop, spec.samples)
        rates = hyperfine.angular_rates(CONFIG.constants, spec.fixed_value)
        phase = max(abs(rate) for rate in rates) * max(x[1] - x[0], x[-1] - x[-2])
        assert SweepTable(spec).aliasing_phase == (phase if phase > math.pi / 2 else None)

    def test_step_beyond_float64_reads_inf(self):
        # 4.46e9 rad/s to |t| = 3e298 s fits float64, but over the one 6e298 s
        # step it does not; the product is a Python float, which never warns
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=-3e298, stop=3e298, samples=2)
        assert SweepTable(spec).aliasing_phase == math.inf

    @settings(max_examples=300, deadline=None)
    @given(field_specs(), st.one_of(st.just(0), st.integers(-290, 290)),
           st.one_of(st.just(0), st.integers(-102, 70)))
    # one 1e-4..1e-2 T step at t = 1 s: 8.6e7 rad
    @example(SweepSpec(mode="field", fixed_value=1.0, start=1e-4, stop=1e-2, samples=2), 0, 0)
    # 2,000 steps across the improved gap's steepest rise, at 0.0415 T on a
    # linear grid and 0.0508 T on a log one: the exact curve's last step
    # still advances further
    @example(SweepSpec(mode="field", fixed_value=1e-6, start=0.0, stop=0.1, samples=2001), 0, 0)
    @example(SweepSpec(mode="field", fixed_value=1e-6, start=1e-3, stop=1.0, samples=2001,
                       scale="log"), 0, 0)
    # steps of an ulp or less, whose advance is the gaps' rounding alone
    @example(SweepSpec(mode="field", fixed_value=1e4, start=1e-3, stop=1e-3 * (1 + 1e-14),
                       samples=500), 0, 0)
    # near 1e134 T a log grid's rows err by up to some 300 ulps, where its
    # steps are 11 ulps wide, and a middle step advances the improved curve
    # by 15.7 rad, ten times the last step's 1.5
    @example(SweepSpec(mode="field", fixed_value=5.1, start=0.612462021266113,
                       stop=0.6124620212665454, samples=290, scale="log"), 134, 0)
    # at W = 1.5e-80 eV, below 2**-257, x^4 is subnormal and the improved
    # gap's rounding outruns the slack: an inner step advances 11,054 rad,
    # the bound without its W gate 10,328
    @example(SweepSpec(mode="field", fixed_value=1.0, start=1.0, stop=1.0000000008520666,
                       samples=28, scale="log"), 78, -74)
    def test_field_sweeps_bound_every_step(self, spec, decade, w_decade):
        # the phase by which any step of the evaluated grid advances the
        # exact or the improved curve is never above the table's, and the
        # table reports None only where no step advances by more than pi/2.
        # The fields are 10^decade times the drawn ones and mu_e 10^-decade
        # times the default, which keeps x = B mu_e: a log grid far from 1 T
        # has exponents, and so rows, that err the most. W and hbar are
        # 10^w_decade times the defaults, through planck_h, and mu_e with
        # them, which keeps x / W and the rates: from W = 1.5e-108 eV, about
        # the least whose (4W)^3 is not 0, to 1.5e64 eV, where the largest
        # x^4 stays finite, so the gap rule passes every draw
        scale, w_scale = 10.0**decade, 10.0**w_decade
        spec = dataclasses.replace(spec, start=spec.start * scale, stop=spec.stop * scale)
        assume(spec.start < spec.stop)
        default = CONFIG.constants
        mu_e = default.mu_e / scale * w_scale
        assume(0.0 < mu_e < math.inf)
        constants = PhysicalConstants(mu_e=mu_e, planck_h=default.planck_h * w_scale)
        w, mu, hbar = constants.w_ev, constants.mu_e_ev_per_tesla, constants.hbar_evs
        advance = max(np.abs(np.diff(gap)).max()
                      for gap in hyperfine._gaps(w, mu * sweep._Grid(spec)[:]))
        advance *= abs(spec.fixed_value) / hbar
        phase = SweepTable(spec, constants).aliasing_phase
        assert advance <= (math.pi / 2 if phase is None else phase)

    def test_readme_field_sweep_reads_its_steepest_step(self):
        # the last step of the README's log field sweep at t = 1 s advances
        # the exact curve by 3.9e5 rad; the table's bound adds only the
        # rounding slack, 512 (1 + 4 * 4) eps of the 2W gap, 2.2e-8 of it
        spec = SweepSpec(mode="field", fixed_value=1.0, start=1e-4, stop=1e-2, samples=2001,
                         scale="log")
        k = CONFIG.constants
        exact = hyperfine._gaps(k.w_ev, k.mu_e_ev_per_tesla * sweep._Grid(spec)[-2:])[0]
        last = (exact[1] - exact[0]) / k.hbar_evs
        assert 3.9e5 < last < SweepTable(spec).aliasing_phase < last * (1 + 3e-8)


class TestPrunedDivergence:
    """divergence_report skips rows its envelope certifies and stops early."""

    @pytest.mark.parametrize(
        "b_field, start, stop, samples, scale, threshold",
        [
            (1e-4, -6e-5, 1e-3, 20_000, "linear", 0.5),  # crosses after a middle run
            (1e-4, -1e-3, 1e-3, 20_000, "linear", 1.0),
            (2e-3, 0.0, 30.0, 200_001, "linear", 0.3),  # improved crosses late
            (1e-3, 1e-6, 30.0, 50_000, "log", 0.4),
            (1e-2, -2e-7, 3e-7, 30_000, "linear", 0.2),
            (1e-3, 0.0, 1e-5, 20_000, "linear", 0.999),  # crosses at 1.77 us
        ],
    )
    def test_equals_full_scan_on_chosen_specs(self, b_field, start, stop, samples, scale,
                                               threshold):
        spec = SweepSpec(mode="time", fixed_value=b_field, start=start, stop=stop,
                         samples=samples, scale=scale)
        full = oracles.first_crossings(oracles.run_sweep(spec, CONFIG), threshold)
        assert divergence_report(spec, CONFIG, threshold) == full

    @settings(max_examples=300, deadline=None)
    @given(time_specs(), st.data())
    def test_equals_full_scan(self, spec, data):
        rates, floor = envelope_at(spec.fixed_value)
        reach = rates[data.draw(st.integers(0, 1))] * max(abs(spec.start), abs(spec.stop))

        def envelope(fraction):  # at fraction * the grid's widest |t|
            return min(1.0, reach * fraction) + floor

        def sine_envelope(fraction):
            return math.sin(min(reach * fraction, math.pi / 2)) + floor

        eps = 2.0**-52
        threshold = data.draw(
            st.one_of(
                st.floats(1e-3, 1.0),
                st.floats(0.0, 1.0).map(envelope),
                st.floats(-1e-6, 1e-6).map(lambda d: envelope(1.0) + d),
                st.floats(0.0, 1.0).map(sine_envelope),
                st.floats(-1e-6, 1e-6).map(lambda d: sine_envelope(1.0) + d),
                # margins threshold - floor within a few ulps of 1, and of the
                # widest one below the cap
                st.integers(-8, 8).map(lambda k: 1.0 + floor + k * eps),
                st.integers(-8, 0).map(lambda k: hyperfine._DEVIATION_CAP + k * eps),
                st.floats(1.0, 3.0),
                st.floats(1.0, hyperfine._DEVIATION_CAP + 1e-15),
            ).filter(lambda v: v > 0.0)
        )
        full = oracles.first_crossings(oracles.run_sweep(spec, CONFIG), threshold)
        assert divergence_report(spec, CONFIG, threshold) == full

    @settings(max_examples=100, deadline=None)
    @given(time_specs(max_samples=5000))
    def test_deviations_stay_within_envelope(self, spec):
        rates, floor = envelope_at(spec.fixed_value)
        table = oracles.run_sweep(spec, CONFIG)
        for rate, dev in zip(rates, (table.dev_traditional, table.dev_improved)):
            assert np.all(dev <= np.minimum(1.0, rate * np.abs(table.x)) + floor)
            assert np.all(dev <= np.sin(np.minimum(rate * np.abs(table.x), np.pi / 2)) + floor)
            assert np.all(dev <= hyperfine._DEVIATION_CAP)

    def test_envelope_and_cutoff_pinned(self):
        eps = 2.0**-52
        for b_field in (0.0, 1e-3, 0.036):
            w, x, hbar = constants_and_field(b_field)
            exact = math.sqrt(4.0 * w * w + x * x)
            improved = 2.0 * w + x * x / (4.0 * w) - x**4 / (4.0 * w) ** 3
            rates, floor = envelope_at(b_field)
            for rate, other in zip(rates, (2.0 * w, improved)):
                # the slip rate plus two roundings per phase, rounded up
                assert rate == (abs(exact - other) + eps * (exact + other)) / hbar * (1 + 4 * eps)
            u = x * x / (4.0 * w * w)
            # amplitude mismatch plus (4 sin ulps + 8) eps of rounding
            assert floor == u / (1.0 + u) + 24 * eps
            for rate in rates:
                # asin of the margin rounded toward 0, less (4 asin ulps + 4) eps
                margin = math.nextafter(0.5 - floor, 0.0)
                cutoff = math.asin(margin) / rate * (1 - 8 * eps) - 2.0**-1074
                assert hyperfine._safe_time(rate, floor, 0.5) == cutoff
                # never below the linear bound's cutoff min(1, rate |t|) + floor
                assert cutoff >= (0.5 - floor) / rate * (1 - 4 * eps)
        # criterion 7: the improved curve provably stays within 0.5 up to
        # 31.80 s. The gaps part at the x^6 / 512 W^5 term of the square root.
        w, x, hbar = constants_and_field(1e-3)
        rates, floor = envelope_at(1e-3)
        u = x * x / (4.0 * w * w)
        by_hand = math.asin(0.5 - u / (1.0 + u)) / (x**6 / (512.0 * w**5) / hbar)
        assert hyperfine._safe_time(rates[1], floor, 0.5) == pytest.approx(by_hand, rel=1e-3)
        assert hyperfine._safe_time(rates[1], floor, 0.5) > 31.0
        assert hyperfine._safe_time(rates[1], floor, 1.0 + 2 * floor) == math.inf
        # the cap on computed deviations: 1 + (2 sin ulps + 2) eps
        cap = hyperfine._DEVIATION_CAP
        assert cap == 1.0 + 10 * eps
        # every floor is >= 24 eps, so a threshold below the cap leaves a margin < 1
        assert cap < 1.0 + hyperfine._FLOOR_EPS * hyperfine._EPS
        # the widest margin below the cap, at B = 0 (floor 24 eps): 1 - 15 eps
        # rounds down to 1 - 15.5 eps, where asin's slope is about 1e7
        zero_rates, zero_floor = envelope_at(0.0)
        near_one = math.asin(1.0 - 15.5 * eps) / zero_rates[0] * (1 - 8 * eps) - 2.0**-1074
        assert hyperfine._safe_time(zero_rates[0], zero_floor, 1.0 + 9 * eps) == near_one
        assert hyperfine._safe_time(rates[1], floor, cap) == math.inf
        assert math.isfinite(hyperfine._safe_time(rates[1], floor, np.nextafter(cap, 0.0)))
        assert hyperfine._safe_time(rates[1], floor, floor) == -math.inf

    @pytest.mark.parametrize(
        "t_safe, expected",
        [(-math.inf, [(0, 9)]), (0.5, [(0, 9)]), (1.0, [(0, 4), (5, 9)]),
         (1.5, [(0, 4), (5, 9)]), (3.0, [(0, 2), (7, 9)]), (math.inf, [(0, 0), (9, 9)])],
    )
    def test_unsafe_rows_step_back_inside_the_grid(self, t_safe, expected):
        # the run |t| <= t_safe on -4, -3, ..., 4 loses one row at each edge
        # inside the grid; a grid that starts at 0 keeps its first row skipped
        def grid(start, stop):
            return sweep._Grid(SweepSpec(mode="time", fixed_value=1e-3, start=start, stop=stop,
                                         samples=9))

        assert sweep._unsafe_rows(grid(-4.0, 4.0), t_safe) == expected
        assert sweep._unsafe_rows(grid(0.0, 8.0), 2.5) == [(0, 0), (2, 9)]

    def test_envelope_reads_the_gaps_the_curves_compute(self, monkeypatch):
        # the certificate bounds the phases the curves compute: first_crossings
        # hands the envelope the very arrays the table's float64 rule
        # evaluated (one field in an array), and the envelope evaluates no gap
        # of its own. The rule and the curves evaluate x^4 alike, by numpy's
        # power of a float64 array, so they see the same bits; a Python
        # float's ** differs by an ulp at some of these fields
        gaps, improved, checked, handed = hyperfine._gaps, [], [], []

        def recording(w, x):
            exact, gap = gaps(w, x)
            improved.append(float(np.ravel(gap)[0]))
            return exact, gap

        def checking(*args):
            checked.append(hyperfine._checked_gaps(*args))
            return checked[-1]

        def enveloping(w, x, hbar, table_gaps):
            handed.append(table_gaps)
            return hyperfine._deviation_envelope(w, x, hbar, table_gaps)

        monkeypatch.setattr(hyperfine, "_gaps", recording)
        monkeypatch.setattr(sweep, "_checked_gaps", checking)
        monkeypatch.setattr(sweep, "_deviation_envelope", enveloping)
        differ = []
        for b_field in 10.0 ** np.random.default_rng(35).uniform(-2.0, 1.0, 1000):
            for record in (improved, checked, handed):
                record.clear()
            table = SweepTable(SweepSpec(mode="time", fixed_value=float(b_field), start=0.0,
                                         stop=1e-9, samples=3))
            assert first_crossings(table, 2.0) == (math.inf, math.inf)  # walks no row
            table.deviation(0, 3, 1)
            [(refusal, _)], [envelope] = checked, handed
            assert envelope is refusal
            checked_bits, curves = improved
            if not checked_bits.hex() == float(refusal[1][0]).hex() == curves.hex():
                differ.append(b_field)
        assert differ == []

    CERTIFICATE_THRESHOLDS = st.lists(st.one_of(
        st.floats(0.0, 1.1, exclude_min=True),
        st.sampled_from(["floor", "above the floor", "1 + floor", "below the cap", "cap"]),
    ), min_size=1, max_size=4)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(powers_of_ten(), powers_of_ten(), st.one_of(st.just(0.0), powers_of_ten()),
           CERTIFICATE_THRESHOLDS)
    # the slip rates underflow to 0
    @example(2.5e-31, 1e290 / (2.0 * math.pi), 0.0, ["floor", "above the floor", 0.5])
    # the improved curve's slip rate overflows to inf
    @example(1.468581452963356e-06, 6.582119152403604e-16, 2.213037880314617e+69, [0.5])
    def test_certificate_keeps_the_numpy_forms_bits(self, w, hbar, b_field, thresholds):
        # the envelope's rates and floor and each safe time, in Python floats
        # from the table's gaps, carry the bits of the numpy forms they
        # replaced, inf and -inf included, and warn nothing. W, B and hbar at
        # 10^U(-300, 300) or B = 0, with mu_e = e = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                h = 2.0 * math.pi * hbar
                constants = PhysicalConstants(mu_e=1.0, elementary_charge=1.0, planck_h=h,
                                              delta_nu_h=4.0 * w / h)
                table = SweepTable(SweepSpec(mode="time", fixed_value=b_field, start=0.0,
                                             stop=1e-300, samples=2), constants)
            except ValueError:
                reject()
            args = table._w, table._held_x, table._hbar
            rates, floor = hyperfine._deviation_envelope(*args, table._gaps)
            old_rates, old_floor = oracles.reference_deviation_envelope(*args)
            assert [rate.hex() for rate in rates] == [float(rate).hex() for rate in old_rates]
            assert floor.hex() == old_floor.hex()
            named = {"floor": floor, "above the floor": math.nextafter(floor, 2.0),
                     "1 + floor": 1.0 + floor, "below the cap": 1.0 + 9 * 2.0**-52,
                     "cap": hyperfine._DEVIATION_CAP}
            for threshold in (named.get(value, value) for value in thresholds):
                for rate, old_rate in zip(rates, old_rates):
                    safe = hyperfine._safe_time(rate, floor, threshold)
                    old_safe = oracles.reference_safe_time(old_rate, old_floor, threshold)
                    assert safe.hex() == old_safe.hex()

    @pytest.mark.parametrize(
        "b_field, stop, constants, crossings",
        [
            # the improved rate, -1.797e308 rad/s, is finite, but its slip
            # rate in the envelope overflows to inf: no row is certified
            (3.8188125255690697e73, 1e-300, PhysicalConstants(), (math.inf, 1e-300)),
            # slip rates of 1.4e-315 rad/s: asin(margin) / rate overflows
            (0.0, 1e300, PhysicalConstants(planck_h=1e290, delta_nu_h=1e-300,
                                           elementary_charge=1.0), (math.inf, math.inf)),
            # slip rates that underflow to 0
            (0.0, 1e300, PhysicalConstants(planck_h=1e290, delta_nu_h=1e-320,
                                           elementary_charge=1.0), (math.inf, math.inf)),
        ],
        ids=["slip-overflows", "cutoff-overflows", "slip-underflows"],
    )
    def test_envelope_beyond_float64_is_quiet(self, b_field, stop, constants, crossings):
        spec = SweepSpec(mode="time", fixed_value=b_field, start=0.0, stop=stop, samples=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert first_crossings(SweepTable(spec, constants), 0.5) == crossings

    @settings(max_examples=100, deadline=None)
    @given(time_specs(max_samples=10_000), st.integers(1, 5000))
    def test_chunked_curves_are_bit_identical(self, spec, chunk):
        w, x, hbar = constants_and_field(spec.fixed_value)
        t = sweep._Grid(spec)[:]
        whole = hyperfine._normalized_triple(w, x, hbar, t)
        pieces = [hyperfine._normalized_triple(w, x, hbar, t[lo : lo + chunk])
                  for lo in range(0, len(t), chunk)]
        for column, parts in zip(whole, zip(*pieces)):
            np.testing.assert_array_equal(
                column.view(np.uint64), np.concatenate(parts).view(np.uint64)
            )


class TestWalker:
    """emit_csv and first_crossings walk the lazy table in chunks and agree
    with the eager full-table oracle."""

    @pytest.mark.parametrize("samples", [2047, 2048, 2049, 4097])
    def test_streamed_csv_equals_oracle_at_chunk_edges(self, samples, tmp_path):
        # t = 0 on the first row of the second chunk, or the last row: the
        # rows with 0 < |t| < 1e-11 on either side take the '%' format
        zero = min(sweep._CHUNK_ROWS, samples - 1)
        step = 2.0**-40
        specs = [
            SweepSpec(mode="time", fixed_value=1e-3, start=-zero * step,
                      stop=(samples - 1 - zero) * step, samples=samples),
            SweepSpec(mode="field", fixed_value=1e-6, start=1e-6, stop=1e-2,
                      samples=samples, scale="log"),
        ]
        for spec in specs:
            full = columns_of(oracles.run_sweep(spec, CONFIG))
            if spec.mode == "time":
                tiny = (np.abs(full) < 1e-11) & (full != 0.0)
                assert np.all(full[zero] == 0.0)
                edges = [row for row in (zero - 1, zero + 1) if row < samples]
                assert tiny[edges].any(axis=1).all()
            expected = (CSV_HEADER + "\n" + reference_csv_rows(full.tolist())).encode("ascii")
            target = tmp_path / "sweep.csv"
            assert emit_csv(SweepTable(spec), target) == len(expected)
            assert target.read_bytes() == expected
            # a text stream, as the CLI writes without --out, gets the same text
            stream = io.StringIO()
            assert emit_csv(SweepTable(spec), stream) == len(expected)
            assert stream.getvalue() == expected.decode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(time_specs(), st.floats(0.0, 1.5, exclude_min=True))
    def test_first_crossings_equal_oracle_on_time_sweeps(self, spec, threshold):
        table = oracles.run_sweep(spec, CONFIG)
        assert first_crossings(SweepTable(spec), threshold) == (
            oracles.first_crossings(table, threshold)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            # 2 ns at 31.8 s: both deviations first exceed 0.4 at rows that
            # move with the constants
            SweepSpec(mode="time", fixed_value=1e-3, start=31.8, stop=31.8 + 2e-9, samples=2049),
            SweepSpec(mode="field", fixed_value=1e-3, start=1e-4, stop=1e-2, samples=2500,
                      scale="log"),
        ],
    )
    def test_constants_other_than_the_defaults_equal_oracle(self, spec):
        # the table evaluates with the W, mu_e and hbar of its own constants,
        # which give other bytes and crossings than the defaults
        full = oracles.run_sweep(spec, dataclasses.replace(CONFIG, constants=CODATA_2018))
        expected = CSV_HEADER + "\n" + reference_csv_rows(columns_of(full).tolist())
        default = io.StringIO()
        emit_csv(SweepTable(spec), default)
        assert default.getvalue() != expected
        stream = io.StringIO()
        assert emit_csv(SweepTable(spec, CODATA_2018), stream) == len(expected)
        assert stream.getvalue().splitlines() == expected.splitlines()
        if spec.mode == "time":
            crossings = first_crossings(SweepTable(spec, CODATA_2018), 0.4)
            assert crossings == oracles.first_crossings(full, 0.4)
            defaults = first_crossings(SweepTable(spec), 0.4)
            assert all(a != b for a, b in zip(crossings, defaults))

    def test_rejects_before_evaluating_a_row(self, monkeypatch):
        rows = counted_rows(monkeypatch)
        field = SweepSpec(mode="field", fixed_value=1.0, start=0.0, stop=1e-2, samples=10_000)
        with pytest.raises(InvalidSweepSpec, match="^a divergence threshold needs a time sweep"):
            first_crossings(SweepTable(field), 0.5)
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        for threshold in (0.0, -0.5, math.nan):
            with pytest.raises(InvalidSweepSpec, match="^threshold must be positive, got"):
                first_crossings(SweepTable(spec), threshold)
        assert rows == []

    def test_time_sweep_walks_each_row_once(self, monkeypatch):
        # each curve is walked alone and stops at its own crossing, here on
        # criterion 7's grid: the traditional curve crosses in its first 64
        # rows, the improved curve's walk starts at its cutoff (rows 200 and
        # 3,406) and it crosses in 64 rows. Whole 2,048-row chunks took one
        # chunk here, or two
        walked = walked_rows(monkeypatch)
        t = np.linspace(0.0, 30.0, 3_000_000)
        head = t[: 2 * sweep._CHUNK_ROWS]
        for b_field, threshold, crossing_rows, chunks in (
            (5e-3, 0.5, [5, 226], [(0, 64), (200, 264)]),
            (3e-3, 0.4, [10, 3466], [(0, 64), (3406, 3470)]),
        ):
            spec = SweepSpec(mode="time", fixed_value=b_field, start=0.0, stop=30.0,
                             samples=3_000_000)
            p_exact, *others = hyperfine._normalized_triple(*constants_and_field(b_field), head)
            expected = [head[np.argmax(np.abs(p - p_exact) > threshold)] for p in others[::-1]]
            walked.clear()
            assert list(first_crossings(SweepTable(spec), threshold)) == expected
            assert np.searchsorted(t, expected).tolist() == crossing_rows
            assert walked == chunks

    def test_a_crossed_curve_is_not_evaluated_again(self, monkeypatch):
        # criterion 7's grid at B = 5e-3 T: the traditional curve crosses in
        # its first chunk, which evaluates it alone, and the chunk at the
        # improved curve's cutoff evaluates the improved curve alone
        walked = walked_rows(monkeypatch)
        switches = []

        def recording(w, x, hbar, t, *, improved=True, traditional=True):
            switches.append((len(t), improved, traditional))
            return hyperfine._normalized_triple(w, x, hbar, t, improved=improved,
                                                traditional=traditional)

        monkeypatch.setattr(sweep, "_normalized_triple", recording)
        spec = SweepSpec(mode="time", fixed_value=5e-3, start=0.0, stop=30.0, samples=3_000_000)
        t_traditional, t_improved = first_crossings(SweepTable(spec), 0.5)
        assert t_traditional < t_improved < math.inf
        assert walked == [(0, 64), (200, 264)]
        assert switches == [(64, False, True), (64, True, False)]

    def test_a_curve_certified_on_every_row_is_never_evaluated(self, monkeypatch):
        # at 1e-3 T and threshold 1.0 the improved curve is certified on all
        # of [0, 30] s, while no row certifies the traditional curve, which
        # never crosses: its walk evaluates every row, and the improved
        # curve none
        switches = []

        def recording(w, x, hbar, t, *, improved=True, traditional=True):
            switches.append((len(t), improved, traditional))
            return hyperfine._normalized_triple(w, x, hbar, t, improved=improved,
                                                traditional=traditional)

        monkeypatch.setattr(sweep, "_normalized_triple", recording)
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=200_000)
        rates, floor = envelope_at(1e-3)
        assert hyperfine._safe_time(rates[1], floor, 1.0) > 30.0
        assert first_crossings(SweepTable(spec), 1.0) == (math.inf, math.inf)
        assert sum(rows for rows, _, _ in switches) == spec.samples
        assert not any(improved for _, improved, _ in switches)

    # [0, 0.3] ns at B = 1e-2 T: both deviations rise strictly from row 1 on
    # and stay below the envelope's floor, so no threshold between them
    # prunes a row, and the first crossing of each is the row it picks
    RISING = SweepSpec(mode="time", fixed_value=1e-2, start=0.0, stop=3e-10, samples=8000)

    def rising_table(self):
        table = oracles.run_sweep(self.RISING, CONFIG)
        _, floor = envelope_at(self.RISING.fixed_value)
        for dev in (table.dev_traditional, table.dev_improved):
            assert np.all(np.diff(dev[1:]) > 0.0) and dev[-1] < floor
        return table

    @pytest.mark.parametrize("start", [0.0, -3e-10])
    def test_walk_without_a_crossing_evaluates_each_unsafe_row_once(self, start, monkeypatch):
        # no row crosses. From t = 0 the largest deviation is the threshold;
        # it lies below the floor, so every row is unsafe for both curves.
        # About t = 0 the threshold lies above the floor by the traditional
        # envelope at 0.1 ns: its cutoff leaves that curve two ranges, and
        # the improved curve, whose cutoff lies past the grid, none. Each
        # curve's walk covers each of its unsafe rows once, in chunks that
        # double from 64 rows in each range, up to 2,048
        spec = dataclasses.replace(self.RISING, start=start)
        table = oracles.run_sweep(spec, CONFIG)
        rates, floor = envelope_at(spec.fixed_value)
        top = max(table.dev_traditional.max(), table.dev_improved.max())
        threshold = top if start == 0.0 else floor + math.sin(rates[0] * 1e-10)
        assert top <= threshold and (threshold < floor) == (start == 0.0)
        walked = [walked_rows(monkeypatch, curve) for curve in (0, 1)]
        assert first_crossings(SweepTable(spec), threshold) == (math.inf, math.inf)
        assert oracles.first_crossings(table, threshold) == (math.inf, math.inf)
        for curve, rate in enumerate(rates):
            ranges = sweep._unsafe_rows(sweep._Grid(spec), hyperfine._safe_time(rate, floor,
                                                                                  threshold))
            opened = [(lo, hi) for lo, hi in ranges if hi > lo]
            assert len(opened) == ([1, 1] if start == 0.0 else [2, 0])[curve]
            for lo, hi in opened:
                chunks = [(a, b) for a, b in walked[curve] if lo <= a < hi]
                assert [a for a, _ in chunks] == [lo] + [b for _, b in chunks[:-1]]
                assert chunks[-1][1] == hi
                sizes = [b - a for a, b in chunks]
                assert sizes[:-1] == [64, 128, 256, 512, 1024, 2048, 2048][: len(sizes) - 1]
                assert len(sizes) <= math.ceil((hi - lo) / sweep._CHUNK_ROWS) + 5
            assert sum(b - a for a, b in walked[curve]) == sum(hi - lo for lo, hi in ranges)
            if start == 0.0:
                sizes = [b - a for a, b in walked[curve]]
                assert sizes == [64, 128, 256, 512, 1024, 2048, 2048, 1920]

    @pytest.mark.parametrize("row", [63, 64, 191, 192, 447, 448, 959, 960, 1983, 1984,
                                     4031, 4032, 6079, 6080])
    def test_crossing_on_a_chunk_boundary_equals_oracle(self, row, monkeypatch):
        # the improved deviation one row before as threshold puts that
        # curve's first crossing on ``row``, the last row of a chunk of the
        # walk from row 0 or the first of the next
        table = self.rising_table()
        threshold = float(table.dev_improved[row - 1])
        walked = walked_rows(monkeypatch)
        crossings = first_crossings(SweepTable(self.RISING), threshold)
        assert crossings == oracles.first_crossings(table, threshold)
        assert crossings[1] == table.x[row]
        lo, hi = next((lo, hi) for lo, hi in walked if lo <= row < hi)
        assert row in (lo, hi - 1)

    def test_peak_memory_grows_only_by_the_grid(self):
        def peak(samples):
            spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-5, samples=samples)
            tracemalloc.start()
            try:
                emit_csv(SweepTable(spec), os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100_000)  # warm up
        growth = peak(400_000) - peak(100_000)
        # the lazy grid holds no row; an eager grid would add 2.4 MB, and a
        # whole table six columns of 2.4 MB each
        assert growth < 256 * 1024


class TestCurveSelection:
    """The curves a divergence query leaves out change no bit of the ones it
    evaluates: they equal the full triple's, and the CSV block's deviations."""

    @staticmethod
    def assert_bits(got, want):
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(want).view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(time_specs(), st.floats(-6.0, 1.0).map(lambda k: 10.0**k))
    # at this field Python's float x**4 differs from numpy's 0-d x**4, and
    # the improved curve differs in 1,990 of these 2,048 rows with it
    @example(SweepSpec(mode="time", fixed_value=0.0, start=0.0, stop=1e-6, samples=2048),
             0.09465837460713569)
    def test_selected_curves_keep_their_bits(self, spec, b_field):
        table = SweepTable(dataclasses.replace(spec, fixed_value=b_field))
        t = table.x[:]
        w, x, hbar = constants_and_field(b_field)
        full = hyperfine._normalized_triple(w, x, hbar, t)
        for improved, traditional in ((True, False), (False, True), (False, False)):
            some = hyperfine._normalized_triple(w, x, hbar, t, improved=improved,
                                                traditional=traditional)
            self.assert_bits(some[0], full[0])
            for kept, got, want in zip((improved, traditional), some[1:], full[1:]):
                if kept:
                    self.assert_bits(got, want)
                else:
                    assert got is None
        block = table.rows(0, len(table))
        for curve in (0, 1):
            rows, deviation = table.deviation(0, len(table), curve)
            self.assert_bits(rows, block[:, 0])
            self.assert_bits(deviation, block[:, 5 - curve])  # dev_traditional is column 5


class TestEmitCsv:
    def rows(self):
        x, p_exact, p_improved, p_traditional = np.array(
            [[0.0, 0.5], [0.0, 0.25], [0.0, 1.0 / 3.0], [0.0, 0.125]]
        )
        deviations = np.abs(p_improved - p_exact), np.abs(p_traditional - p_exact)
        return ColumnTable(columns=(x, p_exact, p_improved, p_traditional) + deviations)

    def test_two_rows_three_lines(self, tmp_path):
        target = tmp_path / "out.csv"
        emit_csv(self.rows(), target)
        lines = target.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "x,p_exact,p_improved,p_traditional,dev_improved,dev_traditional"

    def test_byte_count_matches_file_size(self, tmp_path):
        target = tmp_path / "out.csv"
        written = emit_csv(self.rows(), target)
        assert written == os.path.getsize(target)

    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=3.0, samples=64)
        table = oracles.run_sweep(spec, CONFIG)
        target = tmp_path / "sweep.csv"
        emit_csv(SweepTable(spec), target)
        parsed = np.loadtxt(target, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(parsed[:, 0], table.x)
        np.testing.assert_array_equal(parsed[:, 1], table.p_exact)
        np.testing.assert_array_equal(parsed[:, 2], table.p_improved)
        np.testing.assert_array_equal(parsed[:, 3], table.p_traditional)
        np.testing.assert_array_equal(parsed[:, 4], table.dev_improved)
        np.testing.assert_array_equal(parsed[:, 5], table.dev_traditional)

    def test_empty_rows_rejected_without_creating_file(self, tmp_path):
        target = tmp_path / "nope.csv"
        with pytest.raises(InvalidSweepSpec):
            emit_csv(ColumnTable(np.empty((0, 6))), target)
        assert not target.exists()

    def test_stream_destination(self):
        buffer = io.StringIO()
        written = emit_csv(self.rows(), buffer)
        assert written == len(buffer.getvalue())

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(IoFailure, match=r"dir/x\.csv'$"):
            emit_csv(self.rows(), tmp_path / "no" / "such" / "dir" / "x.csv")


def assert_matches_reference(matrix):
    """emit_csv of the rows of ``matrix`` equals the per-value '%.16e' text."""
    rows = np.asarray(matrix, dtype=np.float64).reshape(-1, 6).tolist()
    buffer = io.StringIO()
    written = emit_csv(ColumnTable(matrix), buffer)
    expected = CSV_HEADER + "\n" + reference_csv_rows(rows)
    assert buffer.getvalue() == expected
    assert written == len(expected)


def signed_rows(values):
    """One row per value, alternating its sign across the six columns."""
    values = np.asarray(values, dtype=np.float64)[:, None]
    return values * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def assert_kernel_writes(matrix):
    """One chunk of the rows of ``matrix`` is written by the kernel: its
    text equals the per-value '%.16e' text and is a view of the reused
    buffers, not the whole-chunk '%' format."""
    block = np.asarray(matrix, dtype=np.float64).reshape(-1, 6)
    assert len(block) <= sweep._CHUNK_ROWS
    buffers = sweep._CsvBuffers(sweep._CHUNK_ROWS)
    text = sweep._format_block(block, buffers)
    assert isinstance(text, np.ndarray)
    owners = [buffers.text] if buffers._signed is None else [buffers.text, buffers._signed]
    assert any(np.shares_memory(text, owner) for owner in owners)
    assert bytes(text) == reference_csv_rows(block.tolist()).encode("ascii")


#: bit patterns of doubles whose '%.16e' text has the field's 22 bytes:
#: signed zeros and 2**-328 <= |v| < 2**329, within [1e-99, 1e99]
FIELD_WIDTH_BITS = st.one_of(
    st.sampled_from([0, 1 << 63]),
    st.builds(
        lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
        st.integers(0, 1),
        st.integers(1023 - 328, 1023 + 328),
        st.integers(0, 2**52 - 1),
    ),
)


def alternating_chunks(seed, chunks=4, tail=777):
    """``chunks`` walker chunks and a ``tail``-row chunk of values in
    [1e-3, 1); the even-numbered chunks also hold negatives, signed zeros
    and values that take the '%' format."""
    size = sweep._CHUNK_ROWS
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(1e-3, 1.0, (chunks * size + tail, 6))
    outside = [math.nan, -math.inf, 5e-324, 1e-300, 3e20, 1e-12]
    for start in range(0, len(matrix), 2 * size):
        rows = matrix[start : start + size]
        rows[rng.random(rows.shape) < 0.3] *= -1.0
        rows[1::37, 2], rows[2::41, 3] = 0.0, -0.0
        for k, row in enumerate(range(3, len(rows), 113)):
            rows[row, k % 6] = outside[k % len(outside)]
    return matrix


def columns_of(table):
    return np.column_stack(
        [table.x, table.p_exact, table.p_improved, table.p_traditional,
         table.dev_improved, table.dev_traditional]
    )


#: a time sweep shaped like the slowest tenth of cli_sweep_csv calls: deviations
#: near the curves' nodes fall below 1e-11, outside the exact kernel's window
TINY_VALUE_SWEEP = SweepSpec(mode="time", fixed_value=1.16e-4, start=0.0, stop=7.67e-6,
                             samples=3 * sweep._CHUNK_ROWS + 1)
#: a log field sweep from 1e-150 T: its first chunk holds rows whose text has
#: three exponent digits beside rows whose text has the field's width
EXTREME_FIELD_SWEEP = SweepSpec(mode="field", fixed_value=3e-7, start=1e-150, stop=1e-2,
                                samples=3001, scale="log")


class TestCsvKernel:
    """The vectorized formatter against the one-call-per-value reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(), min_size=6, max_size=6), min_size=1, max_size=4))
    def test_any_floats(self, rows):
        assert_matches_reference(rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 2**64 - 1), min_size=6, max_size=6), min_size=1, max_size=4
        )
    )
    def test_any_bit_patterns(self, rows):
        assert_matches_reference(np.array(rows, dtype=np.uint64).view(np.float64))

    def test_tables_mark_the_window_and_bound_the_product(self):
        # index 2e + bump holds the constants of decade floor(log10 2**(e - 1023))
        # + bump, in the window when 0 <= p = 16 - decade - bump <= 27
        in_window = {0}
        for e in range(1, 2047):
            decade = Decimal(math.ldexp(1.0, e - 1023)).adjusted()
            in_window |= {2 * e + bump for bump in (0, 1) if 0 <= 16 - decade - bump <= 27}
        assert set(np.flatnonzero(sweep._EXPONENT)) == in_window
        assert sweep._EXPONENT[0] == int.from_bytes(b"e+00", "little")
        # the middle sum M_hi pow5_lo + M_lo pow5_hi < 2**53 + 2**63 cannot
        # wrap, the right shift stays within one word, and the shifted
        # product 2 |v| 10**p fits the low word
        rows = np.flatnonzero(sweep._EXPONENT)
        assert np.all(sweep._POW5_HI[rows] < 2**31)
        assert np.all(sweep._RIGHT[rows] <= 63)
        for i in rows:
            multiplier = int(sweep._POW5_HI[i]) << 32 | int(sweep._POW5_LO[i])
            assert (2**53 - 1) * multiplier >> int(sweep._RIGHT[i]) < 2**62

    def test_random_values_around_the_window(self):
        # binary exponents spanning 1e-13 .. 1e19, so both window edges and
        # the values just outside them are drawn
        rng = np.random.default_rng(20061)
        count = 30_000
        mantissa = rng.integers(0, 2**52, count, dtype=np.uint64)
        exponent = rng.integers(1023 - 44, 1023 + 64, count).astype(np.uint64)
        sign = rng.integers(0, 2, count).astype(np.uint64)
        bits = mantissa | (exponent << np.uint64(52)) | (sign << np.uint64(63))
        assert_matches_reference(bits.view(np.float64))

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for k in range(-330, 309):
            power = float(f"1e{k}")
            values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
        assert_matches_reference(signed_rows(values))

    def test_rounding_that_carries_to_the_next_decade(self):
        # the largest doubles below each power of ten whose 17-digit
        # rounding reads 1.0000000000000000e(k+1)
        carries = []
        for k in range(-330, 309):
            power = float(f"1e{k}")
            for value in (power, float(np.nextafter(power, 0.0))):
                rounded_up = "%.16e" % value == "1.0000000000000000e%+03d" % k
                if rounded_up and Fraction(value) < Fraction(10) ** k:
                    carries.append(value)
        assert len(carries) >= 10
        # the kernel has no carry step: every carry must take the '%' path
        assert not any(1e-11 <= value < 1e17 for value in carries)
        # the double nearest 1e-7 lies below it but rounds to 17 digits
        # without a carry: 9.9999999999999995e-08
        assert_matches_reference(signed_rows(carries + [1e-7]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(FIELD_WIDTH_BITS, min_size=6, max_size=6), min_size=1, max_size=4))
    def test_any_bit_patterns_of_field_width_in_the_kernel(self, rows):
        assert_kernel_writes(np.array(rows, dtype=np.uint64).view(np.float64))

    def test_neighbours_of_powers_of_ten_in_the_kernel(self):
        # the neighbours of 1e-98 .. 1e99 all have the field's width, so the
        # kernel's decade choice at the window's edges 1e-11 and 1e17 and at
        # every power between them is checked, signed and not
        values = []
        for k in range(-98, 100):
            power = float(f"1e{k}")
            values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
        assert {len("%.16e" % v) for v in values} == {sweep._FIELD - 1}
        assert_kernel_writes(signed_rows(values))
        assert_kernel_writes(np.abs(signed_rows(values)))

    def test_rounding_that_carries_in_the_kernel(self):
        # the carries with two exponent digits lie outside the window and
        # keep the field's width; the double nearest 1e-7 lies below it,
        # inside the window, and rounds without a carry
        carries = [
            value
            for k in range(-98, 100)
            for value in (float(f"1e{k}"), float(np.nextafter(float(f"1e{k}"), 0.0)))
            if "%.16e" % value == "1.0000000000000000e%+03d" % k
            and Fraction(value) < Fraction(10) ** k
        ]
        assert len(carries) >= 5
        assert_kernel_writes(signed_rows(carries + [1e-7]))
        assert_kernel_writes(np.abs(signed_rows(carries + [1e-7])))

    def test_exact_ties_round_half_to_even(self):
        # M / 2**j is exact and has 18 significant digits ending in 5 when
        # M 5**j does
        ties = [
            m * 2.0**-j
            for j in range(1, 80)
            for m in range(1, 600, 2)
            if len(str(m * 5**j)) == 18
        ]
        assert len(ties) > 300
        assert_matches_reference(signed_rows(ties))

    def test_two_digit_exponents_outside_the_window_stay_in_place(self):
        # a chunk of nonnegative values outside the window whose text has
        # the field's width comes back as a view of the reused buffers
        size = sweep._CHUNK_ROWS
        rng = np.random.default_rng(26)
        tiny = np.clip(10.0 ** rng.uniform(-99, -11, (size, 3)), 1e-99, np.nextafter(1e-11, 0))
        huge = np.clip(10.0 ** rng.uniform(17, 100, (size, 3)), 1e17, np.nextafter(1e100, 0))
        block = np.concatenate((tiny, huge), axis=1)
        rng.shuffle(block, axis=1)
        assert {len("%.16e" % v) for v in block.ravel().tolist()} == {sweep._FIELD - 1}
        buffers = sweep._CsvBuffers(size)
        text = sweep._format_block(block, buffers)
        assert np.shares_memory(text, buffers.text)
        assert bytes(text) == reference_csv_rows(block.tolist()).encode("ascii")

    def test_signed_chunks_share_one_buffer(self):
        # text with '-' signs is written into one buffer, allocated by the
        # first chunk that needs it and reused by the next
        size = sweep._CHUNK_ROWS
        rng = np.random.default_rng(28)
        buffers, texts = sweep._CsvBuffers(size), []
        for _ in range(2):
            block = rng.uniform(-1.0, 1.0, (size, 6))
            texts.append(sweep._format_block(block, buffers))
            assert bytes(texts[-1]) == reference_csv_rows(block.tolist()).encode("ascii")
        assert np.shares_memory(texts[0], texts[1])

    def test_signs_and_text_of_another_width_outside_the_window(self):
        # three-digit exponents, subnormals, nan and inf change the width, so
        # the chunk holding them is formatted whole by '%'
        carries = [
            value
            for k in range(-330, 309)
            for value in (float(f"1e{k}"), float(np.nextafter(float(f"1e{k}"), 0.0)))
            if "%.16e" % value == "1.0000000000000000e%+03d" % k
            and Fraction(value) < Fraction(10) ** k
        ]
        odd = [1e-100, 1e100, 5e-324, math.nan, -math.nan, math.inf, -math.inf] + carries
        rng = np.random.default_rng(27)
        block = 10.0 ** rng.uniform(-99, 100, (sweep._CHUNK_ROWS, 6))
        block[rng.random(block.shape) < 0.5] *= -1.0
        odd = np.repeat(odd, 4) * np.tile([1.0, -1.0], 2 * len(odd))  # each of both signs
        block.ravel()[rng.choice(block.size, len(odd), replace=False)] = odd
        assert_matches_reference(block)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_fallback_rows_at_block_edges(self, blocks, extra):
        # 2,047, 2,048, 2,049 and 4,097 rows: one chunk of the walker is a block
        size = sweep._CHUNK_ROWS
        rows = blocks * size + extra
        rng = np.random.default_rng(rows)
        matrix = rng.uniform(-1.0, 1.0, (rows, 6))
        outside = [math.nan, -math.inf, 5e-324, 1e-300, 3e20, 1e-12]
        for n, row in enumerate(sorted({0, size - 1, size, rows - 1} & set(range(rows)))):
            matrix[row, n % 6] = outside[n % len(outside)]
        assert_matches_reference(matrix)

    def test_single_row_blocks(self):
        assert_matches_reference([[0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-1074]])
        assert_matches_reference([[math.nan, 0.0, 0.0, 0.0, 0.0, 0.0]])

    def test_buffers_reused_across_chunks_and_owned_by_the_call(self):
        # one emit_csv formats every chunk in the same buffers: chunks with
        # negatives, signed zeros and '%' rows alternate with clean positive
        # chunks, and a short chunk ends the table
        assert_matches_reference(alternating_chunks(seed=14))
        # concurrent calls, more threads than cores, each with its own table
        tables = [alternating_chunks(seed) for seed in range(4)]
        texts = [None] * len(tables)

        def write(k):
            stream = io.StringIO()
            emit_csv(ColumnTable(tables[k]), stream)
            texts[k] = stream.getvalue()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(k,)) for k in range(len(tables))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for table, text in zip(tables, texts):
            assert text == CSV_HEADER + "\n" + reference_csv_rows(table.tolist())

    @pytest.mark.parametrize("chunk, old_peak_kib", [("sweep", 1562.1), ("mixed", 2245.8)])
    def test_one_chunk_peaks_below_the_old_kernel(self, chunk, old_peak_kib):
        # tracemalloc peaks of these 2,048-row chunks in the kernel that
        # built every array per chunk: 1,562.1 KiB on the sweep chunk and
        # 2,245.8 KiB on the one with negatives and '%' rows (numpy 2.4.6).
        # The reused buffers count here, so they cannot trade latency for
        # resident memory
        size = sweep._CHUNK_ROWS
        if chunk == "sweep":
            spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-6, samples=50_000)
            block = SweepTable(spec).rows(size, 2 * size)
        else:
            block = alternating_chunks(seed=5, chunks=1, tail=0)
        sweep._format_block(block, sweep._CsvBuffers(size))  # warm up
        tracemalloc.start()
        try:
            sweep._format_block(block, sweep._CsvBuffers(size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= old_peak_kib * 1024

    def test_tiny_value_sweep_has_tiny_values_in_two_chunks(self):
        table, size = SweepTable(TINY_VALUE_SWEEP), sweep._CHUNK_ROWS
        tiny = [
            np.any((block != 0.0) & (np.abs(block) < 1e-11))
            for block in (table.rows(lo, min(lo + size, len(table)))
                          for lo in range(0, len(table), size))
        ]
        assert sum(tiny) >= 2

    def test_extreme_field_sweep_has_both_widths_in_one_chunk(self):
        # sign-less text is 22 bytes, or 23 with a three-digit exponent
        block = SweepTable(EXTREME_FIELD_SWEEP).rows(0, sweep._CHUNK_ROWS)
        lengths = np.array([[len("%.16e" % abs(v)) for v in row] for row in block.tolist()])
        assert np.isin(lengths, [sweep._FIELD - 1, sweep._FIELD]).all()
        three_digit_rows = np.count_nonzero((lengths == sweep._FIELD).any(axis=1))
        assert 0 < three_digit_rows < len(block)

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-6, samples=3001),
            SweepSpec(mode="time", fixed_value=2e-3, start=0.0, stop=30.0, samples=2049),
            SweepSpec(mode="field", fixed_value=1.0, start=0.0, stop=1e-2, samples=1025),
            SweepSpec(
                mode="field", fixed_value=3e-7, start=1e-4, stop=1e-2, samples=2500, scale="log"
            ),
            TINY_VALUE_SWEEP,
            EXTREME_FIELD_SWEEP,
        ],
    )
    def test_whole_sweep_tables(self, spec, tmp_path):
        table = SweepTable(spec)
        full = columns_of(oracles.run_sweep(spec, CONFIG))
        expected = CSV_HEADER + "\n" + reference_csv_rows(full.tolist())
        target = tmp_path / "sweep.csv"
        assert emit_csv(table, target) == len(expected)
        assert target.read_bytes() == expected.encode("ascii")
        stream = io.StringIO()
        assert emit_csv(table, stream) == len(expected)
        assert stream.getvalue() == expected


class TestAtomicCsvFile:
    def table(self, rows):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-6, samples=rows)
        return SweepTable(spec)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        format_block = sweep._format_block
        calls = []

        def failing_second_block(block, buffers):
            calls.append(len(block))
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return format_block(block, buffers)

        monkeypatch.setattr(sweep, "_format_block", failing_second_block)
        with pytest.raises(IoFailure):
            emit_csv(self.table(2 * sweep._CHUNK_ROWS + 1), target)
        assert len(calls) == 2
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_replacing_keeps_the_file_mode(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        os.chmod(target, 0o600)
        written = emit_csv(self.table(10), target)
        assert os.path.getsize(target) == written
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_refuses_a_file_the_directory_cannot_hold(self, tmp_path, monkeypatch):
        # the floor is the header plus 24 bytes a row: 'nan' and a separator
        # per value; only a regular or absent destination is checked
        table = self.table(100)
        least = len(CSV_HEADER) + 1 + 24 * 100
        disk_usage, free = shutil.disk_usage, []
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: disk_usage(path)._replace(free=free[-1]))
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        free.append(least - 1)
        with pytest.raises(IoFailure, match=rf"needs at least {least} bytes.*out\.csv'$"):
            emit_csv(table, target)
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        free.append(least)
        assert emit_csv(table, target) == os.path.getsize(target)
        free.append(0)
        assert emit_csv(table, os.devnull) == emit_csv(table, io.StringIO())

    @staticmethod
    def open_inodes():
        # (device, inode) of every file this process holds open; a magic
        # link in /proc/self/fd resolves even to an unlinked file
        found = set()
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):
                info = os.stat(f"/proc/self/fd/{fd}")
                found.add((info.st_dev, info.st_ino))
        return found

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_replaced_file_is_released_in_the_background(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        old = os.stat(target)
        table = self.table(3 * sweep._CHUNK_ROWS)
        written = emit_csv(table, target)
        text = io.StringIO()
        emit_csv(table, text)
        assert target.read_bytes() == text.getvalue().encode("ascii")
        assert os.path.getsize(target) == written
        assert os.listdir(tmp_path) == ["out.csv"]
        deadline = time.monotonic() + 5.0
        while (old.st_dev, old.st_ino) in self.open_inodes():
            assert time.monotonic() < deadline, "the replaced file is still open"
            time.sleep(0.01)

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_an_unopenable_target_is_replaced_as_it_stands(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        os.chmod(target, 0o600)
        os_open, tried = os.open, []

        def refusing_target(path, flags, *args):
            if os.fspath(path) == str(target):
                tried.append(flags)
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return os_open(path, flags, *args)

        monkeypatch.setattr(os, "open", refusing_target)
        written = emit_csv(self.table(10), target)
        assert tried == ([os.O_RDONLY | os.O_NONBLOCK] if os.name == "posix" else [])
        assert os.path.getsize(target) == written
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_failed_rename_releases_the_held_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        old = os.stat(target)

        def failing_replace(source, destination):
            assert (old.st_dev, old.st_ino) in self.open_inodes()
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(IoFailure, match="cross-device"):
            emit_csv(self.table(10), target)
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        assert (old.st_dev, old.st_ino) not in self.open_inodes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_without_a_thread_the_replaced_file_is_released_at_once(self, tmp_path,
                                                                    monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        old = os.stat(target)

        def refused(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        written = emit_csv(self.table(10), target)
        assert os.path.getsize(target) == written
        assert (old.st_dev, old.st_ino) not in self.open_inodes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        written = emit_csv(self.table(10), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert len(received[0]) == written
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
