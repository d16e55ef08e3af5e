"""Sweep grids, deviation tables, divergence report, and CSV emission."""

import io
import math
import os
import shutil
import stat
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import ColumnTable, reference_csv_rows

from perturba import (
    HyperfineConfig,
    InvalidSweepSpec,
    IoFailure,
    SweepSpec,
    divergence_report,
    emit_csv,
    hyperfine,
    run_sweep,
    sweep,
)
from perturba.sweep import CSV_HEADER, first_crossings

CONFIG = HyperfineConfig(b_field=1e-3)


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
        table = run_sweep(spec, CONFIG)
        assert len(table) == 11
        x, p_exact, p_improved, p_traditional, dev_improved, dev_traditional = whole(table).T
        for column in (x, p_exact, p_improved, p_traditional, dev_improved, dev_traditional):
            assert column.shape == (11,)
        np.testing.assert_array_equal(x, np.linspace(spec.start, spec.stop, spec.samples))
        assert dev_improved[3] == abs(p_improved[3] - p_exact[3])
        assert dev_traditional[3] == abs(p_traditional[3] - p_exact[3])

    def test_deviations_match_columns_exactly(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1.0, samples=1000)
        block = whole(run_sweep(spec, CONFIG))
        np.testing.assert_array_equal(block[:, 4], np.abs(block[:, 2] - block[:, 1]))
        np.testing.assert_array_equal(block[:, 5], np.abs(block[:, 3] - block[:, 1]))

    def test_deterministic_output(self):
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=2.0, samples=500)
        first, second = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(spec, CONFIG), first)
        emit_csv(run_sweep(spec, CONFIG), second)
        assert first.getvalue() == second.getvalue()

    def test_window_near_edge_of_validity(self):
        # around t = 1 s the traditional curve has slipped ~0.87 rad of
        # phase against the exact one while the improved curve has slipped
        # only ~0.016 rad; measured window maxima are 0.82 and 0.0167
        dev_improved, dev_traditional = whole(run_sweep(window_spec(1.0), CONFIG))[:, 4:].T
        assert dev_traditional.max() > 1e-2
        assert dev_improved.max() < 2e-2
        assert dev_improved.max() < dev_traditional.max() / 10

    def test_window_at_small_time(self):
        # at t ~ 1e-7 s both perturbative curves still hug the exact one;
        # the improved deviation is bounded by the amplitude mismatch
        # u/(1+u) ~ 3.9e-4, the traditional one by its 0.087 rad slip
        dev_improved, dev_traditional = whole(run_sweep(window_spec(1e-7), CONFIG))[:, 4:].T
        assert dev_improved.max() <= 5e-4
        assert dev_traditional.max() <= 0.1

    def test_field_mode_around_weak_field(self):
        spec = SweepSpec(
            mode="field", fixed_value=1.0, start=0.9e-4, stop=1.1e-4, samples=2001
        )
        block = whole(run_sweep(spec, CONFIG))
        assert np.max(np.abs(block[:, 1] - block[:, 2])) <= 1e-3
        # traditional curve is flat in B
        assert np.all(block[:, 3] == block[0, 3])


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
        # is never evaluated; the traditional one crosses in the first chunk
        rows = []

        def counting(w, x, hbar, t):
            rows.append(len(t))
            return hyperfine._normalized_triple(w, x, hbar, t)

        monkeypatch.setattr(sweep, "_normalized_triple", counting)
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        t_traditional, t_improved = divergence_report(spec, CONFIG, 0.5)
        assert t_improved == math.inf and t_traditional < 1e-4
        assert rows == [sweep._CHUNK_ROWS]

    def test_threshold_above_the_cap_evaluates_no_row(self, monkeypatch):
        # 1.0003 lies below 1 + floor, so only the cap on computed deviations
        # (1 + 10 eps) shows that no row of criterion 7's grid can cross it
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        _, floor = hyperfine._deviation_envelope(*constants_and_field(1e-3))
        assert hyperfine._DEVIATION_CAP < 1.0003 < 1.0 + floor
        full = oracles.first_crossings(oracles.run_sweep(spec, CONFIG), 1.0003)
        rows = []

        def counting(w, x, hbar, t):
            rows.append(len(t))
            return hyperfine._normalized_triple(w, x, hbar, t)

        monkeypatch.setattr(sweep, "_normalized_triple", counting)
        assert divergence_report(spec, CONFIG, 1.0003) == full == (math.inf, math.inf)
        assert rows == []

    def test_late_crossing_evaluates_at_most_two_chunks(self, monkeypatch):
        # the improved curve crosses at 23.97 s. The sine envelope's cutoff,
        # 23.95 s, lies about 2,000 rows before it; the linear one, 22.78 s,
        # lay about 119,000 rows before, and the walk evaluated 60 chunks
        b_field = 1.0559497443981638e-3
        spec = SweepSpec(mode="time", fixed_value=b_field, start=0.0, stop=30.0,
                         samples=3_000_000)
        rows = []

        def counting(w, x, hbar, t):
            rows.append(len(t))
            return hyperfine._normalized_triple(w, x, hbar, t)

        monkeypatch.setattr(sweep, "_normalized_triple", counting)
        config = HyperfineConfig(b_field=b_field)
        t_traditional, t_improved = divergence_report(spec, config, 0.5198374750692237)
        assert t_improved == 23.968957989652665 and t_traditional < 1e-4
        assert len(rows) <= 2 and sum(rows) <= 2 * sweep._CHUNK_ROWS

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
        w, x, hbar = constants_and_field(spec.fixed_value)
        rates, floor = hyperfine._deviation_envelope(w, x, hbar)
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
        w, x, hbar = constants_and_field(spec.fixed_value)
        rates, floor = hyperfine._deviation_envelope(w, x, hbar)
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
            rates, floor = hyperfine._deviation_envelope(w, x, hbar)
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
        rates, floor = hyperfine._deviation_envelope(w, x, hbar)
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
        zero_rates, zero_floor = hyperfine._deviation_envelope(*constants_and_field(0.0))
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
        assert sweep._unsafe_rows(np.linspace(-4.0, 4.0, 9), t_safe) == expected
        assert sweep._unsafe_rows(np.linspace(0.0, 8.0, 9), 2.5) == [(0, 0), (2, 9)]

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


def counted_rows(monkeypatch):
    """The row count of each curve evaluation the sweep makes from now on."""
    rows = []

    def counting(w, x, hbar, t):
        rows.append(len(t))
        return hyperfine._normalized_triple(w, x, hbar, t)

    monkeypatch.setattr(sweep, "_normalized_triple", counting)
    return rows


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
            assert emit_csv(run_sweep(spec, CONFIG), target) == len(expected)
            assert target.read_bytes() == expected

    @settings(max_examples=200, deadline=None)
    @given(time_specs(), st.floats(0.0, 1.5, exclude_min=True))
    def test_first_crossings_equal_oracle_on_time_sweeps(self, spec, threshold):
        table = oracles.run_sweep(spec, CONFIG)
        assert first_crossings(run_sweep(spec, CONFIG), threshold) == (
            oracles.first_crossings(table, threshold)
        )

    def test_rejects_before_evaluating_a_row(self, monkeypatch):
        rows = counted_rows(monkeypatch)
        field = SweepSpec(mode="field", fixed_value=1.0, start=0.0, stop=1e-2, samples=10_000)
        with pytest.raises(InvalidSweepSpec, match="^a divergence threshold needs a time sweep"):
            first_crossings(run_sweep(field, CONFIG), 0.5)
        spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000)
        for threshold in (0.0, -0.5, math.nan):
            with pytest.raises(InvalidSweepSpec, match="^threshold must be positive, got"):
                first_crossings(run_sweep(spec, CONFIG), threshold)
        assert rows == []

    def test_time_sweep_walks_each_row_once(self, monkeypatch):
        # one walk checks both curves in each chunk and stops at the later
        # crossing, here on criterion 7's grid: both cross in the first
        # chunk, or the improved curve crosses in the second
        rows = counted_rows(monkeypatch)
        t = np.linspace(0.0, 30.0, 3_000_000)
        for b_field, threshold, crossing_rows, chunks in ((5e-3, 0.5, [5, 226], 1),
                                                          (3e-3, 0.4, [10, 3466], 2)):
            spec = SweepSpec(mode="time", fixed_value=b_field, start=0.0, stop=30.0,
                             samples=3_000_000)
            head = t[: chunks * sweep._CHUNK_ROWS]
            p_exact, *others = hyperfine._normalized_triple(*constants_and_field(b_field), head)
            expected = [head[np.argmax(np.abs(p - p_exact) > threshold)] for p in others[::-1]]
            rows.clear()
            assert list(first_crossings(run_sweep(spec, CONFIG), threshold)) == expected
            assert np.searchsorted(t, expected).tolist() == crossing_rows
            assert rows == [sweep._CHUNK_ROWS] * chunks

    def test_peak_memory_grows_only_by_the_grid(self):
        def peak(samples):
            spec = SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-5, samples=samples)
            tracemalloc.start()
            try:
                emit_csv(run_sweep(spec, CONFIG), os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100_000)  # warm up
        growth = peak(400_000) - peak(100_000)
        # the lazy grid holds no row; an eager grid would add 2.4 MB, and a
        # whole table six columns of 2.4 MB each
        assert growth < 256 * 1024


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
        emit_csv(run_sweep(spec, CONFIG), target)
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
            block = run_sweep(spec, CONFIG).rows(size, 2 * size)
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

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(mode="time", fixed_value=1e-3, start=0.0, stop=1e-6, samples=3001),
            SweepSpec(mode="time", fixed_value=2e-3, start=0.0, stop=30.0, samples=2049),
            SweepSpec(mode="field", fixed_value=1.0, start=0.0, stop=1e-2, samples=1025),
            SweepSpec(
                mode="field", fixed_value=3e-7, start=1e-4, stop=1e-2, samples=2500, scale="log"
            ),
        ],
    )
    def test_whole_sweep_tables(self, spec, tmp_path):
        table = run_sweep(spec, CONFIG)
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
        return run_sweep(spec, CONFIG)

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
