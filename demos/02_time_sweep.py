#!/usr/bin/env python3
"""Compare the three 2 -> 4 probability curves over time at B = 1e-3 T.

Writes CSV windows around four interesting times (the curves oscillate at
~4.5e9 rad/s, so only narrow windows are plottable) plus the coarse-grid
divergence report over [0, 30] s. Output lands in ./demo_output/.
"""

import pathlib

import numpy as np

from perturba import (
    PhysicalConstants,
    SweepSpec,
    SweepTable,
    angular_rates,
    emit_csv,
)
from perturba.sweep import first_crossings

B_FIELD = 1e-3
OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

constants = PhysicalConstants()
rate_exact, rate_improved, rate_traditional = angular_rates(constants, B_FIELD)
print(f"angular rates at B = {B_FIELD} T (rad/s):")
print(f"  exact       {rate_exact:.11e}")
print(f"  improved    {rate_improved:.11e}")
print(f"  traditional {rate_traditional:.11e}")
print(f"phase-slip rates against exact: traditional {rate_exact - rate_traditional:.3e},"
      f" improved {rate_exact - rate_improved:.3e} rad/s")

period = np.pi / rate_exact
print(f"\noscillation period ~ {period:.3e} s; windows below are 3 periods wide")

print(f"\n{'center':>8} {'max |p - pT|':>14} {'max |pI - pT|':>14}")
for center in (1e-7, 1.0, 6.0, 27.7):
    spec = SweepSpec(
        mode="time",
        fixed_value=B_FIELD,
        start=center - 1.5 * period,
        stop=center + 1.5 * period,
        samples=2001,
    )
    table = SweepTable(spec, constants)
    name = OUT / f"time_window_{center:g}s.csv"
    emit_csv(table, name)
    dev_improved, dev_traditional = table.rows(0, len(table))[:, 4:].T
    print(f"{center:>8g} {dev_traditional.max():>14.3e}"
          f" {dev_improved.max():>14.3e}   -> {name}")

print("\nthe traditional curve scrambles first: its phase slips a full")
print("radian within ~1e-6 s, while the improved curve holds on for tens")
print("of seconds (slip ~0.0164 rad/s).")

spec = SweepSpec(mode="time", fixed_value=B_FIELD, start=0.0, stop=30.0, samples=3_000_000)
table = SweepTable(spec, constants)  # a lazy 3M-row table: only the grid is held
for threshold in (0.1, 0.3, 0.5):
    t_trad, t_impr = first_crossings(table, threshold)
    print(f"threshold {threshold}: first grid crossing traditional = {t_trad:.3e} s,"
          f" improved = {t_impr}")
print("(the 3e6-point grid aliases the fast oscillation, so the traditional")
print("crossing lands within a few grid steps; the improved envelope stays")
print("below 0.5 everywhere on [0, 30] s, hence the inf sentinel)")
