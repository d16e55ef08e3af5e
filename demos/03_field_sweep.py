#!/usr/bin/env python3
"""Sweep the field at t = 1 s and watch the improved curve track the exact one.

The traditional curve is a flat line in B (its phase 2WT/hbar never sees
the field), the improved curve follows the exact one until the quartic
term gives out, and at strong fields even the amplitudes part ways.
Windows land in ./demo_output/.
"""

import pathlib

import numpy as np

from perturba import (
    HyperfineConfig,
    SweepSpec,
    emit_csv,
    normalized_probabilities,
    run_sweep,
)

T_FIXED = 1.0
OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

print("field windows at t = 1 s (each 801 samples):")
print(f"{'center (T)':>12} {'max |p - pT|':>14} {'max |pI - pT|':>14} {'pT ceiling':>12}")
for center in (1e-4, 1.29e-3, 1.21e-2, 0.036):
    spec = SweepSpec(
        mode="field",
        fixed_value=T_FIXED,
        start=0.98 * center,
        stop=1.02 * center,
        samples=801,
    )
    config = HyperfineConfig(b_field=center)
    table = run_sweep(spec, config)
    u = (config.coupling_ev / (2 * config.constants.w_ev)) ** 2
    name = OUT / f"field_window_{center:g}T.csv"
    emit_csv(table, name)
    dev_improved, dev_traditional = table.rows(0, len(table))[:, 4:].T
    print(f"{center:>12g} {dev_traditional.max():>14.3e}"
          f" {dev_improved.max():>14.3e} {1 / (1 + u):>12.6f}   -> {name}")

print("\nat 0.036 T the perturbative regime is gone (B mu_e / W ~ 1.4):")
config = HyperfineConfig(b_field=0.036)
print(f"  perturbative flag: {config.is_perturbative}")
u = (config.coupling_ev / (2 * config.constants.w_ev)) ** 2
t = np.linspace(0.0, 4e-5, 400001)
p_exact, p_improved, p_traditional = normalized_probabilities(config, t)
print(f"  exact curve ceiling 1/(1+u) = {1 / (1 + u):.6f}")
print(f"  observed maxima: exact {p_exact.max():.6f}, improved {p_improved.max():.6f},"
      f" traditional {p_traditional.max():.6f}")
print("  the improved phase still beats the flat traditional one, but its")
print("  unit amplitude cannot follow the exact curve's depressed envelope.")
