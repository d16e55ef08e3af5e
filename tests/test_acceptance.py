"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Two criteria are expected to fail, and are left failing on purpose rather
than loosened; the measured numbers are printed by their FAIL lines:

* criterion 5 demands 1e-12 absolute agreement between the spectral-sum
  engine and the closed-form probability out to t = 10 s. At those times
  the oscillation phase is ~4.5e10 rad, where one float64 ulp of phase is
  2^-17 ~ 7.6e-6 rad; two independently rounded phase pipelines therefore
  disagree by a measured 4.94e-7 in probability, no matter how either side
  is written.

* criterion 7 expects the traditional curve's pointwise deviation to first
  exceed 0.5 between 0.5 and 3 s and the improved one between 20 and 30 s.
  The curves oscillate at ~4.5e9 rad/s, so any second-scale grid samples
  them fully aliased: the traditional deviation (phase slip 8.7e5 rad/s)
  exceeds 0.5 within a few grid steps, while the improved deviation's
  envelope |sin(0.01645 t)| + u/2(1+u) only reaches 0.474 by t = 30 s and
  would first cross 0.5 near t = 31.8 s, outside the window.
"""

import math
import time

import numpy as np

from perturba import (
    HyperfineConfig,
    PhysicalConstants,
    SweepSpec,
    angular_rates,
    build_problem,
    divergence_report,
    eigendecompose,
    exact_eigensystem_closed_form,
    g2,
    g3,
    g4,
    improved_energies,
    normalized_probabilities,
    redivide,
    transition_probability_exact,
)
from oracles import order_scaling_slopes

CONSTANTS = PhysicalConstants()


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    return ok


def test_criterion_1_g_value_goldens():
    started = time.perf_counter()
    ok = True
    for b_field in (1e-4, 1e-3, 1e-2):
        config = HyperfineConfig(b_field=b_field)
        w = config.constants.w_ev
        x = config.coupling_ev
        r = redivide(build_problem(config))
        quadratic = x * x / (4 * w)
        quartic = x**4 / (4 * w) ** 3
        expected = {
            (1, g2): quadratic,
            (1, g3): 0.0,
            (1, g4): -quartic,
            (3, g2): -quadratic,
            (3, g3): 0.0,
            (3, g4): quartic,
        }
        for level in (0, 2):
            for fn in (g2, g3, g4):
                expected[(level, fn)] = 0.0
        for (level, fn), want in expected.items():
            got = fn(r, level)
            if want == 0.0:
                ok = ok and got == 0.0
            else:
                ok = ok and abs(got - want) <= 1e-14 * abs(want)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report(1, "G-value goldens", ok, f"runtime {elapsed:.3f} s")


def test_criterion_2_energy_accuracy():
    config = HyperfineConfig(b_field=1e-3)
    w = config.constants.w_ev
    engine = improved_energies(redivide(build_problem(config)), 4).energies
    exact, _ = exact_eigensystem_closed_form(config)
    ok = abs(engine[1] - exact[1]) <= 1e-10 * w
    ok = ok and abs(engine[3] - exact[3]) <= 1e-10 * w
    ok = ok and abs(engine[0] - exact[0]) <= 1e-15 * abs(exact[0])
    ok = ok and abs(engine[2] - exact[2]) <= 1e-15 * abs(exact[2])
    assert report(
        2,
        "improved energies track exact",
        ok,
        f"|E2 residue| = {abs(engine[1] - exact[1]) / w:.2e} W",
    )


def test_criterion_3_frequency_goldens():
    started = time.perf_counter()
    exact, improved, traditional = angular_rates(CONSTANTS, 1e-3)
    ok = abs(exact - 4.46320474159e9) <= 1e-6 * 4.46320474159e9
    ok = ok and abs(improved - 4.46320474158e9) <= 1e-6 * 4.46320474158e9
    ok = ok and abs(traditional - 4.46233627125e9) <= 1e-6 * 4.46233627125e9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report(3, "angular frequency goldens", ok, f"runtime {elapsed:.3f} s")


def test_criterion_4_field_sweep_goldens():
    # improved-argument polynomial coefficients, extracted by evaluating
    # the closed-form rate at chosen fields (no curve fitting)
    base = float(angular_rates(CONSTANTS, 0.0)[1])
    b1, b2 = 1e-3, 1e-2
    d1 = float(angular_rates(CONSTANTS, b1)[1]) - base
    d2 = float(angular_rates(CONSTANTS, b2)[1]) - base
    det = b1**2 * b2**4 - b2**2 * b1**4
    quadratic = (d1 * b2**4 - d2 * b1**4) / det
    # the rate polynomial is base + quadratic B^2 - quartic B^4; the B^4
    # curve coefficient is the negative of this extracted magnitude
    quartic = (d1 * b2**2 - d2 * b1**2) / det
    ok = abs(base - 4.462336271259e9) <= 1e-6 * 4.462336271259e9
    ok = ok and abs(quadratic - 8.685548489539e11) <= 1e-6 * 8.685548489539e11
    ok = ok and abs(quartic - 8.452831429358e13) <= 1e-6 * 8.452831429358e13
    exact_at_milli = float(angular_rates(CONSTANTS, 1e-3)[0])
    reference = math.sqrt(1.991244499780e19 + 7.751567612132e21 * 1e-6)
    ok = ok and abs(exact_at_milli - reference) <= 1e-6 * reference
    assert report(4, "field-sweep goldens", ok)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    config = HyperfineConfig(b_field=1e-3)
    hbar = CONSTANTS.hbar_evs
    w = CONSTANTS.w_ev
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 20):
        for b_field in np.linspace(1e-4, 1e-2, 20):
            problem = build_problem(HyperfineConfig(b_field=b_field))
            engine = transition_probability_exact(problem, 3, 1, t, hbar).probability
            x = CONSTANTS.mu_e_ev_per_tesla * b_field
            omega_exact = -2.0 * math.sqrt(4.0 * w * w + x * x)
            closed = (
                x * x
                * math.sin(omega_exact * t / (2.0 * hbar)) ** 2
                / (omega_exact / 2.0) ** 2
            )
            worst = max(worst, abs(engine - closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    # expected FAIL: float64 phase granularity at 4.5e10 rad floors the
    # route-to-route agreement near 4.9e-7; see module docstring
    assert report(
        5,
        "eigensolver vs closed-form probability",
        ok,
        f"max |diff| = {worst:.2e}, runtime {elapsed:.2f} s",
    )


def test_criterion_6_order_scaling():
    started = time.perf_counter()

    def exact_eigenvalues(h_full):
        return eigendecompose(h_full).eigenvalues

    slopes4, slopes2 = order_scaling_slopes(
        seed=123,
        lams=np.logspace(-1, -3, 7),
        n_problems=50,
        exact_eigenvalues=exact_eigenvalues,
    )
    elapsed = time.perf_counter() - started
    ok = slopes4.min() >= 4.5 and slopes2.min() >= 2.5 and elapsed < 10.0
    assert report(
        6,
        "order scaling of improved energies",
        ok,
        f"min slopes {slopes4.min():.2f} / {slopes2.min():.2f}, runtime {elapsed:.2f} s",
    )


def test_criterion_7_divergence_ordering():
    spec = SweepSpec(
        mode="time", fixed_value=1e-3, start=0.0, stop=30.0, samples=3_000_000
    )
    t_traditional, t_improved = divergence_report(
        spec, HyperfineConfig(b_field=1e-3), 0.5
    )
    ok = 0.5 <= t_traditional <= 3.0
    ok = ok and t_traditional < t_improved
    ok = ok and 20.0 <= t_improved <= 30.0
    # expected FAIL: the brackets presume the curves are resolvable on a
    # second-scale grid; see module docstring (ordering itself does hold)
    assert report(
        7,
        "divergence ordering and brackets",
        ok,
        f"t_trad = {t_traditional:.3e}, t_impr = {t_improved}",
    )


def test_criterion_8_amplitude_envelope():
    config = HyperfineConfig(b_field=0.036)
    u = (config.coupling_ev / (2.0 * config.constants.w_ev)) ** 2
    ceiling = 1.0 / (1.0 + u)
    t = np.linspace(0.0, 4e-5, 800001)
    p_exact, p_improved, p_traditional = normalized_probabilities(config, t)
    ok = abs(p_exact.max() - ceiling) <= 1e-6
    ok = ok and p_exact.max() < p_improved.max()
    ok = ok and p_exact.max() < p_traditional.max()
    ok = ok and p_improved.max() >= 1.0 - 1e-6
    ok = ok and p_traditional.max() >= 1.0 - 1e-6
    assert report(
        8, "amplitude envelope at strong field", ok, f"exact ceiling {ceiling:.6f}"
    )
