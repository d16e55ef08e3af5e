"""Constants chain, basis construction, closed forms, and the normalized curves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import powers_of_ten

from perturba import hyperfine
from perturba import (
    HyperfineConfig,
    PhysicalConstants,
    angular_rates,
    build_problem,
    eigendecompose,
    exact_eigensystem_closed_form,
    improved_energies,
    improved_energies_closed_form,
    normalized_probabilities,
    pauli_operators,
    redivide,
    transition_probability_exact,
    transition_probability_improved,
    transition_probability_traditional,
)
from perturba.errors import DegenerateDenominator

# published reference values for this system
W_REF = 1.46858145124e-6  # eV
RATE_EXACT_REF = 4.46320474159e9  # rad/s at B = 1e-3 T
RATE_IMPROVED_REF = 4.46320474158e9
RATE_TRADITIONAL_REF = 4.46233627125e9
FIELD_QUADRATIC_REF = 8.685548489539e11  # rad s^-1 T^-2
FIELD_QUARTIC_REF = 8.452831429358e13  # rad s^-1 T^-4
FIELD_EXACT_CONST_REF = 1.991244499780e19  # rad^2 s^-2
FIELD_EXACT_QUAD_REF = 7.751567612132e21  # rad^2 s^-2 T^-2


def unit_constants():
    """Synthetic constants giving W = 1 eV and mu_e = 0.1 eV/T exactly enough."""
    e = 1.60217653e-19
    h = 6.6260693e-34
    return PhysicalConstants(
        mu_e=0.1 * e, delta_nu_h=4.0 * e / h, planck_h=h, elementary_charge=e
    )


class TestConstants:
    def test_w_matches_published_value(self):
        # computed W sits 1.17e-9 relative above the published 12-digit
        # value; the difference traces to rounding in that source (its own
        # inputs reproduce it only to ~1.2e-9), so this allows 2e-9 while
        # the derived-rate checks below pin everything at 1e-6.
        w = PhysicalConstants().w_ev
        assert w == pytest.approx(W_REF, rel=2e-9)

    def test_hbar_in_ev_seconds(self):
        assert PhysicalConstants().hbar_evs == pytest.approx(6.58211915e-16, rel=1e-8)

    def test_mu_e_in_ev_per_tesla(self):
        assert PhysicalConstants().mu_e_ev_per_tesla == pytest.approx(
            5.79509433e-5, rel=1e-8
        )

    def test_overridable(self):
        doubled = PhysicalConstants(planck_h=2 * 6.6260693e-34)
        assert doubled.w_ev == pytest.approx(2 * PhysicalConstants().w_ev, rel=1e-15)

    def test_perturbative_flag(self):
        assert HyperfineConfig(b_field=1e-3).is_perturbative
        assert not HyperfineConfig(b_field=0.036).is_perturbative

    @pytest.mark.parametrize(
        "name", ["mu_e", "delta_nu_h", "planck_h", "elementary_charge"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            PhysicalConstants(**{name: value})

    @pytest.mark.parametrize(
        "inputs, name",
        [
            ({"planck_h": 1e-320, "elementary_charge": 1e300}, "hbar_evs"),
            ({"planck_h": 1e10, "delta_nu_h": 1e300}, "w_ev"),
            ({"planck_h": 1e-300, "delta_nu_h": 1e-30}, "w_ev"),
            ({"mu_e": 1e-320, "elementary_charge": 1e10}, "mu_e_ev_per_tesla"),
            ({"mu_e": 1e300, "elementary_charge": 1e-300}, "mu_e_ev_per_tesla"),
        ],
    )
    def test_derived_quantities_must_be_finite_and_positive(self, inputs, name):
        # each input is finite and > 0, but a derived eV quantity is 0 or inf
        with pytest.raises(ValueError, match=f"derived {name} must be finite and > 0"):
            PhysicalConstants(**inputs)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            HyperfineConfig(b_field=-1e-3)

    def test_field_whose_coupling_overflows_rejected(self):
        # mu_e = 1e-10 J/T is 6.2e8 eV/T, so B mu_e at 1e300 T overflows to
        # inf; build_problem warned on inf * 0 before the problem could refuse
        constants = PhysicalConstants(mu_e=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="derived coupling_ev must be finite, got inf"):
                HyperfineConfig(b_field=1e300, constants=constants)
            assert HyperfineConfig(b_field=1e299, constants=constants).coupling_ev < math.inf

    def test_w_whose_triple_overflows_is_refused_by_the_problem(self):
        # W = 8.9e307 eV: -3W in e0 overflowed with a warning before
        # PerturbationProblem refused the non-finite diagonal
        config = HyperfineConfig(b_field=1e-3, constants=PhysicalConstants(planck_h=4e280))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"e0 \+ diag\(h1\) contains non-finite"):
                build_problem(config)


def coupled_basis():
    """phi1..phi4 as build_problem uses them: the integer columns over their norms."""
    return (hyperfine._BASIS_INT / np.sqrt([1.0, 2.0, 1.0, 2.0])).T


class TestBasisAndBuild:
    def test_basis_orthonormal(self):
        m = coupled_basis().T
        assert np.max(np.abs(m.T @ m - np.eye(4))) <= 1e-15
        # the rescale divides by the integer columns' squared norms, exactly
        norms2 = np.diag(hyperfine._BASIS_INT.T @ hyperfine._BASIS_INT)
        assert np.array_equal(norms2, [1.0, 2.0, 1.0, 2.0])
        assert np.array_equal(hyperfine._RESCALE, np.sqrt(np.outer(norms2, norms2)))

    def test_basis_vectors(self):
        phi1, phi2, phi3, phi4 = coupled_basis()
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_array_equal(phi1, [1, 0, 0, 0])
        np.testing.assert_array_equal(phi2, [0, r, r, 0])
        np.testing.assert_array_equal(phi3, [0, 0, 0, 1])
        np.testing.assert_array_equal(phi4, [0, r, -r, 0])

    def test_spin_coupling_eigenvectors(self):
        spin_dot, _, _ = pauli_operators()
        phi1, phi2, phi3, phi4 = coupled_basis()
        np.testing.assert_array_equal(spin_dot @ phi1, phi1)
        np.testing.assert_array_equal(spin_dot @ phi2, phi2)
        np.testing.assert_array_equal(spin_dot @ phi3, phi3)
        np.testing.assert_array_equal(spin_dot @ phi4, -3.0 * phi4)

    def test_zeeman_swaps_triplet_zero_and_singlet(self):
        _, sigma_ez, _ = pauli_operators()
        phi1, phi2, phi3, phi4 = coupled_basis()
        np.testing.assert_array_equal(sigma_ez @ phi1, phi1)
        np.testing.assert_array_equal(sigma_ez @ phi2, phi4)
        np.testing.assert_array_equal(sigma_ez @ phi3, -phi3)
        np.testing.assert_array_equal(sigma_ez @ phi4, phi2)

    def test_build_matches_displayed_matrix_at_unit_values(self):
        config = HyperfineConfig(b_field=1.0, constants=unit_constants())
        w, x = 1.0, 0.1
        expected = np.array(
            [
                [w + x, 0, 0, 0],
                [0, w, 0, x],
                [0, 0, w - x, 0],
                [0, x, 0, -3 * w],
            ]
        )
        full = build_problem(config).full_hamiltonian()
        np.testing.assert_allclose(full.real, expected, rtol=1e-13, atol=0.0)
        assert np.all(full.imag == 0.0)

    def test_build_structure_is_exact(self):
        config = HyperfineConfig(b_field=1e-3)
        w = config.constants.w_ev
        x = config.coupling_ev
        problem = build_problem(config)
        np.testing.assert_array_equal(problem.e0, [w, w, w, -3 * w])
        expected_h1 = np.zeros((4, 4), dtype=complex)
        expected_h1[0, 0] = x
        expected_h1[2, 2] = -x
        expected_h1[1, 3] = expected_h1[3, 1] = x
        np.testing.assert_array_equal(problem.h1, expected_h1)

    @pytest.mark.parametrize("b_field", [0.0, 1e-4, 1e-3, 2.5e-3, 1e-2, 0.036, 1.0])
    def test_build_matches_fresh_pauli_algebra(self, b_field):
        # build_problem reuses operators built once at import; the same
        # transform on a fresh pauli_operators() gives the same bits
        config = HyperfineConfig(b_field=b_field)
        spin_dot, sigma_ez, _ = pauli_operators()
        basis_int = np.array(
            [[1.0, 0, 0, 0], [0, 1.0, 0, 1.0], [0, 1.0, 0, -1.0], [0, 0, 1.0, 0]]
        )
        rescale = np.sqrt(np.multiply.outer([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0]))
        h0 = (basis_int.T @ (config.constants.w_ev * spin_dot) @ basis_int) / rescale
        h1 = (basis_int.T @ (config.coupling_ev * sigma_ez) @ basis_int) / rescale
        problem = build_problem(config)
        assert np.array_equal(problem.e0, np.diag(h0))
        assert np.array_equal(problem.h1, h1)

    def test_pauli_operators_are_fresh_arrays(self):
        first = pauli_operators()
        first[0][0, 0] = 99.0
        assert pauli_operators()[0][0, 0] == 1.0
        assert build_problem(HyperfineConfig(b_field=0.0)).e0[0] == PhysicalConstants().w_ev

    def test_build_constants_are_read_only(self):
        for name in ("_E0", "_ZEEMAN", "_BASIS_INT", "_RESCALE"):
            assert not getattr(hyperfine, name).flags.writeable

    def test_zero_field_has_no_negative_zero(self):
        # 0 * Z would leave -0.0 where Z is -1; build_problem stores +0.0
        h1 = build_problem(HyperfineConfig(b_field=0.0)).h1
        assert not np.any(np.signbit(h1.real) | np.signbit(h1.imag))

    def test_zeeman_action_on_triplet_zero(self):
        # H1 phi2 = (B mu_e) phi4 in the product basis
        config = HyperfineConfig(b_field=1e-3)
        _, sigma_ez, _ = pauli_operators()
        _, phi2, _, phi4 = coupled_basis()
        h1_product = config.coupling_ev * sigma_ez
        np.testing.assert_array_equal(h1_product @ phi2, config.coupling_ev * phi4)

    def test_zero_field(self):
        config = HyperfineConfig(b_field=0.0)
        problem = build_problem(config)
        assert np.all(problem.h1 == 0)
        w = config.constants.w_ev
        dec = eigendecompose(problem.full_hamiltonian())
        np.testing.assert_array_equal(dec.eigenvalues, [-3 * w, w, w, w])


class TestClosedForms:
    @pytest.mark.parametrize("b_field", [1e-4, 1e-3, 1e-2])
    def test_exact_closed_form_vs_eigensolver(self, b_field):
        config = HyperfineConfig(b_field=b_field)
        energies, vectors = exact_eigensystem_closed_form(config)
        dec = eigendecompose(build_problem(config).full_hamiltonian())
        order = np.argsort(energies, kind="stable")
        np.testing.assert_allclose(energies[order], dec.eigenvalues, rtol=1e-12)
        for k, idx in enumerate(order):
            overlap = abs(np.vdot(vectors[:, idx], dec.eigenvectors[:, k]))
            assert overlap >= 1.0 - 1e-12

    def test_exact_eigenvectors_orthonormal(self):
        _, vectors = exact_eigensystem_closed_form(HyperfineConfig(b_field=1e-2))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) <= 1e-14

    def test_zero_field_limit(self):
        config = HyperfineConfig(b_field=0.0)
        w = config.constants.w_ev
        energies, vectors = exact_eigensystem_closed_form(config)
        np.testing.assert_array_equal(energies, [w, w, w, -3 * w])
        np.testing.assert_array_equal(vectors, np.eye(4))

    def test_improved_closed_form_limits(self):
        config = HyperfineConfig(b_field=0.0)
        w = config.constants.w_ev
        np.testing.assert_array_equal(
            improved_energies_closed_form(config), [w, w, w, -3 * w]
        )

    def test_improved_engine_equals_closed_form(self):
        config = HyperfineConfig(b_field=1e-3)
        engine = improved_energies(redivide(build_problem(config)), 4).energies
        closed = improved_energies_closed_form(config)
        np.testing.assert_allclose(engine, closed, rtol=1e-14)

    def test_levels_one_three_are_exact(self):
        config = HyperfineConfig(b_field=1e-3)
        engine = improved_energies(redivide(build_problem(config)), 4).energies
        exact, _ = exact_eigensystem_closed_form(config)
        assert engine[0] == exact[0]
        assert engine[2] == exact[2]

    @pytest.mark.parametrize(
        "b_field, constants",
        [
            # W = 2.2e153 eV: (omega42 + omega42_exact)^2 overflows, and the
            # plain norm gave Psi2 a column of zeros, later a refusal
            (1e-3, PhysicalConstants(planck_h=1e126)),
            # 4 (B mu_e)^2 underflows and the exact gap rounds to 2W: Psi4's
            # plain norm is 0, and its column was nan, later a refusal
            (1e-300, PhysicalConstants()),
            # 4 (B mu_e)^2 is subnormal: Psi4's plain length was 1 + 3.5e-3
            (1e-157, PhysicalConstants()),
        ],
        ids=["norm-overflows", "norm-underflows", "norm-subnormal"],
    )
    def test_eigenvector_norm_beyond_float64_is_unit(self, b_field, constants):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies, vectors = exact_eigensystem_closed_form(HyperfineConfig(b_field, constants))
        assert np.isfinite(energies).all() and np.isfinite(vectors).all()
        # Psi4 is exactly -phi4 there, as a4 = 0 and hypot(0, 2x) = 2x
        assert vectors[:, 3].tolist() == [0.0, 0.0, 0.0, -1.0]
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), rtol=0.0, atol=4e-16)

    def test_one_route_for_the_gaps(self):
        # a Python float's or numpy scalar's x**4 is libm's pow and an
        # array's is numpy's own, which differ by an ulp at some fields; the
        # rates of a scalar field and the closed forms take the array route
        # of the curves
        constants = PhysicalConstants()
        w = constants.w_ev
        differ = []
        for b_field in 10.0 ** np.random.default_rng(36).uniform(-4.0, 2.0, 2000):
            scalar = angular_rates(constants, float(b_field))
            array = angular_rates(constants, np.array([b_field]))
            same = [float(one).hex() == float(np.ravel(many)[0]).hex()
                    for one, many in zip(scalar, array)]
            config = HyperfineConfig(b_field=float(b_field))
            gap = hyperfine._gaps(w, np.asarray(config.coupling_ev, dtype=np.float64))[1]
            levels = improved_energies_closed_form(config)[[1, 3]]
            same.append(levels.tobytes() == np.array([-w + gap, -w - gap]).tobytes())
            if not all(same):
                differ.append(b_field)
        assert differ == []

    def test_improved_tracks_exact_to_sixth_order(self):
        config = HyperfineConfig(b_field=1e-3)
        w = config.constants.w_ev
        improved = improved_energies_closed_form(config)
        exact, _ = exact_eigensystem_closed_form(config)
        for level in (1, 3):
            residue = abs(improved[level] - exact[level])
            assert 0.0 < residue <= 1e-10 * w


class TestNormalizedCurves:
    def test_zero_time(self):
        assert normalized_probabilities(HyperfineConfig(b_field=1e-3), 0.0) == (
            0.0,
            0.0,
            0.0,
        )

    def test_rate_goldens_at_milli_tesla(self):
        exact, improved, traditional = angular_rates(PhysicalConstants(), 1e-3)
        assert exact == pytest.approx(RATE_EXACT_REF, rel=1e-6)
        assert improved == pytest.approx(RATE_IMPROVED_REF, rel=1e-6)
        assert traditional == pytest.approx(RATE_TRADITIONAL_REF, rel=1e-6)

    def test_curves_are_sin_squared_of_their_rates(self):
        config = HyperfineConfig(b_field=1e-3)
        exact, improved, traditional = angular_rates(config.constants, 1e-3)
        u = (config.coupling_ev / (2 * config.constants.w_ev)) ** 2
        t = 2.5e-9
        pT, pI, p = normalized_probabilities(config, t)
        assert pT == pytest.approx(np.sin(exact * t) ** 2 / (1 + u), rel=1e-12)
        assert pI == pytest.approx(np.sin(improved * t) ** 2, rel=1e-12)
        assert p == pytest.approx(np.sin(traditional * t) ** 2, rel=1e-12)

    def test_field_sweep_polynomial_coefficients(self):
        constants = PhysicalConstants()
        w, mu, hbar = constants.w_ev, constants.mu_e_ev_per_tesla, constants.hbar_evs
        assert mu * mu / (4 * w * hbar) == pytest.approx(FIELD_QUADRATIC_REF, rel=1e-6)
        assert mu**4 / ((4 * w) ** 3 * hbar) == pytest.approx(
            FIELD_QUARTIC_REF, rel=1e-6
        )
        assert (2 * w / hbar) ** 2 == pytest.approx(FIELD_EXACT_CONST_REF, rel=1e-6)
        assert (mu / hbar) ** 2 == pytest.approx(FIELD_EXACT_QUAD_REF, rel=1e-6)

    def test_coefficients_recoverable_from_rate_evaluations(self):
        # two-point solve of rate(B) - rate(0) = q B^2 - r B^4
        constants = PhysicalConstants()
        base = angular_rates(constants, 0.0)[1]
        b1, b2 = 1e-3, 1e-2
        d1 = angular_rates(constants, b1)[1] - base
        d2 = angular_rates(constants, b2)[1] - base
        det = b1**2 * b2**4 - b2**2 * b1**4
        q = (d1 * b2**4 - d2 * b1**4) / det
        r = (d1 * b2**2 - d2 * b1**2) / det
        assert base == pytest.approx(4.462336271259e9, rel=1e-6)
        assert q == pytest.approx(FIELD_QUADRATIC_REF, rel=1e-6)
        assert r == pytest.approx(FIELD_QUARTIC_REF, rel=1e-6)

    def test_exact_rate_square_root_form(self):
        exact = angular_rates(PhysicalConstants(), 1e-3)[0]
        assert exact == pytest.approx(
            np.sqrt(FIELD_EXACT_CONST_REF + FIELD_EXACT_QUAD_REF * 1e-6), rel=1e-6
        )

    def test_traditional_curve_field_independent(self):
        t = np.linspace(0.0, 1e-8, 101)
        _, _, p_small = normalized_probabilities(HyperfineConfig(b_field=1e-4), t)
        _, _, p_large = normalized_probabilities(HyperfineConfig(b_field=3e-2), t)
        assert np.array_equal(p_small, p_large)

    def test_raw_probabilities_consistent_with_normalized(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            b_field = 10.0 ** rng.uniform(-4, -2)
            # keep phases small: float64 cannot align independent phase
            # pipelines at 1e-12 once omega t / hbar reaches ~1e9 rad
            t = rng.uniform(0.0, 1e-8)
            config = HyperfineConfig(b_field=b_field)
            hbar = config.constants.hbar_evs
            problem = build_problem(config)
            r = redivide(problem)
            spectrum = improved_energies(r, 4)
            factor = (2.0 * config.constants.w_ev / config.coupling_ev) ** 2
            pT, pI, p = normalized_probabilities(config, t)
            raw_exact = transition_probability_exact(problem, 3, 1, t, hbar)
            raw_improved = transition_probability_improved(r, spectrum, 3, 1, t, hbar)
            raw_traditional = transition_probability_traditional(r, 3, 1, t, hbar)
            assert raw_exact.probability * factor == pytest.approx(pT, abs=1e-12)
            assert raw_improved.probability * factor == pytest.approx(pI, abs=1e-12)
            assert raw_traditional.probability * factor == pytest.approx(p, abs=1e-12)

    def test_amplitude_envelope_at_strong_field(self):
        # at 0.036 T the exact curve's ceiling drops visibly below 1 while
        # the two perturbative curves still reach unit amplitude
        config = HyperfineConfig(b_field=0.036)
        u = (config.coupling_ev / (2 * config.constants.w_ev)) ** 2
        t = np.linspace(0.0, 4e-5, 800001)
        pT, pI, p = normalized_probabilities(config, t)
        ceiling = 1.0 / (1.0 + u)
        assert np.all(pT <= ceiling + 1e-15)
        assert pT.max() == pytest.approx(ceiling, abs=1e-6)
        assert pI.max() >= 1.0 - 1e-6
        assert p.max() >= 1.0 - 1e-6
        assert pT.max() < pI.max() and pT.max() < p.max()

    def test_exact_and_improved_coincide_at_weak_field(self):
        # around 1e-4 T at t = 1 s the two field-dependent curves agree to
        # a few 1e-6 absolute (amplitude mismatch u dominates)
        b = np.linspace(0.9e-4, 1.1e-4, 2001)
        constants = PhysicalConstants()
        x = constants.mu_e_ev_per_tesla * b
        from perturba.hyperfine import _normalized_triple

        pT, pI, _ = _normalized_triple(constants.w_ev, x, constants.hbar_evs, 1.0)
        assert np.max(np.abs(pT - pI)) <= 1e-3


class TestFloat64Edge:
    """At float64's edge the public curve functions raise ValueError, and no
    numpy RuntimeWarning comes first."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "b_field, t",
        [
            (1e-3, math.inf),  # sin(inf)
            (1e-3, 1e300),  # 4.46e9 rad/s for 1e300 s
            (1e-3, np.array([0.0, 1e-9, 1e300])),
            (1e-3, math.nan),
            (1e300, 0.0),  # the exact gap is inf, and inf * 0 is nan
        ],
    )
    def test_curves_beyond_float64_raise(self, b_field, t):
        with pytest.raises(ValueError) as refusal:
            normalized_probabilities(HyperfineConfig(b_field=b_field), t)
        t_max = f"{np.max(np.abs(t)):.3g}"
        assert str(refusal.value) == (
            f"phases leave float64 at |B| <= {b_field:.3g} T, |t| <= {t_max} s"
        )

    def test_curves_near_the_float64_limit_are_kept(self):
        # 4.46e9 rad/s out to 1e298 s stays below 1.8e308 rad
        curves = normalized_probabilities(HyperfineConfig(b_field=1e-3), np.array([0.0, 1e298]))
        assert all(np.isfinite(curve).all() for curve in curves)

    @pytest.mark.parametrize("b_field", [1e150, np.array([0.0, 1e-3, 1e150]), 1e81])
    def test_rates_beyond_float64_raise(self, b_field):
        # x**4 / (4W)^3 overflows at 1e81 T; at 1e150 T so does x**4 itself
        with pytest.raises(ValueError) as refusal:
            angular_rates(PhysicalConstants(), b_field)
        b_max = f"{np.max(b_field):.3g}"
        assert str(refusal.value) == f"phases leave float64 at |B| <= {b_max} T, |t| <= 0 s"

    def test_empty_inputs_give_empty_arrays(self):
        # the rule's largest |B| or |t| over no value is 0, not an error
        rates = angular_rates(PhysicalConstants(), np.array([]))
        curves = normalized_probabilities(HyperfineConfig(b_field=1e-3), np.array([]))
        assert [np.shape(value) for value in (*rates[:2], *curves)] == [(0,)] * 5

    def test_rates_near_the_float64_limit_are_kept(self):
        # x**4 / (4W)^3 / hbar at 1e73 T is about -8.5e305 rad/s
        assert all(np.isfinite(rate) for rate in angular_rates(PhysicalConstants(), 1e73))

    @pytest.mark.parametrize("b_field", [0.0, 1e-3, np.array([0.0, 1e-3, 1e70])])
    def test_w_whose_cube_leaves_float64_is_kept(self, b_field):
        # planck_h = 1e100 gives W = 2.2e127 eV: (4W)^3 overflowed a Python
        # float with OverflowError, and a finite x^4 / (4W)^3 is lost in 2W
        config = HyperfineConfig(b_field=1e-3, constants=PhysicalConstants(planck_h=1e100))
        w, x = config.constants.w_ev, config.constants.mu_e_ev_per_tesla * b_field
        exact, improved = hyperfine._gaps(w, x)
        assert np.array_equal(improved, 2.0 * w + x * x / (4.0 * w))
        assert np.array_equal(exact, np.sqrt(4.0 * w * w + x * x))
        assert all(np.isfinite(rate).all() for rate in angular_rates(config.constants, b_field))
        curves = normalized_probabilities(config, np.array([0.0, 1e-9, 1.0]))
        assert all(np.isfinite(curve).all() for curve in curves)


def engine_chain(config, t):
    """The engine's 2 -> 4 route: its improved energies and exact probability."""
    problem = build_problem(config)
    spectrum = improved_energies(redivide(problem), 4)
    exact = transition_probability_exact(problem, 3, 1, t, config.constants.hbar_evs)
    return spectrum.energies, exact.probability


class TestExtremeInputs:
    """Constants, fields and times anywhere in float64's range: each public
    entry point returns finite values or raises ValueError (the engine's G
    sums DegenerateDenominator), never another exception or a numpy warning."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_call_is_finite_or_refused(self, data):
        keys = ("mu_e", "delta_nu_h", "planck_h", "elementary_charge")
        constants = data.draw(st.dictionaries(st.sampled_from(keys), powers_of_ten()))
        b_field = data.draw(st.one_of(st.just(0.0), powers_of_ten()))
        t = data.draw(st.one_of(st.just(0.0), powers_of_ten()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                config = HyperfineConfig(b_field, PhysicalConstants(**constants))
            except ValueError:
                return
            calls = (
                lambda: exact_eigensystem_closed_form(config),
                lambda: (improved_energies_closed_form(config),),
                lambda: normalized_probabilities(config, t),
                lambda: angular_rates(config.constants, b_field),
                lambda: engine_chain(config, t),
            )
            for call in calls:
                try:
                    values = call()
                except (ValueError, DegenerateDenominator):
                    continue
                assert all(np.isfinite(value).all() for value in values)
