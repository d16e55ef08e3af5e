"""Hermitian validation, eigensolver, and spectral evolution checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_eigh, reference_order_and_fix_phase, reference_require_hermitian
from perturba import (
    ConvergenceFailure,
    DimensionMismatch,
    HyperfineConfig,
    NonHermitianInput,
    build_problem,
    eigendecompose,
    evolve,
    pauli_operators,
    require_hermitian,
)
from perturba.hermitian import _order_and_fix_phase, _propagate


def random_hermitian(rng, dim, complex_valued=True):
    m = rng.normal(size=(dim, dim))
    if complex_valued:
        m = m + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_convention(h, dec):
    """Reconstruction, orthonormality, real positive lead components, and
    exact ties ordered by dominant-component index."""
    w, v = dec.eigenvalues, dec.eigenvectors
    dim = w.shape[0]
    h_max = np.max(np.abs(h))
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-12 * h_max
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12
    dominant = np.argmax(np.abs(v), axis=0)
    lead = v[dominant, np.arange(dim)]
    assert np.all(np.abs(lead.imag) <= 1e-15)
    assert np.all(lead.real > 0)
    assert np.all(np.diff(w) >= 0)
    for k in range(dim - 1):
        if w[k] == w[k + 1]:
            assert dominant[k] <= dominant[k + 1]


def taylor_propagator(h, t, hbar, order=12):
    """Scaled-and-squared Taylor series for exp(-i h t / hbar)."""
    a = np.asarray(h, dtype=complex) * (-1j * t / hbar)
    norm = np.linalg.norm(a)
    squarings = 0
    while norm / 2**squarings > 0.25:
        squarings += 1
    m = a / 2**squarings
    u = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ m / k
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return u


# any finite float, including +-0.0 and subnormals
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def exact_hermitian(draw, min_dim=0):
    """An exactly Hermitian complex matrix: each lower entry is the
    conjugate of its upper mirror, and diagonal imaginary parts are +-0.0."""
    n = draw(st.integers(min_dim, 5))
    parts = draw(st.lists(FINITE, min_size=2 * n * n, max_size=2 * n * n))
    h = np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
    lower = np.tril_indices(n, -1)
    h[lower] = h.T[lower].conj()
    zero_signs = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    h.imag[np.diag_indices(n)] = zero_signs
    return h


@st.composite
def near_hermitian(draw):
    """An exactly Hermitian matrix, left as it is or changed at one drawn
    entry (i, j) and its mirror (j, i): one entry moved by up to 3e-13 of
    max |h|, so both verdicts are drawn; signed zeros, -0.0 against +0.0;
    an imaginary diagonal part near the bound; inf or nan, mirrored."""
    h = draw(exact_hermitian(min_dim=1))
    n = h.shape[0]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(
        st.sampled_from(["exact", "moved", "signed_zero", "imaginary_diagonal", "non_finite"])
    )
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max(np.abs(h))
        if kind == "moved":
            rel = draw(st.tuples(st.floats(-3e-13, 3e-13), st.floats(-3e-13, 3e-13)))
            h[i, j] += complex(rel[0] * scale, rel[1] * scale)
        elif kind == "signed_zero":
            zero = st.sampled_from([0.0, -0.0])
            h[i, j] = complex(draw(zero), draw(zero))
            h[j, i] = complex(draw(zero), draw(zero))
        elif kind == "imaginary_diagonal":
            h[i, i] += 1j * draw(st.floats(-1e-13, 1e-13)) * scale
        elif kind == "non_finite":
            value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            h[i, j] = h[j, i] = complex(value, 0.0) if draw(st.booleans()) else complex(0.0, value)
    return h


@st.composite
def below_two(draw):
    """A complex matrix whose parts are multiples of 2**-51 below 2 in
    magnitude: as drawn, or made exactly Hermitian with one entry then moved
    by up to 3e-13 of max |h|, so both verdicts are drawn. Times 2**1023
    every part stays finite, while |m|, m - m^H or both can overflow."""
    n = draw(st.integers(1, 4))
    top = 2**52 - 2**20
    parts = draw(st.lists(st.integers(-top, top), min_size=2 * n * n, max_size=2 * n * n))
    h = (np.array(parts, dtype=np.float64) * 2.0**-51).view(np.complex128).reshape(n, n)
    if draw(st.booleans()):
        h = np.triu(h, 1) + np.triu(h, 1).conj().T + np.diag(h.diagonal().real)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rel = draw(st.tuples(st.floats(-3e-13, 3e-13), st.floats(-3e-13, 3e-13)))
        scale = np.max(np.abs(h))
        h[i, j] += complex(rel[0] * scale, rel[1] * scale)
    return h


class TestRequireHermitian:
    @given(h=near_hermitian())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_gate(self, h):
        # the same bits, or NonHermitianInput with the same message; numpy's
        # overflow warnings on huge entries are the reference's, not the verdict
        def outcome(gate):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    out = gate(h)
            except NonHermitianInput as exc:
                return str(exc)
            return out.dtype, out.shape, out.tobytes()

        assert outcome(require_hermitian) == outcome(reference_require_hermitian)

    def test_imaginary_diagonal_within_the_bound_is_projected(self):
        h = np.diag([1.0 + 5e-14j, -2.0])
        out = require_hermitian(h)
        assert out.tobytes() == reference_require_hermitian(h).tobytes()
        np.testing.assert_array_equal(out, np.diag([1.0, -2.0]))

    def test_signed_zero_mirrors_come_back_as_they_are(self):
        h = np.array([[1.0, complex(-0.0, -0.0)], [complex(0.0, 0.0), 2.0]])
        assert require_hermitian(h).tobytes() == h.tobytes()

    @pytest.mark.parametrize("value", [math.inf, math.nan, complex(0.0, math.inf)])
    def test_mirrored_non_finite_entries_are_refused(self, value):
        # inf == conj(inf) passes the Hermitian comparison, and nan > bound is
        # false; only the finite check refuses them
        h = np.eye(3, dtype=complex)
        h[0, 2] = h[2, 0] = value
        with pytest.raises(NonHermitianInput, match="non-finite"):
            require_hermitian(h)

    @given(h=exact_hermitian())
    @settings(max_examples=200, deadline=None)
    def test_exact_hermitian_input_is_returned_bit_for_bit(self, h):
        out = require_hermitian(h)
        assert out.dtype == np.complex128 and out.shape == h.shape
        assert out.tobytes() == h.tobytes()

    @given(
        h=exact_hermitian(min_dim=1),
        where=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        rel=st.tuples(st.floats(-3e-13, 3e-13), st.floats(-3e-13, 3e-13)),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepted_output_is_exactly_hermitian(self, h, where, rel):
        # offsets near the relative bound, so both verdicts are drawn
        i, j = where[0] % h.shape[0], where[1] % h.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.max(np.abs(h))
            h[i, j] += complex(rel[0] * scale, rel[1] * scale)
        try:
            out = require_hermitian(h)
        except NonHermitianInput:
            return
        assert np.all(np.isfinite(out.view(np.float64)))
        assert np.array_equal(out, out.conj().T)
        assert np.all(np.diag(out).imag == 0.0)

    def test_zero_matrix_passes(self):
        assert np.array_equal(require_hermitian(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_asymmetry_at_hyperfine_scale_is_rejected(self):
        # entries ~1e-6, as in the hyperfine problem in eV, with a relative
        # asymmetry of 1e-12: an absolute 1e-13 bound would accept it
        h = 1e-6 * pauli_operators()[0]
        require_hermitian(h)
        h[1, 2] += 1e-12 * np.max(np.abs(h))
        with pytest.raises(NonHermitianInput, match="not Hermitian"):
            require_hermitian(h)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_verdict_does_not_depend_on_units(self, scale):
        h = random_hermitian(np.random.default_rng(17), 5)
        h_max = np.max(np.abs(h))
        require_hermitian(scale * h)
        slightly_off = h.copy()
        slightly_off[0, 3] += 1e-15 * h_max
        require_hermitian(scale * slightly_off)
        far_off = h.copy()
        far_off[0, 3] += 1e-11 * h_max
        with pytest.raises(NonHermitianInput):
            require_hermitian(scale * far_off)


    @pytest.mark.parametrize(
        "h",
        [
            [[0.0, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 0.0]],  # m^H = -m
            [[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]],
            [[0.0, 1e308], [-1e308, 0.0]],
            [[1e308 + 1e308j, 0.0], [0.0, 1.0]],
        ],
    )
    def test_asymmetry_beyond_float64_is_refused_without_a_warning(self, h):
        # m - m^H overflows, and with it max |m| on the first two: inf > inf
        # let them through, and the others warned first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match=r"max \|m - m\^H\| = inf > "):
                require_hermitian(h)

    @given(h=below_two())
    @settings(max_examples=300, deadline=None)
    def test_verdict_holds_at_the_edge_of_float64(self, h):
        # the verdict on m and on m * 2**1023, whose figures overflow, agree;
        # the accepted one comes back finite and exactly Hermitian
        def verdict(m):
            try:
                return require_hermitian(m)
            except NonHermitianInput:
                return None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, edge = verdict(h), verdict(h * 2.0**1023)
        assert (out is None) == (edge is None)
        if edge is not None:
            assert np.all(np.isfinite(edge.view(np.float64)))
            assert np.array_equal(edge, edge.conj().T)


class TestEigendecompose:
    def test_identity(self):
        dec = eigendecompose(np.eye(2))
        assert np.array_equal(dec.eigenvalues, [1.0, 1.0])
        assert np.array_equal(dec.eigenvectors, np.eye(2))

    def test_already_diagonal(self):
        dec = eigendecompose(np.diag([-3.0, 1.0]))
        assert np.array_equal(dec.eigenvalues, [-3.0, 1.0])

    def test_hyperfine_shape_at_symbolic_values(self):
        # W = 1, B mu_e = 0.1: spectrum is {W +- x, -W +- sqrt(4 W^2 + x^2)}
        w, x = 1.0, 0.1
        h = np.array(
            [
                [w + x, 0, 0, 0],
                [0, w, 0, x],
                [0, 0, w - x, 0],
                [0, x, 0, -3 * w],
            ]
        )
        root = math.sqrt(4 * w * w + x * x)
        expected = sorted([w + x, -w + root, w - x, -w - root])
        np.testing.assert_allclose(eigendecompose(h).eigenvalues, expected, rtol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 6)
        first = eigendecompose(h)
        second = eigendecompose(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        dec = eigendecompose(random_hermitian(rng, 5))
        for k in range(5):
            col = dec.eigenvectors[:, k]
            lead = col[np.argmax(np.abs(col))]
            assert lead.imag == pytest.approx(0.0, abs=1e-15)
            assert lead.real > 0

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 8), cplx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, dim, cplx):
        h = random_hermitian(np.random.default_rng(seed), dim, cplx)
        dec = eigendecompose(h)
        v = dec.eigenvectors
        h_max = np.max(np.abs(h))
        rebuilt = v @ np.diag(dec.eigenvalues) @ v.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-12 * h_max
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12
        h_norm = np.linalg.norm(h)
        for k in range(dim):
            residual = np.linalg.norm(h @ v[:, k] - dec.eigenvalues[k] * v[:, k])
            assert residual <= 1e-12 * h_norm
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_eigh(self, seed, dim):
        h = random_hermitian(np.random.default_rng(seed), dim)
        dec = eigendecompose(h)
        np.testing.assert_allclose(
            dec.eigenvalues,
            np.linalg.eigvalsh(h),
            rtol=1e-12,
            atol=1e-13 * np.linalg.norm(h),
        )

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 8), cplx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_jacobi_oracle(self, seed, dim, cplx):
        h = random_hermitian(np.random.default_rng(seed), dim, cplx)
        dec = eigendecompose(h)
        w_ref, v_ref = jacobi_eigh(h)
        h_norm = np.linalg.norm(h)
        np.testing.assert_allclose(dec.eigenvalues, w_ref, rtol=1e-12, atol=1e-13 * h_norm)
        if dim == 1 or np.min(np.diff(w_ref)) > 1e-6 * h_norm:
            assert np.max(np.abs(dec.eigenvectors - v_ref)) <= 1e-10

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 8), ties=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_phase_fix_matches_column_loop(self, seed, dim, ties):
        # ascending values with up to `ties` exact repeats, columns from a
        # random unitary: the vectorized fix picks the same columns and lead
        # components as the per-column loop; the phase factors may differ in
        # the last bit (array vs scalar complex division)
        rng = np.random.default_rng(seed)
        w = np.sort(rng.normal(size=dim))
        for k in rng.integers(1, dim, size=ties) if dim > 1 else ():
            w[k] = w[k - 1]
        v = random_unitary(rng, dim)
        got_w, got_v = _order_and_fix_phase(w.copy(), v.copy())
        ref_w, ref_v = reference_order_and_fix_phase(w.copy(), v.copy())
        assert np.array_equal(got_w, ref_w)
        assert np.array_equal(
            np.argmax(np.abs(got_v), axis=0), np.argmax(np.abs(ref_v), axis=0)
        )
        assert np.max(np.abs(got_v - ref_v), initial=0.0) <= 1e-15

    def test_empty_matrix(self):
        dec = eigendecompose(np.zeros((0, 0)))
        assert dec.dim == 0
        assert dec.eigenvectors.shape == (0, 0)

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eigendecompose(np.diag([1.0, 2.0]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = random_hermitian(rng, int(rng.integers(1, 9)))
            dec = eigendecompose(h)
            assert abs(dec.eigenvalues.sum() - np.trace(h).real) <= 1e-12 * max(
                np.linalg.norm(h), 1.0
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonHermitianInput):
            eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianInput):
            eigendecompose(np.zeros((2, 3)))


class TestExactTies:
    """Degenerate inputs that are not diagonal: LAPACK returns an arbitrary
    basis of each degenerate subspace, so the ordering and phase
    convention must still hold and the output must be repeatable."""

    def check(self, h):
        first = eigendecompose(h)
        second = eigendecompose(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        check_convention(h, first)
        return first

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("spectrum", [(1.0, 1.0, 2.0), (-1.0, 3.0, 3.0, 3.0)])
    def test_rotated_degenerate_diagonal(self, seed, spectrum):
        u = random_unitary(np.random.default_rng(seed), len(spectrum))
        h = u @ np.diag(spectrum) @ u.conj().T
        dec = self.check((h + h.conj().T) / 2.0)
        np.testing.assert_allclose(dec.eigenvalues, sorted(spectrum), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("w", [1.46858145124e-6, 1.0])
    def test_zero_field_hyperfine_in_product_basis(self, w):
        # W sigma_e . sigma_p at B = 0: triplet W (threefold) and singlet -3W
        dec = self.check(w * pauli_operators()[0])
        np.testing.assert_allclose(dec.eigenvalues, [-3 * w, w, w, w], rtol=1e-15)
        if w == 1.0:
            # integer entries: LAPACK returns the triplet as three exactly
            # equal values, so the tie ordering in check() is exercised
            assert dec.eigenvalues[1] == dec.eigenvalues[2] == dec.eigenvalues[3]

    def test_zero_field_hyperfine_in_coupled_basis(self):
        w = 1.46858145124e-6
        h = np.diag([w, w, w, -3 * w])
        dec = self.check(h)
        assert np.array_equal(dec.eigenvalues, [-3 * w, w, w, w])
        assert np.array_equal(dec.eigenvectors, np.eye(4)[:, [3, 0, 1, 2]])

    def test_tie_group_ordered_by_dominant_index(self):
        # columns of an exactly tied group arrive in reverse dominant order
        w = np.array([1.0, 1.0, 1.0, 2.0])
        v = np.eye(4, dtype=complex)[:, [2, 1, 0, 3]] * np.exp(1j * np.arange(4))
        got_w, got_v = _order_and_fix_phase(w, v)
        assert np.array_equal(got_w, [1.0, 1.0, 1.0, 2.0])
        np.testing.assert_allclose(got_v, np.eye(4), rtol=0, atol=1e-15)


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        out = evolve(eigendecompose(h), psi, 0.0, 1.0)
        np.testing.assert_allclose(out, psi, atol=1e-14)

    def test_eigenstate_picks_up_global_phase_only(self):
        rng = np.random.default_rng(2)
        dec = eigendecompose(random_hermitian(rng, 5))
        psi = dec.eigenvectors[:, 2]
        out = evolve(dec, psi, 0.7, 1.0)
        overlap = np.vdot(psi, out)
        assert abs(abs(overlap) - 1.0) <= 1e-12
        expected_phase = np.exp(-1j * dec.eigenvalues[2] * 0.7)
        assert overlap == pytest.approx(expected_phase, rel=1e-12)

    def test_against_taylor_series_propagator(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        expected = taylor_propagator(h, 1.0, 1.0) @ psi
        out = evolve(eigendecompose(h), psi, 1.0, 1.0)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_unitarity_over_many_random_triples(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            dec = eigendecompose(random_hermitian(rng, dim, rng.random() < 0.5))
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            t = rng.uniform(-50.0, 50.0)
            out = evolve(dec, psi, t, 1.0)
            assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-12 * np.linalg.norm(psi)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e300])
    def test_phase_beyond_float64_raises(self, t):
        # |lambda| = 3 at hbar = 1e-15 gives 3e315 rad at t = 1e300; no numpy
        # RuntimeWarning may come before the ValueError
        dec = eigendecompose(np.diag([-2.0, 0.5, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves float64 at t = "):
                evolve(dec, np.array([1.0, 0.0, 0.0]), t, 1e-15)

    def test_phase_near_the_float64_limit_is_kept(self):
        dec = eigendecompose(np.diag([-2.0, 0.5, 3.0]))
        psi = np.array([0.6, 0.0, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve(dec, psi, 1e290, 1e-15)  # 3e305 rad
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-15

    def test_dimension_mismatch(self):
        dec = eigendecompose(np.eye(3))
        with pytest.raises(DimensionMismatch):
            evolve(dec, np.zeros(4), 1.0, 1.0)

    def test_requires_positive_hbar(self):
        dec = eigendecompose(np.eye(2))
        with pytest.raises(ValueError):
            evolve(dec, np.array([1.0, 0.0]), 1.0, 0.0)


def outcome(call, *args):
    """The array ``call(*args)`` returns, or the type and args of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), exc.args


class TestLevelRoute:
    """The exact transition propagates phi_beta through ``_propagate`` with
    row beta of the conjugated eigenvectors as its components; ``evolve`` of
    ``np.eye(n)[beta]`` reaches them by a product. Both must give the same
    values, signed zeros aside, the same |z|^2 bits and the same exceptions."""

    @staticmethod
    def check(dec, t, hbar):
        for beta in range(dec.dim):
            via_evolve = outcome(evolve, dec, np.eye(dec.dim)[beta], t, hbar)
            direct = outcome(_propagate, dec, dec.eigenvectors[beta].conj(), t, hbar)
            if isinstance(via_evolve, tuple):
                assert direct == via_evolve
                continue
            assert np.array_equal(direct, via_evolve)  # -0.0 == 0.0
            # the engine's probability is float(abs(z) ** 2) of one component
            squares = [[float(abs(z) ** 2) for z in psi] for psi in (direct, via_evolve)]
            assert np.array_equal(*np.array(squares).view(np.uint64))

    @pytest.mark.parametrize("b_field", [0.0, 1e-4, 1e-3, 3e-2])
    @pytest.mark.parametrize("t", [0.0, 1e-9, 3.7e-7, 1e-3, math.inf, math.nan, 1e308])
    def test_hyperfine_problem(self, b_field, t):
        # the 4x4's eigenvectors hold exact zeros, so the product adds signed zeros
        config = HyperfineConfig(b_field=b_field)
        dec = build_problem(config).decomposition
        assert (dec.eigenvectors == 0.0).any()
        self.check(dec, t, config.constants.hbar_evs)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_dense_problems(self, n):
        rng = np.random.default_rng([n, 31])
        for _ in range(5):
            dec = eigendecompose(random_hermitian(rng, n, complex_valued=True))
            for t in (0.0, *rng.uniform(-20.0, 20.0, 3), math.inf, -math.inf, math.nan, 1e308):
                for hbar in (1.0, 0.37, 1e-3):
                    self.check(dec, t, hbar)


class TestMatrixElement:
    """<bra|H|ket> is np.vdot(bra, H @ ket) on a validated matrix."""

    def test_unit_basis_identity(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.vdot(e1, require_hermitian(np.eye(3)) @ e1) == 1.0 + 0.0j
