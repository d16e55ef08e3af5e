"""Redivision, correction sums, improved energies, and the probability trio."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturba import (
    DegenerateDenominator,
    DimensionMismatch,
    HyperfineConfig,
    NonHermitianInput,
    PerturbationProblem,
    RedividedProblem,
    build_problem,
    g2,
    g3,
    g4,
    hermitian,
    improved_energies,
    redivide,
    transition_probability_exact,
    transition_probability_improved,
    transition_probability_traditional,
)
from oracles import (
    brute_g2,
    brute_g3,
    brute_g4,
    order_scaling_slopes,
    random_problem,
    reference_first_order,
    reference_g_sums,
    reference_improved_energies,
    reference_redivide,
    reference_transition_exact,
)
from perturba.perturb import _check_pair, _g_sums

W, X = 1.0, 0.1


def symbolic_problem(w=W, x=X):
    """The hyperfine-shaped 4x4 at symbolic values (w, x)."""
    e0 = np.array([w, w, w, -3 * w])
    h1 = np.array(
        [
            [x, 0, 0, 0],
            [0, 0, 0, x],
            [0, 0, -x, 0],
            [0, x, 0, 0],
        ],
        dtype=complex,
    )
    return PerturbationProblem(e0=e0, h1=h1)


def three_level_problem(dim=3):
    """The leading ``dim`` levels of a fully coupled real 3x3 problem."""
    e0 = np.array([0.0, 1.0, 3.0])
    h1 = np.array([[0.0, 0.1, 0.05], [0.1, 0.0, 0.1], [0.05, 0.1, 0.0]])
    return PerturbationProblem(e0=e0[:dim], h1=h1[:dim, :dim])


class TestProblemValidation:
    # both problem types share one validator: (real vector, Hermitian matrix)
    KINDS = [(PerturbationProblem, "e0", "h1"), (RedividedProblem, "d", "g1")]

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    def test_shape_mismatch(self, kind, vector, matrix):
        with pytest.raises(DimensionMismatch):
            kind(**{vector: np.zeros(2), matrix: np.zeros((3, 3))})
        with pytest.raises(DimensionMismatch):
            kind(**{vector: np.zeros((3, 1)), matrix: np.zeros((3, 3))})

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector(self, kind, vector, matrix, bad):
        with pytest.raises(ValueError, match="non-finite"):
            kind(**{vector: np.array([0.0, bad]), matrix: np.zeros((2, 2))})

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    @pytest.mark.parametrize("form", [np.array, list])
    def test_imaginary_vector_raises(self, kind, vector, matrix, form):
        # numpy would drop the imaginary part with a ComplexWarning; a list would raise TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{vector} has a nonzero imaginary part"):
                kind(**{vector: form([1.0 + 0.5j, 2.0]), matrix: np.zeros((2, 2))})

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    @pytest.mark.parametrize("form", [np.array, list])
    def test_zero_imaginary_parts_are_accepted(self, kind, vector, matrix, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = kind(**{vector: form([1.0 + 0j, -0.0j]), matrix: np.zeros((2, 2))})
        stored = getattr(problem, vector)
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert stored.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    def test_non_hermitian_matrix(self, kind, vector, matrix):
        with pytest.raises(NonHermitianInput):
            kind(**{vector: np.zeros(2), matrix: np.array([[0.0, 1.0], [0.5, 0.0]])})

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    def test_accepted_asymmetry_is_projected_out(self, kind, vector, matrix):
        m = np.array([[0.0, 1.0 + 4e-14j], [1.0, 0.0]])
        stored = getattr(kind(**{vector: np.zeros(2), matrix: m}), matrix)
        assert np.array_equal(stored, stored.conj().T)
        assert stored[0, 1] == 1.0 + 2e-14j

    def test_redivided_coupling_has_zero_diagonal(self):
        # diag(d) + g1 would put 0.5 on level 0; the G sums would drop it
        with pytest.raises(ValueError, match="zero diagonal"):
            RedividedProblem(d=np.array([0.0, 1.0]), g1=np.array([[0.5, 0.1], [0.1, 0.0]]))
        # an imaginary diagonal inside the Hermiticity bound is projected to zero
        g1 = np.array([[1e-15j, 0.1], [0.1, 0.0]])
        assert not RedividedProblem(d=np.array([0.0, 1.0]), g1=g1).g1.diagonal().any()


class TestStoredArrays:
    KINDS = TestProblemValidation.KINDS

    @pytest.mark.parametrize("kind, vector, matrix", KINDS)
    def test_caller_mutation_leaves_the_problem_alone(self, kind, vector, matrix):
        v = np.array([0.0, 1.0])
        m = np.array([[0.0, 0.1], [0.1, 0.0]])
        problem = kind(**{vector: v, matrix: m})
        v[0], m[0, 1] = 5.0, 7.0
        assert np.array_equal(getattr(problem, vector), [0.0, 1.0])
        assert np.array_equal(getattr(problem, matrix), [[0.0, 0.1], [0.1, 0.0]])
        for stored in (getattr(problem, vector), getattr(problem, matrix)):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 1.0

    def test_derived_arrays_are_read_only(self):
        problem = three_level_problem()
        dec = problem.decomposition
        r = redivide(problem)
        for array in (r.d, r.g1, dec.eigenvalues, dec.eigenvectors):
            assert not array.flags.writeable
        assert not np.shares_memory(r.g1, problem.h1)


class TestSingleSolve:
    """One eigendecompose and one Hermiticity check per matrix, per problem."""

    def test_one_solve_and_two_validations(self, monkeypatch):
        calls = {"require_hermitian": 0, "eigendecompose": 0}

        def counting(name):
            original = getattr(hermitian, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(hermitian, name, counting(name))
        problem = symbolic_problem()
        r = redivide(problem)
        spectrum = improved_energies(r, 4)
        for gamma, beta in ((3, 1), (1, 3)):
            for t in (0.4, 2.5):
                transition_probability_exact(problem, gamma, beta, t, 1.0)
                transition_probability_improved(r, spectrum, gamma, beta, t, 1.0)
                transition_probability_traditional(r, gamma, beta, t, 1.0)
        # h1 at construction, then the full H inside its one solve
        assert calls == {"require_hermitian": 2, "eigendecompose": 1}

    def test_engine_hyperfine_problem_crosses_each_boundary_as_often_as_before(
        self, monkeypatch
    ):
        # the benchmark's per-layer metrics read these three boundaries; a
        # shortcut around any of them would make its metric read 0
        calls = dict.fromkeys(("__post_init__", "require_hermitian", "eigendecompose"), 0)

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(PerturbationProblem, "__post_init__")
        counting(hermitian, "require_hermitian")
        counting(hermitian, "eigendecompose")
        config = HyperfineConfig(b_field=3e-3)
        problem = build_problem(config)
        r = redivide(problem)
        spectrum = improved_energies(r, order=4)
        args = (3, 1, 4e-7, config.constants.hbar_evs)
        transition_probability_exact(problem, *args)
        transition_probability_improved(r, spectrum, *args)
        transition_probability_traditional(r, *args)
        assert calls == {"__post_init__": 1, "require_hermitian": 2, "eigendecompose": 1}

    def test_cached_results_equal_a_fresh_problem(self):
        rng = np.random.default_rng(12)
        e0, h1 = random_problem(rng, 6, complex_valued=True)
        cached = PerturbationProblem(e0=e0, h1=h1)
        for gamma, beta, t in [(5, 0, 0.7), (1, 0, 0.7), (0, 5, 3.1), (2, 4, 9.0)]:
            got = transition_probability_exact(cached, gamma, beta, t, 1.0)
            fresh = transition_probability_exact(
                PerturbationProblem(e0=e0, h1=h1), gamma, beta, t, 1.0
            )
            bits = [np.float64(v).tobytes() for v in (got.probability, got.angular_argument,
                                                      fresh.probability, fresh.angular_argument)]
            assert bits[:2] == bits[2:]

    def test_overflowing_hamiltonian_raises_on_every_exact_call(self):
        # e0 + diag(h1) overflows; e0 and h1 alone are finite and valid. Such a
        # problem is refused each time it is built, so no exact call, cached
        # decomposition or redivide ever meets an overflowed H
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite"):
                PerturbationProblem(
                    e0=np.array([1e308, 0.0]), h1=np.array([[1e308, 0.1], [0.1, 0.0]])
                )
        # just inside float64, every exact call and redivide go through
        problem = PerturbationProblem(
            e0=np.array([1e308, 0.0]), h1=np.array([[5e307, 0.1], [0.1, 0.0]])
        )
        for _ in range(2):
            res = transition_probability_exact(problem, 1, 0, 1.0, 1.0)
            assert np.isfinite(res.probability) and res.angular_argument == -7.5e307
        np.testing.assert_array_equal(redivide(problem).d, [1.5e308, 0.0])

    def test_overflow_warns_nothing_before_the_documented_exception(self):
        # under python -W error a numpy overflow warning would be raised
        # instead of the ValueError; both problem types state the rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, vector, matrix in TestProblemValidation.KINDS:
                with pytest.raises(ValueError, match="non-finite"):
                    kind(**{vector: [1e308, 0.0], matrix: [[1e308, 0.1], [0.1, 0.0]]})


class TestRedivide:
    def test_symbolic_layout(self):
        r = redivide(symbolic_problem())
        np.testing.assert_array_equal(r.d, [W + X, W, W - X, -3 * W])
        expected_g1 = np.zeros((4, 4), dtype=complex)
        expected_g1[1, 3] = expected_g1[3, 1] = X
        np.testing.assert_array_equal(r.g1, expected_g1)

    def test_zero_perturbation(self):
        e0 = np.array([1.0, 2.0, 5.0])
        r = redivide(PerturbationProblem(e0=e0, h1=np.zeros((3, 3))))
        np.testing.assert_array_equal(r.d, e0)
        assert np.all(r.g1 == 0)

    def test_purely_diagonal_perturbation(self):
        e0 = np.array([1.0, 2.0])
        r = redivide(PerturbationProblem(e0=e0, h1=np.diag([0.3, -0.4])))
        np.testing.assert_array_equal(r.d, [1.3, 1.6])
        assert np.all(r.g1 == 0)

    def test_hamiltonian_recoverable(self):
        rng = np.random.default_rng(0)
        e0, h1 = random_problem(rng, 5)
        problem = PerturbationProblem(e0=e0, h1=h1)
        r = redivide(problem)
        np.testing.assert_array_equal(
            np.diag(r.d) + r.g1, problem.full_hamiltonian()
        )


class TestCorrectionSums:
    def test_symbolic_g2(self):
        r = redivide(symbolic_problem())
        assert g2(r, 1) == X * X / (4 * W)
        assert g2(r, 3) == -(X * X) / (4 * W)
        assert g2(r, 0) == 0.0
        assert g2(r, 2) == 0.0

    def test_symbolic_g3_all_zero(self):
        r = redivide(symbolic_problem())
        assert [g3(r, b) for b in range(4)] == [0.0, 0.0, 0.0, 0.0]

    def test_symbolic_g4(self):
        r = redivide(symbolic_problem())
        quartic = (X * X) * (X * X) / (4 * W) ** 3
        assert g4(r, 1) == pytest.approx(-quartic, rel=1e-15)
        assert g4(r, 3) == pytest.approx(quartic, rel=1e-15)
        assert g4(r, 0) == 0.0
        assert g4(r, 2) == 0.0

    def test_single_coupled_pair_has_no_odd_path(self):
        # one edge cannot be traversed three times and return
        e0 = np.array([0.0, 1.0, 3.0])
        h1 = np.zeros((3, 3), dtype=complex)
        h1[0, 1] = h1[1, 0] = 0.5
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        assert g3(r, 0) == 0.0 and g3(r, 1) == 0.0

    def test_matches_brute_force_on_random_problems(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            dim = int(rng.integers(2, 7))
            e0, h1 = random_problem(rng, dim, complex_valued=trial % 2 == 0)
            r = redivide(PerturbationProblem(e0=e0, h1=h1))
            for beta in range(dim):
                assert g2(r, beta) == pytest.approx(
                    brute_g2(r.d, r.g1, beta), rel=1e-13, abs=1e-15
                )
                assert g3(r, beta) == pytest.approx(
                    brute_g3(r.d, r.g1, beta), rel=1e-13, abs=1e-15
                )
                assert g4(r, beta) == pytest.approx(
                    brute_g4(r.d, r.g1, beta), rel=1e-13, abs=1e-15
                )
        for dim in (8, 12):
            e0, h1 = random_problem(rng, dim)
            r = redivide(PerturbationProblem(e0=e0, h1=h1))
            g_terms = improved_energies(r, 4).g_terms
            for beta in range(dim):
                for k, brute in enumerate((brute_g2, brute_g3, brute_g4)):
                    assert g_terms[beta, k] == pytest.approx(
                        brute(r.d, r.g1, beta), rel=1e-13, abs=1e-15
                    )

    def test_degenerate_denominator_raises(self):
        e0 = np.array([1.0, 1.0, 3.0])
        h1 = np.zeros((3, 3), dtype=complex)
        h1[0, 1] = h1[1, 0] = 0.2
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        with pytest.raises(DegenerateDenominator) as err:
            g2(r, 0)
        assert (err.value.beta, err.value.other) == (0, 1)
        assert g2(r, 2) == 0.0  # level 2 couples to neither degenerate level

    def test_degenerate_but_uncoupled_is_fine(self):
        # zero numerator over a zero gap contributes 0, no error
        e0 = np.array([1.0, 1.0, 3.0])
        h1 = np.zeros((3, 3), dtype=complex)
        h1[0, 2] = h1[2, 0] = 0.2
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        assert g2(r, 0) == pytest.approx(0.04 / (1.0 - 3.0))
        assert g3(r, 0) == 0.0

    def test_g4_flags_degenerate_interior_level(self):
        # level 2 couples only along the path 0 -> 1 -> 2 -> 1 -> 0, but
        # shares its diagonal energy with level 0: the interior gap blows up
        e0 = np.array([1.0, 2.0, 1.0])
        h1 = np.zeros((3, 3), dtype=complex)
        h1[0, 1] = h1[1, 0] = 0.2
        h1[1, 2] = h1[2, 1] = 0.2
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        assert g2(r, 0) == pytest.approx(0.04 / (1.0 - 2.0))
        with pytest.raises(DegenerateDenominator):
            g4(r, 0)
        improved_energies(r, 2)  # G2 and G3 never reach the interior gap
        improved_energies(r, 3)
        with pytest.raises(DegenerateDenominator) as err:
            improved_energies(r, 4)
        assert (err.value.beta, err.value.other) == (0, 2)

    def test_non_hermitian_coupling_raises(self):
        # the loop 0 -> 1 -> 2 -> 0 has a purely imaginary product
        g1 = np.zeros((3, 3), dtype=complex)
        g1[0, 1] = g1[1, 2] = 0.2
        g1[2, 0] = 0.2j
        with pytest.raises(NonHermitianInput):
            RedividedProblem(d=np.array([0.0, 1.0, 3.0]), g1=g1)

    def test_accepted_asymmetry_reaches_order_four(self):
        # a 5e-14 imaginary asymmetry passes the relative Hermiticity bound;
        # the G sums then run on the projected (exactly Hermitian) coupling
        e0 = np.array([0.0, 3.0, 7.0])
        h1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        h1[0, 1] = h1[1, 0] = h1[1, 2] = h1[2, 1] = 1e-3
        h1[0, 1] += 5e-14j
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        assert np.array_equal(r.g1, r.g1.conj().T)
        assert r.g1[0, 1] == 1e-3 + 2.5e-14j
        g_terms = improved_energies(r, 4).g_terms
        for beta in range(3):
            expected = [brute(r.d, r.g1, beta) for brute in (brute_g2, brute_g3, brute_g4)]
            np.testing.assert_allclose(g_terms[beta], expected, rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize("g", [g2, g3, g4])
    @pytest.mark.parametrize("beta", [-1, -3, 3, 4])
    def test_level_out_of_range_raises(self, g, beta):
        r = redivide(three_level_problem())
        with pytest.raises(IndexError, match="out of range for dim 3"):
            g(r, beta)

    def test_corrections_real_for_complex_couplings(self):
        rng = np.random.default_rng(55)
        e0, h1 = random_problem(rng, 6, complex_valued=True)
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        for beta in range(6):
            for value in (g2(r, beta), g3(r, beta), g4(r, beta)):
                assert isinstance(value, float) and np.isfinite(value)


def g_sums_outcome(g_sums, r, levels, order):
    """The G-sum bits, or the (beta, other) of the DegenerateDenominator raised."""
    try:
        return g_sums(r, levels, order).tobytes()
    except DegenerateDenominator as err:
        return err.beta, err.other


class TestGSumsMatchReference:
    """``_g_sums`` skips the degeneracy check when no gap is masked and
    reduces with ``np.add.reduce``; ``reference_g_sums`` does neither, so
    every outcome must be the same bits or the same exception."""

    @staticmethod
    def problem(rng, n, case):
        """A random problem whose levels a and a + 1 share d exactly, unless
        ``case`` is "dense"; returns it with a."""
        e0, h1 = random_problem(rng, n, complex_valued=bool(rng.integers(2)))
        a = int(rng.integers(n - 1))
        if case != "dense":
            e0[a + 1], h1[a + 1, a + 1] = e0[a], h1[a, a]
        if case == "two_hop":  # no direct coupling across the gap; a third level reaches both
            h1[a, a + 1] = h1[a + 1, a] = 0.0
        if case == "uncoupled":  # no path at all: odd and even levels never couple
            h1[0::2, 1::2] = h1[1::2, 0::2] = 0.0
        return redivide(PerturbationProblem(e0=e0, h1=h1)), a

    @pytest.mark.parametrize("case", ["dense", "coupled", "two_hop", "uncoupled"])
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_same_bits_or_same_degeneracy(self, n, case):
        rng = np.random.default_rng([n, ord(case[0])])
        raised_at = set()
        for _ in range(4):
            r, a = self.problem(rng, n, case)
            for order in (1, 2, 3, 4):
                for levels in (np.arange(n), *([beta] for beta in range(n))):
                    expected = g_sums_outcome(reference_g_sums, r, levels, order)
                    assert g_sums_outcome(_g_sums, r, levels, order) == expected
                    if isinstance(expected, tuple):
                        assert sorted(expected) == [a, a + 1]
                        raised_at.add(order)
        # the masked gap raises exactly where a path with a nonzero numerator crosses it
        two_hop = {4} if n > 2 else set()
        assert raised_at == {"coupled": {2, 3, 4}, "two_hop": two_hop}.get(case, set())


def bits_or_error(call, read, *args):
    """The uint64 bits of each array or float ``read`` takes from
    ``call(*args)``, or the type and args of the exception it raises."""
    try:
        result = call(*args)
    except Exception as exc:
        return type(exc), exc.args
    return [np.asarray(v).view(np.uint64).tolist() for v in read(result)]


def transition_read(result):
    return result.probability, result.angular_argument, result.gamma, result.beta


def first_order_outcomes(r, spectrum, *args):
    """(engine, reference) outcomes of the improved and then the traditional
    transition; the reference is ``oracles.reference_first_order``."""

    def reference(energies, gamma, beta, t, hbar):
        _check_pair(r, gamma, beta, hbar)
        return reference_first_order(r, energies, gamma, beta, t, hbar)

    return [
        (bits_or_error(transition_probability_improved, transition_read, r, spectrum, *args),
         bits_or_error(reference, transition_read, spectrum.energies, *args)),
        (bits_or_error(transition_probability_traditional, transition_read, r, *args),
         bits_or_error(reference, transition_read, r.d, *args)),
    ]


class TestSameBitsAsBefore:
    """``redivide``, ``improved_energies`` and the exact transition stopped
    repeating work the problem's validation had done, and the first-order
    transitions moved from numpy scalars to Python floats; the forms kept in
    ``oracles`` still do it the old way, and must give the same bits or
    raise the same."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(["dense", "masked", "two_hop", "uncoupled", "sparse", "huge"]),
        scale=st.sampled_from([1e-3, 0.2, 1.0]),
        t=st.one_of(st.floats(0.0, 10.0), st.just(1e308)),
        hbar=st.sampled_from([1.0, 0.37, 0.0]),
        pair=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    )
    def test_outputs_and_exceptions(self, n, seed, case, scale, t, hbar, pair):
        rng = np.random.default_rng(seed)
        e0, h1 = random_problem(rng, n, complex_valued=bool(rng.integers(2)), coupling_scale=scale)
        a = int(rng.integers(n - 1))
        if case in ("masked", "two_hop"):  # levels a and a + 1 share d exactly
            e0[a + 1], h1[a + 1, a + 1] = e0[a], h1[a, a]
        if case == "two_hop":  # no direct coupling across the masked gap
            h1[a, a + 1] = h1[a + 1, a] = 0.0
        if case == "uncoupled":  # odd and even levels never couple
            h1[0::2, 1::2] = h1[1::2, 0::2] = 0.0
        if case == "sparse":  # about half the couplings are zero
            zero = np.triu(rng.random((n, n)) < 0.5, 1)
            h1[zero | zero.T] = 0.0
        if case == "huge":  # couplings of 1e160 across gaps of about 1: G overflows
            np.fill_diagonal(h1, 0.0)
            h1 *= 1e160
        problem = PerturbationProblem(e0=e0, h1=h1)

        def redivided_read(q):
            return q.d, q.g1

        assert bits_or_error(redivide, redivided_read, problem) == (
            bits_or_error(reference_redivide, redivided_read, problem)
        )
        r, expected_r = redivide(problem), reference_redivide(problem)
        assert not (r.d.flags.writeable or r.g1.flags.writeable)

        def spectrum_read(spectrum):
            return spectrum.energies, spectrum.g_terms, spectrum.order

        spectra = {}
        for order in (1, 2, 3, 4):
            got = bits_or_error(improved_energies, spectrum_read, r, order)
            expected = bits_or_error(reference_improved_energies, spectrum_read, expected_r, order)
            assert got == expected
            if isinstance(got, list):
                spectra[order] = improved_energies(r, order)

        gamma, beta = (level % n for level in pair)
        spectrum = spectra[max(spectra)]
        args = (gamma, beta, t, hbar)
        assert bits_or_error(transition_probability_exact, transition_read, problem, *args) == (
            bits_or_error(reference_transition_exact, transition_read, problem, *args)
        )
        for got, expected in first_order_outcomes(r, spectrum, *args):
            assert got == expected

    @pytest.mark.parametrize(
        "gap, coupling",
        [
            (1.0, 1e155),  # |g1|^2 = 1e310 overflows
            (1e-200, 1e-200),  # |g1|^2 and (w / 2)^2 both underflow to 0
            (1e-200, 1e-170),
            (1e-200, 1e-100),  # only (w / 2)^2 underflows
            (1e-100, 1e100),  # the quotient overflows
            (1e-160, 1e-160),  # both squares subnormal
            (1e-150, 3e-161),  # a subnormal |g1|^2 over a normal (w / 2)^2
            (1e300, 1.0),  # only (w / 2)^2 overflows: the envelope is 0
            (1e300, 1e155),  # both squares overflow
            (1.0, 1e150),  # near the limit, kept
            (0.37, 0.01),
            (0.37, 0.011283537820422566),  # pow may round this square 1 ulp off x * x
        ],
    )
    @pytest.mark.parametrize("t", [0.0, 1.3, 1e308])
    def test_first_order_at_float64_edges(self, gap, coupling, t):
        r = TestFloat64Edge.coupled_pair(gap, coupling)
        spectrum = improved_energies(r, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((1, 0), (0, 1)):
                for got, expected in first_order_outcomes(r, spectrum, *pair, t, 1.0):
                    assert got == expected


class TestImprovedEnergies:
    def test_order_one_is_the_diagonal(self):
        r = redivide(symbolic_problem())
        spectrum = improved_energies(r, 1)
        np.testing.assert_array_equal(spectrum.energies, r.d)
        assert np.all(spectrum.g_terms == 0)

    def test_no_coupling_any_order(self):
        e0 = np.array([1.0, 2.0, 4.0])
        r = redivide(PerturbationProblem(e0=e0, h1=np.diag([0.1, 0.0, -0.1])))
        for order in (1, 2, 3, 4):
            np.testing.assert_array_equal(improved_energies(r, order).energies, r.d)

    def test_symbolic_order_four(self):
        r = redivide(symbolic_problem())
        spectrum = improved_energies(r, 4)
        quadratic = X * X / (4 * W)
        quartic = (X * X) * (X * X) / (4 * W) ** 3
        np.testing.assert_allclose(
            spectrum.energies,
            [W + X, W + quadratic - quartic, W - X, -3 * W - quadratic + quartic],
            rtol=1e-15,
        )

    def test_energies_consistent_with_terms(self):
        rng = np.random.default_rng(9)
        e0, h1 = random_problem(rng, 5)
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        spectrum = improved_energies(r, 4)
        g = spectrum.g_terms
        # the stated order holds bit for bit; another order may round apart
        np.testing.assert_array_equal(spectrum.energies, ((r.d + g[:, 0]) + g[:, 1]) + g[:, 2])
        np.testing.assert_allclose(
            spectrum.energies, r.d + spectrum.g_terms.sum(axis=1), rtol=1e-15
        )

    def test_rejects_bad_order(self):
        r = redivide(symbolic_problem())
        for order in (0, 5, -1, 4.0, 2.5, "4", None, True, False, np.bool_(True)):
            with pytest.raises(ValueError):
                improved_energies(r, order)
        for order in (np.int64(4), np.int32(2), np.uint8(3)):
            spectrum = improved_energies(r, order)
            assert spectrum.order == int(order) and type(spectrum.order) is int

    def test_order_scaling_of_exact_agreement(self):
        # errors against the exact spectrum shrink as lam^5 (order 4)
        # and lam^3 (order 2); fitted slopes clear 4.5 / 2.5 cleanly
        slopes4, slopes2 = order_scaling_slopes(
            seed=123,
            lams=np.logspace(-1, -3, 7),
            n_problems=50,
            exact_eigenvalues=np.linalg.eigvalsh,
        )
        assert slopes4.min() >= 4.5
        assert slopes2.min() >= 2.5


class TestAmplitudesAndProbabilities:
    def setup_method(self):
        self.problem = symbolic_problem()
        self.r = redivide(self.problem)
        self.spectrum = improved_energies(self.r, 4)

    def test_amplitude_zero_at_t0(self):
        # P is the squared amplitude (g1 / w)(1 - exp(i w~ t / hbar)), which
        # vanishes at t = 0 for every pair and truncation order
        for order in (1, 2, 4):
            spectrum = improved_energies(self.r, order)
            for gamma, beta in ((3, 1), (1, 3), (2, 0)):
                res = transition_probability_improved(self.r, spectrum, gamma, beta, 0.0, 1.0)
                assert res.probability == 0.0
                assert res.angular_argument == 0.0

    def test_amplitude_zero_without_coupling(self):
        # levels 0 and 2 are uncoupled: exactly zero, yet the phase is reported
        res = transition_probability_improved(self.r, self.spectrum, 2, 0, 5.0, 1.0)
        assert res.probability == 0.0
        energies = self.spectrum.energies
        assert res.angular_argument == (energies[2] - energies[0]) * 5.0 / 2.0

    def test_amplitude_squared_equals_improved_probability(self):
        # |1 - e^{i theta}|^2 = 4 sin^2(theta / 2): the squared first-order
        # amplitude and |g1|^2 sin^2(w~ t / 2 hbar) / (w / 2)^2 agree with P
        coupling = self.r.g1[3, 1]
        omega = self.r.d[3] - self.r.d[1]
        omega_tilde = self.spectrum.energies[3] - self.spectrum.energies[1]
        for t, hbar in ((1e-3, 1.0), (0.4, 1.0), (2.0, 0.5), (17.0, 3.0)):
            res = transition_probability_improved(self.r, self.spectrum, 3, 1, t, hbar)
            formula = (
                abs(coupling) ** 2
                * np.sin(omega_tilde * t / (2.0 * hbar)) ** 2
                / (omega / 2.0) ** 2
            )
            amplitude = (coupling / omega) * (1.0 - np.exp(1j * omega_tilde * t / hbar))
            assert res.probability == pytest.approx(formula, rel=1e-12, abs=1e-30)
            assert abs(amplitude) ** 2 == pytest.approx(res.probability, rel=1e-12, abs=1e-30)

    def test_improved_probability_zero_at_t0(self):
        res = transition_probability_improved(self.r, self.spectrum, 3, 1, 0.0, 1.0)
        assert res.probability == 0.0

    def test_traditional_matches_order_one_improved(self):
        order1 = improved_energies(self.r, 1)
        for t in (0.3, 1.7):
            a = transition_probability_traditional(self.r, 3, 1, t, 1.0)
            b = transition_probability_improved(self.r, order1, 3, 1, t, 1.0)
            assert a.probability == b.probability
            assert a.angular_argument == b.angular_argument

    def test_traditional_argument_uses_unperturbed_gap(self):
        res = transition_probability_traditional(self.r, 3, 1, 2.0, 1.0)
        assert res.angular_argument == (-4 * W) * 2.0 / 2.0

    def test_envelope_bound(self):
        envelope = X * X / (2.0 * W) ** 2
        for t in np.linspace(0.0, 9.0, 200):
            res = transition_probability_traditional(self.r, 3, 1, t, 1.0)
            assert res.probability <= envelope * (1 + 1e-12)

    def test_probability_requires_distinct_levels(self):
        with pytest.raises(ValueError):
            transition_probability_traditional(self.r, 1, 1, 1.0, 1.0)

    def transition(self, kind, gamma, beta, hbar, t=1.0):
        if kind == "exact":
            return transition_probability_exact(self.problem, gamma, beta, t, hbar)
        if kind == "improved":
            return transition_probability_improved(self.r, self.spectrum, gamma, beta, t, hbar)
        return transition_probability_traditional(self.r, gamma, beta, t, hbar)

    @pytest.mark.parametrize("kind", ["exact", "improved", "traditional"])
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, 1e300])
    def test_phase_beyond_float64_raises(self, kind, t):
        # gaps near 4 at hbar = 1e-15 give phases near 2e315 rad at t = 1e300;
        # no numpy RuntimeWarning may come before the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves float64 at t = "):
                self.transition(kind, 3, 1, 1e-15, t)

    @pytest.mark.parametrize("kind", ["exact", "improved", "traditional"])
    def test_phase_near_the_float64_limit_is_kept(self, kind):
        # phases near 2e305 rad at t = 1e290
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = self.transition(kind, 3, 1, 1e-15, 1e290)
        assert np.isfinite(res.probability) and np.isfinite(res.angular_argument)

    @pytest.mark.parametrize("kind", ["exact", "improved", "traditional"])
    @pytest.mark.parametrize("gamma, beta", [(3, -1), (-1, 3), (4, 1), (1, 4)])
    def test_level_out_of_range_raises(self, kind, gamma, beta):
        with pytest.raises(IndexError, match="out of range for dim 4"):
            self.transition(kind, gamma, beta, 1.0)

    @pytest.mark.parametrize("kind", ["exact", "improved", "traditional"])
    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan])
    def test_non_positive_hbar_raises(self, kind, hbar):
        with pytest.raises(ValueError, match="hbar must be positive"):
            self.transition(kind, 3, 1, hbar)

    def test_spectrum_of_another_size_raises(self):
        spectrum = improved_energies(redivide(three_level_problem()), 4)
        r = redivide(three_level_problem(dim=2))
        with pytest.raises(DimensionMismatch, match="spectrum has 3 levels"):
            transition_probability_improved(r, spectrum, 1, 0, 1.0, 1.0)

    def test_exact_matches_closed_form(self):
        root = np.sqrt(4 * W * W + X * X)
        for t in (0.0, 0.2, 1.0, 3.7):
            res = transition_probability_exact(self.problem, 3, 1, t, 1.0)
            closed = X * X * np.sin(root * t) ** 2 / root**2
            assert res.probability == pytest.approx(closed, rel=1e-12, abs=1e-14)

    def test_exact_uncoupled_transition_is_zero(self):
        # level 1 commutes with the perturbation: Psi_1 = phi_1 exactly
        for t in (0.1, 1.0, 25.0):
            res = transition_probability_exact(self.problem, 1, 0, t, 1.0)
            assert res.probability == 0.0

    def test_exact_probability_symmetric_for_real_couplings(self):
        # time-reversal symmetry: real symmetric H gives P(b->g) == P(g->b)
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            e0, h1 = random_problem(rng, dim, complex_valued=False)
            problem = PerturbationProblem(e0=e0, h1=h1)
            gamma, beta = rng.choice(dim, size=2, replace=False)
            t = rng.uniform(0.0, 10.0)
            fwd = transition_probability_exact(problem, int(gamma), int(beta), t, 1.0)
            rev = transition_probability_exact(problem, int(beta), int(gamma), t, 1.0)
            assert fwd.probability == pytest.approx(rev.probability, abs=1e-12)

    def test_degenerate_transition_raises(self):
        e0 = np.array([1.0, 1.0])
        h1 = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
        r = redivide(PerturbationProblem(e0=e0, h1=h1))
        with pytest.raises(DegenerateDenominator) as err:
            transition_probability_traditional(r, 1, 0, 1.0, 1.0)
        assert (err.value.beta, err.value.other) == (1, 0)
        with pytest.raises(DegenerateDenominator) as err:
            transition_probability_improved(r, improved_energies(r, 1), 0, 1, 1.0, 1.0)
        assert (err.value.beta, err.value.other) == (0, 1)


class TestFloat64Edge:
    """At float64's edge the engine raises ValueError or returns the float64
    answer, and no numpy RuntimeWarning comes first."""

    SPAN = PerturbationProblem(e0=[1e308, -1e308], h1=[[0.0, 1.0], [1.0, 0.0]])

    @staticmethod
    def coupled_pair(gap, coupling):
        return redivide(PerturbationProblem(e0=[0.0, gap], h1=[[0.0, coupling], [coupling, 0.0]]))

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_gap_beyond_float64_gives_the_float64_energies(self, order):
        # the overflowed gap has a zero resolvent; the true G2 is about 5e-309
        spectrum = improved_energies(redivide(self.SPAN), order)
        np.testing.assert_array_equal(spectrum.energies, [1e308, -1e308])
        np.testing.assert_array_equal(spectrum.g_terms, np.zeros((2, 3)))

    @pytest.mark.parametrize("correction", [improved_energies, g2, g3, g4],
                             ids=lambda f: f.__name__)
    def test_correction_beyond_float64_raises(self, correction):
        r = self.coupled_pair(1.0, 1e155)  # |g1|^2 = 1e310
        with pytest.raises(ValueError, match="overflows float64"):
            correction(r) if correction is improved_energies else correction(r, 0)

    @pytest.mark.parametrize("kind", ["improved", "traditional"])
    @pytest.mark.parametrize("gap, coupling", [(1.0, 1e155), (1e-200, 1e-170)])
    def test_envelope_beyond_float64_raises(self, kind, gap, coupling):
        # 1e155 overflows |g1|^2; at 1e-200 both |g1|^2 and (w / 2)^2 underflow to 0
        r = self.coupled_pair(gap, coupling)
        with pytest.raises(ValueError, match="envelope"):
            if kind == "improved":
                transition_probability_improved(r, improved_energies(r, 1), 1, 0, 1.0, 1.0)
            else:
                transition_probability_traditional(r, 1, 0, 1.0, 1.0)

    def test_envelope_near_the_float64_limit_is_kept(self):
        res = transition_probability_traditional(self.coupled_pair(1.0, 1e150), 1, 0, 1.0, 1.0)
        assert res.probability == pytest.approx(4e300 * np.sin(0.5) ** 2, rel=1e-12)

    def test_exact_argument_beyond_float64_raises(self):
        # the phase of evolve is finite at t = 1e-300; the gap of 2e308 is not
        with pytest.raises(ValueError, match="leaves float64 at t = "):
            transition_probability_exact(self.SPAN, 1, 0, 1e-300, 1.0)
