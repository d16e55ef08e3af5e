"""Independent reference implementations used as test oracles.

These are deliberately naive translations of the correction-sum
definitions (dense loops, no skip logic), a cyclic-Jacobi eigensolver,
a random-problem generator, the slow CSV formatter with a table stand-in
to feed it arbitrary values, and the eager full-table sweep that the
chunked, pruned walker must agree with, kept apart from the package so the
engine and its checks cannot share a bug. The Hermitian gate and the G sums
are also kept in their unhurried forms, which compute every check and
every product for each input, so the fast paths must match them bit for bit;
so are ``redivide``, ``improved_energies`` and the exact transition as they
were before they stopped repeating work that validation had already done,
and the first-order transitions' numpy-scalar arithmetic.
"""

import math

import numpy as np


def brute_g2(d, g1, beta):
    n = len(d)
    total = 0.0
    for b1 in range(n):
        if b1 == beta:
            continue
        total += (g1[beta, b1] * g1[b1, beta]).real / (d[beta] - d[b1])
    return total


def brute_g3(d, g1, beta):
    n = len(d)
    total = 0.0j
    for b1 in range(n):
        if b1 == beta:
            continue
        for b2 in range(n):
            if b2 == beta:
                continue
            total += (
                g1[beta, b1]
                * g1[b1, b2]
                * g1[b2, beta]
                / ((d[beta] - d[b1]) * (d[beta] - d[b2]))
            )
    return total.real


def brute_g4(d, g1, beta):
    n = len(d)
    paths = 0.0j
    for b1 in range(n):
        if b1 == beta:
            continue
        for b2 in range(n):
            eta = 0.0 if b2 == beta else 1.0
            if eta == 0.0:
                continue
            for b3 in range(n):
                if b3 == beta:
                    continue
                paths += (
                    g1[beta, b1]
                    * g1[b1, b2]
                    * g1[b2, b3]
                    * g1[b3, beta]
                    / ((d[beta] - d[b1]) * (d[beta] - d[b2]) * (d[beta] - d[b3]))
                )
    collapse = 0.0
    for b1 in range(n):
        if b1 == beta:
            continue
        for b2 in range(n):
            if b2 == beta:
                continue
            collapse += (
                abs(g1[beta, b1]) ** 2
                * abs(g1[beta, b2]) ** 2
                / ((d[beta] - d[b1]) ** 2 * (d[beta] - d[b2]))
            )
    return paths.real - collapse


@np.errstate(over="ignore", invalid="ignore")
def reference_g_sums(r, levels, order):
    """``perturb._g_sums`` with its two-hop degeneracy check run on every
    problem, ``np.sum`` reductions and one last resolvent product."""
    from perturba import DegenerateDenominator

    g_terms = np.zeros((r.dim, 3))
    if order < 2:
        return g_terms[levels]
    g1 = r.g1
    gap = r.d[:, None] - r.d
    masked = np.abs(gap) <= r.degeneracy_tol
    resolvent = np.divide(1.0, gap, out=np.zeros_like(gap), where=~masked)
    np.fill_diagonal(masked, False)  # b = beta leaves every sum; it is no degeneracy

    crossed = g1 != 0.0  # symmetric: g1 is exactly Hermitian
    if order >= 4:
        crossed |= crossed @ crossed
    offending = np.argwhere((masked & crossed)[levels])
    if offending.size:
        i, other = offending[0]
        raise DegenerateDenominator(int(levels[i]), int(other))

    weights = g1.real**2 + g1.imag**2
    g_terms[:, 0] = np.sum(weights * resolvent, axis=1)
    v = resolvent * g1.T
    path = g1 * resolvent
    for k in range(1, order - 1):  # each order adds one g1 R hop to the path
        path = path @ g1
        g_terms[:, k] = np.sum(path * v, axis=1).real
        path = path * resolvent
    if order >= 4:
        g_terms[:, 2] -= g_terms[:, 0] * np.sum(weights * resolvent**2, axis=1)
    g_terms = g_terms[levels]
    if not np.isfinite(g_terms).all():
        raise ValueError("a correction term G overflows float64")
    return g_terms


def reference_redivide(problem):
    """``perturb.redivide`` storing d and g1 through ``perturb._store``, which
    copies d again and checks d + diag(g1) for finiteness again."""
    from perturba import RedividedProblem
    from perturba.perturb import _store

    d = problem.e0 + problem.h1.diagonal().real
    g1 = problem.h1.copy()
    np.fill_diagonal(g1, 0.0)
    r = object.__new__(RedividedProblem)
    _store(r, "d", d, "g1", g1)
    return r


def reference_improved_energies(r, order=4):
    """``perturb.improved_energies`` through ``reference_g_sums`` over the
    levels ``np.arange(r.dim)``, gathered by a fancy index."""
    from perturba import ImprovedSpectrum

    if type(order) is bool or not isinstance(order, (int, np.integer)) or not 0 < order < 5:
        raise ValueError(f"order must be an integer in 1..4, got {order!r}")
    order = int(order)
    g_terms = reference_g_sums(r, np.arange(r.dim), order)
    energies = r.d + g_terms[:, 0] + g_terms[:, 1] + g_terms[:, 2]
    return ImprovedSpectrum(order=order, energies=energies, g_terms=g_terms)


def reference_transition_exact(problem, gamma, beta, t, hbar):
    """``perturb.transition_probability_exact`` looking up the eigenvectors
    that gamma and beta dominate by an argmax on every call, and propagating
    the basis state ``np.eye(n)[beta]`` through ``hermitian.evolve``."""
    from perturba import TransitionResult, hermitian
    from perturba.perturb import _check_pair, _half_phase

    _check_pair(problem, gamma, beta, hbar)
    dec = problem.decomposition
    z = hermitian.evolve(dec, np.eye(problem.dim)[beta], t, hbar)[gamma]
    k_gamma, k_beta = np.argmax(np.abs(dec.eigenvectors[[gamma, beta]]), axis=1)
    argument = _half_phase(dec.eigenvalues, k_gamma, k_beta, t, hbar)
    return TransitionResult(gamma, beta, float(abs(z) ** 2), argument)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def reference_first_order(r, phase_energies, gamma, beta, t, hbar):
    """``perturb._first_order`` in numpy scalars under ``np.errstate``, as it
    was before it took the envelope in Python floats: an underflowed
    (w / 2)^2 gives numpy's inf or nan, which the finiteness check refuses."""
    from perturba import DegenerateDenominator, TransitionResult
    from perturba.perturb import _half_phase

    argument = _half_phase(phase_energies, gamma, beta, t, hbar)
    coupling = r.g1[gamma, beta]
    if coupling == 0.0:
        return TransitionResult(gamma, beta, 0.0, argument)
    omega = r.d[gamma] - r.d[beta]
    if abs(omega) <= r.degeneracy_tol:
        raise DegenerateDenominator(gamma, beta)
    envelope = (coupling.real**2 + coupling.imag**2) / (omega / 2.0) ** 2
    if not math.isfinite(envelope):
        raise ValueError("the envelope |g1|^2 / (w / 2)^2 leaves float64")
    return TransitionResult(gamma, beta, envelope * np.sin(argument) ** 2, argument)


def reference_require_hermitian(matrix):
    """``hermitian.require_hermitian`` measuring the asymmetry of every input,
    an exactly Hermitian one included, and projecting whenever it is > 0."""
    from perturba import NonHermitianInput
    from perturba.hermitian import HERMITICITY_RTOL

    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NonHermitianInput("matrix contains non-finite entries")
    asym = np.max(np.abs(m - m.conj().T), initial=0.0)
    bound = HERMITICITY_RTOL * np.max(np.abs(m), initial=0.0)
    if asym > bound:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max |m - m^H| = {asym:.3e} > {bound:.3e}"
        )
    if asym > 0.0:  # halve first, so the sum cannot overflow
        m = 0.5 * m + 0.5 * m.conj().T
    return m


def random_problem(rng, dim, complex_valued=True, coupling_scale=0.2):
    """Random (e0, h1) with well-separated redivided diagonals and dense
    nonzero couplings."""
    e0 = np.cumsum(rng.uniform(0.8, 1.6, dim))
    e0 -= e0.mean()
    m = rng.normal(size=(dim, dim))
    if complex_valued:
        m = m + 1j * rng.normal(size=(dim, dim))
    h1 = coupling_scale * (m + m.conj().T) / 2.0
    return e0, h1


def order_scaling_slopes(seed, lams, n_problems, exact_eigenvalues):
    """Log-log slopes of max-level improved-energy error versus coupling scale.

    ``exact_eigenvalues(h_full)`` must return the ascending spectrum of the
    full Hamiltonian; passing different backends keeps this routine usable
    both as an independent check (numpy) and a self-contained one (package
    solver). Returns (slopes_order4, slopes_order2) over ``n_problems``
    random Hermitian problems of dimension 4-6.
    """
    from perturba import PerturbationProblem, improved_energies, redivide

    rng = np.random.default_rng(seed)
    log_lams = np.log(np.asarray(lams))
    slopes4 = []
    slopes2 = []
    for _ in range(n_problems):
        dim = int(rng.integers(4, 7))
        e0, h1_base = random_problem(rng, dim, complex_valued=True, coupling_scale=1.0)
        errs4 = []
        errs2 = []
        for lam in lams:
            problem = PerturbationProblem(e0=e0, h1=lam * h1_base)
            r = redivide(problem)
            exact = exact_eigenvalues(problem.full_hamiltonian())
            e4 = np.sort(improved_energies(r, 4).energies)
            e2 = np.sort(improved_energies(r, 2).energies)
            errs4.append(np.max(np.abs(e4 - exact)))
            errs2.append(np.max(np.abs(e2 - exact)))
        slopes4.append(np.polyfit(log_lams, np.log(errs4), 1)[0])
        slopes2.append(np.polyfit(log_lams, np.log(errs2), 1)[0])
    return np.asarray(slopes4), np.asarray(slopes2)


#: the six CSV columns, in order
COLUMNS = ("x", "p_exact", "p_improved", "p_traditional", "dev_improved", "dev_traditional")


class ColumnTable:
    """Stand-in for ``SweepTable`` over any (n, 6) matrix, or six given
    columns: the columns by name, ``len``, and the walker's
    ``rows(lo, hi)``. Lets the CSV kernel be fed values no sweep produces
    (nan, inf, subnormals, raw bit patterns)."""

    def __init__(self, matrix=None, *, columns=None):
        if columns is None:
            columns = np.asarray(matrix, dtype=np.float64).reshape(-1, 6).T
        self.columns = tuple(columns)
        for name, column in zip(COLUMNS, self.columns, strict=True):
            setattr(self, name, column)

    def __len__(self):
        return self.x.shape[0]

    def rows(self, lo, hi):
        return np.stack([column[lo:hi] for column in self.columns], axis=1)


def run_sweep(spec, config):
    """The whole sweep table at once, every row evaluated in one call of
    the curve kernel, as ``SweepTable`` was built before it walked the
    grid in chunks, on numpy's own grid."""
    from perturba import hyperfine

    space = np.linspace if spec.scale == "linear" else np.geomspace
    grid = space(spec.start, spec.stop, spec.samples)
    constants = config.constants
    b_field, t = (spec.fixed_value, grid) if spec.mode == "time" else (grid, spec.fixed_value)
    x_ev = constants.mu_e_ev_per_tesla * b_field
    p_exact, p_improved, p_traditional = hyperfine._normalized_triple(
        constants.w_ev, x_ev, constants.hbar_evs, t
    )
    deviations = np.abs(p_improved - p_exact), np.abs(p_traditional - p_exact)
    return ColumnTable(columns=(grid, p_exact, p_improved, p_traditional) + deviations)


def first_crossings(table, threshold):
    """(traditional, improved): the first abscissa where each deviation of
    a full table exceeds ``threshold``, every row scanned; math.inf when
    none does."""

    def first(dev):
        hits = np.nonzero(dev > threshold)[0]
        return float(table.x[hits[0]]) if hits.size else math.inf

    return first(table.dev_traditional), first(table.dev_improved)


def reference_csv_rows(rows):
    """CSV body of ``rows`` (sequences of six floats) the slow way: one
    ``'%.16e'`` call per value, as ``emit_csv`` formatted before its
    vectorized kernel."""
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in rows)


#: Jacobi convergence: off-diagonal Frobenius norm <= OFFDIAG_TOL * ||H||_F
OFFDIAG_TOL = 1e-14

#: hard cap on cyclic Jacobi sweeps before giving up
MAX_SWEEPS = 100


def reference_order_and_fix_phase(w, v):
    """Sort ascending, order exact ties by dominant-component index, and
    make each column's largest-magnitude component real and positive, one
    column at a time."""
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    n = w.shape[0]
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] == w[i]:
            j += 1
        if j - i > 1:
            dominant = [int(np.argmax(np.abs(v[:, k]))) for k in range(i, j)]
            v[:, i:j] = v[:, i + np.argsort(dominant, kind="stable")]
        i = j
    for k in range(n):
        lead = v[np.argmax(np.abs(v[:, k])), k]
        v[:, k] *= np.conj(lead) / abs(lead)
    return w, v


def jacobi_eigh(matrix):
    """(eigenvalues, eigenvectors) of a Hermitian matrix by cyclic Jacobi.

    Sweeps row-major over the strict upper triangle, annihilating each
    entry with a complex Givens rotation, until the off-diagonal Frobenius
    norm falls below ``OFFDIAG_TOL`` times the input norm; then applies
    ``reference_order_and_fix_phase``. Raises RuntimeError after
    ``MAX_SWEEPS`` sweeps without convergence.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v

    for sweep in range(MAX_SWEEPS + 1):
        off2 = np.abs(a) ** 2
        np.fill_diagonal(off2, 0.0)
        if np.sqrt(off2.sum()) <= OFFDIAG_TOL * scale:
            break
        if sweep == MAX_SWEEPS:
            raise RuntimeError(
                f"Jacobi did not converge within {MAX_SWEEPS} sweeps (dim {n})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= 1e-300:
                    continue  # numerically zero; rotating would divide by ~0
                # dephase so the pivot is real, then a standard real rotation
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                phc = np.conj(phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * phc * col_q
                a[:, q] = s * col_p + c * phc * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                v_p = v[:, p].copy()
                v_q = v[:, q].copy()
                v[:, p] = c * v_p - s * phc * v_q
                v[:, q] = s * v_p + c * phc * v_q

    return reference_order_and_fix_phase(np.diag(a).real.copy(), v)
