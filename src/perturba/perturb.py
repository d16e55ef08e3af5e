"""Redivision-based perturbation engine for finite Hermitian problems.

Given H = diag(e0) + h1 expressed in the eigenbasis of the unperturbed
part, the full Hamiltonian is *redivided* into its diagonal part
d = e0 + diag(h1) and the strictly off-diagonal coupling g1. Correction
sums over coupling paths then build improved level energies

    E~_b = d_b + G_b(2) + G_b(3) + G_b(4),

whose gaps drive the oscillation phase of the improved transition
probability, while the amplitude denominator keeps the plain diagonal
gap. All energy denominators below use the redivided diagonal d, which
is what removes degeneracies lifted by diag(h1).

The path sums are resolvent matrix products, for all levels at once. With
R = diag(1 / (d_beta - d_b)), zero at b = beta and across degenerate gaps,
G(2) = g1 R g1, G(3) = g1 R g1 R g1 and G(4) = g1 R g1 R g1 R g1 minus
G(2) sum_b |g1[beta, b]|^2 R_b^2, each taken at [beta, beta].

A problem built by its caller is validated once, at construction, through
``hermitian.require_hermitian``; its exactly Hermitian result makes every G
sum real up to roundoff, so the sums keep their real parts unchecked. Its
diagonal, e0 + diag(h1) or d + diag(g1), must be finite with e0 or d real,
and a caller-built ``RedividedProblem`` needs a zero g1 diagonal, so no G
path hops from a level to itself. ``redivide``'s output is not checked
again: its d is the sum the problem already found finite. Past this gate
the G sums, the first-order envelope and the exact angular argument raise
ValueError at float64's edge, never a numpy warning. Both problem types
store read-only copies of their arrays.

The full H of a ``PerturbationProblem`` is solved once, on first use, and
the decomposition and the eigenvector each basis level dominates are kept
on the problem; every exact transition of that problem reads them.
Everything else is a pure function over immutable inputs; sweeps may
evaluate these in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import hermitian
from .errors import DegenerateDenominator, DimensionMismatch

#: gaps smaller than this fraction of max|d| count as degenerate
DEGENERACY_RTOL = 1e-15

#: a vector of this dtype is stored as it is; any other is checked for imaginary parts
_FLOAT64 = np.dtype(np.float64)


def _validate(problem, vector: str, matrix: str) -> None:
    """Store the named fields as a finite real vector and a matching Hermitian matrix."""
    m = hermitian.require_hermitian(getattr(problem, matrix))
    _store(problem, vector, getattr(problem, vector), matrix, m)


@np.errstate(over="ignore")
def _store(problem, vector: str, v, matrix: str, m) -> None:
    """Store a read-only real copy of ``v``, one entry per row of ``m``, and ``m``
    made read-only; no one else may hold ``m``. ``v + diag(m)`` must be finite
    and ``v`` real: a nonzero imaginary part raises ValueError."""
    if getattr(v, "dtype", None) is not _FLOAT64 and np.iscomplexobj(v):
        if np.imag(v).any():
            raise ValueError(f"{vector} has a nonzero imaginary part")
        v = np.real(v)
    v = np.array(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"{vector} has shape {v.shape} but {matrix} is {m.shape[0]}x{m.shape[1]}"
        )
    if not np.isfinite(v + m.diagonal().real).all():
        raise ValueError(f"{vector} + diag({matrix}) contains non-finite entries")
    v.setflags(write=False)
    m.setflags(write=False)
    object.__setattr__(problem, vector, v)
    object.__setattr__(problem, matrix, m)


@dataclass(frozen=True)
class PerturbationProblem:
    """Unperturbed eigenvalues e0 and the perturbation h1 in that basis."""

    e0: NDArray[np.float64]
    h1: NDArray[np.complex128]

    def __post_init__(self):
        _validate(self, "e0", "h1")

    @property
    def dim(self) -> int:
        return self.e0.shape[0]

    def full_hamiltonian(self) -> NDArray[np.complex128]:
        return np.diag(self.e0).astype(np.complex128) + self.h1

    @cached_property
    def decomposition(self) -> hermitian.SpectralDecomposition:
        """The full H's spectral decomposition, solved on first use; its arrays are read-only."""
        dec = hermitian.eigendecompose(self.full_hamiltonian())
        dec.eigenvalues.setflags(write=False)
        dec.eigenvectors.setflags(write=False)
        return dec

    @cached_property
    def _dominant(self) -> list[int]:
        """For each basis level, the eigenvector it dominates: argmax |V| along each row."""
        return np.argmax(np.abs(self.decomposition.eigenvectors), axis=1).tolist()


@dataclass(frozen=True)
class RedividedProblem:
    """Diagonal energies d = e0 + diag(h1) and the off-diagonal coupling g1.

    A nonzero g1 diagonal, after the Hermitian projection, raises
    ValueError: diagonal terms belong in d.
    """

    d: NDArray[np.float64]
    g1: NDArray[np.complex128]

    def __post_init__(self):
        _validate(self, "d", "g1")
        if self.g1.diagonal().any():
            raise ValueError("g1 must have a zero diagonal; diagonal terms belong in d")

    @property
    def dim(self) -> int:
        return self.d.shape[0]

    @cached_property
    def degeneracy_tol(self) -> float:
        return DEGENERACY_RTOL * float(np.max(np.abs(self.d), initial=0.0))


def redivide(problem: PerturbationProblem) -> RedividedProblem:
    """Split diag(e0) + h1 into diag(d) + g1 with an exactly zero g1 diagonal.

    The original Hamiltonian is recoverable: diag(d) + g1 reproduces
    diag(e0) + h1 entry for entry. The result skips the constructor's
    checks, which the problem has already passed: a validated h1 stays
    Hermitian with its diagonal zeroed, and d is the sum e0 + diag(h1)
    that the problem found finite. Both arrays are new and read-only.
    """
    d = problem.e0 + problem.h1.diagonal().real
    g1 = problem.h1.copy()
    np.fill_diagonal(g1, 0.0)
    d.setflags(write=False)
    g1.setflags(write=False)
    r = object.__new__(RedividedProblem)
    object.__setattr__(r, "d", d)
    object.__setattr__(r, "g1", g1)
    return r


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _g_sums(r: RedividedProblem, levels, order: int) -> NDArray[np.float64]:
    """G(2), G(3), G(4) of each level in ``levels``, or of every level for
    None, in the resolvent form above.

    Columns beyond ``order`` stay zero. Only when a gap off the diagonal is
    masked does a check run: DegenerateDenominator(beta, lowest b) when a
    path with a nonzero numerator crosses it, a direct coupling or for G4
    an interior level. A term beyond float64 raises ValueError. The
    resolvent is 1 / gap with its masked entries set to zero after, so an
    infinite gap has a zero resolvent.
    """
    g_terms = np.zeros((r.dim, 3))
    if order < 2:
        return g_terms if levels is None else g_terms[levels]
    g1 = r.g1
    gap = r.d[:, None] - r.d
    masked = np.abs(gap) <= r.degeneracy_tol
    resolvent = 1.0 / gap
    resolvent[masked] = 0.0

    if np.count_nonzero(masked) > r.dim:  # the diagonal gaps are 0, always masked
        np.fill_diagonal(masked, False)  # b = beta leaves every sum; it is no degeneracy
        crossed = g1 != 0.0  # symmetric: g1 is exactly Hermitian
        if order >= 4:
            crossed |= crossed @ crossed
        rows = range(r.dim) if levels is None else levels
        offending = np.argwhere((masked & crossed)[rows])
        if offending.size:
            i, other = offending[0]
            raise DegenerateDenominator(int(rows[i]), int(other))

    # np.add.reduce is the reduction np.sum calls, without its Python wrapper
    weights = g1.real**2 + g1.imag**2
    g_terms[:, 0] = np.add.reduce(weights * resolvent, axis=1)
    v = resolvent * g1.T
    path = g1
    for k in range(1, order - 1):  # each order adds one g1 R hop to the path
        path = (path * resolvent) @ g1
        g_terms[:, k] = np.add.reduce(path * v, axis=1).real
    if order >= 4:
        g_terms[:, 2] -= g_terms[:, 0] * np.add.reduce(weights * resolvent**2, axis=1)
    if levels is not None:
        g_terms = g_terms[levels]
    if not np.isfinite(g_terms).all():
        raise ValueError("a correction term G overflows float64")
    return g_terms


def _check_level(r, level: int) -> None:
    if not 0 <= level < r.dim:
        raise IndexError(f"level index {level} out of range for dim {r.dim}")


def g2(r: RedividedProblem, beta: int) -> float:
    """Second-order correction sum_{b != beta} |g1[beta, b]|^2 / (d_beta - d_b).

    Terms with zero coupling contribute nothing regardless of their gap;
    a zero gap under a nonzero coupling raises DegenerateDenominator.
    A ``beta`` outside 0..dim-1 raises IndexError, as in the transitions.
    """
    _check_level(r, beta)
    return float(_g_sums(r, [beta], 2)[0, 0])


def g3(r: RedividedProblem, beta: int) -> float:
    """Third-order correction over paths beta -> b1 -> b2 -> beta.

    sum over b1, b2 != beta of
        g1[beta, b1] g1[b1, b2] g1[b2, beta] / ((d_beta - d_b1)(d_beta - d_b2)).
    """
    _check_level(r, beta)
    return float(_g_sums(r, [beta], 3)[0, 1])


def g4(r: RedividedProblem, beta: int) -> float:
    """Fourth-order correction: the eta-weighted path sum minus its collapse term.

    First part sums g1[beta,b1] g1[b1,b2] g1[b2,b3] g1[b3,beta] over
    b1, b3 != beta and b2 != beta (the eta factor), divided by the three
    gaps (d_beta - d_b1)(d_beta - d_b2)(d_beta - d_b3). Note b2 may be a
    level with no direct coupling to beta, so its gap is only checked
    when the path numerator is nonzero. Second part subtracts

        sum_{b1,b2 != beta} |g1[beta,b1]|^2 |g1[beta,b2]|^2
                            / ((d_beta - d_b1)^2 (d_beta - d_b2)).
    """
    _check_level(r, beta)
    return float(_g_sums(r, [beta], 4)[0, 2])


@dataclass(frozen=True)
class ImprovedSpectrum:
    """Improved level energies with their per-order correction terms.

    ``g_terms[b, k]`` holds G_b(k + 2) for the orders actually included;
    columns beyond the truncation order stay zero. Energies are summed left
    to right, ``((d[b] + g_terms[b, 0]) + g_terms[b, 1]) + g_terms[b, 2]``,
    so they can differ from ``d[b] + g_terms[b].sum()`` in the last bits.
    """

    order: int
    energies: NDArray[np.float64]
    g_terms: NDArray[np.float64]

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


def improved_energies(r: RedividedProblem, order: int = 4) -> ImprovedSpectrum:
    """Build E~_b = d_b + G_b(2) + ... + G_b(order) for every level.

    ``order`` 1 returns the redivided diagonal itself; ``order`` must be an
    integer (Python or numpy, not bool) in 1..4, else ValueError. Degenerate
    denominators propagate from the G sums.
    """
    if type(order) is bool or not isinstance(order, (int, np.integer)) or not 0 < order < 5:
        raise ValueError(f"order must be an integer in 1..4, got {order!r}")
    order = int(order)
    g_terms = _g_sums(r, None, order)
    energies = r.d + g_terms[:, 0] + g_terms[:, 1] + g_terms[:, 2]
    return ImprovedSpectrum(order=order, energies=energies, g_terms=g_terms)


@dataclass(frozen=True)
class TransitionResult:
    """A transition probability plus the phase its sin^2 actually used."""

    gamma: int
    beta: int
    probability: float
    angular_argument: float


def _check_pair(r, gamma: int, beta: int, hbar: float) -> None:
    if gamma == beta:
        raise ValueError("transition requires two distinct levels")
    _check_level(r, gamma)
    _check_level(r, beta)
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")


def _half_phase(energies, i: int, j: int, t: float, hbar: float) -> float:
    """(E_i - E_j) t / 2 hbar in Python floats, which never warn; ValueError beyond float64."""
    argument = (float(energies[i]) - float(energies[j])) * float(t) / (2.0 * float(hbar))
    if not math.isfinite(argument):
        raise ValueError(f"the phase w t / 2 hbar leaves float64 at t = {t}")
    return argument


def _first_order(r, phase_energies, gamma: int, beta: int, t: float, hbar: float):
    """|g1|^2 sin^2(w~ t / 2 hbar) / (w / 2)^2 with w~ taken from
    ``phase_energies`` and w = d_gamma - d_beta; callers check the pair.
    A phase or an envelope beyond float64 raises ValueError. The envelope is
    taken in Python floats; their exceptions stand for numpy's inf, nan and 0."""
    argument = _half_phase(phase_energies, gamma, beta, t, hbar)
    coupling = r.g1.item(gamma, beta)  # a Python complex
    if coupling == 0.0:
        return TransitionResult(gamma, beta, 0.0, argument)
    omega = r.d.item(gamma) - r.d.item(beta)
    if abs(omega) <= r.degeneracy_tol:
        raise DegenerateDenominator(gamma, beta)
    weight = math.inf  # kept if |g1|^2 overflows
    try:  # x**2 is libm's pow, as numpy's scalar power; x * x can round 1 ulp apart
        weight = coupling.real**2 + coupling.imag**2
        envelope = weight / (omega / 2.0) ** 2
    except OverflowError:  # numpy's nan if |g1|^2 overflowed, else 0.0 from weight / inf
        envelope = weight * 0.0
    except ZeroDivisionError:  # (w / 2)^2 underflowed
        envelope = math.inf
    if not math.isfinite(envelope):
        raise ValueError("the envelope |g1|^2 / (w / 2)^2 leaves float64")
    return TransitionResult(gamma, beta, envelope * np.sin(argument) ** 2, argument)


def transition_probability_improved(
    r: RedividedProblem,
    spectrum: ImprovedSpectrum,
    gamma: int,
    beta: int,
    t: float,
    hbar: float,
) -> TransitionResult:
    """Improved transition probability beta -> gamma.

    P = |g1|^2 sin^2(w~ t / 2 hbar) / (w / 2)^2, where the phase gap
    w~ = E~_gamma - E~_beta comes from the improved spectrum but the
    amplitude denominator w = d_gamma - d_beta does not. That asymmetry
    is deliberate and is what limits the amplitude accuracy at strong
    coupling. A ``spectrum`` of another size raises DimensionMismatch.
    """
    _check_pair(r, gamma, beta, hbar)
    if spectrum.dim != r.dim:
        raise DimensionMismatch(f"spectrum has {spectrum.dim} levels, the problem {r.dim}")
    return _first_order(r, spectrum.energies, gamma, beta, t, hbar)


def transition_probability_traditional(
    r: RedividedProblem, gamma: int, beta: int, t: float, hbar: float
) -> TransitionResult:
    """First-order probability with the unimproved gap in the phase.

    P = |g1|^2 sin^2(w t / 2 hbar) / (w / 2)^2 with w = d_gamma - d_beta.
    Coincides with the improved result when an order-1 spectrum is used,
    whose energies are d itself.
    """
    _check_pair(r, gamma, beta, hbar)
    return _first_order(r, r.d, gamma, beta, t, hbar)


def transition_probability_exact(
    problem: PerturbationProblem, gamma: int, beta: int, t: float, hbar: float
) -> TransitionResult:
    """Exact probability |<phi_gamma| exp(-i H t / hbar) |phi_beta>|^2.

    Propagates phi_beta as ``hermitian.evolve`` does, with the same bits,
    through the problem's cached ``decomposition`` of the full Hamiltonian,
    reading phi_beta's eigenbasis components from row beta of the
    eigenvectors; the amplitude is the gamma component of the evolved
    state. The reported angular argument pairs each basis level with the
    eigenvector it dominates, a map kept beside the decomposition; it
    reduces to the usual two-level gap for weakly mixed problems.
    """
    _check_pair(problem, gamma, beta, hbar)
    dec = problem.decomposition
    z = hermitian._propagate(dec, dec.eigenvectors[beta].conj(), t, hbar)[gamma]
    dominant = problem._dominant
    argument = _half_phase(dec.eigenvalues, dominant[gamma], dominant[beta], t, hbar)
    return TransitionResult(gamma, beta, float(abs(z) ** 2), argument)
