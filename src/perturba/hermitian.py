"""Dense complex linear algebra for small Hermitian systems.

Provides Hermitian validation, an eigendecomposition backed by LAPACK
(``np.linalg.eigh``) with a fixed ordering and phase convention, and
spectral time evolution. Everything here is a pure function on immutable
values; nothing caches or mutates shared state, so concurrent callers need
no synchronization.

Outputs are deterministic for identical input bits on one numpy/LAPACK
build with a pinned BLAS thread count. Different builds may round
differently, so eigenvectors are reproducible there only up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

#: bound on |H - H^dagger| entries (and diagonal imaginary parts) relative to max |H|
HERMITICITY_RTOL = 1e-13


def require_hermitian(matrix) -> NDArray[np.complex128]:
    """Validate ``matrix`` and return it as an exactly Hermitian complex array.

    Raises NonHermitianInput if the matrix is not square, contains
    non-finite entries, or violates
    ``|m[i, j] - conj(m[j, i])| <= HERMITICITY_RTOL * max |m|`` (which also
    bounds diagonal imaginary parts). The bound scales with the matrix, so
    the same matrix passes or fails in any unit system; a zero matrix passes.
    Where either side overflows, a quarter of the matrix is compared, so the
    rule holds for every finite input, with no numpy warning.

    An exactly Hermitian input (m == m^H, -0.0 matching +0.0) is accepted by
    one comparison and comes back as a bit-identical copy. Any other accepted
    asymmetry is projected out as m/2 + m^H/2, exactly Hermitian with a real
    diagonal. Callers rely on that and check nothing again.
    """
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonHermitianInput("matrix contains non-finite entries")
    if (m == m.conj().T).all():
        return m
    asym, bound = _asymmetry(m)  # asym > 0: finite entries differ somewhere
    if not (np.isfinite(asym) and np.isfinite(bound)):
        # a quarter of m overflows neither; 4x its figures, as Python floats
        # (which never warn), are exact or an asymmetry of inf
        asym, bound = (4.0 * float(v) for v in _asymmetry(0.25 * m))
    if asym > bound:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max |m - m^H| = {asym:.3e} > {bound:.3e}"
        )
    return 0.5 * m + 0.5 * m.conj().T  # halve first, so the sum cannot overflow


@np.errstate(over="ignore")
def _asymmetry(m):
    """(max |m - m^H|, HERMITICITY_RTOL max |m|); either overflows to inf
    when |m| nears float64's largest value."""
    return np.max(np.abs(m - m.conj().T)), HERMITICITY_RTOL * np.max(np.abs(m))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unit eigenvectors of a Hermitian matrix.

    Column ``k`` of ``eigenvectors`` belongs to ``eigenvalues[k]``. Each
    column is phase-fixed so its largest-magnitude component is real and
    positive, which makes golden tests reproducible.
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.complex128]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _order_and_fix_phase(w, v):
    """Order exact ties and make each column's lead component real positive.

    ``w`` must be ascending. Columns whose eigenvalues are exactly equal
    are ordered by the index of their largest-magnitude component; then
    every column is scaled by the unit phase that makes that component
    real and positive.
    """
    lead = np.abs(v).argmax(axis=0)
    if (w[1:] == w[:-1]).any():
        order = np.lexsort((lead, w))
        w, v, lead = w[order], v[:, order], lead[order]
    entries = v[lead, np.arange(w.shape[0])]
    v *= np.conj(entries) / np.abs(entries)
    return w, v


def eigendecompose(matrix) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK (``np.linalg.eigh``).

    Eigenvalues come out ascending; eigenvectors follow the ordering and
    phase convention of ``SpectralDecomposition``. Identical input bits
    give identical output bits on one numpy/LAPACK build with a pinned
    BLAS thread count.

    Raises NonHermitianInput for invalid input and ConvergenceFailure if
    LAPACK does not converge.
    """
    a = require_hermitian(matrix)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"LAPACK eigh did not converge (dim {a.shape[0]}): {exc}"
        ) from exc
    if a.size:  # argmax has no answer on a 0x0 matrix
        w, v = _order_and_fix_phase(w, v)
    return SpectralDecomposition(w, v)


def evolve(
    decomposition: SpectralDecomposition, psi0, t: float, hbar: float
) -> NDArray[np.complex128]:
    """Propagate a state under exp(-i H t / hbar) using the spectral form.

    Returns sum_k exp(-i lambda_k t / hbar) |v_k><v_k|psi0>. Unitary, so
    the input norm is preserved to roundoff; a non-finite phase raises
    ValueError. The phases are applied by ``_propagate``.
    """
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.shape != (decomposition.dim,):
        raise DimensionMismatch(
            f"state has shape {psi.shape}, expected ({decomposition.dim},)"
        )
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    return _propagate(decomposition, decomposition.eigenvectors.conj().T @ psi, t, hbar)


def _propagate(decomposition, coefficients, t: float, hbar: float):
    """sum_k exp(-i lambda_k t / hbar) coefficients[k] v_k for the components
    coefficients[k] = <v_k|psi0>: for phi_beta, row beta of the conjugated
    eigenvectors gives ``evolve``'s bits without its product. Callers check
    hbar; a phase that leaves float64 raises ValueError."""
    w, vecs = decomposition.eigenvalues, decomposition.eigenvectors
    scale = float(t) / float(hbar)  # Python floats never warn
    if not math.isfinite(max(map(abs, w.tolist()), default=0.0) * scale):
        raise ValueError(f"the phase lambda t / hbar leaves float64 at t = {t}")
    phases = np.exp(-1j * w * scale)
    return vecs @ (phases * coefficients)
