"""Improved perturbation corrections for small Hermitian systems.

The engine redivides H = H0 + H1 into a diagonal part and a strictly
off-diagonal coupling, sums correction terms over coupling paths, and
compares the resulting transition probabilities against the exact
spectral answer. The hyperfine module carries the worked example: a
hydrogen ground-state atom in a constant magnetic field.
"""

from .errors import (
    ConvergenceFailure,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidSweepSpec,
    IoFailure,
    NonHermitianInput,
)
from .hermitian import (
    SpectralDecomposition,
    eigendecompose,
    evolve,
    require_hermitian,
)
from .hyperfine import (
    HyperfineConfig,
    PhysicalConstants,
    angular_rates,
    build_problem,
    exact_eigensystem_closed_form,
    improved_energies_closed_form,
    normalized_probabilities,
    pauli_operators,
)
from .perturb import (
    ImprovedSpectrum,
    PerturbationProblem,
    RedividedProblem,
    TransitionResult,
    g2,
    g3,
    g4,
    improved_energies,
    redivide,
    transition_probability_exact,
    transition_probability_improved,
    transition_probability_traditional,
)
from .sweep import (
    SweepSpec,
    SweepTable,
    divergence_report,
    emit_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "DegenerateDenominator",
    "DimensionMismatch",
    "HyperfineConfig",
    "ImprovedSpectrum",
    "InvalidSweepSpec",
    "IoFailure",
    "NonHermitianInput",
    "PerturbationProblem",
    "PhysicalConstants",
    "RedividedProblem",
    "SpectralDecomposition",
    "SweepSpec",
    "SweepTable",
    "TransitionResult",
    "angular_rates",
    "build_problem",
    "divergence_report",
    "eigendecompose",
    "emit_csv",
    "evolve",
    "exact_eigensystem_closed_form",
    "g2",
    "g3",
    "g4",
    "improved_energies",
    "improved_energies_closed_form",
    "normalized_probabilities",
    "pauli_operators",
    "redivide",
    "require_hermitian",
    "transition_probability_exact",
    "transition_probability_improved",
    "transition_probability_traditional",
    "__version__",
]
