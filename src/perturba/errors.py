"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NonHermitianInput(ValueError):
    """A matrix violates the Hermiticity tolerance."""


class ConvergenceFailure(RuntimeError):
    """The LAPACK eigensolver did not converge."""


class DegenerateDenominator(ArithmeticError):
    """A vanishing energy gap between coupled levels in a correction sum.

    Raised only when the coupling across the gap is nonzero; structural
    zeros (zero numerator over a zero gap) contribute nothing and are
    never an error.
    """

    def __init__(self, beta: int, other: int):
        self.beta = beta
        self.other = other
        super().__init__(
            f"degenerate denominator: levels {beta} and {other} share a "
            f"diagonal energy but are coupled"
        )


class InvalidSweepSpec(ValueError):
    """A sweep specification fails validation."""


class IoFailure(OSError):
    """CSV emission could not write its destination."""
