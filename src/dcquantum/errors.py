"""Exception hierarchy for dual-complex arithmetic and linear algebra."""


class DCError(Exception):
    """Base class for all dual-complex errors."""


class DivisorInfinitesimal(DCError):
    """Division by a number whose significant part is (numerically) zero.

    Infinitesimals have no inverse: a/b either has infinitely many
    solutions (a infinitesimal too) or none (a appreciable).
    """


class BothPartsZero(DCError):
    """Infinitesimal-by-infinitesimal division with a zero divisor."""


class RootOfInfinitesimal(DCError):
    """n-th root requested of a non-appreciable number."""


class LogOfInfinitesimal(DCError):
    """Logarithm requested of a non-appreciable number."""


class ModulusOfInfinitesimal(DCError):
    """Modulus of a nonzero infinitesimal: the value is 0 but its
    infinitesimal part is undefined.

    The exception carries the (zero) modulus value in ``value``.
    """

    def __init__(self, message, value):
        super().__init__(message)
        self.value = value


class DimMismatch(DCError):
    """Vector/matrix dimensions do not agree."""


class NonSquare(DCError):
    """Operation requires a square matrix."""


class NotHermitian(DCError):
    """Operator is not Hermitian on both components."""


class NotUnitary(DCError):
    """Operator is not dual-complex unitary."""


class NotUnitaryAtZero(DCError):
    """Parametrized family does not evaluate to a unitary at parameter 0."""


class IncompleteFamily(DCError):
    """Operator family violates the completeness relation sum M^dag M = I."""


class IncompleteMeasurement(IncompleteFamily):
    """Measurement operators violate the completeness relation."""


class InfinitesimalVector(DCError):
    """Vector with no appreciable entry where an appreciable one is required."""


class PatchMismatch(DCError):
    """Lorentz patch wire counts disagree with the supplied inputs."""


class MalformedTrajectory(DCError):
    """Trajectory CSV whose snapshot rows do not cover x_index 0 .. sites-1
    exactly once, or whose snapshots differ in size."""


class MalformedInput(DCError):
    """JSON input that does not follow the documented format: a missing
    key, a scalar that is not four numbers, a non-number or non-finite
    entry or central difference, a file of the wrong kind.  The message
    names the offending key or entry, or the kind the command expects."""


class MalformedShape(MalformedInput, DimMismatch):
    """JSON matrix whose entry count is not rows x cols, or a state
    whose matrix has more than one column."""


class NegativeRoot(DCError, ValueError):
    """Real square root requested of a negative number."""
