"""Error and warning types shared across the package."""

__all__ = [
    "OpgeomError",
    "DimensionError",
    "HermiticityError",
    "SingularGramError",
    "SingularGramWarning",
    "LinearDependenceError",
    "DomainError",
    "SingularMetricError",
    "NonSymmetricMetricError",
    "StencilOutOfDomainError",
    "EvaluationError",
    "JacobiViolationError",
    "OrderTooLargeError",
    "PatchDomainError",
    "StiffnessError",
]


class OpgeomError(Exception):
    """Base class for numerical and structural failures raised by opgeom."""


class DimensionError(OpgeomError):
    """Operands live in algebras of different (or invalid) dimensions."""


class HermiticityError(OpgeomError):
    """An operand required to be hermitian (or antihermitian) is not."""


class SingularGramError(OpgeomError):
    """A Gram matrix required to be invertible is numerically singular."""


class SingularGramWarning(UserWarning):
    """A Gram matrix is rank deficient; a pseudo-inverse was used."""


class LinearDependenceError(OpgeomError):
    """Orthogonalization hit a numerically dependent input element."""


class DomainError(OpgeomError):
    """A scalar argument lies outside the documented domain."""


class SingularMetricError(OpgeomError):
    """The induced metric is numerically singular at the queried point."""


class NonSymmetricMetricError(OpgeomError):
    """An operation requiring a symmetric metric received a non-symmetric one."""


class EvaluationError(OpgeomError):
    """A chart map could not be evaluated at the requested point."""


class StencilOutOfDomainError(EvaluationError):
    """A finite-difference stencil left the chart domain."""


class JacobiViolationError(OpgeomError):
    """Structure constants fail the Jacobi identity."""


class OrderTooLargeError(OpgeomError):
    """A series order above the supported maximum was requested."""


class PatchDomainError(OpgeomError):
    """A loop leaves the two-parameter patch it must stay inside."""


class StiffnessError(OpgeomError):
    """Adaptive integration failed to reach the requested tolerance."""
