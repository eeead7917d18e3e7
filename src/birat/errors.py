"""Error hierarchy with stable machine-readable codes.

Every exception raised by the library carries a ``code`` string; the CLI
prints that code on stderr and exits with status 2, so scripts can match on
codes rather than on message text.
"""


class BiratError(Exception):
    code = "ERROR"


class FieldMismatchError(BiratError):
    code = "FIELD_MISMATCH"


class DivisionByZeroError(BiratError):
    code = "DIVISION_BY_ZERO"


class ArityMismatchError(BiratError):
    code = "ARITY_MISMATCH"


class PoleAtPointError(BiratError):
    code = "POLE_AT_POINT"


class InexactDivisionError(BiratError):
    code = "INEXACT_DIVISION"


class NotHomogeneousError(BiratError):
    code = "NOT_HOMOGENEOUS"


class DegreeMismatchError(BiratError):
    code = "DEGREE_MISMATCH"


class ZeroMapError(BiratError):
    code = "ZERO_MAP"


class DimMismatchError(BiratError):
    code = "DIM_MISMATCH"


class IndeterminateAtPointError(BiratError):
    code = "INDETERMINATE_AT_POINT"


class ChartDegenerateError(BiratError):
    code = "CHART_DEGENERATE"


class EmptyFamilyError(BiratError):
    code = "EMPTY_FAMILY"


class ZeroParameterError(BiratError):
    code = "ZERO_PARAMETER"


class PreconditionError(BiratError):
    code = "PRECONDITION_VIOLATED"


class MissingInverseError(BiratError):
    code = "MISSING_INVERSE"


class NotUnimodularError(BiratError):
    code = "NOT_UNIMODULAR"


class BadModulusError(BiratError):
    code = "BAD_MODULUS"


class DegeneratePairError(BiratError):
    code = "DEGENERATE_PAIR"


class BadEigenvalueError(BiratError):
    code = "BAD_EIGENVALUE"


class InverseCheckError(BiratError):
    code = "INVERSE_CHECK_FAILED"


class SingularLinearPartError(BiratError):
    code = "SINGULAR_LINEAR_PART"


class SingularMatrixError(BiratError):
    code = "SINGULAR"


class NotACocycleError(BiratError):
    code = "NOT_A_COCYCLE"


class ParseError(BiratError):
    code = "PARSE_ERROR"


class LimitExceededError(BiratError):
    code = "LIMIT_EXCEEDED"
