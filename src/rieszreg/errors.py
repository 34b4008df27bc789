"""Exception hierarchy.

Every error raised by this package derives from RieszregError and carries a
``category`` used by the CLI to pick an exit code: "schema" for problems with
estimand documents or dataset schemas, "numerical" for singular systems,
divergence, and non-finite intermediate values, "io" for file problems.
"""

from numbers import Integral, Real


class RieszregError(Exception):
    category = "numerical"


class SpecSyntaxError(RieszregError):
    """Malformed estimand document. Carries 1-based line/column when known."""

    category = "schema"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SpecValidationError(RieszregError):
    """Structurally valid document that violates an estimand invariant."""

    category = "schema"


class SchemaError(RieszregError):
    """Dataset schema problem, or a spec that does not bind to the schema."""

    category = "schema"


class SingularGramError(RieszregError):
    """Normal equations are singular (or numerically indefinite)."""


class NonConvergenceError(RieszregError):
    """Iterative fit failed to reach its convergence tolerance."""


class TrainingDivergedError(RieszregError):
    """Gradient training produced a non-finite loss."""


class NonFiniteEifError(RieszregError):
    """An assembled influence-function value is NaN or infinite."""


class DegenerateFoldError(RieszregError):
    """A cross-fitting fold is too small or misses a required level."""


def require(ok: bool, what: str, value) -> None:
    """Refuse a setting: a SchemaError saying ``what`` unless ``ok``."""
    if not ok:
        raise SchemaError(f"{what}, got {value!r}")


def is_integer(value) -> bool:
    """An int or numpy integer; a bool is a flag, not a count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number (numpy's included) other than a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)
