"""Exception hierarchy for the toolkit.

Two top-level branches matter to the CLI: ``ValidationError`` covers problems
with user-supplied configuration or arguments (exit code 1), everything else
derived from ``GenoclassError`` is a runtime failure (exit code 2).
"""


class GenoclassError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GenoclassError):
    """User-supplied configuration or argument is invalid."""


class ConfigError(ValidationError):
    """Run configuration file is malformed or violates an invariant."""


class ArgumentError(ValidationError):
    """A function argument is out of its documented range."""


class SchemaError(GenoclassError):
    """Column schema is inconsistent or does not match the data."""


class DataTypeError(GenoclassError):
    """A cell or column has the wrong type for the requested operation."""


class EmptyInputError(GenoclassError):
    """An input that must contain rows is empty."""


class StratificationError(GenoclassError):
    """A class cannot be represented in both sides of a split."""


class ImputationError(GenoclassError):
    """A column cannot be imputed (or has not been imputed and must be)."""


class DegenerateDataError(GenoclassError):
    """A statistic is undefined on the given input (empty table, single class...)."""


class StateError(GenoclassError):
    """Operation invoked in the wrong state (stale files, held lock)."""


class ConvergenceError(GenoclassError):
    """Training diverged (non-finite loss or residual)."""


class EvaluationError(GenoclassError):
    """Evaluation or report aggregation cannot proceed."""


class PersistenceError(GenoclassError):
    """A stored file cannot be loaded or written (version mismatch, corruption, bad path)."""
