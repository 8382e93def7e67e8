"""Semantic exceptions shared across the engine."""


class EngineError(Exception):
    """Base class for all starquant errors."""


class DomainError(EngineError, ValueError):
    """A mathematical precondition failed: star products refuse a
    bivector that does not satisfy the Jacobi identity."""


class ParseError(EngineError, ValueError):
    """Malformed graph / field / series text or JSON."""


def json_int(value, what: str) -> int:
    """value if it is a JSON integer; ParseError (not truncation) else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


class EnumerationCapError(EngineError, RuntimeError):
    """Graph enumeration would exceed the configured cap."""


class DegreeMismatchError(EngineError, ValueError):
    """Edge-form degree does not match the integration domain dimension."""


class ArityMismatchError(EngineError, ValueError):
    """Operator applied to the wrong number of arguments."""


class DimensionMismatchError(EngineError, ValueError):
    """Mixed coordinate dimensions in polynomial / field arithmetic."""


class ConfigError(EngineError, ValueError):
    """Invalid integration or engine configuration."""


class SamplingError(EngineError, RuntimeError):
    """Guarded samples kept failing after every allowed redraw."""


class ConvergenceWarning(UserWarning):
    """Statistical error above the requested target at the sample budget."""
