"""Exception hierarchy shared by all polaris modules."""


class PolarisError(Exception):
    """Base class for all errors raised by polaris."""


class FieldError(PolarisError):
    """Bad field construction parameters or invalid element codes."""


class FormError(PolarisError):
    """Invalid form kind, gram/upper matrix, or form operation."""


class GeometryError(PolarisError):
    """Polar-space construction or query rejected its input."""


class FrameError(GeometryError):
    """A frame axiom is violated; the message names the axiom and a witness."""


class EmbeddingError(PolarisError):
    """Embedding construction or query rejected its input."""


class SpecError(PolarisError):
    """Space-spec text failed to parse; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(PolarisError):
    """Command-line misuse or a violated command precondition (exit code 2)."""
