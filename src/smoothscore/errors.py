__all__ = ["ParameterError"]


class ParameterError(ValueError):
    """Raised when an input lies outside the documented parameter domain."""
