"""Shared exception types."""


class DomainError(ValueError):
    """Input outside the certified domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested too close to a pole."""


class AmplitudeError(ValueError):
    """Amplitude fails the positivity / monotonicity requirements."""


class InsufficientPrecisionError(RuntimeError):
    """Working precision too small for the requested cancellation headroom."""
