"""Exception types shared across the package.

Each error whose constructor takes other arguments than its message
defines `__reduce__`, so it pickles with its attributes and can cross
from a worker to its parent in any caller's process pool.
"""

from __future__ import annotations


class ClustergenError(Exception):
    """Base class for all package-specific errors."""


class ArchetypeValidationError(ClustergenError):
    """An archetype violates one or more parameter constraints."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid archetype: " + "; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)


class NonConvergenceError(ClustergenError):
    """Center placement ran out of epochs above tolerance, or hit a non-finite loss."""

    def __init__(self, final_loss: float, trace: list[float]):
        self.final_loss = final_loss
        self.trace = list(trace)
        super().__init__(
            f"overlap loss {final_loss:.3e} after {len(trace)} epochs did not reach tolerance"
        )

    def __reduce__(self):
        return type(self), (self.final_loss, self.trace)


class NLError(ClustergenError):
    """Base class for natural-language workflow errors."""


class NLAuthError(NLError):
    """No API key configured; raised before any network traffic."""


class NLNetworkError(NLError):
    """Transport failed after exhausting retries."""


class NLRateLimitError(NLError):
    """The API kept rate-limiting across all retries."""

    def __init__(self, message: str, retry_trace: list[str]):
        self.retry_trace = list(retry_trace)
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.args[0], self.retry_trace)


class NLParseError(NLError):
    """No usable JSON object / identifier in the model response."""

    def __init__(self, message: str, raw_response: str):
        self.message = message
        self.raw_response = raw_response
        super().__init__(f"{message} (raw response attached)")

    def __reduce__(self):
        return type(self), (self.message, self.raw_response)


class NLValidationError(NLError):
    """The response parsed but the resulting archetype is invalid."""

    def __init__(self, violations: list[str], raw_response: str):
        self.violations = list(violations)
        self.raw_response = raw_response
        super().__init__("archetype from response is invalid: " + "; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations, self.raw_response)
