"""Exception hierarchy shared across the package.

Everything derives from :class:`WeakGiantError` so callers can catch the
package's failures with a single except clause.  Input-validation failures
additionally derive from :class:`ValidationError` (itself a ``ValueError``),
which the command line maps to its own exit code.
"""

from __future__ import annotations


class WeakGiantError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WeakGiantError):
    """A text input could not be parsed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(WeakGiantError, ValueError):
    """A value violates a documented precondition."""


class NegativeIndex(ValidationError):
    """A degree or bound index is negative."""


class DuplicateKey(ValidationError):
    """The same (n, k) key appears twice in one table."""


class NegativeProbability(ValidationError):
    """A probability entry is negative."""


class NotNormalized(ValidationError):
    """Probabilities do not sum to one within tolerance."""


class EdgeImbalance(ValidationError):
    """Mean in-degree and mean out-degree disagree beyond tolerance."""


class NegativeTime(ValidationError):
    """A process time must be nonnegative."""


class NoReactivePair(ValidationError):
    """A bound distribution admits no edge at all (no in- or no out-capacity)."""


class DegenerateMixture(ValidationError):
    """A mixture has a vanishing denominator in a requested parameter."""


class Supercritical(WeakGiantError):
    """A subcritical-only quantity was requested past the phase transition."""


class NoConvergence(WeakGiantError):
    """An iteration failed to reach its tolerance within the step budget."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class ConversionOutOfRange(WeakGiantError):
    """A conversion target lies outside what the process can ever reach."""


class Exhausted(WeakGiantError):
    """A simulation ran out of admissible events before its stop condition."""

