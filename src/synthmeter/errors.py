"""Exception types shared by all synthmeter modules."""

from __future__ import annotations


class SynthmeterError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfig(SynthmeterError, ValueError):
    """A configuration value is out of range or of the wrong kind."""


class MalformedRow(SynthmeterError):
    """A source row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonFiniteValue(SynthmeterError):
    """A profile holds NaN or an infinite kWh value."""


class EmptyResult(SynthmeterError):
    """An operation produced no usable profiles."""


class TooFewHouseholds(SynthmeterError):
    """A household split would leave fewer than two households on one side."""


class HorizonMismatch(SynthmeterError):
    """Profile sets with different horizons were combined."""


class InsufficientSamples(SynthmeterError):
    """Too few samples for the requested statistic or attack."""


class DegenerateInput(SynthmeterError):
    """Input too small or too degenerate for the kernel statistic."""


class ZeroMass(SynthmeterError):
    """KL divergence undefined: q has zero mass where p is positive."""


class LagTooLarge(SynthmeterError):
    """Requested autocorrelation lag is not below the profile length."""


class RankDeficient(SynthmeterError):
    """Covariance has fewer positive eigenvalues than requested components."""


class TooFewRows(SynthmeterError):
    """Fewer data rows than mixture components."""


class DegenerateComponent(SynthmeterError):
    """A mixture component collapsed despite the variance floor."""


class DimensionMismatch(SynthmeterError):
    """Input width does not match the model's expected dimensionality."""


class NonFiniteLoss(SynthmeterError):
    """Training loss became NaN or infinite."""


class MissingLabels(SynthmeterError):
    """A labelled task was given profiles without season labels."""


class RatioNotComputed(SynthmeterError):
    """Policy threshold ratio absent from the reconstruction result."""
