"""Exception types shared by all synthmeter modules."""

from __future__ import annotations


class SynthmeterError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfig(SynthmeterError, ValueError):
    """A configuration value is out of range or of the wrong kind."""


def check_known(kind: str, names, known) -> None:
    """Reject any name outside ``known`` (option keys of a manifest section
    or config file, task names), naming the nearest valid one, so a typo
    cannot silently leave a default in place."""
    known = sorted(known)
    for name in names:
        if name not in known:
            import difflib  # only on this error path, so a valid run never loads it

            near = difflib.get_close_matches(str(name), known, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else f"; valid keys: {', '.join(known)}"
            raise InvalidConfig(f"unknown {kind} {name!r}{hint}")


class MalformedRow(SynthmeterError):
    """A source row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonFiniteValue(SynthmeterError):
    """A profile holds NaN or an infinite kWh value, or a score computed
    from profiles is NaN or infinite."""


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


class DimensionMismatch(SynthmeterError):
    """Input width does not match the model's expected dimensionality."""


class NonFiniteLoss(SynthmeterError):
    """Training loss became NaN or infinite."""


class MissingLabels(SynthmeterError):
    """A labelled task was given profiles without season labels."""


class RatioNotComputed(SynthmeterError):
    """Policy threshold ratio absent from the reconstruction result."""
