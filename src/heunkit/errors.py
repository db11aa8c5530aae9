"""Exception types shared across the toolkit.

All domain errors derive from HeunkitError so callers (and the CLI) can
distinguish bad mathematics/input from genuine bugs. UsageError marks the
faults of the input itself (a malformed literal or line, an unknown name,
a value outside its domain); the CLI exits 2 for them and 1 for any other
HeunkitError.
"""


class HeunkitError(Exception):
    pass


class UsageError(HeunkitError):
    """Input the caller must correct: the CLI's exit status 2."""


# --- polynomial / rational-function layer ---

class ZeroDenominator(HeunkitError):
    pass


# --- ODE classification and residuals ---

class PoleAtSample(HeunkitError):
    pass


class NotRegular(HeunkitError):
    """Indicial analysis requested at a point that is not regular singular."""


# --- textual grammar ---

class GrammarError(UsageError):
    """Parse failure; carries the offending character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MalformedComplex(GrammarError):
    pass


# --- Heun constructors and series ---

class FuchsViolation(HeunkitError):
    pass


class CollidingSingularities(HeunkitError):
    pass


class LogarithmicCase(HeunkitError):
    """Indicial exponents differ by an integer; the requested power series
    does not exist (the true second solution carries a logarithm)."""


class TruncationFailure(HeunkitError):
    pass


class OutsideRadius(HeunkitError):
    pass


class UnknownKind(UsageError):
    pass


class UnknownCenter(UsageError, ValueError):
    """A center that is none of the Heun singular points 0, 1, f."""


class NotReducible(HeunkitError):
    pass


class DegenerateReduction(HeunkitError):
    pass


# --- path integration engine ---

class InvalidTolerance(UsageError):
    """A tolerance that is not a finite number in (0, 1)."""


class NonFiniteInput(HeunkitError):
    """An inf or nan where a finite number is needed."""


class SingularityTooClose(HeunkitError):
    pass


class StepUnderflow(HeunkitError):
    pass


class DegenerateSystem(HeunkitError):
    pass


class IllConditioned(HeunkitError):
    pass


# --- Mathieu machinery ---

class NonConvergence(HeunkitError):
    pass


class OverflowGuard(HeunkitError):
    pass


# --- scenarios ---

class InvalidParameter(UsageError, ValueError):
    """A scenario, Mathieu or series parameter outside its domain (a negative
    scale or order, an unknown parity or grouping, a non-finite number, a
    series length below 1)."""


class DegenerateShift(HeunkitError):
    pass


class ParameterPole(HeunkitError):
    pass


# --- CLI ---

class UnknownVerb(UsageError):
    pass


class MissingOption(UsageError):
    pass
