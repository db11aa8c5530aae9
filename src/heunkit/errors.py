"""Exception types shared across the toolkit.

All domain errors derive from HeunkitError so callers (and the CLI) can
distinguish bad mathematics/input from genuine bugs.
"""


class HeunkitError(Exception):
    pass


# --- polynomial / rational-function layer ---

class ZeroDenominator(HeunkitError):
    pass


# --- ODE classification and residuals ---

class PoleAtSample(HeunkitError):
    pass


class NotRegular(HeunkitError):
    """Indicial analysis requested at a point that is not regular singular."""


# --- textual grammar ---

class GrammarError(HeunkitError):
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


class UnknownKind(HeunkitError):
    pass


class UnknownCenter(HeunkitError, ValueError):
    """A center that is none of the Heun singular points 0, 1, f."""


class NotReducible(HeunkitError):
    pass


class DegenerateReduction(HeunkitError):
    pass


# --- path integration engine ---

class InvalidTolerance(HeunkitError):
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


# --- hypergeometric oracles ---

class PoleParameter(HeunkitError):
    pass


class SlowConvergence(HeunkitError):
    pass


# --- scenarios ---

class InvalidParameter(HeunkitError, ValueError):
    """A scenario, Mathieu or series parameter outside its domain (a negative
    scale or order, an unknown parity or grouping, a non-finite number, a
    series length below 1)."""


class DegenerateShift(HeunkitError):
    pass


class ParameterPole(HeunkitError):
    pass


# --- CLI ---

class UnknownVerb(HeunkitError):
    pass


class MissingOption(HeunkitError):
    pass
