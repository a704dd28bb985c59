"""Exception types shared across the package, and the CLI exit code of each failure.

Every error the package raises carries its stable exit code as the class
attribute `exit_code`; FOREIGN_EXIT_CODES gives the codes of the exceptions
from outside the package that `cli.main` maps as well.  `exit_code(exc)`
looks up the code of either kind.
"""

import numpy as np


class WinterError(Exception):
    """Base class for package errors; each subclass sets its `exit_code`."""

    exit_code: int


class DomainError(WinterError, ValueError):
    """Input outside the mathematical domain of an operation (k = 0, g = 0, ...)."""

    exit_code = 2


class PoleConvergenceError(WinterError, RuntimeError):
    """Newton iteration for a resonance pole failed to converge."""

    exit_code = 2

    def __init__(self, msg, n=None, g=None):
        super().__init__(msg)
        self.n = n
        self.g = g


class OctantViolationError(PoleConvergenceError):
    """A root was found outside the admissible octant Im k < 0 < |Im k| < Re k.

    Signals either a wrong Newton basin or a coupling beyond the resonance
    regime; treated as a hard failure rather than a warning.
    """


class AccuracyError(WinterError, RuntimeError):
    """A quadrature could not reach the requested tolerance.

    Carries the best value obtained and the achieved error estimate so a
    caller can decide whether the result is still usable.
    """

    exit_code = 3

    def __init__(self, msg, best=None, estimate=None):
        super().__init__(msg)
        self.best = best
        self.estimate = estimate


class IllConditionedError(WinterError, RuntimeError):
    """Dense linear algebra refused: condition estimate above threshold."""

    exit_code = 4


class CrossingNotFoundError(WinterError, RuntimeError):
    """No sign change of the curve difference inside the search range."""

    exit_code = 5


# Failures from outside the package that the CLI maps too: an unreadable
# manifest or unusable --out, a value beyond floating-point range, running
# out of memory, and a dense solve numpy refuses.
FOREIGN_EXIT_CODES = {OSError: 2, OverflowError: 2, MemoryError: 2, np.linalg.LinAlgError: 4}


def exit_code(exc: BaseException) -> int:
    """The exit code of a WinterError or of an instance of a FOREIGN_EXIT_CODES type."""
    if isinstance(exc, WinterError):
        return exc.exit_code
    return next(code for kind, code in FOREIGN_EXIT_CODES.items() if isinstance(exc, kind))
