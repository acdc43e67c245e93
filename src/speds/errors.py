"""Exception types shared across the package, and the one check of a number input."""

import numbers
import sys


class InvalidInput(ValueError):
    """A parameter violates a documented precondition."""


class UnsupportedInput(ValueError):
    """Physically meaningful but outside what the solver supports (e.g. gain media)."""


class NumericalFailure(RuntimeError):
    """A quadrature or iteration failed to converge; the message carries diagnostics."""


def number(value, key, *, low=None, high=None, above=None, below=None, integer=False):
    """``value``, checked to be a finite real number within the given bounds.

    ``low`` and ``high`` are inclusive bounds, ``above`` and ``below``
    exclusive ones; ``integer`` asks for a value of an integer type.  A bool,
    a string, a list or any other non-number is rejected, and so is a number
    too large for a float.  Raises ``InvalidInput`` naming ``key``.
    """
    kind = numbers.Integral if integer else numbers.Real
    ok = (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # False for NaN and +-inf
        and (low is None or value >= low)
        and (high is None or value <= high)
        and (above is None or value > above)
        and (below is None or value < below)
    )
    if ok:
        return value
    limits = ((">=", low), (">", above), ("<=", high), ("<", below))
    bounds = " and ".join(f"{op} {bound:g}" for op, bound in limits if bound is not None)
    what = ("an integer" if integer else "a finite number") + (f" {bounds}" if bounds else "")
    raise InvalidInput(f"{key} must be {what}, got {value!r}")
