"""Argument rules, each stated once for the whole package.  A rule returns ``value``
in the caller's type or raises a ``ValueError`` that names the argument, and NaN
fails every rule.  Only the standard library is imported: ``plan`` loads no numpy."""

import math
import numbers


def count(name: str, value, least: int = 1):
    """An ``int`` or numpy integer of at least ``least`` (1 or 0).  An integral
    float such as ``10.0`` is refused too: ``range()`` needs an int, and
    ``int()`` would run ``2.5`` as some other count."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        what = "a positive integer" if least else "a nonnegative integer"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def finite(name: str, value):
    """A finite real number that is not a ``bool``: ``float()`` would take
    ``"2"`` and ``True``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _rule(what: str, ok):
    def check(name: str, value):
        if not ok(value):
            raise ValueError(f"{name} {what}, got {value}")
        return value
    return check


positive = _rule("must be finite and positive", lambda v: 0.0 < v < math.inf)
nonnegative = _rule("must be finite and nonnegative", lambda v: 0.0 <= v < math.inf)
unit = _rule("must lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
