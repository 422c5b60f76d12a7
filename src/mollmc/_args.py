"""Argument rules, each stated once for the whole package, the CLI included.  A
rule returns ``value`` unchanged or raises a ``ValueError`` that names the
argument and shows the value by ``repr``.  Every rule refuses a ``bool``, which
``float()`` and ``int()`` take, and every numeric one NaN, inf and a value beyond
float range, but ``magnitude`` takes the last, such as an mpmath number, and
``upper`` takes inf.  Only the standard library is imported: ``plan`` loads no numpy."""

import math
import numbers
import sys


def rule(what: str, ok):
    """The check ``(name, value)`` that raises ``"{name} {what}"`` unless ``ok(value)``."""
    def check(name: str, value):
        if not ok(value):
            raise ValueError(f"{name} {what}, got {value!r}")
        return value
    return check


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# an integral float such as 10.0 is no integer: range() needs an int, and int()
# would run 2.5 as some other count
def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and _real(v)


_COUNTS = {1: rule("must be a positive integer", lambda v: _integer(v) and v >= 1),
           0: rule("must be a nonnegative integer", lambda v: _integer(v) and v >= 0)}


def count(name: str, value, least: int = 1):
    """An integer of at least ``least``, which is 1 or 0."""
    return _COUNTS[least](name, value)


finite = rule("must be a finite real number", _real)
positive = rule("must be finite and positive", lambda v: _real(v) and v > 0)
nonnegative = rule("must be finite and nonnegative", lambda v: _real(v) and v >= 0)
magnitude = rule("must be a nonnegative real number", lambda v: isinstance(v, numbers.Real)
                 and not isinstance(v, bool) and 0 <= v < math.inf)
# an upper bound that overflowed float range is inf, and what is built on it vacuous
upper = rule("must be a nonnegative real or inf", lambda v: _real(v) and v >= 0 or v == math.inf)
unit = rule("must lie in (0, 1]", lambda v: _real(v) and 0 < v <= 1)
# the seed derivation reads a root modulo 2**64: -5 would rerun the experiment of 2**64 - 5
seed = rule("must be in [0, 2**64)", lambda v: _integer(v) and 0 <= v < 2**64)
