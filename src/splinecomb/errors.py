"""Exception types shared across the package and the three argument guards.

`check_range` is the one integer range rule: every entry point that takes a
dimension, order, piece index, index bound, descent count, sample count,
seed, exact volume, enumeration budget or other integer argument refuses a
value that is not an int with ValueError("<what> must be an int, got
<value>"), so no float or Fraction reaches an exact result, and a value
outside its range with ValueError("<what> must be >= lo, got <value>") or
("<what> must be in lo..hi, got <value>").  An argument with no range (a
seed, a descent count whose value outside the support is 0) is only
checked to be an int.
`check_rational` is the one rule for an exact rational argument (a spline
argument, an integration bound, a slab bound, a polynomial coefficient, an
evaluation point, an interpolation value): it refuses anything but an int
or a Fraction, so neither a float's binary value nor a string reaches an
exact result.
`check_budget` refuses an enumeration larger than its budget with TooLarge,
after `check_range` has refused a budget that is not an int >= 0.
"""

from fractions import Fraction

class SplinecombError(Exception):
    """Base class for all library-specific errors."""


class NonIntegerResult(SplinecombError):
    """An exact value that must be an integer came out as a proper fraction.

    Signals an implementation bug, never bad input.
    """


class NegativeResult(SplinecombError):
    """An alternating sum that must be non-negative came out negative.

    Signals an implementation bug, never bad input.
    """


class TooLarge(SplinecombError):
    """Requested enumeration exceeds the configured budget."""


# Admits the indexed (d, n) = (6, 4) enumeration (2,949,120 objects) but
# not S_10 (3,628,800 permutations).
DEFAULT_ENUMERATION_BUDGET = 3 * 10**6


def check_budget(objects: int, budget: int, what: str) -> None:
    """Refuse to enumerate `objects` things of kind `what` beyond `budget`,
    which must be an int >= 0."""
    check_range("enumeration budget", budget, 0)
    if objects > budget:
        raise TooLarge(f"enumeration of {objects} {what} exceeds budget {budget}")


def check_range(what: str, value: int, lo: int | None = None, hi: int | None = None) -> None:
    """Refuse `value` for the argument `what` unless it is an int (not a
    bool) and, when lo is given, lo <= value (<= hi when given)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if lo is not None and (value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{what} must be {bound}, got {value}")


def check_rational(what: str, value) -> None:
    """Refuse `value` for the argument `what` unless it is an int (not a
    bool) or a Fraction."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{what} {value!r} is not an int or a Fraction")
