"""Exception types shared across the package and the two argument guards.

`check_range` is the one integer range rule: every entry point that takes a
dimension, order, piece index, index bound, descent count or other integer
argument refuses a value that is not an int with ValueError("<what> must be
an int, got <value>"), so no float reaches an exact result, and a value
outside its range with ValueError("<what> must be >= lo, got <value>") or
("<what> must be in lo..hi, got <value>").
`check_budget` refuses an enumeration larger than its budget with TooLarge.
"""


class SplinecombError(Exception):
    """Base class for all library-specific errors."""


class DuplicateNode(SplinecombError):
    """Two interpolation abscissae coincide."""


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
    """Refuse to enumerate `objects` things of kind `what` beyond `budget`."""
    if objects > budget:
        raise TooLarge(f"enumeration of {objects} {what} exceeds budget {budget}")


def check_range(what: str, value: int, lo: int, hi: int | None = None) -> None:
    """Refuse `value` for the argument `what` unless it is an int (not a
    bool) and lo <= value (<= hi when given)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{what} must be {bound}, got {value}")
