"""Exception types shared across the package, and the enumeration budget guard."""


class SplinecombError(Exception):
    """Base class for all library-specific errors."""


class DuplicateNode(SplinecombError):
    """Two interpolation abscissae coincide."""


class IndexOutOfSupport(SplinecombError):
    """Requested a spline piece outside the support of the spline."""


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
