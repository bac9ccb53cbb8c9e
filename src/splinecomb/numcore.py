"""Exact rational scalars and combinatorial counting primitives.

Everything here is arbitrary-precision and exact: scalars are
``fractions.Fraction`` values (canonical ``p/q`` with ``q > 0`` and
``gcd(|p|, q) = 1``), counts are plain Python ints.  No floating point
enters any code path in this module, and all functions are pure.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import check_range

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    return math.factorial(n)


def truncated_pow(x: Fraction | int, e: int) -> Fraction:
    """Truncated power: x**e for x > 0, else 0.

    At the kink x == 0 the value is 0 for e >= 1 (forced by continuity) and
    1 for e == 0 (right-continuity, matching the half-open support of the
    order-1 spline).
    """
    check_range("exponent", e, 0)
    x = Fraction(x)
    if x > 0:
        return x**e
    if x == 0 and e == 0:
        return Fraction(1)
    return Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p" or "p/q" (decimal big integers, q > 0).

    Rejects anything else, including decimal points and whitespace.
    """
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Canonical "p" / "p/q" rendering of an exact value."""
    return str(Fraction(value))
