"""Exact rational scalars and combinatorial counting primitives.

Everything here is arbitrary-precision and exact: scalars are
``fractions.Fraction`` values (canonical ``p/q`` with ``q > 0`` and
``gcd(|p|, q) = 1``), counts are plain Python ints.  No floating point
enters any code path in this module, and all functions are pure.
`parse_rational` holds the package's one number grammar, the wire format
"p" or "p/q", which the CLI's integer and rational flags both read.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    return math.factorial(n)


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p" or "p/q" (decimal big integers, q > 0).

    The whole text must match: anything else is refused with ValueError,
    including decimal points and whitespace, a trailing newline too.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Canonical "p" / "p/q" rendering of an exact value."""
    return str(Fraction(value))
