"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending: index i holds the coefficient of the
i-th power of the indeterminate.  The representation is canonical (no
trailing zeros; the zero polynomial is the empty tuple), so structural
equality is mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DuplicateNode
from .numcore import Rational, format_rational


def _normalize(coeffs: Iterable[Rational | int]) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational | int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
            return Polynomial(prod)
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result = Polynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x: Rational | int) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of the j-th power; 0 beyond the degree."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def coefficient_strings(self) -> list[str]:
        """Ascending coefficients in the canonical "p/q" wire format."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append(f"{format_rational(c)}*t")
            else:
                terms.append(f"{format_rational(c)}*t^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


def interpolate(points: Sequence[tuple[Rational | int, Rational | int]]) -> Polynomial:
    """Lagrange interpolation through the given (x, y) points, exactly.

    Returns the unique polynomial of degree < len(points).  Raises
    DuplicateNode if two abscissae coincide.
    """
    if not points:
        raise ValueError("need at least one point")
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    seen = set()
    for x in xs:
        if x in seen:
            raise DuplicateNode(f"duplicate interpolation node {format_rational(x)}")
        seen.add(x)

    result = Polynomial()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        basis = Polynomial([1])
        denom = Fraction(1)
        for m, xm in enumerate(xs):
            if m == i:
                continue
            basis = basis * Polynomial([-xm, 1])
            denom *= xi - xm
        result = result + basis * (yi / denom)
    return result
