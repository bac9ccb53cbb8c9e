"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending: index i holds the coefficient of the
i-th power of the indeterminate.  The representation is canonical (no
trailing zeros; the zero polynomial is the empty tuple; an integral
coefficient is a plain int, any other a Fraction), so structural equality
is mathematical equality.  Integral coefficients stay ints because the
expansions behind lambda extraction and Minkowski interpolation are
mostly integral, and int arithmetic skips the gcd normalisation every
Fraction operation pays.  `interpolate` fits values
at the nodes 0..n-1 by forward differences, in ints for int values.
A coefficient, evaluation point or interpolation value must be an int or
a Fraction (`errors.check_rational`), so no float or string gets in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import check_range, check_rational
from .numcore import format_rational


def _normalize(coeffs: Iterable[Fraction | int]) -> tuple[int | Fraction, ...]:
    cs = []
    for c in coeffs:
        if type(c) is not int:
            check_rational("polynomial coefficient", c)
            if c.denominator == 1:
                c = c.numerator
        cs.append(c)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int | Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
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
            prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
            return Polynomial(prod)
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        check_range("exponent", e, 0)
        result = Polynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation."""
        check_rational("evaluation point", x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of the j-th power; 0 beyond the degree."""
        if 0 <= j < len(self.coeffs):
            return Fraction(self.coeffs[j])
        return Fraction(0)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial([0] + [Fraction(c, i + 1) for i, c in enumerate(self.coeffs)])

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


def interpolate(values: Iterable[Fraction | int]) -> Polynomial:
    """The polynomial of degree < len(values) through (m, values[m]) for
    m = 0..len(values)-1, exactly; `values` may be any iterable, read once.

    Newton's forward form sum_j D^j v_0 t(t-1)...(t-j+1)/j!, from forward
    differences taken in place and expanded by Horner's rule over a
    coefficient list scaled by (n-1)!, so int values stay ints until the
    one division at the end.
    """
    diffs = list(values)
    if not diffs:
        raise ValueError("need at least one value")
    for value in diffs:
        check_rational("interpolation value", value)
    n = len(diffs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    # acc is the Horner partial sum from j up, times w = (n-1)!/j!.
    acc, w = [diffs[-1]], 1
    for j in range(n - 2, -1, -1):
        w *= j + 1
        acc = [lower - j * c for lower, c in zip([0, *acc], [*acc, 0])]  # times (t - j)
        acc[0] += w * diffs[j]
    return Polynomial(Fraction(c, w) for c in acc)
