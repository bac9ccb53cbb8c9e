"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending: index i holds the coefficient of the
i-th power of the indeterminate.  The representation is canonical (no
trailing zeros; the zero polynomial is the empty tuple; an integral
coefficient is a plain int, any other a Fraction), so structural equality
is mathematical equality.  `Polynomial` is a frozen, slotted dataclass over
`coeffs`: equality, hash, immutability, copies, pickles and the repr
`Polynomial(coeffs=(1, Fraction(1, 2)))` come from the dataclass, and only
the normalizing `__init__` is its own.  Integral coefficients stay ints
because the expansions behind lambda extraction and Minkowski
interpolation are mostly integral, and int arithmetic skips the gcd
normalisation every Fraction operation pays.

Products and powers run in one integer kernel, by Kronecker substitution:
scale the coefficients to ints over their least common denominator, pack
them into one int by evaluating at t = 2^w, multiply with big-int `*` (or
raise with `**`), read the coefficients back as signed base-2^w digits, and
divide once by the product of the denominators.  The slot width w is
proven wide enough: every output coefficient c of a * b satisfies
|c| <= |a|_1 |b|_1, and of p ** e, |c| <= |p|_1 ** e (|.|_1 the sum of
the absolute values of the scaled coefficients), so w = bitlength(bound)
+ 1 gives |c| < 2^(w-1).  Evaluation at p/q and subtraction likewise run
in ints, evaluation with one Fraction at the end.  `interpolate` fits
values at the nodes 0..n-1 by forward differences, in ints for int values.
A coefficient, evaluation point or interpolation value must be an int or
a Fraction (`errors.check_rational`), so no float or string gets in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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


def _scaled(coeffs: tuple[int | Fraction, ...]) -> tuple[Sequence[int], int]:
    """(ints, den): the coefficients times den, their least common denominator."""
    den = 1
    for c in coeffs:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        return coeffs, 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _unscaled(ints: list[int], den: int) -> "Polynomial":
    """The polynomial with coefficients ints[i] / den, one division each."""
    return Polynomial(ints if den == 1 else (Fraction(c, den) for c in ints))


def _norm(ints: Sequence[int]) -> int:
    """|ints|_1, the sum of the absolute values."""
    return sum(map(abs, ints))


def _slot_width(bound: int) -> int:
    """The least w with |c| < 2^(w-1) for every |c| <= bound."""
    return bound.bit_length() + 1


def _pack(ints: Sequence[int], w: int) -> int:
    """The integer sum_i ints[i] 2^(w i): the polynomial at t = 2^w."""
    packed = 0
    for c in reversed(ints):
        packed = (packed << w) + c
    return packed


def _unpack(packed: int, w: int, n: int) -> list[int]:
    """The n signed base-2^w digits of packed, lowest first, each read in
    [-2^(w-1), 2^(w-1)); a negative digit borrows one from the next."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    digits = []
    for _ in range(n):
        digit = packed & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        packed = (packed - digit) >> w
    return digits


@dataclass(frozen=True, slots=True, init=False)
class Polynomial:
    """Immutable dense polynomial with exact rational coefficients.

    The dataclass gives equality and hash over `coeffs`, refuses assignment
    with `FrozenInstanceError` (an `AttributeError`), prints the eval-able
    `Polynomial(coeffs=(1, Fraction(1, 2)))`, and copies and pickles.  Its
    own `__init__` normalizes any iterable of coefficients.
    """

    coeffs: tuple[int | Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        diff = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            diff[i] -= c
        return Polynomial(diff)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            a, a_den = _scaled(self.coeffs)
            b, b_den = _scaled(other.coeffs)
            w = _slot_width(_norm(a) * _norm(b))
            packed = _pack(a, w) * _pack(b, w)
            return _unscaled(_unpack(packed, w, len(a) + len(b) - 1), a_den * b_den)
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        check_range("exponent", e, 0)
        if e == 0:
            return Polynomial([1])
        if not self.coeffs:
            return Polynomial()
        a, den = _scaled(self.coeffs)
        w = _slot_width(_norm(a) ** e)
        return _unscaled(_unpack(_pack(a, w) ** e, w, e * (len(a) - 1) + 1), den**e)

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact evaluation: at x = p/q, Horner's rule on sum_i a_i p^i
        q^(n-i) for the scaled coefficients a_i, then one Fraction."""
        check_rational("evaluation point", x)
        if not self.coeffs:
            return Fraction(0)
        a, den = _scaled(self.coeffs)
        p, q = x.numerator, x.denominator
        total, q_power = a[-1], 1
        for c in reversed(a[:-1]):
            q_power *= q
            total = total * p + c * q_power
        return Fraction(total, den * q_power)

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
