"""Exact evaluation of the uniform cardinal B-spline of integer order.

The order-d spline B_d is the d-fold convolution of the indicator of
[0, 1): piecewise polynomial of degree d-1, supported on [0, d].  B_1 is
the right-continuous indicator (1 on [0, 1), 0 at 1); every higher order
is continuous, so knot values are unambiguous.

Two independent evaluation routes are provided (the explicit alternating
truncated-power sum and the order-lowering recurrence) plus piece
extraction, exact integration, and residuals for the refinement and
partition-of-unity identities.  Everything returns Fractions; out-of-
support arguments give 0 rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfSupport
from .numcore import Rational, binomial, factorial, truncated_pow
from .polyring import Polynomial


def _check_order(d: int) -> None:
    if d < 1:
        raise ValueError(f"spline order must be >= 1, got {d}")


@dataclass(frozen=True)
class PiecePoly:
    """The polynomial B_d restricts to on [piece_index, piece_index + 1)."""

    order: int
    piece_index: int
    poly: Polynomial


def bspline_eval_explicit(d: int, x: Rational | int) -> Fraction:
    """B_d(x) via the alternating sum of truncated powers.

    Only terms with shift i <= x are active; the truncated-power
    conventions make the d = 1 base case come out right-continuous.
    """
    _check_order(d)
    x = Fraction(x)
    if x < 0 or x >= d:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(min(d, math.floor(x)) + 1):
        term = binomial(d, i) * truncated_pow(x - i, d - 1)
        acc = acc - term if i & 1 else acc + term
    return acc / factorial(d - 1)


def bspline_eval_recurrence(d: int, x: Rational | int) -> Fraction:
    """B_d(x) via the order-lowering recurrence.

    Builds the triangular table B_j(x - m) for j = 1..d, starting from the
    indicator values of B_1 and combining neighbours with the weights
    y/(j-1) and (j-y)/(j-1).  Agrees bit-exactly with the explicit route.
    """
    _check_order(d)
    x = Fraction(x)
    vals = [Fraction(1) if 0 <= x - m < 1 else Fraction(0) for m in range(d)]
    for order in range(2, d + 1):
        nxt = []
        for m in range(d - order + 1):
            y = x - m
            nxt.append((y * vals[m] + (order - y) * vals[m + 1]) / (order - 1))
        vals = nxt
    return vals[0]


# Evaluation routes by name, reference route first.  The lambdas look the
# route functions up when called, so rebinding a module attribute reaches them.
EVAL_ROUTES = {
    "explicit": lambda d, x: bspline_eval_explicit(d, x),
    "recurrence": lambda d, x: bspline_eval_recurrence(d, x),
}


def bspline_piece(d: int, j: int) -> PiecePoly:
    """Polynomial equal to B_d on [j, j+1), for 0 <= j <= d-1.

    Built from the explicit sum: on that interval exactly the terms with
    shift i <= j are active, each contributing a full (not truncated)
    power.
    """
    _check_order(d)
    if not 0 <= j <= d - 1:
        raise IndexOutOfSupport(f"piece index {j} outside support of order-{d} spline")
    acc = Polynomial()
    for i in range(j + 1):
        term = Polynomial([-i, 1]) ** (d - 1) * binomial(d, i)
        acc = acc - term if i & 1 else acc + term
    return PiecePoly(order=d, piece_index=j, poly=acc * Fraction(1, factorial(d - 1)))


def bspline_integrate(d: int, a: Rational | int, b: Rational | int) -> Fraction:
    """Exact integral of B_d over [a, b] via piecewise antiderivatives."""
    _check_order(d)
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    lo, hi = max(a, Fraction(0)), min(b, Fraction(d))
    if lo >= hi:
        return Fraction(0)
    total = Fraction(0)
    for j in range(math.floor(lo), math.ceil(hi)):
        left, right = max(lo, Fraction(j)), min(hi, Fraction(j + 1))
        if left >= right:
            continue
        anti = bspline_piece(d, j).poly.antiderivative()
        total += anti(right) - anti(left)
    return total


def two_scale_residual(d: int, x: Rational | int) -> Fraction:
    """B_d(x) minus its binomial-weighted refinement at doubled argument.

    Identically 0; with the right-continuous base indicator this holds at
    every rational, dyadic discontinuity points of d = 1 included.
    """
    _check_order(d)
    x = Fraction(x)
    halved = Fraction(1, 2 ** (d - 1))
    refined = sum(
        (binomial(d, j) * bspline_eval_explicit(d, 2 * x - j) for j in range(d + 1)),
        start=Fraction(0),
    )
    return bspline_eval_explicit(d, x) - halved * refined


def partition_residual(d: int, x: Rational | int) -> Fraction:
    """Sum of all integer translates of B_d at x, minus 1.

    Only the finitely many translates whose support contains x contribute.
    Identically 0 (partition of unity).
    """
    _check_order(d)
    x = Fraction(x)
    total = Fraction(0)
    for k in range(math.ceil(x - d), math.floor(x) + 1):
        total += bspline_eval_explicit(d, x - k)
    return total - 1


def log_concavity_witness(d: int, grid_denominator: int) -> list[Fraction]:
    """Exact discrete log-concavity margins of B_d on a rational grid.

    Samples x = m/q over the open support (0, d) and returns
    B(x)^2 - B(x - 1/q) * B(x + 1/q) for every interior sample.  All
    margins are >= 0 for a log-concave function; neighbours that fall
    outside the support contribute 0, making those margins trivially
    non-negative.
    """
    if d < 2:
        raise ValueError("log-concavity sampling needs order >= 2")
    if grid_denominator < 1:
        raise ValueError("grid denominator must be >= 1")
    q = grid_denominator
    margins = []
    for m in range(1, d * q):
        centre = bspline_eval_explicit(d, Fraction(m, q))
        left = bspline_eval_explicit(d, Fraction(m - 1, q))
        right = bspline_eval_explicit(d, Fraction(m + 1, q))
        margins.append(centre * centre - left * right)
    return margins
