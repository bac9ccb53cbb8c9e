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

from .errors import check_range
from .numcore import binomial, factorial
from .polyring import Polynomial


@dataclass(frozen=True)
class PiecePoly:
    """The polynomial B_d restricts to on [piece_index, piece_index + 1)."""

    order: int
    piece_index: int
    poly: Polynomial


def bspline_eval_explicit(d: int, x: Fraction | int) -> Fraction:
    """B_d(x) via the alternating sum of truncated powers (x - i)_+^(d-1).

    Only the shifts i <= floor(x) are active, and x < d keeps them below d.
    Each of them has base x - i >= 0, so the truncation is a plain power,
    and 0**0 == 1 makes the d = 1 base case right-continuous.
    """
    check_range("spline order", d, 1)
    x = Fraction(x)
    if x < 0 or x >= d:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(math.floor(x) + 1):
        term = binomial(d, i) * (x - i) ** (d - 1)
        acc = acc - term if i & 1 else acc + term
    return acc / factorial(d - 1)


def bspline_eval_recurrence(d: int, x: Fraction | int) -> Fraction:
    """B_d(x) via the order-lowering recurrence.

    Builds the triangular table B_j(x - m) for j = 1..d, starting from the
    indicator values of B_1 and combining neighbours with the weights
    y/(j-1) and (j-y)/(j-1).  Agrees bit-exactly with the explicit route.
    """
    check_range("spline order", d, 1)
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
    check_range("spline order", d, 1)
    check_range("piece index", j, 0, d - 1)
    acc = Polynomial()
    for i in range(j + 1):
        term = Polynomial([-i, 1]) ** (d - 1) * binomial(d, i)
        acc = acc - term if i & 1 else acc + term
    return PiecePoly(order=d, piece_index=j, poly=acc * Fraction(1, factorial(d - 1)))


def bspline_integrate(d: int, a: Fraction | int, b: Fraction | int) -> Fraction:
    """Exact integral of B_d over [a, b] via piecewise antiderivatives."""
    check_range("spline order", d, 1)
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    lo, hi = max(a, Fraction(0)), min(b, Fraction(d))
    if lo >= hi:
        return Fraction(0)
    total = Fraction(0)
    for j in range(math.floor(lo), math.ceil(hi)):
        left, right = max(lo, Fraction(j)), min(hi, Fraction(j + 1))
        anti = bspline_piece(d, j).poly.antiderivative()
        total += anti(right) - anti(left)
    return total


def two_scale_residual(d: int, x: Fraction | int) -> Fraction:
    """B_d(x) minus its binomial-weighted refinement at doubled argument.

    Identically 0; with the right-continuous base indicator this holds at
    every rational, dyadic discontinuity points of d = 1 included.
    """
    check_range("spline order", d, 1)
    x = Fraction(x)
    halved = Fraction(1, 2 ** (d - 1))
    refined = sum(
        (binomial(d, j) * bspline_eval_explicit(d, 2 * x - j) for j in range(d + 1)),
        start=Fraction(0),
    )
    return bspline_eval_explicit(d, x) - halved * refined


def partition_residual(d: int, x: Fraction | int) -> Fraction:
    """Sum of all integer translates of B_d at x, minus 1.

    Only the finitely many translates whose support contains x contribute.
    Identically 0 (partition of unity).
    """
    check_range("spline order", d, 1)
    x = Fraction(x)
    total = Fraction(0)
    for k in range(math.ceil(x - d), math.floor(x) + 1):
        total += bspline_eval_explicit(d, x - k)
    return total - 1


def _log_concavity_margins(v):
    """Interior margins v[k]^2 - v[k-1] * v[k+1], k = 1..len(v)-2, of both
    log-concavity checks: all >= 0 exactly when v is log-concave."""
    return [v[k] * v[k] - v[k - 1] * v[k + 1] for k in range(1, len(v) - 1)]


def log_concavity_witness(d: int, grid_denominator: int) -> list[Fraction]:
    """Exact discrete log-concavity margins of B_d on a rational grid.

    Evaluates B_d once at each grid point x = m/q, m = 0..d*q, and returns
    B(x)^2 - B(x - 1/q) * B(x + 1/q) for every interior sample 0 < x < d.
    All margins are >= 0 for a log-concave function; the end points lie
    outside the open support and contribute 0, making their neighbours'
    margins trivially non-negative.
    """
    check_range("log-concavity sampling order", d, 2)
    check_range("grid denominator", grid_denominator, 1)
    q = grid_denominator
    grid = [bspline_eval_explicit(d, Fraction(m, q)) for m in range(d * q + 1)]
    return _log_concavity_margins(grid)
