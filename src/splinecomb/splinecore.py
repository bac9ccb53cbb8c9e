"""Exact evaluation of the uniform cardinal B-spline of integer order.

The order-d spline B_d is the d-fold convolution of the indicator of
[0, 1): piecewise polynomial of degree d-1, supported on [0, d].  B_1 is
the right-continuous indicator (1 on [0, 1), 0 at 1); every higher order
is continuous, so knot values are unambiguous.

Two independent evaluation routes are provided (the explicit alternating
truncated-power sum and the order-lowering recurrence) plus piece
extraction, exact integration and a log-concavity witness.  Everything
returns Fractions; out-of-support arguments give 0 rather than an error.
The refinement and partition-of-unity identities are checked in
`verify.verify_bspline`.

Both evaluators work in plain ints at x = p/q in lowest terms (q > 0):
each scales its formula by a common denominator, q^(d-1) * (d-1)!, sums
integer terms, and builds one Fraction from the scaled sum at the end,
so a value costs one gcd instead of one per term.  The two routes share
no kernel beyond `binomial` and `factorial`, and neither calls a
descent or Eulerian route.
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
    and 0**0 == 1 makes the d = 1 base case right-continuous.  At x = p/q
    the sum is taken in ints, scaled by q^(d-1):
    sum_{i <= p//q} (-1)^i C(d, i) (p - i*q)^(d-1), divided once by
    q^(d-1) * (d-1)!.
    """
    check_range("spline order", d, 1)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p < 0 or p >= d * q:
        return Fraction(0)
    acc = 0
    for i in range(p // q + 1):
        term = binomial(d, i) * (p - i * q) ** (d - 1)
        acc = acc - term if i & 1 else acc + term
    return Fraction(acc, q ** (d - 1) * factorial(d - 1))


def bspline_eval_recurrence(d: int, x: Fraction | int) -> Fraction:
    """B_d(x) via the order-lowering recurrence.

    Builds the triangular table B_j(x - m) for j = 1..d, starting from the
    indicator values of B_1 and combining neighbours with the weights
    y/(j-1) and (j-y)/(j-1), y = x - m.  At x = p/q the table holds the
    ints v_j[m] = q^(j-1) (j-1)! B_j(x - m), so with r = p - m*q = q*y a
    step is v_j[m] = r v_{j-1}[m] + (j*q - r) v_{j-1}[m+1] from the base
    row v_1[m] = [0 <= r < q], which keeps d = 1 right-continuous; the
    scale q^(d-1) (d-1)! is divided out once at the end.  Agrees
    bit-exactly with the explicit route.
    """
    check_range("spline order", d, 1)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    shifted = [p - m * q for m in range(d)]
    vals = [1 if 0 <= r < q else 0 for r in shifted]
    scale = 1
    for order in range(2, d + 1):
        jq = order * q
        vals = [r * a + (jq - r) * b for r, a, b in zip(shifted, vals, vals[1:])]
        scale *= (order - 1) * q
    return Fraction(vals[0], scale)


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
