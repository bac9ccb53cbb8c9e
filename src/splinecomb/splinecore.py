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

Every function here works in plain ints at x = p/q in lowest terms
(q > 0): it scales its formula by a common denominator, sums integer
terms, and divides once at the end (once per coefficient for a piece),
so a value costs one gcd instead of one per term.  The evaluators scale
by q^(d-1) * (d-1)!, the piece by (d-1)!, and the integral by q^d * d!
per bound.  The routes share no kernel beyond `binomial` and
`factorial`, none calls a descent or Eulerian route, and no `Polynomial`
arithmetic runs here: the piece only constructs its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import check_range, check_rational
from .numcore import binomial, factorial
from .polyring import Polynomial


@dataclass(frozen=True)
class PiecePoly:
    """The polynomial B_d restricts to on [j, j + 1), from `bspline_piece(d, j)`."""

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
    check_rational("spline argument", x)
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
    check_rational("spline argument", x)
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

    On that interval exactly the terms of the explicit sum with shift
    i <= j are active, each a full (not truncated) power (x - i)^(d-1).
    Expanding them by the binomial theorem, coefficient m is
    C(d-1, m) * sum_{i <= j} (-1)^i C(d, i) (-i)^(d-1-m), over (d-1)!,
    with 0**0 == 1.  The sums are taken in ints, one power of -i at a
    time, and no evaluator is called, so the piece stays a separate route.
    """
    check_range("spline order", d, 1)
    check_range("piece index", j, 0, d - 1)
    n = d - 1
    signed = [-binomial(d, i) if i & 1 else binomial(d, i) for i in range(j + 1)]
    powers = [1] * (j + 1)  # (-i)^e for e = 0, 1, ..., n
    sums = []
    for _ in range(n + 1):
        sums.append(sum(w * v for w, v in zip(signed, powers)))
        powers = [-i * v for i, v in enumerate(powers)]
    scale = factorial(n)
    coeffs = [Fraction(binomial(n, m) * sums[n - m], scale) for m in range(n + 1)]
    return PiecePoly(Polynomial(coeffs))


def bspline_integrate(d: int, a: Fraction | int, b: Fraction | int) -> Fraction:
    """Exact integral of B_d over [a, b], as F(b) - F(a).

    F(x) = sum_{i <= x} (-1)^i C(d, i) (x - i)^d / d! is the explicit sum
    integrated term by term, for x clamped to [0, d]: it is 0 at x = 0 and
    1 at x = d.  At x = p/q it is taken in ints scaled by q^d * d!, and the
    two bounds share one division.  The powers are those of the explicit
    sum of B_(d+1) but weighted by C(d, i) rather than C(d+1, i), so the
    integral bridge A(d, k) = d! B_(d+1)(k) = d! (F(k) - F(k-1)) still
    checks Pascal's rule.
    """
    check_range("spline order", d, 1)
    check_rational("integration bound", a)
    check_rational("integration bound", b)
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    scaled = []
    for x in (a, b):
        p, q = x.numerator, x.denominator
        if p <= 0:
            p, q = 0, 1
        elif p >= d * q:
            p, q = d, 1
        acc = 0
        for i in range(p // q + 1):
            term = binomial(d, i) * (p - i * q) ** d
            acc = acc - term if i & 1 else acc + term
        scaled.append((acc, q**d))
    (fa, qa), (fb, qb) = scaled
    return Fraction(fb * qa - fa * qb, qa * qb * factorial(d))


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
