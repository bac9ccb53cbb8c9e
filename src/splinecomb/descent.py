"""Descent statistics of indexed permutations, by five independent routes.

An indexed permutation over dimension d with index bound n is an ordinary
permutation of {1..d} whose letters each carry an index in {0..n-1}.
Position i < d is a descent when the indices strictly decrease there, or
tie with the letters decreasing; position d is a descent when the last
index is nonzero.  DT(d, n, k) counts the indexed permutations with
exactly k descents.

Routes: spline evaluation (d! * n^d * B_{d+1}(k + 1/n)), the explicit
alternating sum, the dimension recurrence, combination of refined Eulerian
numbers, and brute-force enumeration.  The spline route evaluates one
spline value per entry.  The explicit route builds its d+1 shifted powers
once per table, and the refined route reads one explicit refined triangle
per table; each sums the same terms as its scalar formula.  The descent
rule above is `eulerian._descents`, the one rule of every brute-force
route, and it is not taken on faith: the enumeration is gated by exact
agreement with the other four routes across the verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DEFAULT_ENUMERATION_BUDGET, NegativeResult, check_range
from .eulerian import _as_int, _descent_grid, _descent_marginal, _refined_explicit_triangle
from .numcore import binomial, factorial
from .polyring import Polynomial
from .splinecore import _log_concavity_margins, bspline_eval_explicit


@dataclass(frozen=True)
class DescentTable:
    """Exact descent histogram for fixed (d, n): values[k] holds DT(d, n, k)
    for k = 0..d."""

    d: int
    n: int
    values: tuple[int, ...]

    @property
    def polynomial(self) -> Polynomial:
        """The generating polynomial D_d^n(t) = sum_k values[k] * t^k."""
        return Polynomial(self.values)


def _check_args(d: int, n: int) -> None:
    check_range("dimension", d, 1)
    check_range("index bound", n, 1)


def descent_spline(d: int, n: int, k: int) -> int:
    """DT(d, n, k) as d! * n^d * B_{d+1}(k + 1/n); 0 for k outside 0..d."""
    _check_args(d, n)
    check_range("descent count k", k)
    value = factorial(d) * n**d * bspline_eval_explicit(d + 1, k + Fraction(1, n))
    return _as_int(value, f"descent_spline({d}, {n}, {k})")


def descent_explicit(d: int, n: int, k: int) -> int:
    """DT(d, n, k) via the alternating sum over shifted d-th powers."""
    _check_args(d, n)
    check_range("descent count k", k, 0, d)
    total = 0
    for i in range(k + 1):
        term = binomial(d + 1, i) * (n * (k - i) + 1) ** d
        total = total - term if i & 1 else total + term
    if total < 0:
        raise NegativeResult(f"descent_explicit({d}, {n}, {k}) = {total}")
    return total


def _descent_explicit_table(d: int, n: int) -> DescentTable:
    """The explicit route's whole table: `descent_explicit`'s alternating sum
    at every k, term for term, from the d+1 powers (n*m + 1)^d built once."""
    _check_args(d, n)
    powers = [(n * m + 1) ** d for m in range(d + 1)]
    signed = [-binomial(d + 1, i) if i & 1 else binomial(d + 1, i) for i in range(d + 1)]
    values = tuple(sum(map(mul, signed, reversed(powers[: k + 1]))) for k in range(d + 1))
    for k, total in enumerate(values):
        if total < 0:
            raise NegativeResult(f"descent explicit table d={d} n={n}: values[{k}] = {total}")
    return DescentTable(d=d, n=n, values=values)


def _descent_refined_table(d: int, n: int) -> DescentTable:
    """DT(d, n, k) = sum_j C(d, j) (n-1)^j AR(d+1, k, d+1-j) for every k: row
    k of the explicit refined triangle, built once, against weights built
    once (0**0 == 1, so n = 1 keeps only the first term)."""
    _check_args(d, n)
    triangle = _refined_explicit_triangle(d)
    weights = [binomial(d, j) * (n - 1) ** j for j in range(d + 1)]
    return DescentTable(d=d, n=n, values=tuple(sum(map(mul, weights, row)) for row in triangle.values))


def descent_recurrence_table(d: int, n: int) -> DescentTable:
    """Build the table by the dimension recurrence from the length-1 base row."""
    _check_args(d, n)
    row = [1, n - 1]
    for j in range(2, d + 1):
        prev = row
        row = []
        for k in range(j + 1):
            above = prev[k] if k < len(prev) else 0
            left = prev[k - 1] if k >= 1 else 0
            row.append((n * k + 1) * above + (n * (j - k) + (n - 1)) * left)
    return DescentTable(d=d, n=n, values=tuple(row))


def indexed_bruteforce(d: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> DescentTable:
    """Histogram of descent counts over every (permutation, index vector) pair."""
    _check_args(d, n)
    grid = _descent_grid(d, n, budget, "indexed permutations")
    return DescentTable(d=d, n=n, values=tuple(_descent_marginal(grid)))


def _grid(d: int, n: int, entry) -> DescentTable:
    return DescentTable(d=d, n=n, values=tuple(entry(d, n, k) for k in range(d + 1)))


# Routes by name, reference route first; a builder takes (d, n, budget).
# The lambdas look the route functions up when called, so rebinding a
# module attribute reaches them.
TABLE_ROUTES = {
    "spline": lambda d, n, budget: _grid(d, n, descent_spline),
    "explicit": lambda d, n, budget: _descent_explicit_table(d, n),
    "recurrence": lambda d, n, budget: descent_recurrence_table(d, n),
    "refined": lambda d, n, budget: _descent_refined_table(d, n),
    "brute": lambda d, n, budget: indexed_bruteforce(d, n, budget=budget),
}
ROUTES = tuple(TABLE_ROUTES)


def descent_table(
    d: int, n: int, route: str = "spline", budget: int = DEFAULT_ENUMERATION_BUDGET
) -> DescentTable:
    """Full table for the chosen route."""
    if route not in TABLE_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return TABLE_ROUTES[route](d, n, budget)


def log_concavity_verdict(table: DescentTable) -> list[int]:
    """Interior margins values[k]^2 - values[k-1] * values[k+1], k = 1..d-1.

    All margins are >= 0 exactly when the histogram is log-concave; the
    empty list for d = 1 is vacuously log-concave.
    """
    return _log_concavity_margins(table.values)

