"""Eulerian numbers and their last-element refinement, by independent routes.

A(d, k) counts permutations of S_d with exactly k-1 descents (a descent of
pi is a position i with pi_i > pi_{i+1}).  The refined count AR(d+1, k, m)
counts permutations of S_{d+1} with k descents whose last element is m.

Routes: spline evaluation (d! * B_{d+1}(k)), explicit alternating sums,
coefficient extraction from an exact polynomial identity, and brute-force
enumeration.  All routes must agree bit-exactly; the enumeration is the
oracle the others are gated on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from operator import mul

from .errors import DEFAULT_ENUMERATION_BUDGET, NegativeResult, NonIntegerResult, TooLarge, check_budget, check_range
from .numcore import binomial, factorial
from .polyring import Polynomial
from .splinecore import bspline_eval_explicit


@dataclass(frozen=True)
class EulerianRow:
    """Exact row A(d, 1..d); values[i] holds A(d, i+1)."""

    d: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class RefinedTriangle:
    """Refined counts for S_{d+1}, keyed by descent count and last element.

    values[k][j] holds AR(d+1, k, d+1-j): permutations of S_{d+1} with k
    descents ending with the element d+1-j, for 0 <= k, j <= d.
    """

    d: int
    values: tuple[tuple[int, ...], ...]


# While numpy is not loaded, enumerations of fewer objects than this run
# the scalar loop, so that small brute calls from a cold process (5040
# objects for `eulerian row --d 7`, about 5 ms) do not pay numpy's import
# (about 0.1 s).  Once numpy is loaded, every enumeration is counted by it.
_VECTOR_FLOOR = 2**16
# At most this many (permutation, index vector) pairs per numpy chunk.
# Fewer, larger chunks amortise numpy's per-call cost: at 2^14, against
# 2^12, the n > 1 grids ran about a third faster and S_9's 5040-wide blocks
# fit whole; 2^15 gained little more and took the peak memory of the
# (2, 1200) grid past 1 MiB.
_CHUNK_PAIRS = 2**14
# The numpy path ranks index vectors in int64, and an enumeration of more
# vectors than this could never finish anyway, so it is refused.
_MAX_VECTORS = 2**63 - 1


def _descents(letters, indices) -> int:
    """Descents of a permutation whose letters carry indices.

    Position i < d descends when the indices strictly decrease there, or
    tie with the letters decreasing; position d descends when the last
    index is nonzero.  With every index 0 this is the ordinary count of
    positions i with letters[i] > letters[i+1].  The one descent rule of
    every brute-force route: the scalar enumeration calls it per object,
    and `_descents_array`, its numpy form, is tested against it.
    """
    d = len(letters)
    count = 0
    for i in range(d - 1):
        ei, ej = indices[i], indices[i + 1]
        if ei > ej or (ei == ej and letters[i] > letters[i + 1]):
            count += 1
    if indices[d - 1] > 0:
        count += 1
    return count


def _descents_array(letters, indices):
    """`_descents` of many objects at once.  letters[i] and indices[i] are
    numpy arrays holding position i of every object; past axis 0 the two
    broadcast against each other."""
    before, after = indices[:-1], indices[1:]
    # The booleans are combined as uint8: numpy's bool & and | run many
    # times slower when one side is broadcast, as it is here.
    drops, ties = (before > after).view("uint8"), (before == after).view("uint8")
    falls = drops | (ties & (letters[:-1] > letters[1:]).view("uint8"))
    return falls.sum(axis=0, dtype="uint8") + (indices[-1] > 0)


def _descent_grid(d: int, n: int, budget: int, what: str) -> list[list[int]]:
    """Counts by (last letter, descents) over S_d x {0..n-1}^d (cost n^d * d!).

    grid[m-1][k] counts the indexed permutations ending with letter m that
    have k descents, 0 <= k <= d.  The only brute-force enumeration: every
    brute route is a marginal or a re-indexing of this grid.  Once numpy is
    loaded, or at _VECTOR_FLOOR objects or more, `_descent_grid_vector`
    counts the objects; below the floor in a process without numpy,
    `_descent_grid_scalar` calls `_descents` once per object.
    """
    vectors = n**d
    objects = vectors * math.factorial(d)
    check_budget(objects, budget, what)
    if vectors > _MAX_VECTORS:
        raise TooLarge(f"enumeration of {n}^{d} index vectors exceeds the int64 rank limit 2^63 - 1")
    if objects >= _VECTOR_FLOOR or "numpy" in sys.modules:
        return _descent_grid_vector(d, n)
    return _descent_grid_scalar(d, n)


def _descent_grid_scalar(d: int, n: int) -> list[list[int]]:
    """`_descent_grid`'s counts by a loop over every object, the reference."""
    grid = [[0] * (d + 1) for _ in range(d)]
    index_vectors = list(product(range(n), repeat=d))
    for perm in permutations(range(1, d + 1)):
        # Last letter first, so the inner loop increments one row.
        row = grid[perm[-1] - 1]
        for e in index_vectors:
            row[_descents(perm, e)] += 1
    return grid


def _permutation_blocks(d: int):
    """Yield every permutation of S_d once, as int8 letter arrays.

    Position first: column p of a block is one permutation.  Each block
    fixes one ordered prefix of d - s letters, s = min(d, 7), and fills the
    last s positions from one table of S_s (7! = 5040 columns, 35 KB),
    built per call in numpy from no Python-level permutations.  One move
    builds both: a letter placed at a position moves every letter after
    it that is not below it up by one.  Column r of the table starts as
    the Lehmer code of rank r and becomes permutation r by that move at
    each position, right to left.  A block copies the table and makes the
    move once per prefix letter, smallest first, so that its last s
    positions hold the letters the prefix leaves, in the table's order.
    """
    import numpy as np

    s = min(d, 7)
    # Digit i of a Lehmer code, below s - i, counts the later letters below
    # letter i.
    table = np.indices(range(s, 0, -1), np.int8).reshape(s, -1)
    for i in range(s - 2, -1, -1):
        later = table[i + 1 :]
        later += later >= table[i]
    table += 1
    for prefix in permutations(range(1, d + 1), d - s):
        block = np.empty((d, table.shape[1]), np.int8)
        block[: d - s] = np.array(prefix, np.int8)[:, None]
        tail = block[d - s :]
        tail[:] = table
        for letter in sorted(prefix):
            tail += tail >= letter
        yield block


def _descent_grid_vector(d: int, n: int) -> list[list[int]]:
    """`_descent_grid`'s counts, by numpy.

    Every object is still enumerated and its descents counted by
    `_descents_array`.  The permutations come in blocks from
    `_permutation_blocks`; for each block, index vectors are decoded from
    their ranks in base n, and the block's columns are sliced, so that a
    chunk holds at most _CHUNK_PAIRS (permutation, index vector) pairs.
    Each pair adds one to the count keyed (last letter - 1) * (d + 1) +
    descents.
    """
    import numpy as np

    vectors_total = n**d
    block = min(vectors_total, _CHUNK_PAIRS)
    step = _CHUNK_PAIRS // block
    places = n ** np.arange(d - 1, -1, -1)[:, None]
    counts = np.zeros(d * (d + 1), dtype=np.int64)
    for perms in _permutation_blocks(d):
        # Each permutation's key offset, as intp, so that adding the uint8
        # descent counts gives bincount its index type.
        rows = np.multiply(perms[-1] - 1, d + 1, dtype=np.intp)
        for start in range(0, vectors_total, block):
            # Position first: vectors[i, 0, e] is position i of index vector
            # e, digit i of e in base n, most significant first;
            # letters[i, p, 0] is position i of permutation p.
            vectors = np.arange(start, min(start + block, vectors_total)) // places
            vectors %= n  # in place: one int64 array fewer at the peak
            vectors = vectors.astype(np.min_scalar_type(n - 1))[:, None, :]
            for first in range(0, perms.shape[1], step):
                letters = perms[:, first : first + step, None]
                keys = rows[first : first + step, None] + _descents_array(letters, vectors)
                counts += np.bincount(keys.ravel(), minlength=counts.size)
    return counts.reshape(d, d + 1).tolist()


def _descent_marginal(grid: list[list[int]]) -> list[int]:
    """Counts by descents alone: the grid summed over the last letter."""
    return [sum(column) for column in zip(*grid)]


def _as_int(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResult(f"{context} produced non-integer {value}")
    return value.numerator


def eulerian_spline(d: int, k: int) -> int:
    """A(d, k) as d! * B_{d+1}(k); 0 for k outside 1..d."""
    check_range("dimension", d, 1)
    check_range("Eulerian index k", k)
    value = factorial(d) * bspline_eval_explicit(d + 1, k)
    return _as_int(value, f"eulerian_spline({d}, {k})")


def eulerian_row_spline(d: int) -> EulerianRow:
    """The row A(d, 1..d) by `eulerian_spline`, one spline value per entry."""
    check_range("dimension", d, 1)
    return EulerianRow(d=d, values=tuple(eulerian_spline(d, k) for k in range(1, d + 1)))


def eulerian_bruteforce(d: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> EulerianRow:
    """Histogram of descent counts over all of S_d (cost d!)."""
    check_range("dimension", d, 1)
    counts = _descent_marginal(_descent_grid(d, 1, budget, "permutations"))
    return EulerianRow(d=d, values=tuple(counts[:d]))


def refined_explicit(d: int, k: int, j: int) -> int:
    """AR(d+1, k, d-j+1) via the alternating sum, with 0**0 == 1."""
    _check_refined_args(d, k, j)
    total = 0
    for i in range(k + 1):
        term = binomial(d + 1, i) * (k - i) ** j * (k - i + 1) ** (d - j)
        total = total - term if i & 1 else total + term
    if total < 0:
        raise NegativeResult(f"refined_explicit({d}, {k}, {j}) = {total}")
    return total


def _refined_explicit_triangle(d: int) -> RefinedTriangle:
    """The explicit route's whole triangle: `refined_explicit`'s alternating
    sum at every (k, j), term for term, from quantities built once.

    powers[m][j] = m^j (m+1)^(d-j), with 0**0 == 1, for m = 0..d, built
    along j by multiplying by m and dividing exactly by m+1; signed[i] =
    (-1)^i C(d+1, i).  Then values[k][j] = sum_{i <= k} signed[i] *
    powers[k-i][j].
    """
    check_range("dimension", d, 1)
    powers = []
    for m in range(d + 1):
        row = [(m + 1) ** d]
        for _ in range(d):
            row.append(row[-1] * m // (m + 1))
        powers.append(row)
    columns = list(zip(*powers))
    signed = [-binomial(d + 1, i) if i & 1 else binomial(d + 1, i) for i in range(d + 1)]
    values = []
    for k in range(d + 1):
        row = tuple(sum(map(mul, signed, reversed(column[: k + 1]))) for column in columns)
        for j, total in enumerate(row):
            if total < 0:
                raise NegativeResult(f"refined triangle d={d}: values[{k}][{j}] = {total}")
        values.append(row)
    return RefinedTriangle(d=d, values=tuple(values))


def refined_lambda_extraction(d: int, k: int, j: int) -> int:
    """AR(d+1, k, d-j+1) via coefficient extraction.

    Expands P = sum_i C(d+1, i) (-1)^i ((k-i) * t + (k-i+1))^d, which is the
    scaled spline value d! * (t+1)^d * B_{d+1}(k + 1/(t+1)) with all
    truncated powers resolved on the piece (k, k+1]; coefficient j of P,
    divided by C(d, j), is the refined count.
    """
    _check_refined_args(d, k, j)
    poly = Polynomial()
    for i in range(k + 1):
        term = Polynomial([k - i + 1, k - i]) ** d * binomial(d + 1, i)
        poly = poly - term if i & 1 else poly + term
    value = poly.coefficient(j) / binomial(d, j)
    return _as_int(value, f"refined_lambda_extraction({d}, {k}, {j})")


def refined_bruteforce(d: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> RefinedTriangle:
    """Enumerate S_{d+1}, recording (descent count, last element)."""
    check_range("dimension", d, 1)
    grid = _descent_grid(d + 1, 1, budget, "permutations")
    # values[k][j] ends with the element d+1-j, which is grid row d-j.
    values = tuple(tuple(grid[d - j][k] for j in range(d + 1)) for k in range(d + 1))
    return RefinedTriangle(d=d, values=values)


def _refined_grid(d: int, entry) -> RefinedTriangle:
    values = tuple(tuple(entry(d, k, j) for j in range(d + 1)) for k in range(d + 1))
    return RefinedTriangle(d=d, values=values)


# Routes by name, reference route first.  The lambdas look the route
# functions up when called, so rebinding a module attribute reaches them.
ROW_ROUTES = {
    "spline": lambda d, budget: eulerian_row_spline(d),
    "brute": lambda d, budget: eulerian_bruteforce(d, budget),
}

REFINED_ROUTES = {
    "explicit": lambda d, budget: _refined_explicit_triangle(d),
    "lambda": lambda d, budget: _refined_grid(d, refined_lambda_extraction),
    "brute": lambda d, budget: refined_bruteforce(d, budget),
}


def refined_triangle(
    d: int, route: str = "explicit", budget: int = DEFAULT_ENUMERATION_BUDGET
) -> RefinedTriangle:
    """Full refined grid for 0 <= k, j <= d by the chosen route."""
    if route not in REFINED_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return REFINED_ROUTES[route](d, budget)


def _check_refined_args(d: int, k: int, j: int) -> None:
    check_range("dimension", d, 1)
    check_range("descent count k", k, 0, d)
    check_range("refinement index j", j, 0, d)
