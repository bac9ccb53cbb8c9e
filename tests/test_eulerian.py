"""Eulerian numbers: spline route against enumeration, refined routes."""

import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import eulerian
from splinecomb.descent import descent_recurrence_table, descent_table, indexed_bruteforce
from splinecomb.errors import TooLarge
from splinecomb.eulerian import (
    eulerian_bruteforce,
    eulerian_row_spline,
    eulerian_spline,
    refined_bruteforce,
    refined_explicit,
    refined_lambda_extraction,
    refined_triangle,
)
from splinecomb.numcore import factorial
from splinecomb.polyring import Polynomial
from splinecomb.verify import _two_scale_sum

# Frozen from exhaustive descent counting over S_d.
CLASSIC_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (1, 4, 1),
    4: (1, 11, 11, 1),
    5: (1, 26, 66, 26, 1),
    6: (1, 57, 302, 302, 57, 1),
    7: (1, 120, 1191, 2416, 1191, 120, 1),
    8: (1, 247, 4293, 15619, 15619, 4293, 247, 1),
}


def descent_count(perm):
    # The one descent rule, every index 0: an ordinary permutation.
    return eulerian._descents(perm, (0,) * len(perm))


def test_descent_count():
    assert descent_count((1, 2, 3)) == 0
    assert descent_count((3, 2, 1)) == 2
    assert descent_count((1, 3, 2)) == 1
    assert descent_count((1,)) == 0


@settings(max_examples=200)
@given(st.data())
def test_vector_rule_matches_descents(data):
    d = data.draw(st.integers(min_value=1, max_value=9))
    n = data.draw(st.integers(min_value=1, max_value=5))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.permutations(range(1, d + 1)),
                st.lists(st.integers(min_value=0, max_value=n - 1), min_size=d, max_size=d),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # Position first, one object per column, as _descent_grid_vector lays them out.
    letters = np.array([p for p, _ in pairs], np.int8).T
    indices = np.array([e for _, e in pairs], np.min_scalar_type(n - 1)).T
    assert eulerian._descents_array(letters, indices).tolist() == [eulerian._descents(p, e) for p, e in pairs]


BELOW_FLOOR = [
    (d, n)
    for d in range(1, 10)
    for n in range(1, 7)
    if n**d * math.factorial(d) < eulerian._VECTOR_FLOOR
]


@pytest.mark.parametrize("d, n", BELOW_FLOOR)
def test_vector_grid_equals_scalar_grid(d, n):
    assert eulerian._descent_grid_vector(d, n) == eulerian._descent_grid_scalar(d, n)


def test_a_process_with_numpy_counts_below_the_floor_by_numpy(rebind):
    # numpy is loaded with this module; a cold process without it keeps the
    # scalar loop (tests/test_cli.py checks that side).
    def refuse(d, n):
        raise AssertionError("scalar loop reached with numpy loaded")

    expected = eulerian._descent_grid_scalar(4, 2)
    rebind(eulerian._descent_grid_scalar, refuse)
    assert 4 * 2**4 * math.factorial(4) < eulerian._VECTOR_FLOOR
    assert eulerian._descent_grid(4, 2, 10**6, "indexed permutations") == expected
    assert eulerian_bruteforce(5).values == CLASSIC_ROWS[5]


@pytest.mark.parametrize("d", range(1, 10))
def test_permutation_blocks_yield_each_permutation_once(d):
    letters = np.concatenate(list(eulerian._permutation_blocks(d)), axis=1)
    assert letters.dtype == np.int8
    assert letters.shape == (d, math.factorial(d))
    # Every column holds the letters 1..d ...
    assert (np.sort(letters, axis=0) == np.arange(1, d + 1)[:, None]).all()
    # ... and the Lehmer ranks, a bijection from S_d onto 0..d!-1, are distinct.
    later_smaller = [(letters[i + 1 :] < letters[i]).sum(axis=0) for i in range(d)]
    ranks = sum(code * math.factorial(d - 1 - i) for i, code in enumerate(later_smaller))
    assert (np.sort(ranks) == np.arange(math.factorial(d))).all()


def test_vector_grid_at_ten_matches_the_formula_routes():
    # S_10 is over the default budget, so no verify sweep reaches it.
    grid = eulerian._descent_grid_vector(10, 1)
    assert eulerian._descent_marginal(grid) == [eulerian_spline(10, k) for k in range(1, 12)]
    refined = refined_triangle(9, "explicit")
    assert [[grid[9 - j][k] for j in range(10)] for k in range(10)] == [list(row) for row in refined.values]


def spans_chunks(d, n):
    # Several chunks, the last one partial.
    objects = n**d * math.factorial(d)
    return objects > 2 * eulerian._CHUNK_PAIRS and objects % eulerian._CHUNK_PAIRS != 0


def test_vector_grid_over_many_chunks_matches_the_formula_routes():
    assert spans_chunks(9, 1)
    grid = eulerian._descent_grid_vector(9, 1)
    assert eulerian._descent_marginal(grid) == [*eulerian_row_spline(9).values, 0]
    refined = refined_triangle(8, "explicit")
    assert [[grid[8 - j][k] for j in range(9)] for k in range(9)] == [list(row) for row in refined.values]


@pytest.mark.parametrize("d, n", [(7, 2), (6, 3), (5, 4), (2, 1200)])
def test_vector_marginal_over_many_chunks_matches_the_recurrence(d, n):
    assert spans_chunks(d, n)
    marginal = eulerian._descent_marginal(eulerian._descent_grid_vector(d, n))
    assert marginal == list(descent_recurrence_table(d, n).values)


@pytest.mark.parametrize("d, n", [(9, 1), (7, 2), (6, 3), (1, 70000)])
def test_vector_grid_applies_the_rule_to_every_object(rebind, d, n):
    # The oracle is an enumeration: every object's descents come from the rule.
    rule = eulerian._descents_array
    ruled = []

    def counted(letters, indices):
        descents = rule(letters, indices)
        ruled.append(descents.size)
        return descents

    rebind(rule, counted)
    eulerian._descent_grid_vector(d, n)
    assert sum(ruled) == n**d * math.factorial(d)


@pytest.mark.parametrize("d, n", [(9, 1), (10, 1), (7, 2), (6, 3), (6, 4), (1, 3 * 10**6), (2, 1200)])
def test_vector_grid_memory_is_bounded(d, n):
    # numpy is imported with this module, so the trace sees only the
    # enumeration's own arrays.
    tracemalloc.start()
    try:
        eulerian._descent_grid_vector(d, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_spline_examples():
    assert eulerian_spline(2, 1) == 1
    assert eulerian_spline(3, 2) == 4
    assert eulerian_spline(5, 0) == 0
    assert eulerian_spline(5, 6) == 0
    assert eulerian_spline(5, -3) == 0


def test_bruteforce_examples():
    assert eulerian_bruteforce(1).values == (1,)
    assert eulerian_bruteforce(2).values == (1, 1)
    assert eulerian_bruteforce(4).values == (1, 11, 11, 1)


@pytest.mark.parametrize("d", sorted(CLASSIC_ROWS))
def test_rows_match_frozen_and_each_other(d):
    assert eulerian_bruteforce(d).values == CLASSIC_ROWS[d]
    assert eulerian_row_spline(d).values == CLASSIC_ROWS[d]


def test_bruteforce_bound():
    with pytest.raises(TooLarge):
        eulerian_bruteforce(11)
    # the budget is configuration, not a hard limit
    assert eulerian_bruteforce(3, budget=6).values == (1, 4, 1)


@pytest.mark.parametrize(
    "run, objects",
    [
        (lambda budget: eulerian_bruteforce(5, budget), factorial(5)),
        (lambda budget: refined_bruteforce(4, budget), factorial(5)),
        (lambda budget: indexed_bruteforce(3, 2, budget), 2**3 * factorial(3)),
    ],
    ids=["eulerian", "refined", "indexed"],
)
def test_budget_counts_enumerated_objects(run, objects):
    run(objects)
    with pytest.raises(TooLarge, match="budget"):
        run(objects - 1)


@pytest.mark.parametrize("d", range(1, 13))
def test_row_invariants_via_spline(d):
    row = eulerian_row_spline(d)
    assert sum(row.values) == factorial(d)
    assert all(v >= 1 for v in row.values)
    for k in range(1, d + 1):
        assert row.values[k - 1] == row.values[d - k]
    # Outside 1..d the spline argument k leaves the open support (0, d + 1).
    for k in (-d - 2, -1, 0, d + 1, d + 2, 3 * d):
        assert eulerian_spline(d, k) == 0


def test_refined_examples_dimension_one():
    assert refined_explicit(1, 0, 0) == 1
    assert refined_explicit(1, 1, 1) == 1
    assert refined_explicit(1, 1, 0) == 0
    assert refined_bruteforce(1).values == ((1, 0), (0, 1))


def test_refined_single_descent_ending_in_two():
    # permutations of S_3 with 1 descent ending with 2: 132 and 312
    explicit = refined_explicit(2, 1, 1)
    by_hand = sum(
        1
        for p in permutations((1, 2, 3))
        if descent_count(p) == 1 and p[-1] == 2
    )
    assert explicit == by_hand == 2
    assert refined_lambda_extraction(2, 1, 1) == 2


@pytest.mark.parametrize("d", range(1, 8))
def test_refined_route_equivalence(d):
    explicit = refined_triangle(d, "explicit")
    assert explicit.values == refined_triangle(d, "lambda").values
    assert explicit.values == refined_bruteforce(d).values


@pytest.mark.parametrize("d", range(1, 21))
def test_explicit_triangle_entry_is_the_scalar_sum(d):
    triangle = refined_triangle(d, "explicit")
    assert [list(row) for row in triangle.values] == [
        [refined_explicit(d, k, j) for j in range(d + 1)] for k in range(d + 1)
    ]


def test_lambda_route_extracts_every_entry(monkeypatch):
    # The lambda route stays one extraction per entry, on every call.
    calls = []
    extract = eulerian.refined_lambda_extraction
    monkeypatch.setattr(
        eulerian, "refined_lambda_extraction", lambda d, k, j: calls.append((d, k, j)) or extract(d, k, j)
    )
    for d in (1, 4, 4):
        calls.clear()
        refined_triangle(d, "lambda")
        assert len(calls) == (d + 1) ** 2


# Every Polynomial operation that does coefficient arithmetic.
POLYNOMIAL_ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__call__", "antiderivative")


def test_reference_routes_run_without_polynomial_arithmetic(monkeypatch):
    # The packed-integer product and power belong to the lambda route alone,
    # so a fault in them splits it from the explicit route it is checked
    # against, and from every descent table.
    dims = (1, 2, 5, 9)
    triangles = [refined_triangle(d, "explicit").values for d in dims]
    entries = [[[refined_explicit(d, k, j) for j in range(d + 1)] for k in range(d + 1)] for d in dims]
    table_routes = ("spline", "explicit", "recurrence", "refined")
    cases = [(d, n) for d in dims for n in (1, 3)]
    tables = {route: [descent_table(d, n, route).values for d, n in cases] for route in table_routes}

    def raising(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"Polynomial.{name} was called")

        return fail

    for name in POLYNOMIAL_ARITHMETIC:
        monkeypatch.setattr(Polynomial, name, raising(name))
    with pytest.raises(AssertionError, match="was called"):
        Polynomial([1, 1]) ** 2
    assert [refined_triangle(d, "explicit").values for d in dims] == triangles
    assert [[[refined_explicit(d, k, j) for j in range(d + 1)] for k in range(d + 1)] for d in dims] == entries
    for route in table_routes:
        assert [descent_table(d, n, route).values for d, n in cases] == tables[route]


@pytest.mark.parametrize("d", range(1, 8))
def test_refined_mass_invariants(d):
    triangle = refined_bruteforce(d)
    # fixing the last element leaves a copy of S_d
    for j in range(d + 1):
        assert sum(triangle.values[k][j] for k in range(d + 1)) == factorial(d)
    total = sum(triangle.values[k][j] for k in range(d + 1) for j in range(d + 1))
    assert total == factorial(d + 1)


@pytest.mark.parametrize("d", range(1, 9))
def test_refined_last_column_is_previous_eulerian_row(d):
    # ending with the largest element leaves the descent count unchanged
    triangle = refined_triangle(d, "explicit")
    for k in range(d + 1):
        assert triangle.values[k][0] == eulerian_spline(d, k + 1)


def test_two_scale_examples():
    # 2^d A(d, k) = sum_j C(d+1, j) A(d, 2k - j), worked by hand at d = 3,
    # where A(3, .) = (1, 4, 1) sits at index k - 1: at k = 2,
    # 8 * 4 = 4 * 1 + 6 * 4 + 4 * 1.  Entries past either end count as 0.
    assert [_two_scale_sum(3, (1, 4, 1), 2 * k - 1) for k in range(-1, 6)] == [0, 0, 8, 32, 8, 0, 0]


@pytest.mark.parametrize("d", range(1, 13))
def test_two_scale_residual_vanishes(d):
    # The two-scale identity holds on the spline row and on column 0 of each
    # formula route's refined triangle, which is A(d, 1..d) again.
    rows = [eulerian_row_spline(d).values]
    for route in ("explicit", "lambda"):
        rows.append(tuple(row[0] for row in refined_triangle(d, route).values[:d]))
    for values in rows:
        for k in range(-1, d + 2):
            assert 2**d * (values[k - 1] if 1 <= k <= d else 0) == _two_scale_sum(d, values, 2 * k - 1)


def test_refined_bound():
    with pytest.raises(TooLarge):
        refined_bruteforce(9)


def test_argument_validation():
    with pytest.raises(ValueError):
        eulerian_spline(0, 1)
    with pytest.raises(ValueError):
        refined_explicit(3, 4, 0)
    with pytest.raises(ValueError):
        refined_explicit(3, 0, -1)
    with pytest.raises(ValueError):
        refined_triangle(3, "magic")


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=7))
def test_spline_row_entry_equals_bruteforce(d, k):
    brute = eulerian_bruteforce(d)
    assert eulerian_spline(d, k) == (brute.values[k - 1] if 1 <= k <= d else 0)
