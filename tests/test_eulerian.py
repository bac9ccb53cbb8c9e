"""Eulerian numbers: spline route against enumeration, refined routes."""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import eulerian
from splinecomb.descent import indexed_bruteforce
from splinecomb.errors import TooLarge
from splinecomb.eulerian import (
    eulerian_bruteforce,
    eulerian_row_spline,
    eulerian_spline,
    eulerian_two_scale_residual,
    refined_bruteforce,
    refined_explicit,
    refined_lambda_extraction,
    refined_triangle,
)
from splinecomb.numcore import factorial

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
    # Below the floor _descent_grid is the scalar loop over _descents.
    scalar = eulerian._descent_grid(d, n, n**d * math.factorial(d), "indexed permutations")
    assert eulerian._descent_grid_vector(d, n) == scalar


@pytest.mark.parametrize("d, n", [(9, 1), (7, 2), (6, 3), (6, 4), (1, 3 * 10**6), (2, 1200)])
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
    assert eulerian_two_scale_residual(2, 1) == 0
    assert eulerian_two_scale_residual(1, 1) == 0


@pytest.mark.parametrize("d", range(1, 13))
def test_two_scale_residual_vanishes(d):
    for k in range(-1, d + 2):
        assert eulerian_two_scale_residual(d, k) == Fraction(0)


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
