"""Descent tables of indexed permutations: five routes and the corollaries."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import descent, eulerian, numcore, splinecore
from splinecomb.descent import (
    ROUTES,
    DescentTable,
    descent_explicit,
    descent_recurrence_table,
    descent_spline,
    descent_table,
    indexed_bruteforce,
    log_concavity_verdict,
)
from splinecomb.errors import TooLarge
from splinecomb.eulerian import _descents, eulerian_spline, refined_explicit
from splinecomb.numcore import binomial, factorial
from splinecomb.polyring import Polynomial
from splinecomb.verify import _two_scale_sum


def test_indexed_permutation_descents_by_hand():
    # all eight indexed permutations for d = 2, n = 2
    cases = {
        ((1, 2), (0, 0)): 0,
        ((1, 2), (0, 1)): 1,
        ((1, 2), (1, 0)): 1,
        ((1, 2), (1, 1)): 1,
        ((2, 1), (0, 0)): 1,
        ((2, 1), (0, 1)): 1,
        ((2, 1), (1, 0)): 1,
        ((2, 1), (1, 1)): 2,
    }
    for (letters, indices), expected in cases.items():
        assert _descents(letters, indices) == expected


def test_bruteforce_examples():
    assert indexed_bruteforce(1, 2).values == (1, 1)
    assert indexed_bruteforce(2, 2).values == (1, 6, 1)
    assert indexed_bruteforce(2, 1).values == (1, 1, 0)
    assert indexed_bruteforce(3, 2).values == (1, 23, 23, 1)
    assert indexed_bruteforce(2, 3).values == (1, 13, 4)


def test_spline_examples():
    for n in range(1, 7):
        assert descent_spline(1, n, 0) == 1
        assert descent_spline(1, n, 1) == n - 1
    assert [descent_spline(2, 2, k) for k in range(3)] == [1, 6, 1]
    assert descent_spline(2, 2, -1) == 0
    assert descent_spline(2, 2, 3) == 0


def test_explicit_examples():
    assert descent_explicit(2, 2, 1) == 6
    assert descent_explicit(1, 3, 1) == 2
    assert descent_explicit(4, 3, 0) == 1


def test_recurrence_example():
    assert descent_recurrence_table(2, 2).values == (1, 6, 1)
    assert descent_recurrence_table(2, 1).values == (1, 1, 0)


def test_recurrence_route_does_not_call_the_explicit_route(monkeypatch):
    # Routes stay independent: a broken explicit route must show as a failed
    # cross-route case, not escape from the recurrence route.
    def broken(d, n, k):
        raise AssertionError("explicit route called")

    monkeypatch.setattr(descent, "descent_explicit", broken)
    assert descent_recurrence_table(3, 2).values == (1, 23, 23, 1)


def test_recurrence_route_does_not_depend_on_factorial(monkeypatch):
    # The row-sum comparison is the verify suite's conservation case; a broken
    # factorial must show there as a failed case, not escape from this route.
    expected = descent_recurrence_table(4, 3)
    monkeypatch.setattr(descent, "factorial", lambda m: factorial(m) + 1)
    assert descent_recurrence_table(4, 3) == expected


def test_via_refined_example():
    assert descent_table(2, 2, "refined").values[1] == 6
    assert descent_table(2, 1, "refined").values[1] == 1


@pytest.mark.parametrize("d", range(1, 21))
def test_formula_table_entries_are_the_scalar_sums(d):
    refined = [[refined_explicit(d, k, j) for j in range(d + 1)] for k in range(d + 1)]
    for n in range(1, 7):
        assert list(descent_table(d, n, "explicit").values) == [descent_explicit(d, n, k) for k in range(d + 1)]
        assert list(descent_table(d, n, "refined").values) == [
            sum(binomial(d, j) * refined[k][j] * (n - 1) ** j for j in range(d + 1)) for k in range(d + 1)
        ]


def test_refined_route_reads_no_other_descent_route(rebind):
    expected = {(d, n): descent_table(d, n, "refined") for d in range(1, 7) for n in range(1, 4)}
    explicit, explicit_table, spline = (
        descent.descent_explicit,
        descent._descent_explicit_table,
        splinecore.bspline_eval_explicit,
    )
    rebind(explicit, lambda d, n, k: explicit(d, n, k) + 1)
    rebind(
        explicit_table,
        lambda d, n: DescentTable(d=d, n=n, values=tuple(v + 1 for v in explicit_table(d, n).values)),
    )
    rebind(spline, lambda d, x: spline(d, x) + 1)
    assert descent_table(3, 2, "explicit").values != expected[3, 2].values
    assert descent_table(3, 2, "spline").values != expected[3, 2].values
    for (d, n), table in expected.items():
        assert descent_table(d, n, "refined") == table


def test_refined_route_builds_one_triangle_with_linear_binomials(rebind):
    # The refined table reads one explicit refined triangle; its binomials
    # are the triangle's signed C(d+1, i) and the weights' C(d, j), O(d) in
    # all, where an entry-by-entry sum calls C(d+1, i) O(d^3) times.
    d, n = 12, 3
    expected = descent_recurrence_table(d, n).values
    triangles, binomials = [], []
    build = eulerian._refined_explicit_triangle
    rebind(build, lambda m: triangles.append(m) or build(m))
    rebind(numcore.binomial, lambda a, b: binomials.append((a, b)) or binomial(a, b))
    assert descent_table(d, n, "refined").values == expected
    assert triangles == [d]
    assert len(binomials) <= 2 * (d + 1)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n", range(1, 5))
def test_five_route_equivalence(d, n):
    reference = descent_table(d, n, "spline").values
    for route in ROUTES[1:]:
        assert descent_table(d, n, route).values == reference, route


@pytest.mark.parametrize("d", range(7, 9))
@pytest.mark.parametrize("n", range(1, 5))
def test_four_route_equivalence_beyond_oracle_reach(d, n):
    reference = descent_table(d, n, "spline").values
    for route in ("explicit", "recurrence", "refined"):
        assert descent_table(d, n, route).values == reference, route


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("n", range(1, 7))
def test_conservation(d, n):
    table = descent_table(d, n, "spline")
    assert sum(table.values) == n**d * factorial(d)
    assert table.polynomial(1) == n**d * factorial(d)


@pytest.mark.parametrize("d", range(1, 11))
def test_unit_index_reduction(d):
    for k in range(d + 1):
        assert descent_spline(d, 1, k) == eulerian_spline(d, k + 1)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("n", range(2, 7))
def test_endpoints(d, n):
    table = descent_table(d, n, "spline")
    assert table.values[0] == 1
    if d == 1:
        assert table.values[1] == n - 1
    # Outside 0..d the spline argument k + 1/n leaves the support (0, d + 1).
    for k in (-d - 2, -1, d + 1, d + 2, 3 * d):
        assert descent_spline(d, n, k) == 0
    # With n = 1 no permutation descends at every position.
    assert descent_spline(d, 1, d) == 0


def test_log_concavity_verdict_example():
    table = descent_table(2, 2, "brute")
    assert log_concavity_verdict(table) == [35]
    assert log_concavity_verdict(descent_table(1, 5, "spline")) == []


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("n", range(1, 7))
def test_log_concavity_and_unimodality(d, n):
    table = descent_table(d, n, "spline")
    assert all(m >= 0 for m in log_concavity_verdict(table))
    # log-concave with positive interior entries => no strict interior minimum
    v = table.values
    for k in range(1, d):
        assert not (v[k] < v[k - 1] and v[k] < v[k + 1])


def test_two_scale_examples():
    # DT(d, 2n, k) = sum_j C(d+1, j) DT(d, n, 2k - j), worked by hand at
    # d = 2 from DT(2, 1, .) = (1, 1, 0) to DT(2, 2, .) = (1, 6, 1): at k = 1,
    # 3 * 1 + 3 * 1 = 6.  Entries past either end count as 0.
    assert [_two_scale_sum(2, (1, 1, 0), 2 * k) for k in range(-1, 4)] == [0, 1, 6, 1, 0]
    assert descent_table(2, 2).values == (1, 6, 1)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("n", range(1, 4))
def test_two_scale_residual_vanishes(d, n):
    # The two-scale identity holds on the tables of every formula route.
    for route in ("spline", "explicit", "recurrence", "refined"):
        half = descent_table(d, n, route).values
        doubled = descent_table(d, 2 * n, route).values
        for k in range(-1, d + 2):
            assert (doubled[k] if 0 <= k <= d else 0) == _two_scale_sum(d, half, 2 * k)


def test_polynomial_matches_values():
    table = descent_table(3, 2, "spline")
    assert [table.polynomial.coefficient(k) for k in range(4)] == list(table.values)


def test_polynomial_is_read_from_the_values_of_every_route():
    # The table stores d, n and values only; D_d^n(t) is built from values.
    assert [f.name for f in dataclasses.fields(DescentTable)] == ["d", "n", "values"]
    tables = [descent_table(3, 2, route) for route in ROUTES]
    for table in tables:
        assert table.polynomial == Polynomial(table.values)
    for a, b in zip(tables, tables[1:]):
        assert a == b


def test_budget_enforcement():
    with pytest.raises(TooLarge):
        indexed_bruteforce(6, 4, budget=10**5)
    with pytest.raises(TooLarge):
        descent_table(6, 4, "brute", budget=10**5)


def test_argument_validation():
    with pytest.raises(ValueError):
        descent_spline(0, 2, 0)
    with pytest.raises(ValueError):
        descent_spline(2, 0, 0)
    with pytest.raises(ValueError):
        descent_explicit(2, 2, 5)
    with pytest.raises(ValueError):
        descent_table(2, 2, "magic")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5),
)
def test_spline_matches_oracle_everywhere(d, n, k):
    table = indexed_bruteforce(d, n)
    assert descent_spline(d, n, k) == (table.values[k] if k <= d else 0)
