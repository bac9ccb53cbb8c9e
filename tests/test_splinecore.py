"""Exact B-spline evaluation, pieces, integration, and the two-scale and partition identities."""

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinecomb import descent, eulerian, splinecore
from splinecomb.polyring import Polynomial
from splinecomb.splinecore import (
    bspline_eval_explicit,
    bspline_eval_recurrence,
    bspline_integrate,
    bspline_piece,
    log_concavity_witness,
)
from splinecomb.verify import _two_scale_sum

# Hand-derived pieces (repeated convolution of the unit indicator):
# order 2 is the hat, order 3 the quadratic bump, order 4 the cubic bump.
HAND_PIECES = {
    2: [Polynomial([0, 1]), Polynomial([2, -1])],
    3: [
        Polynomial([0, 0, Fraction(1, 2)]),
        Polynomial([Fraction(-3, 2), 3, -1]),
        Polynomial([Fraction(9, 2), -3, Fraction(1, 2)]),
    ],
    4: [
        Polynomial([0, 0, 0, Fraction(1, 6)]),
        Polynomial([Fraction(2, 3), -2, 2, Fraction(-1, 2)]),
        Polynomial([Fraction(-22, 3), 10, -4, Fraction(1, 2)]),
        Polynomial([Fraction(32, 3), -8, 2, Fraction(-1, 6)]),
    ],
}


def rational_grid(d, denominator=7):
    return [Fraction(m, denominator) for m in range(-denominator, (d + 1) * denominator + 1)]


def two_scale_holds(d, x):
    """2^(d-1) B_d(x) == sum_j C(d, j) B_d(2x - j), the sum read by the
    verify suites' one two-scale rule."""
    halves = [bspline_eval_explicit(d, 2 * x - d + i) for i in range(d + 1)]
    return 2 ** (d - 1) * bspline_eval_explicit(d, x) == _two_scale_sum(d - 1, halves, d)


def translate_sum(d, x):
    """Sum of the translates B_d(x - k) whose support [k, k + d] holds x."""
    return sum(bspline_eval_explicit(d, x - k) for k in range(math.ceil(x - d), math.floor(x) + 1))


def test_eval_examples():
    assert bspline_eval_explicit(2, 1) == 1
    assert bspline_eval_explicit(3, Fraction(3, 2)) == Fraction(3, 4)
    # 2/3 = A(3,2)/3! with A(3,2) = 4 counted over S_3
    assert bspline_eval_explicit(4, 2) == Fraction(2, 3)


def test_recurrence_base_case_is_right_continuous():
    assert bspline_eval_recurrence(1, 0) == 1
    assert bspline_eval_recurrence(1, 1) == 0
    assert bspline_eval_recurrence(1, Fraction(999, 1000)) == 1
    assert bspline_eval_recurrence(3, Fraction(3, 2)) == Fraction(3, 4)


def test_explicit_base_case_matches():
    assert bspline_eval_explicit(1, 0) == 1
    assert bspline_eval_explicit(1, 1) == 0
    assert bspline_eval_explicit(1, Fraction(1, 2)) == 1
    # At a knot the term with shift i == x has base 0: 0**0 == 1 keeps B_1
    # right-continuous, and 0**e == 0 for e >= 1 keeps higher orders continuous.
    assert bspline_eval_explicit(2, 0) == 0
    assert bspline_eval_explicit(2, 1) == 1
    assert bspline_eval_explicit(3, 0) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hand_derived_pieces(d):
    for j, poly in enumerate(HAND_PIECES[d]):
        assert bspline_piece(d, j).poly == poly
        for m in range(5):
            x = Fraction(j) + Fraction(m, 5)
            assert bspline_eval_explicit(d, x) == poly(x)


def test_piece_examples():
    assert bspline_piece(2, 0).poly == Polynomial([0, 1])
    assert bspline_piece(2, 1).poly == Polynomial([2, -1])
    assert bspline_piece(3, 1).poly(Fraction(3, 2)) == Fraction(3, 4)
    assert bspline_piece(1, 0).poly == Polynomial([1])


def test_piece_out_of_support():
    with pytest.raises(ValueError, match=r"^piece index must be in 0\.\.2, got 3$"):
        bspline_piece(3, 3)
    with pytest.raises(ValueError, match=r"^piece index must be in 0\.\.1, got -1$"):
        bspline_piece(2, -1)


@pytest.mark.parametrize("d", range(1, 13))
def test_route_equivalence_sweep(d):
    rng = random.Random(1000 + d)
    for _ in range(200):
        q = rng.randint(1, 64)
        x = Fraction(rng.randint(-q, (d + 1) * q), q)
        assert bspline_eval_explicit(d, x) == bspline_eval_recurrence(d, x)


@pytest.mark.parametrize("d", range(2, 9))
def test_symmetry(d):
    for x in rational_grid(d):
        assert bspline_eval_explicit(d, x) == bspline_eval_explicit(d, d - x)


@pytest.mark.parametrize("d", range(1, 9))
def test_compact_support_and_interior_positivity(d):
    assert bspline_eval_explicit(d, Fraction(-1, 7)) == 0
    assert bspline_eval_explicit(d, d) == 0
    assert bspline_eval_explicit(d, d + Fraction(1, 7)) == 0
    for x in rational_grid(d):
        if 0 < x < d:
            assert bspline_eval_explicit(d, x) > 0


def test_integrate_examples():
    assert bspline_integrate(3, 0, 3) == 1
    assert bspline_integrate(2, 0, 1) == Fraction(1, 2)
    assert bspline_integrate(3, 1, 2) == Fraction(2, 3)
    assert bspline_integrate(3, 1, 2) == bspline_eval_explicit(4, 2)


def test_integrate_clips_to_support():
    assert bspline_integrate(2, -5, 7) == 1
    assert bspline_integrate(2, -3, -1) == 0
    assert bspline_integrate(2, Fraction(1, 2), Fraction(1, 2)) == 0


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        bspline_integrate(2, 1, 0)


@pytest.mark.parametrize("d", range(1, 11))
def test_integral_recursion(d):
    for k in range(1, d + 1):
        assert bspline_integrate(d, k - 1, k) == bspline_eval_explicit(d + 1, k)


def test_two_scale_examples():
    assert two_scale_holds(3, Fraction(3, 2))
    assert two_scale_holds(4, Fraction(17, 5))
    assert two_scale_holds(2, -1)


def test_two_scale_order_one_holds_at_dyadic_points():
    # the right-continuous indicator splits exactly into its two halves
    for x in [0, Fraction(1, 2), 1, Fraction(1, 4), Fraction(3, 4), 2]:
        assert two_scale_holds(1, x)


@pytest.mark.parametrize("d", range(1, 9))
def test_residuals_vanish_on_grid(d):
    for x in rational_grid(d):
        assert two_scale_holds(d, x)
        assert translate_sum(d, x) == 1


def test_partition_examples():
    assert translate_sum(3, Fraction(7, 3)) == 1
    assert translate_sum(1, Fraction(5, 8)) == 1
    assert translate_sum(5, -2) == 1


def test_log_concavity_hand_case():
    # hat function sampled at 1/2, 1, 3/2
    margins = log_concavity_witness(2, 2)
    assert margins[1] == Fraction(3, 4)
    assert all(m >= 0 for m in margins)


@pytest.mark.parametrize("d,q", [(3, 2), (6, 7), (2, 1), (5, 8)])
def test_log_concavity_witness_nonnegative(d, q):
    margins = log_concavity_witness(d, q)
    assert len(margins) == d * q - 1
    assert all(m >= 0 for m in margins)


def test_log_concavity_witness_evaluates_each_grid_point_once(monkeypatch):
    calls = []

    def counted(order, x):
        calls.append(x)
        return bspline_eval_explicit(order, x)

    monkeypatch.setattr(splinecore, "bspline_eval_explicit", counted)
    for d, q in [(3, 2), (2, 1), (5, 8)]:
        calls.clear()
        margins = log_concavity_witness(d, q)
        assert len(calls) == d * q + 1
        b = [bspline_eval_explicit(d, Fraction(m, q)) for m in range(d * q + 1)]
        assert margins == [b[m] * b[m] - b[m - 1] * b[m + 1] for m in range(1, d * q)]


def test_order_validation():
    with pytest.raises(ValueError):
        bspline_eval_explicit(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        log_concavity_witness(1, 4)
    with pytest.raises(ValueError):
        log_concavity_witness(3, 0)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=8),
    st.fractions(min_value=-2, max_value=10, max_denominator=64),
)
def test_routes_agree_everywhere(d, x):
    assert bspline_eval_explicit(d, x) == bspline_eval_recurrence(d, x)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=8),
    st.fractions(min_value=-1, max_value=9, max_denominator=48),
)
def test_two_scale_and_partition_hold_everywhere(d, x):
    assert two_scale_holds(d, x)
    assert translate_sum(d, x) == 1


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=7),
    st.fractions(min_value=0, max_value=7, max_denominator=32),
    st.fractions(min_value=0, max_value=7, max_denominator=32),
)
def test_integral_is_additive(d, a, b):
    lo, hi = min(a, b), max(a, b)
    mid = (lo + hi) / 2
    assert bspline_integrate(d, lo, mid) + bspline_integrate(d, mid, hi) == bspline_integrate(
        d, lo, hi
    )


@pytest.mark.parametrize("d", range(1, 7))
def test_pieces_agree_with_both_routes(d):
    rng = random.Random(4000 + d)
    for j in range(d):
        piece = bspline_piece(d, j)
        for _ in range(10):
            q = rng.randint(1, 40)
            x = Fraction(j) + Fraction(rng.randint(0, q - 1), q)
            assert piece.poly(x) == bspline_eval_explicit(d, x)
            assert piece.poly(x) == bspline_eval_recurrence(d, x)


# Fraction-accumulating forms of the two evaluators, one gcd per term: the
# references of the integer kernels, which must agree with them exactly.
def reference_explicit(d, x):
    x = Fraction(x)
    if x < 0 or x >= d:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(math.floor(x) + 1):
        term = math.comb(d, i) * (x - i) ** (d - 1)
        acc = acc - term if i & 1 else acc + term
    return acc / math.factorial(d - 1)


def reference_recurrence(d, x):
    x = Fraction(x)
    vals = [Fraction(1) if 0 <= x - m < 1 else Fraction(0) for m in range(d)]
    for order in range(2, d + 1):
        nxt = []
        for m in range(d - order + 1):
            y = x - m
            nxt.append((y * vals[m] + (order - y) * vals[m + 1]) / (order - 1))
        vals = nxt
    return vals[0]


# The Polynomial forms of the piece and the integral: the piece as a sum of
# shifted powers, the integral as piecewise antiderivatives over the unit
# intervals that [a, b] meets.  They are the references of the int kernels.
def reference_piece(d, j):
    acc = Polynomial()
    for i in range(j + 1):
        term = Polynomial([-i, 1]) ** (d - 1) * math.comb(d, i)
        acc = acc - term if i & 1 else acc + term
    return acc * Fraction(1, math.factorial(d - 1))


def reference_integral(d, a, b):
    lo, hi = max(Fraction(a), Fraction(0)), min(Fraction(b), Fraction(d))
    total = Fraction(0)
    for j in range(math.floor(lo), math.ceil(hi)):
        anti = reference_piece(d, j).antiderivative()
        total += anti(min(hi, j + 1)) - anti(max(lo, j))
    return total


@pytest.mark.parametrize("d", range(1, 31))
def test_every_piece_matches_the_polynomial_sum(d):
    for j in range(d):
        assert bspline_piece(d, j).poly == reference_piece(d, j)


@pytest.mark.parametrize("d", range(1, 25))
def test_integral_matches_the_piecewise_antiderivatives(d):
    rng = random.Random(7000 + d)

    def bound():
        q = rng.randint(1, 30)
        return Fraction(rng.randint(-3 * q, (d + 3) * q), q)

    for _ in range(12):
        a, b = sorted([bound(), bound()])
        assert bspline_integrate(d, a, b) == reference_integral(d, a, b)
        assert bspline_integrate(d, a, a) == 0
    for a, b in [(-2, -1), (d + 1, d + 2), (-1, d + 1), (0, d), (Fraction(-1, 3), Fraction(1, 3))]:
        assert bspline_integrate(d, a, b) == reference_integral(d, a, b)


POLYNOMIAL_OPERATIONS = ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "__call__", "antiderivative")


def test_pieces_and_integrals_run_without_polynomial_arithmetic(monkeypatch):
    cases = [(d, j) for d in (1, 2, 5, 9) for j in range(d)]
    pieces = [reference_piece(d, j) for d, j in cases]
    bounds = [(1, 0, 1), (4, Fraction(-1, 2), Fraction(7, 3)), (9, 3, 12)]
    integrals = [reference_integral(*args) for args in bounds]
    for name in POLYNOMIAL_OPERATIONS:
        monkeypatch.setattr(Polynomial, name, _raising(f"Polynomial.{name}"))
    with pytest.raises(AssertionError, match="was called"):
        Polynomial([1]) ** 2
    assert [bspline_piece(d, j).poly.coeffs for d, j in cases] == [p.coeffs for p in pieces]
    assert [bspline_integrate(*args) for args in bounds] == integrals


def test_integrate_calls_no_other_spline_function(rebind):
    for name, fn in inspect.getmembers(splinecore, inspect.isfunction):
        if fn.__module__ == splinecore.__name__ and name != "bspline_integrate":
            rebind(fn, _raising(name))
    a, b = Fraction(-1, 2), Fraction(7, 3)
    assert bspline_integrate(4, a, b) == reference_integral(4, a, b)


def test_unit_integral_at_order_200():
    assert bspline_integrate(200, 0, 200) == 1
    assert bspline_integrate(200, -1, 300) == 1
    assert bspline_integrate(200, 99, 100) == bspline_eval_explicit(201, 100)


@st.composite
def orders_and_points(draw):
    """(d, x) with d up to 60 and x on a knot or p/q with q up to 10^12,
    over [-2, d + 2], so negative x and x >= d are drawn too."""
    d = draw(st.integers(min_value=1, max_value=60))
    if draw(st.booleans()):
        return d, Fraction(draw(st.integers(min_value=-2, max_value=d + 2)))
    q = draw(st.integers(min_value=1, max_value=10**12))
    return d, Fraction(draw(st.integers(min_value=-2 * q, max_value=(d + 2) * q)), q)


def on_knots(test):
    """Always try d = 1 at both ends of its indicator and two other knots."""
    for point in [(1, Fraction(0)), (1, Fraction(1)), (2, Fraction(1)), (5, Fraction(5))]:
        test = example(point)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(orders_and_points())
@on_knots
def test_explicit_kernel_matches_the_fraction_sum(point):
    d, x = point
    value = bspline_eval_explicit(d, x)
    assert type(value) is Fraction
    assert value == reference_explicit(d, x)


@settings(max_examples=150, deadline=None)
@given(orders_and_points())
@on_knots
def test_recurrence_kernel_matches_the_fraction_table(point):
    d, x = point
    value = bspline_eval_recurrence(d, x)
    assert type(value) is Fraction
    assert value == reference_recurrence(d, x)


def _raising(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return fail


INDEPENDENCE_POINTS = [
    (1, Fraction(0)),
    (1, Fraction(1)),
    (4, Fraction(2)),
    (7, Fraction(-1, 3)),
    (9, Fraction(25, 7)),
    (12, Fraction(123456789011, 10**10)),
    (40, Fraction(41)),
]


@pytest.mark.parametrize(
    "broken,working,reference",
    [("explicit", "recurrence", reference_recurrence), ("recurrence", "explicit", reference_explicit)],
    ids=["explicit-broken", "recurrence-broken"],
)
def test_each_evaluator_runs_without_the_other(rebind, broken, working, reference):
    fn = getattr(splinecore, f"bspline_eval_{broken}")
    rebind(fn, _raising(fn.__name__))
    with pytest.raises(AssertionError, match="was called"):
        splinecore.EVAL_ROUTES[broken](3, 1)
    for d, x in INDEPENDENCE_POINTS:
        assert splinecore.EVAL_ROUTES[working](d, x) == reference(d, x)


def test_evaluators_reach_no_descent_or_eulerian_route(rebind):
    broken = 0
    for module in (descent, eulerian):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                rebind(fn, _raising(name))
                broken += 1
    assert broken >= 10
    with pytest.raises(AssertionError, match="was called"):
        descent.descent_spline(3, 2, 1)
    for d, x in INDEPENDENCE_POINTS:
        assert bspline_eval_explicit(d, x) == reference_explicit(d, x)
        assert bspline_eval_recurrence(d, x) == reference_recurrence(d, x)
