"""Exact B-spline evaluation, pieces, integration, and identity residuals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import splinecore
from splinecomb.polyring import Polynomial
from splinecomb.splinecore import (
    bspline_eval_explicit,
    bspline_eval_recurrence,
    bspline_integrate,
    bspline_piece,
    log_concavity_witness,
    partition_residual,
    two_scale_residual,
)

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
    assert two_scale_residual(3, Fraction(3, 2)) == 0
    assert two_scale_residual(4, Fraction(17, 5)) == 0
    assert two_scale_residual(2, -1) == 0


def test_two_scale_order_one_holds_at_dyadic_points():
    # the right-continuous indicator splits exactly into its two halves
    for x in [0, Fraction(1, 2), 1, Fraction(1, 4), Fraction(3, 4), 2]:
        assert two_scale_residual(1, x) == 0


@pytest.mark.parametrize("d", range(1, 9))
def test_residuals_vanish_on_grid(d):
    for x in rational_grid(d):
        assert two_scale_residual(d, x) == 0
        assert partition_residual(d, x) == 0


def test_partition_examples():
    assert partition_residual(3, Fraction(7, 3)) == 0
    assert partition_residual(1, Fraction(5, 8)) == 0
    assert partition_residual(5, -2) == 0


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
    assert two_scale_residual(d, x) == 0
    assert partition_residual(d, x) == 0


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
        assert piece.order == d and piece.piece_index == j
        for _ in range(10):
            q = rng.randint(1, 40)
            x = Fraction(j) + Fraction(rng.randint(0, q - 1), q)
            assert piece.poly(x) == bspline_eval_explicit(d, x)
            assert piece.poly(x) == bspline_eval_recurrence(d, x)
