"""Dense exact polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splinecomb.errors import DuplicateNode
from splinecomb.polyring import Polynomial, interpolate

coeffs_st = st.lists(st.fractions(max_denominator=50), min_size=0, max_size=9)
polys_st = coeffs_st.map(Polynomial)


def test_add_cancellation_drops_degree():
    p = Polynomial([1, 2])
    q = Polynomial([3, -2])
    assert p + q == Polynomial([4])
    assert (p + q).degree == 0


def test_add_identity_and_ordering():
    p = Polynomial([1, 2, 3])
    assert p + Polynomial() == p
    assert Polynomial([0, 0, 1]) + Polynomial([0, 1]) == Polynomial([0, 1, 1])


def test_mul_examples():
    one_plus = Polynomial([1, 1])
    one_minus = Polynomial([1, -1])
    assert one_plus * one_minus == Polynomial([1, 0, -1])
    assert one_plus * one_plus == Polynomial([1, 2, 1])
    assert Polynomial() * one_plus == Polynomial()


def test_pow_examples():
    assert Polynomial([1, 1]) ** 3 == Polynomial([1, 3, 3, 1])
    assert Polynomial([5, 7, 1]) ** 0 == Polynomial([1])
    assert Polynomial([0, 2]) ** 2 == Polynomial([0, 0, 4])


def test_eval_examples():
    p = Polynomial([1, 2, 1])
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert Polynomial()(Fraction(3, 7)) == 0
    assert Polynomial([0, 0, 0, 1])(-2) == -8


def test_coefficient_access():
    cube = Polynomial([1, 3, 3, 1])
    assert cube.coefficient(1) == 3
    assert Polynomial([1, 1]).coefficient(9) == 0
    assert cube.coefficient(0) == cube(0)


def test_scalar_multiplication():
    p = Polynomial([1, 2])
    assert 3 * p == Polynomial([3, 6])
    assert p * Fraction(1, 2) == Polynomial([Fraction(1, 2), 1])


def test_antiderivative():
    p = Polynomial([1, 2, 3])  # 1 + 2t + 3t^2
    anti = p.antiderivative()
    assert anti == Polynomial([0, 1, 1, 1])
    assert anti(1) - anti(0) == Fraction(3)


def test_zero_polynomial_shape():
    z = Polynomial([0, 0])
    assert z.coeffs == ()
    assert z.degree == -1
    assert not z


def test_immutability():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(9),)


def test_interpolate_examples():
    assert interpolate([(0, 1), (1, 2)]) == Polynomial([1, 1])
    assert interpolate([(0, Fraction(5, 3))]) == Polynomial([Fraction(5, 3)])
    assert interpolate([(0, 1), (1, 4), (2, 9)]) == Polynomial([1, 2, 1])


def test_interpolate_duplicate_node():
    with pytest.raises(DuplicateNode):
        interpolate([(1, 2), (Fraction(2, 2), 5)])


def test_interpolate_empty():
    with pytest.raises(ValueError):
        interpolate([])


def test_coefficient_strings():
    p = Polynomial([Fraction(1, 2), 0, -2])
    assert p.coefficient_strings() == ["1/2", "0", "-2"]


@given(polys_st)
def test_interpolation_round_trip(p):
    nodes = [Fraction(i) for i in range(max(p.degree + 1, 1))]
    assert interpolate([(x, p(x)) for x in nodes]) == p


@given(polys_st, polys_st, polys_st)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys_st, polys_st, st.integers(min_value=0, max_value=12))
def test_product_coefficients_are_convolutions(p, q, j):
    expected = sum(
        (p.coefficient(i) * q.coefficient(j - i) for i in range(j + 1)), start=Fraction(0)
    )
    assert (p * q).coefficient(j) == expected


@given(polys_st, st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_evaluation_is_a_homomorphism(p, x, y):
    q = Polynomial([y, 1])
    assert (p * q)(x) == p(x) * q(x)
