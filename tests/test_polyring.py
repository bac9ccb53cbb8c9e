"""Dense exact polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinecomb.numcore import binomial
from splinecomb.polyring import Polynomial, interpolate

coeffs_st = st.lists(st.fractions(max_denominator=50), min_size=0, max_size=9)
polys_st = coeffs_st.map(Polynomial)

# Integers given as int, as integral Fraction, or as any Fraction.
mixed_coeffs_st = st.lists(
    st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(Fraction), st.fractions(max_denominator=50)),
    max_size=9,
)


def _assert_canonical(p):
    """Integral coefficients are ints, the others Fractions; no trailing zero."""
    for c in p.coeffs:
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (c.denominator == 1), p.coeffs
    assert not p.coeffs or p.coeffs[-1] != 0


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
    assert Polynomial([1, 1]) ** 14 == Polynomial([binomial(14, i) for i in range(15)])
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
    assert interpolate([1, 2]) == Polynomial([1, 1])
    assert interpolate([Fraction(5, 3)]) == Polynomial([Fraction(5, 3)])
    assert interpolate([1, 4, 9]) == Polynomial([1, 2, 1])
    assert interpolate(iter([1, 2])) == Polynomial([1, 1])  # an iterator is read once


def test_interpolate_empty():
    with pytest.raises(ValueError):
        interpolate([])
    with pytest.raises(ValueError, match="need at least one value"):
        interpolate(iter([]))


def test_coefficient_strings():
    p = Polynomial([Fraction(1, 2), 0, -2])
    assert p.coefficient_strings() == ["1/2", "0", "-2"]


@given(polys_st, st.data())
def test_interpolation_round_trip(p, data):
    # The nodes 0..count-1, sometimes more of them than the degree needs.
    needed = p.degree + 1 or 1
    count = data.draw(st.integers(needed, needed + 3))
    assert interpolate([p(m) for m in range(count)]) == p


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


def schoolbook_product(p, q):
    """p * q by the double loop over coefficient pairs: the reference for
    the packed-integer product."""
    prod = [0] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            prod[i + j] += a * b
    return Polynomial(prod)


def schoolbook_power(p, e):
    """p ** e by e schoolbook products."""
    result = Polynomial([1])
    for _ in range(e):
        result = schoolbook_product(result, p)
    return result


# Coefficients at a slot's edge: +-(2^b - 1) and +-2^b.
edge_st = st.integers(0, 70).flatmap(lambda b: st.sampled_from([2**b - 1, 2**b, 1 - 2**b, -(2**b)]))
kernel_coeff_st = st.one_of(
    st.integers(-50, 50),
    edge_st,
    st.fractions(max_denominator=50),
    st.builds(Fraction, edge_st, st.sampled_from([3, 2**40])),
)


@st.composite
def kernel_polys(draw, max_size):
    """Polynomials with zero, negative, Fraction and slot-edge coefficients;
    some with alternating signs, whose products borrow between digits."""
    cs = draw(st.lists(kernel_coeff_st, max_size=max_size))
    if draw(st.booleans()):
        cs = [-abs(c) if i & 1 else abs(c) for i, c in enumerate(cs)]
    return Polynomial(cs)


# A coefficient of norm a bound's power of two needs the slot's top bit,
# and a slot one bit too narrow misreads it.
EDGE_POLYS = [Polynomial(cs) for cs in ([2**31], [-(2**31)], [2**31 - 1, 1], [1, -1], [0, 2**8, -(2**8)])]


@example(Polynomial(), Polynomial([1, 1]))
@example(Polynomial([2**31]), Polynomial([-(2**31)]))
@example(Polynomial([1, -1, 1, -1]), Polynomial([1, 1, 1, 1]))
@given(kernel_polys(9), kernel_polys(9))
def test_products_match_the_schoolbook_reference(p, q):
    assert p * q == schoolbook_product(p, q)
    _assert_canonical(p * q)


@pytest.mark.parametrize("p", EDGE_POLYS)
@pytest.mark.parametrize("e", [0, 1, 2, 3, 14, 40])
def test_edge_powers_match_the_schoolbook_reference(p, e):
    assert p**e == schoolbook_power(p, e)
    assert p * p == schoolbook_product(p, p)


@settings(deadline=None)
@example(Polynomial(), 0)
@example(Polynomial(), 3)
@example(Polynomial([Fraction(-1, 3), 1]), 40)
@given(kernel_polys(4), st.integers(0, 40))
def test_powers_match_the_schoolbook_reference(p, e):
    assert p**e == schoolbook_power(p, e)
    _assert_canonical(p**e)


@given(mixed_coeffs_st, st.fractions(max_denominator=30), st.integers(0, 12))
def test_representation_is_canonical_whatever_the_input_types(cs, x, j):
    p = Polynomial(cs)
    as_fractions = Polynomial(Fraction(c) for c in cs)
    as_ints = Polynomial(c.numerator if Fraction(c).denominator == 1 else c for c in cs)
    assert p == as_fractions == as_ints
    assert hash(p) == hash(as_fractions) == hash(as_ints)
    assert p.coeffs == as_fractions.coeffs
    _assert_canonical(p)
    assert type(p.coefficient(j)) is Fraction
    assert type(p(x)) is Fraction and type(p(int(x))) is Fraction
    _assert_canonical(p.antiderivative())
    trimmed = [Fraction(c) for c in cs]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert p.coefficient_strings() == [str(c) for c in trimmed]


@given(polys_st, mixed_coeffs_st.map(Polynomial), st.integers(-5, 5), st.integers(0, 4))
def test_ring_operations_keep_the_representation_canonical(p, q, scalar, e):
    for result in (p + q, p - q, -p, p * q, q * q, scalar * q, q * Fraction(1, 3), q**e):
        _assert_canonical(result)
