"""Scalar and counting primitives."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splinecomb.numcore import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
)


def pascal_row(n: int) -> list[int]:
    """Independent binomial oracle: build row n by the Pascal rule alone."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[i - 1] + row[i] for i in range(1, m)] + [1]
    return row


def test_binomial_small():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_big_value_matches_pascal_oracle():
    # frozen from the Pascal-rule buildup
    assert pascal_row(61)[30] == 232714176627630544
    assert binomial(61, 30) == 232714176627630544


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=-2, max_value=66))
def test_pascal_identity(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(6) == 720
    # frozen from iterated multiplication, cross-checked as 25 * 24!
    assert factorial(25) == 15511210043330985984000000
    assert factorial(25) == 25 * factorial(24)


@given(
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9),
)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


@given(st.fractions(max_denominator=10**12))
def test_rational_text_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["1.5", "3/2/5", "", "a/b", " 1", "1/-2", "3/0", "3/2\n", "3\n"])
def test_parse_rational_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_canonical():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(Fraction(8, 2)) == "4"
