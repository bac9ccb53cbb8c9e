"""The argument guards, the entry points that refuse arguments through them,
and the result guards that signal an implementation bug."""

import re
from fractions import Fraction

import pytest

from splinecomb import descent, eulerian, geometry, numcore, splinecore
from splinecomb.errors import NegativeResult, NonIntegerResult, check_budget, check_range, check_rational
from splinecomb.polyring import Polynomial, interpolate


def test_check_range_messages():
    check_range("dimension", 1, 1)
    check_range("descent count k", 3, 0, 3)
    with pytest.raises(ValueError) as exc:
        check_range("dimension", 0, 1)
    assert str(exc.value) == "dimension must be >= 1, got 0"
    with pytest.raises(ValueError) as exc:
        check_range("descent count k", 4, 0, 3)
    assert str(exc.value) == "descent count k must be in 0..3, got 4"
    check_range("seed", -(2**70))  # without lo only the type is checked


def _unit_slab(d=1, scale=1):
    return geometry.SliceSpec(d=d, scale=scale, lower=Fraction(0), upper=Fraction(0))


@pytest.mark.parametrize(
    "call, what, value",
    [
        (lambda: check_range("dimension", 2.0, 1), "dimension", "2.0"),
        (lambda: check_range("dimension", True, 0), "dimension", "True"),
        (
            lambda: geometry.SliceSpec(d=2, scale=1.5, lower=Fraction(0), upper=Fraction(1)),
            "cube dilation factor",
            "1.5",
        ),
        (lambda: descent.descent_table(3, 2.0, "explicit"), "index bound", "2.0"),
        (lambda: eulerian.eulerian_spline(3, Fraction(1, 2)), "Eulerian index k", "Fraction(1, 2)"),
        (lambda: descent.descent_spline(3, 2, Fraction(1, 3)), "descent count k", "Fraction(1, 3)"),
        (lambda: descent.descent_spline(3, 2, 0.5), "descent count k", "0.5"),
        (lambda: geometry.mc_volumes([_unit_slab()], 10, 1.5), "seed", "1.5"),
        (lambda: geometry.mc_volume(_unit_slab(), 10, True), "seed", "True"),
        (lambda: geometry.mc_volumes([], 10, 1.5), "seed", "1.5"),
        (lambda: geometry.mc_band(_unit_slab(), 1.5, 10), "exact volume", "1.5"),
        (lambda: check_budget(1, "x", "permutations"), "enumeration budget", "'x'"),
        (lambda: check_budget(1, True, "permutations"), "enumeration budget", "True"),
        (lambda: check_budget(1, 2.5, "permutations"), "enumeration budget", "2.5"),
    ],
    ids=[
        "float", "bool", "SliceSpec float scale", "descent_table float n", "eulerian_spline Fraction k",
        "descent_spline Fraction k", "descent_spline float k", "mc_volumes float seed", "mc_volume bool seed",
        "mc_volumes empty specs float seed", "mc_band float exact", "check_budget str", "check_budget bool",
        "check_budget float",
    ],
)
def test_an_argument_that_is_not_an_int_is_refused(call, what, value):
    # A float inside the range would give a float result.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{what} must be an int, got {value}"


@pytest.mark.parametrize(
    "call, what, value",
    [
        (lambda: check_rational("bound", True), "bound", "True"),
        (lambda: splinecore.bspline_eval_explicit(3, 0.1), "spline argument", "0.1"),
        (lambda: splinecore.bspline_eval_recurrence(3, "1/2"), "spline argument", "'1/2'"),
        (lambda: splinecore.bspline_integrate(3, "1/2", Fraction(5, 2)), "integration bound", "'1/2'"),
        (lambda: splinecore.bspline_integrate(3, 0, 2.5), "integration bound", "2.5"),
        (lambda: geometry.SliceSpec(d=2, scale=1, lower=True, upper=Fraction(1)), "slab bound", "True"),
        (lambda: Polynomial([1, 2])(0.5), "evaluation point", "0.5"),
        (lambda: Polynomial([0.1]), "polynomial coefficient", "0.1"),
        (lambda: Polynomial(["1/2"]), "polynomial coefficient", "'1/2'"),
        (lambda: Polynomial([True]), "polynomial coefficient", "True"),
        (lambda: interpolate([0.5, 1]), "interpolation value", "0.5"),
    ],
    ids=[
        "bool", "explicit float", "recurrence str", "integrate str", "integrate float", "SliceSpec bool bound",
        "Polynomial float point", "Polynomial float coefficient", "Polynomial str coefficient",
        "Polynomial bool coefficient", "interpolate float value",
    ],
)
def test_an_argument_that_is_not_an_int_or_a_fraction_is_refused(call, what, value):
    # A float would give the exact value of its binary expansion.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{what} {value} is not an int or a Fraction"


# (entry point called with one bad argument, the argument's noun, the bad value)
GUARDED = {
    "bspline_eval_explicit": (lambda: splinecore.bspline_eval_explicit(0, 1), "spline order", 0),
    "bspline_eval_recurrence": (lambda: splinecore.bspline_eval_recurrence(-1, 1), "spline order", -1),
    "bspline_piece": (lambda: splinecore.bspline_piece(0, 0), "spline order", 0),
    "bspline_piece j": (lambda: splinecore.bspline_piece(3, 3), "piece index", 3),
    "bspline_integrate": (lambda: splinecore.bspline_integrate(0, 0, 1), "spline order", 0),
    "log_concavity_witness order": (
        lambda: splinecore.log_concavity_witness(1, 8),
        "log-concavity sampling order",
        1,
    ),
    "log_concavity_witness grid": (lambda: splinecore.log_concavity_witness(3, 0), "grid denominator", 0),
    "eulerian_spline": (lambda: eulerian.eulerian_spline(0, 1), "dimension", 0),
    "eulerian_row_spline": (lambda: eulerian.eulerian_row_spline(-2), "dimension", -2),
    "eulerian_bruteforce": (lambda: eulerian.eulerian_bruteforce(0), "dimension", 0),
    "refined_bruteforce": (lambda: eulerian.refined_bruteforce(-2), "dimension", -2),
    "refined_explicit d": (lambda: eulerian.refined_explicit(0, 0, 0), "dimension", 0),
    "refined_explicit k": (lambda: eulerian.refined_explicit(3, 4, 0), "descent count k", 4),
    "refined_explicit j": (lambda: eulerian.refined_explicit(3, 0, -1), "refinement index j", -1),
    "refined_triangle explicit": (lambda: eulerian.refined_triangle(0, "explicit"), "dimension", 0),
    "refined_lambda_extraction": (lambda: eulerian.refined_lambda_extraction(2, -1, 0), "descent count k", -1),
    "descent_spline d": (lambda: descent.descent_spline(0, 2, 0), "dimension", 0),
    "descent_spline n": (lambda: descent.descent_spline(2, 0, 0), "index bound", 0),
    "descent_explicit": (lambda: descent.descent_explicit(2, 2, 5), "descent count k", 5),
    "descent_table refined": (lambda: descent.descent_table(2, 0, "refined"), "index bound", 0),
    "descent_recurrence_table": (lambda: descent.descent_recurrence_table(2, 0), "index bound", 0),
    "indexed_bruteforce": (lambda: descent.indexed_bruteforce(0, 2), "dimension", 0),
    "SliceSpec d": (lambda: _unit_slab(d=0), "dimension", 0),
    "SliceSpec scale": (lambda: _unit_slab(scale=0), "cube dilation factor", 0),
    "dilated_slice d": (lambda: geometry.SliceSpec.dilated_slice(0, 1, 0), "dimension", 0),
    "dilated_slice n": (lambda: geometry.SliceSpec.dilated_slice(3, 0, 1), "dilation", 0),
    "dilated_slice k": (lambda: geometry.SliceSpec.dilated_slice(3, 2, 4), "slice index", 4),
    "mc_volumes": (lambda: geometry.mc_volumes([_unit_slab()], 0, 1), "sample count", 0),
    "mc_band samples": (lambda: geometry.mc_band(_unit_slab(), 1, 0), "sample count", 0),
    "mc_band exact above norm": (lambda: geometry.mc_band(_unit_slab(d=3, scale=2), 49, 10), "exact volume", 49),
    "mc_band exact below 0": (lambda: geometry.mc_band(_unit_slab(), -1, 10), "exact volume", -1),
    "check_budget": (lambda: check_budget(1, -1, "permutations"), "enumeration budget", -1),
    "minkowski_poly d": (lambda: geometry.minkowski_poly(0, 0), "dimension", 0),
    "minkowski_poly k": (lambda: geometry.minkowski_poly(3, 4), "slice index k", 4),
    "Polynomial.__pow__": (lambda: Polynomial([1, 1]) ** -1, "exponent", -1),
}


@pytest.mark.parametrize("call, what, value", GUARDED.values(), ids=GUARDED.keys())
def test_a_bad_argument_is_named_with_its_value(call, what, value):
    with pytest.raises(ValueError) as exc:
        call()
    assert re.fullmatch(rf"{re.escape(what)} must be (>= -?\d+|in -?\d+\.\.-?\d+), got {value}", str(exc.value))


def test_a_non_integer_spline_value_raises_non_integer_result(rebind):
    rebind(splinecore.bspline_eval_explicit, lambda d, x: Fraction(1, 7))
    with pytest.raises(NonIntegerResult, match=r"^eulerian_spline\(3, 1\) produced non-integer 6/7$"):
        eulerian.eulerian_spline(3, 1)


# With C(3, 1) read as 103, the alternating sums at d = 2, k = 1 come to 4 - 103.
NEGATIVE_SITES = {
    "descent_explicit": (lambda: descent.descent_explicit(2, 1, 1), "descent_explicit(2, 1, 1) = -99"),
    "_descent_explicit_table": (
        lambda: descent._descent_explicit_table(2, 1),
        "descent explicit table d=2 n=1: values[1] = -99",
    ),
    "refined_explicit": (lambda: eulerian.refined_explicit(2, 1, 0), "refined_explicit(2, 1, 0) = -99"),
    "_refined_explicit_triangle": (
        lambda: eulerian._refined_explicit_triangle(2),
        "refined triangle d=2: values[1][0] = -99",
    ),
}


@pytest.mark.parametrize("call, message", NEGATIVE_SITES.values(), ids=NEGATIVE_SITES.keys())
def test_an_inflated_binomial_raises_negative_result(rebind, call, message):
    binomial = numcore.binomial
    rebind(binomial, lambda n, k: binomial(n, k) + 100 * (k == 1))
    with pytest.raises(NegativeResult) as exc:
        call()
    assert str(exc.value) == message
