"""The one integer range guard and the entry points that refuse arguments through it."""

import re
from fractions import Fraction

import pytest

from splinecomb import descent, eulerian, geometry, splinecore
from splinecomb.errors import check_range
from splinecomb.polyring import Polynomial


def test_check_range_messages():
    check_range("dimension", 1, 1)
    check_range("descent count k", 3, 0, 3)
    with pytest.raises(ValueError) as exc:
        check_range("dimension", 0, 1)
    assert str(exc.value) == "dimension must be >= 1, got 0"
    with pytest.raises(ValueError) as exc:
        check_range("descent count k", 4, 0, 3)
    assert str(exc.value) == "descent count k must be in 0..3, got 4"


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
    ],
    ids=["float", "bool", "SliceSpec float scale", "descent_table float n"],
)
def test_an_argument_that_is_not_an_int_is_refused(call, what, value):
    # A float inside the range would give a float result.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{what} must be an int, got {value}"


def _unit_slab(d=1, scale=1):
    return geometry.SliceSpec(d=d, scale=scale, lower=Fraction(0), upper=Fraction(0))


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
    "minkowski_poly d": (lambda: geometry.minkowski_poly(0, 0), "dimension", 0),
    "minkowski_poly k": (lambda: geometry.minkowski_poly(3, 4), "slice index k", 4),
    "Polynomial.__pow__": (lambda: Polynomial([1, 1]) ** -1, "exponent", -1),
}


@pytest.mark.parametrize("call, what, value", GUARDED.values(), ids=GUARDED.keys())
def test_a_bad_argument_is_named_with_its_value(call, what, value):
    with pytest.raises(ValueError) as exc:
        call()
    assert re.fullmatch(rf"{re.escape(what)} must be (>= -?\d+|in -?\d+\.\.-?\d+), got {value}", str(exc.value))
