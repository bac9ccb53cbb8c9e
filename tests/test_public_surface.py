"""The names `splinecomb` exports, pinned so that every export change is a test diff."""

import copy
import dataclasses
import pickle
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import splinecomb

PUBLIC_NAMES = [
    "DescentTable",
    "EulerianRow",
    "NegativeResult",
    "NonIntegerResult",
    "PiecePoly",
    "Polynomial",
    "RefinedTriangle",
    "SliceSpec",
    "SplinecombError",
    "TooLarge",
    "VerifyConfig",
    "VerifyReport",
    "VolumeEstimate",
    "binomial",
    "bspline_eval_explicit",
    "bspline_eval_recurrence",
    "bspline_integrate",
    "bspline_piece",
    "descent_explicit",
    "descent_recurrence_table",
    "descent_spline",
    "descent_table",
    "eulerian_bruteforce",
    "eulerian_row_spline",
    "eulerian_spline",
    "factorial",
    "format_rational",
    "indexed_bruteforce",
    "interpolate",
    "log_concavity_verdict",
    "log_concavity_witness",
    "mc_volume",
    "mc_volumes",
    "minkowski_poly",
    "parse_rational",
    "refined_bruteforce",
    "refined_explicit",
    "refined_lambda_extraction",
    "refined_triangle",
    "verify_all",
]


def test_public_names_are_exactly_the_pinned_list():
    # The names resolve on first use, so dir() lists them before any is used.
    # Submodules become package attributes once imported, so they are left out.
    exported = sorted(
        name
        for name in dir(splinecomb)
        if not name.startswith("_") and not isinstance(getattr(splinecomb, name), types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_every_name_is_the_object_its_defining_module_holds():
    for name in PUBLIC_NAMES:
        value = getattr(splinecomb, name)
        assert value.__module__.startswith("splinecomb."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splinecomb.no_such_name
    assert not hasattr(splinecomb, "verify_eulerian")  # public in verify, not exported
    with pytest.raises(ImportError):
        from splinecomb import no_such_name  # noqa: F401


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    code = "import sys, splinecomb; print(sorted(m for m in sys.modules if m.startswith(('splinecomb.', 'numpy'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# One value of each exported value type, built through the public API.
VALUES = {
    "Polynomial()": lambda: splinecomb.Polynomial(),
    "Polynomial(ints)": lambda: splinecomb.Polynomial([1, -3, 0, 2]),
    "Polynomial(fractions)": lambda: splinecomb.Polynomial([Fraction(1, 2), 0, Fraction(-7, 3)]),
    "PiecePoly": lambda: splinecomb.bspline_piece(4, 2),
    "EulerianRow": lambda: splinecomb.eulerian_row_spline(5),
    "RefinedTriangle": lambda: splinecomb.refined_triangle(3, "explicit"),
    "DescentTable": lambda: splinecomb.descent_table(3, 2, "spline"),
    "SliceSpec": lambda: splinecomb.SliceSpec.dilated_slice(3, 2, 1),
    "VolumeEstimate": lambda: splinecomb.mc_volume(splinecomb.SliceSpec.dilated_slice(2, 2, 1), 100, 7),
    "VerifyConfig": lambda: splinecomb.VerifyConfig(),
    "VerifyReport": lambda: splinecomb.VerifyReport("demo", 2, (("case", "1", "2"),)),
}


def test_every_exported_value_type_has_a_round_trip_case():
    value_types = {name for name in PUBLIC_NAMES if dataclasses.is_dataclass(getattr(splinecomb, name))}
    assert value_types == {type(build()).__name__ for build in VALUES.values()}


@pytest.mark.parametrize("build", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_every_value_type_copies_and_pickles(build, round_trip):
    value = build()
    assert round_trip(value) == value
