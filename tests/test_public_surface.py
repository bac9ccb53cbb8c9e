"""The names `splinecomb` exports, pinned so that every export change is a test diff."""

import subprocess
import sys
import types

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
