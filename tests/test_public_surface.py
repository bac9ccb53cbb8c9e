"""The names `splinecomb` exports, pinned so that every export change is a test diff."""

import types

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
    # Submodules become package attributes once imported, so they are left out.
    exported = sorted(
        name
        for name, value in vars(splinecomb).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
