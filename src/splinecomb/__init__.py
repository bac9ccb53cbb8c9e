"""Exact cardinal B-spline arithmetic and the descent combinatorics it encodes.

Every quantity is computed over arbitrary-precision rationals by several
independent routes (spline evaluation, explicit alternating sums,
recurrences, coefficient extraction, brute-force enumeration) which are
required to agree bit-exactly, with Monte Carlo volume experiments as the
geometric witness.

Each exported name is resolved on first use (PEP 562), so `import
splinecomb` loads no submodule, and a CLI call loads only the modules its
command needs.
"""

import importlib

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "descent": (
        "DescentTable",
        "descent_explicit",
        "descent_recurrence_table",
        "descent_spline",
        "descent_table",
        "indexed_bruteforce",
        "log_concavity_verdict",
    ),
    "errors": ("NegativeResult", "NonIntegerResult", "SplinecombError", "TooLarge"),
    "eulerian": (
        "EulerianRow",
        "RefinedTriangle",
        "eulerian_bruteforce",
        "eulerian_row_spline",
        "eulerian_spline",
        "refined_bruteforce",
        "refined_explicit",
        "refined_lambda_extraction",
        "refined_triangle",
    ),
    "geometry": ("SliceSpec", "VolumeEstimate", "mc_volume", "mc_volumes", "minkowski_poly"),
    "numcore": ("binomial", "factorial", "format_rational", "parse_rational"),
    "polyring": ("Polynomial", "interpolate"),
    "splinecore": (
        "PiecePoly",
        "bspline_eval_explicit",
        "bspline_eval_recurrence",
        "bspline_integrate",
        "bspline_piece",
        "log_concavity_witness",
    ),
    "verify": ("VerifyConfig", "VerifyReport", "verify_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
