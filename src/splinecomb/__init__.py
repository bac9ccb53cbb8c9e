"""Exact cardinal B-spline arithmetic and the descent combinatorics it encodes.

Every quantity is computed over arbitrary-precision rationals by several
independent routes (spline evaluation, explicit alternating sums,
recurrences, coefficient extraction, brute-force enumeration) which are
required to agree bit-exactly, with Monte Carlo volume experiments as the
geometric witness.
"""

from .descent import (
    DescentTable,
    descent_explicit,
    descent_recurrence_table,
    descent_spline,
    descent_table,
    indexed_bruteforce,
    log_concavity_verdict,
)
from .errors import (
    DuplicateNode,
    NegativeResult,
    NonIntegerResult,
    SplinecombError,
    TooLarge,
)
from .eulerian import (
    EulerianRow,
    RefinedTriangle,
    eulerian_bruteforce,
    eulerian_row_spline,
    eulerian_spline,
    refined_bruteforce,
    refined_explicit,
    refined_lambda_extraction,
    refined_triangle,
)
from .geometry import (
    SliceSpec,
    VolumeEstimate,
    mc_volume,
    mc_volumes,
    minkowski_poly,
)
from .numcore import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
)
from .polyring import Polynomial, interpolate
from .splinecore import (
    PiecePoly,
    bspline_eval_explicit,
    bspline_eval_recurrence,
    bspline_integrate,
    bspline_piece,
    log_concavity_witness,
)
from .verify import VerifyConfig, VerifyReport, verify_all

__version__ = "0.1.0"
