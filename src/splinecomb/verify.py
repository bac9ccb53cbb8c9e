"""Identity verification suites shared by the CLI and the test suite.

Each suite runs a family of exact cross-route checks and returns a
VerifyReport; nothing here is statistical except the Monte Carlo suite,
whose acceptance band (geometry.mc_band: 4 outward-rounded standard
errors of the exact slab probability, at most one excursion per sweep) is
part of its contract.  All suites are deterministic, including the
pseudo-random sample points.

Routes that expand one formula share its faults; README's route table
names each route's formula and the primitives it calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import descent, eulerian, geometry, splinecore
from .errors import DEFAULT_ENUMERATION_BUDGET, TooLarge, check_range
from .numcore import binomial, factorial, format_rational


@dataclass(frozen=True)
class VerifyConfig:
    """Bounds for the verification sweeps.

    At the defaults a full verify_all takes about 0.09 s in-process
    (medians 0.091, 0.133 and 0.090 s in three sets of seven warm runs,
    0.087-0.137 s overall, Python 3.11.7 and numpy 2.4.6 on a shared 2-vCPU
    Linux host); raise them for deeper sweeps.  mc_samples applies per
    (slice, seed) pair.  Every field is an int (not a bool) through
    errors.check_range, and mc_seeds a tuple of ints: the bounds, the budget
    and the sample counts are >= 0 (mc_samples >= 1), the seeds unbounded.
    """

    d_max: int = 6
    n_max: int = 3
    budget: int = DEFAULT_ENUMERATION_BUDGET
    mc_samples: int = 100_000
    mc_seeds: tuple[int, ...] = (101, 20231, 777003)
    mc_dilated_d_max: int = 4
    sample_points: int = 40
    sample_seed: int = 987654321

    def __post_init__(self):
        check_range("d_max", self.d_max, 0)
        check_range("n_max", self.n_max, 0)
        check_range("enumeration budget", self.budget, 0)
        check_range("mc_samples", self.mc_samples, 1)
        if type(self.mc_seeds) is not tuple:
            raise ValueError(f"mc_seeds must be a tuple, got {self.mc_seeds!r}")
        for seed in self.mc_seeds:
            check_range("Monte Carlo seed", seed)
        check_range("mc_dilated_d_max", self.mc_dilated_d_max, 0)
        check_range("sample_points", self.sample_points, 0)
        check_range("sample_seed", self.sample_seed)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...]

    @property
    def cases_failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """Passed: at least one case ran and none failed."""
        return self.cases_run > 0 and self.cases_failed == 0


class _Recorder:
    """Accumulates (case, expected, actual) outcomes for one suite."""

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.failures: list[tuple[str, str, str]] = []

    def check(self, case: str, expected, actual) -> None:
        self.cases += 1
        if expected == actual:
            return
        if type(expected) is type(actual) and hasattr(expected, "values") and expected.values != actual.values:
            # Two tables of one type: name their first differing entry.
            path, expected, actual = _first_difference("values", expected.values, actual.values)
            self.failures.append((case, f"{path}: {_render(expected)}", f"{path}: {_render(actual)}"))
        else:
            self.failures.append((case, _render(expected), _render(actual)))

    def check_nonneg(self, case: str, value) -> None:
        self.cases += 1
        if value < 0:
            self.failures.append((case, ">= 0", _render(value)))

    def report(self) -> VerifyReport:
        return VerifyReport(suite=self.suite, cases_run=self.cases, failures=tuple(self.failures))


def _render(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _first_difference(path: str, expected, actual):
    """(path, expected entry, actual entry) at the first place where two
    nested tuples differ; the tuples themselves when their lengths do."""
    if isinstance(expected, tuple) and isinstance(actual, tuple) and len(expected) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                return _first_difference(f"{path}[{i}]", e, a)
    return path, expected, actual


def _sample_points(d: int, count: int, rng: random.Random) -> list[Fraction]:
    """Deterministic rationals in [-1, d+1] with denominators up to 64."""
    points = []
    for _ in range(count):
        q = rng.randint(1, 64)
        points.append(Fraction(rng.randint(-q, (d + 1) * q), q))
    return points


def _two_scale_sum(d: int, values, m: int):
    """sum_j C(d+1, j) * values[m - j], an index outside values counting
    as 0: the right side of the two-scale identity
    2^d B_{d+1}(x) = sum_j C(d+1, j) B_{d+1}(2x - j), read off spline
    values at 2x - j or off a table that scales them to integers."""
    return sum(binomial(d + 1, j) * values[m - j] for j in range(d + 2) if 0 <= m - j < len(values))


def _cross_routes(rec: _Recorder, kind: str, where: str, routes: dict, *args):
    """Check every route of `routes` against the first, the reference, on
    `args`, and return the reference result.  A route that refuses `args`
    as too large to enumerate is skipped."""
    reference, *others = routes
    expected = routes[reference](*args)
    for route in others:
        try:
            actual = routes[route](*args)
        except TooLarge:
            continue
        rec.check(f"{kind} {route} {where}", expected, actual)
    return expected


def verify_bspline(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    rec = _Recorder("bspline")
    rng = random.Random(config.sample_seed)
    for d in range(1, config.d_max + 1):
        pieces = [splinecore.bspline_piece(d, j).poly for j in range(d)]
        for x in _sample_points(d, config.sample_points, rng):
            explicit = _cross_routes(rec, "route", f"d={d} x={x}", splinecore.EVAL_ROUTES, d, x)
            if d >= 2:
                rec.check(f"symmetry d={d} x={x}", explicit, splinecore.bspline_eval_explicit(d, d - x))
            halves = [splinecore.bspline_eval_explicit(d, 2 * x - d + i) for i in range(d + 1)]
            rec.check(f"two-scale d={d} x={x}", 2 ** (d - 1) * explicit, _two_scale_sum(d - 1, halves, d))
            # every translate B_d(x - k) whose support [k, k + d] holds x
            translates = range(math.ceil(x - d), math.floor(x) + 1)
            rec.check(
                f"partition d={d} x={x}",
                Fraction(1),
                sum(splinecore.bspline_eval_explicit(d, x - k) for k in translates),
            )
            if 0 <= x < d:
                rec.check(f"piece d={d} x={x}", explicit, pieces[int(x)](x))
        for k in range(1, d + 1):
            rec.check(
                f"integral-bridge d={d} k={k}",
                splinecore.bspline_eval_explicit(d + 1, k),
                splinecore.bspline_integrate(d, k - 1, k),
            )
        rec.check(f"unit-integral d={d}", Fraction(1), splinecore.bspline_integrate(d, 0, d))
        if d >= 2:
            for margin in splinecore.log_concavity_witness(d, 8):
                rec.check_nonneg(f"log-concavity d={d}", margin)
    return rec.report()


def verify_eulerian(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    rec = _Recorder("eulerian")
    for d in range(1, config.d_max + 1):
        spline_row = _cross_routes(rec, "row", f"d={d}", eulerian.ROW_ROUTES, d, config.budget)
        rec.check(f"row-sum d={d}", factorial(d), sum(spline_row.values))
        for k in range(1, d + 1):
            rec.check(f"symmetry d={d} k={k}", spline_row.values[k - 1], spline_row.values[d - k])
            rec.check(
                f"two-scale d={d} k={k}",
                2**d * spline_row.values[k - 1],
                _two_scale_sum(d, spline_row.values, 2 * k - 1),
            )
        explicit = _cross_routes(rec, "refined", f"d={d}", eulerian.REFINED_ROUTES, d, config.budget)
        for k in range(d + 1):
            rec.check(
                f"refined-last-column d={d} k={k}",
                eulerian.eulerian_spline(d, k + 1),
                explicit.values[k][0],
            )
    return rec.report()


def verify_descent(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    rec = _Recorder("descent")
    for d in range(1, config.d_max + 1):
        for n in range(1, config.n_max + 1):
            spline = _cross_routes(rec, "route", f"d={d} n={n}", descent.TABLE_ROUTES, d, n, config.budget)
            rec.check(f"conservation d={d} n={n}", n**d * factorial(d), sum(spline.values))
            rec.check(f"no-descent count d={d} n={n}", 1, spline.values[0])
            rec.check(
                f"mean-descent d={d} n={n}",
                n**d * factorial(d) * (Fraction(d - 1, 2) + Fraction(n - 1, n)),
                sum(k * count for k, count in enumerate(spline.values)),
            )
            for margin in descent.log_concavity_verdict(spline):
                rec.check_nonneg(f"log-concavity d={d} n={n}", margin)
            doubled = descent.descent_recurrence_table(d, 2 * n)
            for k in range(d + 1):
                rec.check(
                    f"two-scale d={d} n={n} k={k}",
                    doubled.values[k],
                    _two_scale_sum(d, spline.values, 2 * k),
                )
        # n = 1 reduces indexed descents to ordinary ones, and the
        # permutations of S_{d+1} ending with d+1 have the descents of S_d.
        # Neither side reads the spline or the recurrence table.
        for k in range(d + 1):
            rec.check(
                f"unit-index reduction d={d} k={k}",
                descent.descent_explicit(d, 1, k),
                eulerian.refined_explicit(d, k, 0),
            )
    return rec.report()


def verify_geometry(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    rec = _Recorder("geometry")
    for d in range(1, config.d_max + 1):
        refined = eulerian.refined_triangle(d, "explicit")
        for k in range(d + 1):
            poly = geometry.minkowski_poly(d, k)
            # Row k of the refined triangle counts S_{d+1} by descents alone.
            rec.check(
                f"refined-row-sum d={d} k={k}",
                eulerian.eulerian_spline(d + 1, k + 1),
                sum(refined.values[k]),
            )
            for j in range(d + 1):
                rec.check(
                    f"minkowski-coefficient d={d} k={k} j={j}",
                    binomial(d, j) * refined.values[k][j],
                    poly.coefficient(j),
                )
                # The complement map AR(d+1, k, m) = AR(d+1, d-k, d+2-m) reads
                # the same coefficient from the mirrored slab's refined row.
                rec.check(
                    f"minkowski-mirror d={d} k={k} j={j}",
                    binomial(d, j) * refined.values[d - k][d - j],
                    poly.coefficient(j),
                )
            # Both checks below lie off the interpolation nodes 0..d, so poly
            # is checked where it was not fitted to the spline formula.  At
            # weight -1 (index bound 0) the explicit descent sum leaves
            # sum_{i <= k} (-1)^i C(d+1, i) = (-1)^k C(d, k).
            rec.check(f"minkowski-at--1 d={d} k={k}", Fraction((-1) ** k * binomial(d, k)), poly(-1))
            for lam in range(d + 1, d + config.n_max + 1):
                rec.check(
                    f"minkowski-at-{lam} d={d} k={k}",
                    Fraction(descent.descent_spline(d, lam + 1, k)),
                    poly(lam),
                )
    return rec.report()


def mc_cases(config: VerifyConfig = VerifyConfig()):
    """The (label, spec, exact volume) sweep used by the Monte Carlo suite."""
    cases = []
    for d in range(1, config.d_max + 1):
        for k in range(1, d + 1):
            # The unit slab between sums k-1 and k is the n = 1 dilated slab k-1.
            spec = geometry.SliceSpec.dilated_slice(d, 1, k - 1)
            cases.append((f"unit d={d} k={k}", spec, eulerian.eulerian_spline(d, k)))
    # Dilated slabs start at n = 2: at n = 1 each is a unit slab again, or
    # the measure-zero slab [d, d], so n = 1 would add no new check.
    for d in range(1, min(config.d_max, config.mc_dilated_d_max) + 1):
        for n in range(2, config.n_max + 2):
            for k in range(d + 1):
                cases.append(
                    (
                        f"dilated d={d} n={n} k={k}",
                        geometry.SliceSpec.dilated_slice(d, n, k),
                        descent.descent_spline(d, n, k),
                    )
                )
    return cases


def mc_pairs(config: VerifyConfig = VerifyConfig()):
    """Yield (label, seed, exact, estimate, band, inside) for each (slab,
    seed) pair of the Monte Carlo sweep: the seed the generator ran from
    (the estimate's, reduced mod 2^64), a geometry.VolumeEstimate, its
    mc_band, and whether the estimate lies within that band of the exact
    volume.  Each seed's estimates come from one geometry.mc_volumes call
    over every slab, so each seed's sample stream is drawn once."""
    cases = mc_cases(config)
    specs = [spec for _, spec, _ in cases]
    per_seed = [geometry.mc_volumes(specs, config.mc_samples, seed) for seed in config.mc_seeds]
    for i, (label, spec, exact) in enumerate(cases):
        band = geometry.mc_band(spec, exact, config.mc_samples)
        for estimates in per_seed:
            est = estimates[i]
            yield label, est.seed, exact, est, band, abs(est.estimate - exact) <= band


def mc_sweep_passes(excursions: int) -> bool:
    """Whether a Monte Carlo sweep with this many pairs outside their band
    passes: one excursion across the whole sweep is within contract."""
    return excursions <= 1


def verify_mc(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Monte Carlo soundness sweep.

    A (slice, seed) pair is in excursion when mc_pairs finds its estimate
    outside its band.  One excursion across the whole sweep is within
    contract (mc_sweep_passes); two or more are reported as failures.
    """
    pairs = list(mc_pairs(config))
    excursions = tuple(
        (
            f"{label} seed={seed}",
            format_rational(exact),
            f"{format_rational(est.estimate)} +- {format_rational(band)}",
        )
        for label, seed, exact, est, band, inside in pairs
        if not inside
    )
    return VerifyReport(
        suite="monte-carlo",
        cases_run=len(pairs),
        failures=() if mc_sweep_passes(len(excursions)) else excursions,
    )


def verify_all(config: VerifyConfig = VerifyConfig()) -> list[VerifyReport]:
    return [
        verify_bspline(config),
        verify_eulerian(config),
        verify_descent(config),
        verify_geometry(config),
        verify_mc(config),
    ]
