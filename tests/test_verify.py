"""Verification suite plumbing: reports, recorders, sweep composition."""

import math
from fractions import Fraction

import pytest

from splinecomb import descent, eulerian, geometry, splinecore
from splinecomb.errors import TooLarge
from splinecomb.verify import (
    VerifyConfig,
    VerifyReport,
    _cross_routes,
    _Recorder,
    mc_cases,
    verify_all,
    verify_bspline,
    verify_descent,
    verify_eulerian,
    verify_geometry,
    verify_mc,
)


def test_recorder_counts_and_failures():
    rec = _Recorder("demo")
    rec.check("good", 1, 1)
    rec.check("bad", Fraction(1, 2), Fraction(1, 3))
    rec.check_nonneg("nonneg-ok", 0)
    rec.check_nonneg("nonneg-bad", -2)
    report = rec.report()
    assert report.cases_run == 4
    assert report.cases_failed == 2
    assert report.failures[0] == ("bad", "1/2", "1/3")
    assert report.failures[1] == ("nonneg-bad", ">= 0", "-2")
    assert not report.ok


def test_cross_routes_checks_against_the_first_and_skips_too_large():
    def refuse(x):
        raise TooLarge("too many objects")

    routes = {"ref": lambda x: x, "same": lambda x: x, "huge": refuse, "off": lambda x: x + 1}
    rec = _Recorder("demo")
    assert _cross_routes(rec, "route", "x=1", routes, 1) == 1
    report = rec.report()
    assert report.cases_run == 2
    assert report.failures == (("route off x=1", "1", "2"),)


def test_report_invariant():
    report = VerifyReport(suite="s", cases_run=3, failures=())
    assert report.cases_failed == len(report.failures) <= report.cases_run
    assert report.ok


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("d_max", 2.5, "d_max must be an int, got 2.5"),
        ("d_max", True, "d_max must be an int, got True"),
        ("d_max", -1, "d_max must be >= 0, got -1"),
        ("n_max", 1.5, "n_max must be an int, got 1.5"),
        ("n_max", -1, "n_max must be >= 0, got -1"),
        ("budget", -1, "enumeration budget must be >= 0, got -1"),
        ("budget", Fraction(7), "enumeration budget must be an int"),
        ("mc_samples", 0, "mc_samples must be >= 1, got 0"),
        ("mc_samples", 100.0, "mc_samples must be an int, got 100.0"),
        ("mc_seeds", [5, 6], "mc_seeds must be a tuple, got \\[5, 6\\]"),
        ("mc_seeds", (5, "6"), "Monte Carlo seed must be an int, got '6'"),
        ("mc_seeds", (5, False), "Monte Carlo seed must be an int, got False"),
        ("mc_dilated_d_max", -1, "mc_dilated_d_max must be >= 0, got -1"),
        ("sample_points", 2.5, "sample_points must be an int, got 2.5"),
        ("sample_points", -1, "sample_points must be >= 0, got -1"),
        ("sample_seed", 1.0, "sample_seed must be an int, got 1.0"),
    ],
)
def test_config_refuses_a_field_that_is_not_an_int_in_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**{field: value})


def test_config_accepts_the_edges_in_use():
    edges = VerifyConfig(d_max=0, n_max=0, budget=0, mc_samples=1, mc_seeds=(5, -6), mc_dilated_d_max=0, sample_points=0)
    assert edges.mc_seeds == (5, -6) and VerifyConfig(budget=1, mc_seeds=(), sample_seed=-3).budget == 1


def test_a_suite_that_ran_no_case_is_not_a_pass():
    assert not VerifyReport(suite="s", cases_run=0, failures=()).ok
    reports = verify_all(VerifyConfig(d_max=0))
    assert [(r.cases_run, r.ok) for r in reports] == [(0, False)] * 5
    unseeded = verify_mc(VerifyConfig(d_max=2, mc_seeds=()))
    assert (unseeded.cases_run, unseeded.ok) == (0, False)


SMALL = VerifyConfig(d_max=3, n_max=2, mc_samples=20_000, sample_points=8)


def test_individual_suites_pass_on_small_bounds():
    for suite in (verify_bspline, verify_eulerian, verify_descent, verify_geometry, verify_mc):
        report = suite(SMALL)
        assert report.ok, (report.suite, report.failures[:3])
        assert report.cases_run > 0


def test_verify_all_composition():
    reports = verify_all(SMALL)
    assert [r.suite for r in reports] == ["bspline", "eulerian", "descent", "geometry", "monte-carlo"]
    assert all(r.ok for r in reports)


def test_mc_case_sweep_shape():
    labels = [label for label, _, _ in mc_cases(SMALL)]
    # unit-cube slabs for every d <= 3, dilated slabs for d <= 3, n = 2..3
    assert sum(1 for lbl in labels if lbl.startswith("unit")) == 1 + 2 + 3
    assert sum(1 for lbl in labels if lbl.startswith("dilated")) == 2 * (2 + 3 + 4)
    for config, slabs in ((SMALL, 24), (VerifyConfig(), 63), (VerifyConfig(d_max=9), 87)):
        cases = mc_cases(config)
        assert len(cases) == len({spec for _, spec, _ in cases}) == slabs
        for _, spec, exact in cases:
            assert exact > 0
            assert 0 <= spec.lower <= spec.upper <= spec.scale * spec.d


def test_mc_suite_has_no_false_failures_at_small_sample_counts():
    # Slabs that get no hits at these sample counts are not excursions.
    for samples in (220, 1000):
        report = verify_mc(VerifyConfig(mc_samples=samples))
        assert report.ok, report.failures
        assert report.cases_run == 189


def test_eulerian_suite_honours_the_budget():
    starved = verify_eulerian(VerifyConfig(d_max=3, budget=1))
    assert starved.ok
    assert starved.cases_run < verify_eulerian(VerifyConfig(d_max=3)).cases_run


def test_geometry_suite_rebuilds_each_minkowski_polynomial_every_run(monkeypatch):
    # Once per (d, k), shared by the coefficient and mirror checks and the
    # off-node evaluations, on every run: nothing is cached across calls.
    calls = []
    build = geometry.minkowski_poly
    monkeypatch.setattr(geometry, "minkowski_poly", lambda d, k: calls.append((d, k)) or build(d, k))
    config = VerifyConfig(d_max=3)
    for _ in range(2):
        calls.clear()
        assert verify_geometry(config).ok
        assert len(calls) == sum(d + 1 for d in range(1, config.d_max + 1))


def test_geometry_suite_checks_the_minkowski_polynomial_off_its_nodes(monkeypatch):
    # minkowski_poly interpolates through weights 0..d, where it equals
    # descent_spline(d, lam + 1, k) by construction.  A descent_spline that
    # is wrong only further out (index bound n >= d + 2, odd, at d >= 5) is
    # reached by no other suite, so only an off-node check can catch it.
    spline = descent.descent_spline
    monkeypatch.setattr(
        descent,
        "descent_spline",
        lambda d, n, k: spline(d, n, k) + (d >= 5 and n >= d + 2 and n % 2 == 1),
    )
    reports = {rep.suite: rep for rep in verify_all(VerifyConfig())}
    assert [suite for suite, rep in reports.items() if not rep.ok] == ["geometry"]
    failed = [case for case, _, _ in reports["geometry"].failures]
    assert failed and all(case.startswith("minkowski-at-") for case in failed)
    assert len(failed) == 2 * 6 + 7  # lam 6 and 8 at d = 5, lam 8 at d = 6


def _failed_families(report):
    return {case.split(" d=")[0] for case, _, _ in report.failures}


def test_spline_fault_at_integers_fails_the_reaimed_reductions(rebind):
    # B_D + 1/(D-1)! at integer x moves eulerian_spline(d, k + 1),
    # descent_spline(d, 1, k) and the interpolation node at weight 0 by
    # the same count, so a check between two of them cannot see it.
    explicit = splinecore.bspline_eval_explicit

    def shifted(d, x):
        value = explicit(d, x)
        return value + Fraction(1, math.factorial(d - 1)) if Fraction(x).denominator == 1 else value

    rebind(explicit, shifted)
    config = VerifyConfig(d_max=4, n_max=2)
    # The descent suite sees it across routes; its unit-index reduction
    # reads no spline, so the fault leaves that check alone.
    descent_failed = _failed_families(verify_descent(config))
    assert "route explicit" in descent_failed
    assert "unit-index reduction" not in descent_failed
    geometry_report = verify_geometry(config)
    assert "minkowski-at--1" in _failed_families(geometry_report)
    # Only the weight-0 node reads the spline at an integer, so the fault
    # lifts poly(0), the constant coefficient, off the refined row.
    assert ("minkowski-coefficient d=1 k=0 j=0", "1", "2") in geometry_report.failures


def test_unit_index_reduction_is_apart_from_the_recurrence_route(rebind):
    # A wrong n = 1 recurrence table fails the route check only.
    table = descent.descent_recurrence_table

    def bumped(d, n):
        built = table(d, n)
        return descent.DescentTable(d=d, n=n, values=(built.values[0] + (n == 1),) + built.values[1:])

    rebind(table, bumped)
    config = VerifyConfig(d_max=4, n_max=2)
    failed = {case for case, _, _ in verify_descent(config).failures}
    assert {f"route recurrence d={d} n=1" for d in range(1, 5)} <= failed
    assert not any(case.startswith("unit-index reduction") for case in failed)


def test_unit_index_reduction_fails_on_a_wrong_last_column_entry(rebind):
    explicit = eulerian.refined_explicit
    rebind(explicit, lambda d, k, j: explicit(d, k, j) + ((d, k, j) == (3, 1, 0)))
    failures = verify_descent(VerifyConfig(d_max=4, n_max=2)).failures
    assert ("unit-index reduction d=3 k=1", "4", "5") in failures


def _bump_refined_entry(rebind, at):
    """Rebind the explicit refined triangle builder so that its entry at
    (d, k, j) = `at` reads one more."""
    build = eulerian._refined_explicit_triangle

    def bumped(d):
        values = build(d).values
        values = tuple(tuple(v + ((d, k, j) == at) for j, v in enumerate(row)) for k, row in enumerate(values))
        return eulerian.RefinedTriangle(d=d, values=values)

    rebind(build, bumped)


def test_a_table_failure_row_names_the_first_differing_entry(rebind):
    _bump_refined_entry(rebind, (2, 1, 0))
    failures = verify_eulerian(VerifyConfig(d_max=2)).failures
    assert ("refined lambda d=2", "values[1][0]: 2", "values[1][0]: 1") in failures
    assert ("refined brute d=2", "values[1][0]: 2", "values[1][0]: 1") in failures


def test_mean_descent_fails_on_a_moved_count_that_conservation_keeps(monkeypatch):
    build = descent.TABLE_ROUTES["spline"]

    def moved(d, n, budget):
        values = list(build(d, n, budget).values)
        if d >= 2:
            values[1] -= 1
            values[2] += 1
        return descent.DescentTable(d=d, n=n, values=tuple(values))

    monkeypatch.setitem(descent.TABLE_ROUTES, "spline", moved)
    failed = _failed_families(verify_descent(VerifyConfig(d_max=3, n_max=2)))
    assert "mean-descent" in failed
    assert "conservation" not in failed


def test_refined_row_sum_fails_on_one_wrong_refined_entry(rebind):
    _bump_refined_entry(rebind, (3, 1, 2))
    failed = _failed_families(verify_geometry(VerifyConfig(d_max=4, n_max=2)))
    assert "refined-row-sum" in failed


def test_minkowski_mirror_reads_the_mirrored_slab(rebind):
    # One wrong refined entry, AR(4, 1, 4) stored at values[1][0], fails
    # the coefficient check of slab 1 and the mirror check of slab 2,
    # whose coefficient 3 reads that entry.  Slab 2's coefficient check
    # and slab 1's mirror check read values[2][3] and pass.
    _bump_refined_entry(rebind, (3, 1, 0))
    failed = {case for case, _, _ in verify_geometry(VerifyConfig(d_max=4, n_max=2)).failures}
    assert {"minkowski-coefficient d=3 k=1 j=0", "minkowski-mirror d=3 k=2 j=3"} <= failed
    assert not {"minkowski-coefficient d=3 k=2 j=3", "minkowski-mirror d=3 k=1 j=0"} & failed


def test_descent_two_scale_reads_the_recurrence_past_n_max(rebind):
    # A recurrence fault only at n >= 4 keeps each table's sum; every other
    # descent family reads n <= n_max = 3, and two-scale reads n = 4 and 6.
    table = descent.descent_recurrence_table

    def faulted(d, n):
        built = table(d, n)
        if d < 3 or n < 4:
            return built
        values = list(built.values)
        values[1] += 1
        values[2] -= 1
        return descent.DescentTable(d=d, n=n, values=tuple(values))

    rebind(table, faulted)
    report = verify_descent(VerifyConfig())
    assert ("two-scale d=3 n=2 k=1", "122", "121") in report.failures
    assert _failed_families(report) == {"two-scale"}


def test_spline_two_scale_fails_entry_against_entry(rebind):
    # B_3 + 1/7 at the half-integers in (0, 3) moves the refinement sum of
    # x = 3/4, which reads B_3 at 1/2 and 3/2, but not 2^2 B_3(3/4).
    explicit = splinecore.bspline_eval_explicit

    def faulted(d, x):
        value = explicit(d, x)
        x = Fraction(x)
        return value + Fraction(1, 7) if d == 3 and x.denominator == 2 and 0 < x < 3 else value

    rebind(explicit, faulted)
    assert ("two-scale d=3 x=3/4", "9/8", "95/56") in verify_bspline(VerifyConfig()).failures


def test_bspline_suite_reuses_the_reference_value_of_each_sample_point(rebind):
    # two-scale compares against the explicit value the route check
    # already computed, so no sample point evaluates B_d(x) twice for it.
    explicit = splinecore.bspline_eval_explicit
    calls = []
    rebind(explicit, lambda d, x: calls.append((d, x)) or explicit(d, x))
    verify_bspline(VerifyConfig(d_max=3, sample_points=8))
    assert len(calls) == 213


def test_cases_run_per_suite_is_pinned():
    # A re-aimed check keeps its family's case count; the bspline count
    # depends on the default sample_seed.
    assert [r.cases_run for r in verify_all(VerifyConfig())] == [1240, 93, 279, 413, 189]
    deep = VerifyConfig(d_max=9, n_max=3)
    exact = [verify_bspline, verify_eulerian, verify_descent, verify_geometry]
    assert [suite(deep).cases_run for suite in exact] == [2030, 179, 508, 1038]


def test_geometry_case_labels_are_distinct(monkeypatch):
    labels = []
    check = _Recorder.check
    monkeypatch.setattr(_Recorder, "check", lambda rec, case, *values: labels.append(case) or check(rec, case, *values))
    assert verify_geometry(VerifyConfig()).ok
    assert len(labels) == len(set(labels)) == 413


def test_mc_suite_draws_each_stream_once_per_dimension_and_seed(monkeypatch):
    # Every d reads a prefix of its seed's one stream, so a run draws
    # max(d) * samples coordinates per seed, and no more.
    drawn = []
    block = geometry._splitmix64_block
    monkeypatch.setattr(
        geometry, "_splitmix64_block", lambda seed, start, count: drawn.append(count) or block(seed, start, count)
    )
    for config, total in ((VerifyConfig(), 6 * 300_000), (VerifyConfig(d_max=9), 9 * 300_000)):
        drawn.clear()
        assert verify_mc(config).ok
        dims = {spec.d for _, spec, _ in mc_cases(config)}
        assert sum(drawn) == max(dims) * config.mc_samples * len(config.mc_seeds) == total


def test_suites_are_deterministic():
    a = verify_bspline(SMALL)
    b = verify_bspline(SMALL)
    assert a == b
