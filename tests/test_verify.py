"""Verification suite plumbing: reports, recorders, sweep composition."""

import math
from fractions import Fraction

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
    # Once per (d, k), shared by the coefficient checks and mixed_volume_row,
    # on every run: nothing is cached across calls.
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
    assert "unit-index reduction" in _failed_families(verify_descent(config))
    geometry_report = verify_geometry(config)
    assert "minkowski-at--1" in _failed_families(geometry_report)
    # The fault also makes mixed_volume_row raise at d = 1, k = 0; the
    # suite records that as failed cases instead of stopping.
    raised = "raised NegativeResult: mixed volume j=0 of a degree-1 Minkowski polynomial = -1"
    assert ("mixed-volume d=1 k=0 j=0", "0", raised) in geometry_report.failures


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
    explicit = eulerian.refined_explicit
    rebind(explicit, lambda d, k, j: explicit(d, k, j) + ((d, k, j) == (3, 1, 2)))
    failed = _failed_families(verify_geometry(VerifyConfig(d_max=4, n_max=2)))
    assert "refined-row-sum" in failed


def test_geometry_case_labels_are_distinct(monkeypatch):
    labels = []
    check = _Recorder.check
    monkeypatch.setattr(_Recorder, "check", lambda rec, case, *values: labels.append(case) or check(rec, case, *values))
    assert verify_geometry(VerifyConfig()).ok
    assert len(labels) == len(set(labels)) == 413


def test_mc_suite_draws_each_stream_once_per_dimension_and_seed(monkeypatch):
    # Every slab of one d shares that d's stream, so a run draws
    # sum over distinct d of d * samples coordinates per seed, and no more.
    drawn = []
    block = geometry._splitmix64_block
    monkeypatch.setattr(
        geometry, "_splitmix64_block", lambda seed, start, count: drawn.append(count) or block(seed, start, count)
    )
    config = VerifyConfig()
    assert verify_mc(config).ok
    dims = {spec.d for _, spec, _ in mc_cases(config)}
    assert sum(drawn) == sum(dims) * config.mc_samples * len(config.mc_seeds) == 21 * 300_000


def test_suites_are_deterministic():
    a = verify_bspline(SMALL)
    b = verify_bspline(SMALL)
    assert a == b
