"""Verification suite plumbing: reports, recorders, sweep composition."""

from fractions import Fraction

from splinecomb import geometry
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
    report = VerifyReport(suite="s", cases_run=3, cases_failed=0, failures=())
    assert report.cases_failed == len(report.failures) <= report.cases_run
    assert report.ok


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


def test_suites_are_deterministic():
    a = verify_bspline(SMALL)
    b = verify_bspline(SMALL)
    assert a == b
