"""Acceptance gate: every identity at its exact tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.  Everything except the Monte Carlo criterion
is bit-exact; the Monte Carlo sweep allows at most one excursion outside
geometry.mc_band across all (slice, seed) pairs.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from splinecomb import descent, eulerian, geometry, splinecore
from splinecomb.numcore import binomial, factorial
from splinecomb.verify import VerifyConfig, _two_scale_sum, mc_cases, verify_mc


def _criterion(number: int, name: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} ({elapsed:.1f}s) {name}{detail}")
    assert ok, f"criterion {number} failed: {name}{detail}"


def test_criterion_01_eulerian_route_equivalence():
    started = time.perf_counter()
    bad = []
    for d in range(1, 10):
        brute = eulerian.eulerian_bruteforce(d)
        for k in range(1, d + 1):
            if eulerian.eulerian_spline(d, k) != brute.values[k - 1]:
                bad.append((d, k))
    _criterion(1, "eulerian spline == descent counting over S_d, d <= 9", not bad, started,
               detail=f" mismatches={bad}" if bad else "")


def test_criterion_02_refined_route_equivalence():
    started = time.perf_counter()
    bad = []
    for d in range(1, 9):
        brute = eulerian.refined_bruteforce(d)
        for k in range(d + 1):
            for j in range(d + 1):
                values = {
                    eulerian.refined_explicit(d, k, j),
                    eulerian.refined_lambda_extraction(d, k, j),
                    brute.values[k][j],
                }
                if len(values) != 1:
                    bad.append((d, k, j))
    _criterion(2, "refined explicit == lambda extraction == S_{d+1} enumeration, d <= 8",
               not bad, started, detail=f" mismatches={bad}" if bad else "")


def test_criterion_03_descent_five_route_equivalence():
    started = time.perf_counter()
    bad = []
    for d in range(1, 7):
        for n in range(1, 5):
            tables = [descent.descent_table(d, n, route).values for route in descent.ROUTES]
            if len(set(tables)) != 1:
                bad.append((d, n))
    _criterion(3, "descent spline/explicit/recurrence/refined/enumeration, d <= 6, n <= 4",
               not bad, started, detail=f" mismatches={bad}" if bad else "")


def test_criterion_04_conservation():
    started = time.perf_counter()
    ok = all(
        sum(descent.descent_spline(d, n, k) for k in range(d + 1)) == n**d * factorial(d)
        for d in range(1, 11)
        for n in range(1, 7)
    )
    _criterion(4, "sum_k DT(d,n,k) == n^d * d!, d <= 10, n <= 6", ok, started)


def test_criterion_05_log_concavity():
    started = time.perf_counter()
    ok = True
    for d in range(1, 13):
        for n in range(1, 7):
            table = descent.descent_table(d, n, "spline")
            ok = ok and all(m >= 0 for m in descent.log_concavity_verdict(table))
    for d in range(2, 9):
        for q in range(1, 9):
            ok = ok and all(m >= 0 for m in splinecore.log_concavity_witness(d, q))
    _criterion(5, "descent tables (d <= 12, n <= 6) and spline grids (d <= 8) log-concave",
               ok, started)


def test_criterion_06_two_scale_equations():
    started = time.perf_counter()
    ok = True
    for d in range(1, 13):
        row = eulerian.eulerian_row_spline(d).values
        for k in range(0, d + 2):
            ok = ok and 2**d * eulerian.eulerian_spline(d, k) == _two_scale_sum(d, row, 2 * k - 1)
    for d in range(1, 11):
        for n in range(1, 4):
            table = descent.descent_table(d, n, "spline").values
            for k in range(0, d + 2):
                ok = ok and descent.descent_spline(d, 2 * n, k) == _two_scale_sum(d, table, 2 * k)
    rng = random.Random(271828)
    for d in range(2, 13):
        for _ in range(200):
            q = rng.randint(1, 64)
            x = Fraction(rng.randint(-q, (d + 1) * q), q)
            halves = [splinecore.bspline_eval_explicit(d, 2 * x - d + i) for i in range(d + 1)]
            ok = ok and 2 ** (d - 1) * splinecore.bspline_eval_explicit(d, x) == _two_scale_sum(d - 1, halves, d)
    _criterion(6, "two-scale identities hold for A (d <= 12), DT (d <= 10, n <= 3), B (d <= 12)",
               ok, started)


def test_criterion_07_integral_bridge():
    started = time.perf_counter()
    ok = all(
        splinecore.bspline_integrate(d, k - 1, k) == splinecore.bspline_eval_explicit(d + 1, k)
        for d in range(1, 11)
        for k in range(1, d + 1)
    )
    _criterion(7, "integral of B_d over [k-1, k] == B_{d+1}(k), d <= 10", ok, started)


def test_criterion_08_geometry_exact_bridge():
    started = time.perf_counter()
    ok = True
    for d in range(1, 7):
        triangle = eulerian.refined_triangle(d, "explicit")
        for k in range(d + 1):
            poly = geometry.minkowski_poly(d, k)
            for j in range(d + 1):
                ok = ok and poly.coefficient(j) == binomial(d, j) * triangle.values[k][j]
    _criterion(8, "Minkowski polynomial coefficients == C(d,j) * refined counts, d <= 6",
               ok, started)


def test_criterion_09_geometry_stochastic_bridge():
    started = time.perf_counter()
    config = VerifyConfig(mc_samples=1_000_000)
    report = verify_mc(config)
    # 63 slabs (21 unit for d <= 6, 42 dilated for d <= 4, n = 2..4), 3 seeds each
    ok = report.ok and report.cases_run == len(mc_cases(config)) * len(config.mc_seeds) == 189
    _criterion(9, "Monte Carlo within geometry.mc_band (<= 1 excursion allowed), 189 pairs",
               ok, started,
               detail="" if ok else f" cases={report.cases_run} excursions={report.failures}")


def test_criterion_10_cli_determinism():
    started = time.perf_counter()
    argv = [sys.executable, "-m", "splinecomb.cli", "verify", "--all", "--format", "json"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
    _criterion(10, "`verify --all` exits 0 and is byte-identical across runs", ok, started,
               detail="" if ok else f" rc=({first.returncode},{second.returncode})")
