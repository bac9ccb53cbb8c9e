"""The four benchmark workloads: inputs drawn from a seed, operations, checks.

Every workload is a closed loop: one client in one process keeps one
operation in flight, and subprocesses run one at a time.  A workload's
inputs are ``input_sets`` input sets, each drawn from the workload seed and
its index; pass ``i`` of a run uses set ``i % input_sets``, so passes do
not repeat the same arguments back to back.  ``input_sets`` is no larger
than the passes one run completes, so every set, and its frozen digest, is
exercised in every run.  The library is always reached through module
attributes (``verify.verify_all``, never a bare imported name), so the
traced run's wrappers see every call.

Why each workload was chosen, which layers it loads or leaves idle, and
which numbers it should move are in ``perfbench/README.md``, next to the baseline numbers measured at the
commit that added the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from splinecomb import descent, eulerian, geometry, numcore, polyring, splinecore, verify

DEFAULT_SEED = 1

# Operation outcomes.  A known defect is an operation that breaks its
# contract in exactly the way recorded in its Call; it counts against
# ok_frac and failed_frac but not in the result's ``failed`` field.
OK, FAILED, KNOWN_DEFECT = "ok", "failed", "known-defect"


@dataclass
class Outcome:
    """What one operation produced, after its output was checked."""

    outcome: str
    checks: int
    digest: str | None = None
    detail: str = ""


def digest_of(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# --------------------------------------------------------------------------
# In-process verification workloads (verify-default, exact-deep)
# --------------------------------------------------------------------------


def _reports_outcome(reports) -> Outcome:
    rendered = [[r.suite, r.cases_run, r.cases_failed, [list(f) for f in r.failures]] for r in reports]
    bad = [r.suite for r in reports if r.cases_failed or r.cases_run == 0]
    return Outcome(
        FAILED if bad else OK,
        sum(r.cases_run for r in reports),
        digest_of(rendered),
        f"suites failed or ran 0 cases: {bad}" if bad else "",
    )


def verify_default_input(seed: int, index: int) -> verify.VerifyConfig:
    """Default-depth config (d_max 6, n_max 3, 100k samples), seeds drawn."""
    rng = _rng(seed, "verify-default", index)
    return verify.VerifyConfig(
        sample_seed=rng.getrandbits(32),
        mc_seeds=tuple(rng.getrandbits(32) for _ in range(3)),
    )


def verify_default_pass(config: verify.VerifyConfig) -> Outcome:
    return _reports_outcome(verify.verify_all(config))


EXACT_SUITES = ("verify_bspline", "verify_eulerian", "verify_descent", "verify_geometry")


def exact_deep_input(seed: int, index: int) -> verify.VerifyConfig:
    """The four exact suites at d_max 9, n_max 3; only the sample seed varies."""
    return verify.VerifyConfig(d_max=9, n_max=3, sample_seed=_rng(seed, "exact-deep", index).getrandbits(32))


def exact_deep_pass(config: verify.VerifyConfig) -> Outcome:
    return _reports_outcome([getattr(verify, name)(config) for name in EXACT_SUITES])


# --------------------------------------------------------------------------
# tables-large: few calls on large operands, compared across routes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TablesInput:
    descent_d: int = 80
    descent_n: int = 4
    refined_d: int = 14
    minkowski_d: int = 16
    eval_d: int = 40
    eval_points: tuple[Fraction, ...] = ()
    piece_d: int = 24
    piece_points: tuple[Fraction, ...] = ()


def _rational_in(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * q, hi * q - 1), q)


def tables_large_input(seed: int, index: int) -> TablesInput:
    rng = _rng(seed, "tables-large", index)
    base = TablesInput()
    eval_points = tuple(_rational_in(rng, 0, base.eval_d, 1024) for _ in range(32))
    piece_points = tuple(j + Fraction(rng.randint(0, 1023), 1024) for j in range(base.piece_d))
    return TablesInput(eval_points=eval_points, piece_points=piece_points)


def tables_large_pass(inp: TablesInput) -> Outcome:
    """Every route comparison below is one check; the digest covers the values."""
    mismatches: list[str] = []
    checks = 0

    def compare(label, expected, actual):
        nonlocal checks
        checks += 1
        if expected != actual:
            mismatches.append(label)

    d, n = inp.descent_d, inp.descent_n
    spline = descent.descent_table(d, n, "spline").values
    for route in ("explicit", "recurrence", "refined"):
        compare(f"descent {route}", spline, descent.descent_table(d, n, route).values)

    explicit = eulerian.refined_triangle(inp.refined_d, "explicit").values
    compare("refined lambda", explicit, eulerian.refined_triangle(inp.refined_d, "lambda").values)

    md = inp.minkowski_d
    minkowski = []
    for k in range(md + 1):
        coeffs = geometry.minkowski_poly(md, k).coefficient_strings()
        expected = polyring.Polynomial(
            numcore.binomial(md, j) * eulerian.refined_explicit(md, k, j) for j in range(md + 1)
        )
        compare(f"minkowski k={k}", expected.coefficient_strings(), coeffs)
        minkowski.append(coeffs)

    evals = []
    for x in inp.eval_points:
        value = splinecore.bspline_eval_explicit(inp.eval_d, x)
        compare(f"eval x={x}", value, splinecore.bspline_eval_recurrence(inp.eval_d, x))
        evals.append(numcore.format_rational(value))

    pieces = []
    for j, x in enumerate(inp.piece_points):
        piece = splinecore.bspline_piece(inp.piece_d, j).poly
        compare(f"piece j={j}", splinecore.bspline_eval_explicit(inp.piece_d, x), piece(x))
        pieces.append(piece.coefficient_strings())

    output = {
        "descent": [str(v) for v in spline],
        "refined": [[str(v) for v in row] for row in explicit],
        "minkowski": minkowski,
        "eval": evals,
        "pieces": pieces,
    }
    return Outcome(FAILED if mismatches else OK, checks, digest_of(output), ", ".join(mismatches))


# --------------------------------------------------------------------------
# cli-cold: one `python -m splinecomb` subprocess per operation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One CLI invocation and how its result is judged.

    ``expect`` is "ok" (exit 0, empty stderr, stdout checked by a second
    route) or "usage" (the documented contract: exit 2, no traceback, no
    stdout).  ``known_defect`` names the exception a usage call is known
    to escape with at the commit that added the benchmark.
    """

    kind: str
    argv: tuple[str, ...]
    expect: str = "ok"
    known_defect: str | None = None
    params: dict = field(default_factory=dict, hash=False)


def _q(value) -> str:
    """Rational argument text; passed as --flag=VALUE so that a negative
    value is not taken for an option."""
    return numcore.format_rational(value)


def cli_cold_mix(rng: random.Random) -> list[Call]:
    """One small call per leaf subcommand (all but `verify --all`), a second
    `geometry mc` that forces the exact big-integer path, and four calls
    whose documented result is a usage error (exit 2)."""
    calls = []

    d = rng.randint(3, 12)
    q = rng.randint(1, 64)
    x = Fraction(rng.randint(0, d * q), q)
    route = rng.choice(("explicit", "recurrence"))
    calls.append(Call("bspline-eval", ("bspline", "eval", "--d", str(d), f"--x={_q(x)}", "--route", route), params={"d": d, "x": x, "route": route}))

    d = rng.randint(2, 10)
    j = rng.randint(0, d - 1)
    calls.append(Call("bspline-piece", ("bspline", "piece", "--d", str(d), "--j", str(j)), params={"d": d, "j": j}))

    d = rng.randint(2, 10)
    a = _rational_in(rng, -1, d + 1, 32)
    b = a + _rational_in(rng, 0, 3, 32)
    calls.append(Call("bspline-integrate", ("bspline", "integrate", "--d", str(d), f"--a={_q(a)}", f"--b={_q(b)}"), params={"d": d, "a": a, "b": b}))

    d = rng.randint(3, 7)
    route = rng.choice(("spline", "brute"))
    calls.append(Call("eulerian-row", ("eulerian", "row", "--d", str(d), "--route", route), params={"d": d, "route": route}))

    d = rng.randint(2, 6)
    route = rng.choice(("explicit", "lambda", "brute"))
    calls.append(Call("eulerian-refined", ("eulerian", "refined", "--d", str(d), "--route", route), params={"d": d, "route": route}))

    d = rng.randint(2, 4)
    calls.append(Call("eulerian-verify", ("eulerian", "verify", "--d-max", str(d))))

    d = rng.randint(2, 6)
    n = rng.randint(1, 3)
    route = rng.choice(descent.ROUTES)
    calls.append(Call("descent-table", ("descent", "table", "--d", str(d), "--n", str(n), "--route", route), params={"d": d, "n": n}))

    d = rng.randint(2, 8)
    n = rng.randint(1, 4)
    calls.append(Call("descent-poly", ("descent", "poly", "--d", str(d), "--n", str(n)), params={"d": d, "n": n}))

    d = rng.randint(2, 3)
    n = rng.randint(1, 2)
    calls.append(Call("descent-verify", ("descent", "verify", "--d-max", str(d), "--n-max", str(n))))

    d = rng.randint(2, 4)
    scale = rng.randint(1, 3)
    lower = rng.randint(0, scale * d - 1)
    upper = rng.randint(lower + 1, scale * d)
    calls.append(_mc_call(d, scale, Fraction(lower), Fraction(upper), rng.randint(20_000, 50_000), rng.getrandbits(32)))

    # A --lower denominator of at least 512 at d = 2 overflows the int64
    # hit test, so this call takes the exact big-integer Monte Carlo path.
    # The denominator is prime, so it stays that large in lowest terms.
    den = rng.choice(_PRIMES_512_1024)
    lower = Fraction(rng.randint(den // 4, 3 * den // 4), den)
    calls.append(_mc_call(2, 1, lower, Fraction(rng.randint(1, 2)), rng.randint(5_000, 10_000), rng.getrandbits(32)))

    d = rng.randint(2, 8)
    k = rng.randint(0, d)
    calls.append(Call("geometry-minkowski", ("geometry", "minkowski", "--d", str(d), "--k", str(k)), params={"d": d, "k": k}))

    d = rng.randint(2, 6)
    calls.append(
        Call(
            "usage-piece-out-of-support",
            ("bspline", "piece", "--d", str(d), "--j", str(d + rng.randint(0, 3))),
            expect="usage",
            known_defect="IndexOutOfSupport",
        )
    )
    calls.append(
        Call(
            "usage-budget",
            ("descent", "table", "--d", "8", "--n", "3", "--route", "brute", "--budget", str(rng.randint(1, 10**6))),
            expect="usage",
        )
    )
    calls.append(Call("usage-decimal-literal", ("bspline", "eval", "--d", "3", "--x", f"{rng.randint(0, 2)}.5"), expect="usage"))
    calls.append(
        Call(
            "usage-zero-samples",
            ("geometry", "mc", "--d", "2", "--scale", "1", "--lower", "0", "--upper", "1", "--samples", "0", "--seed", str(rng.getrandbits(16))),
            expect="usage",
        )
    )
    rng.shuffle(calls)
    return [Call(c.kind, c.argv + ("--format", "json"), c.expect, c.known_defect, c.params) for c in calls]


_PRIMES_512_1024 = tuple(p for p in range(512, 1025) if all(p % q for q in range(2, 33)))


def _mc_call(d: int, scale: int, lower: Fraction, upper: Fraction, samples: int, seed: int) -> Call:
    argv = ("geometry", "mc", "--d", str(d), "--scale", str(scale), f"--lower={_q(lower)}", f"--upper={_q(upper)}", "--samples", str(samples), "--seed", str(seed))
    return Call("geometry-mc", argv, params={"d": d, "scale": scale, "lower": lower, "upper": upper, "samples": samples, "seed": seed})


def cli_cold_input(seed: int, index: int) -> list[Call]:
    return cli_cold_mix(_rng(seed, "cli-cold", index))


def _irwin_hall_cdf(d: int, y: Fraction) -> Fraction:
    """Integral of B_d over [0, y], as a sum of order-(d+1) spline values
    (B_{d+1}(y) is the integral of B_d over [y-1, y]), by the recurrence
    route; independent of bspline_integrate and its piece antiderivatives."""
    total = Fraction(0)
    k = 0
    while y - k > 0:
        total += splinecore.bspline_eval_recurrence(d + 1, y - k)
        k += 1
    return total


def _expected_cli(call: Call, payload: dict) -> bool:
    """Second-route check of one successful call's JSON payload."""
    p = call.params
    if call.kind == "bspline-eval":
        other = splinecore.bspline_eval_explicit if p["route"] == "recurrence" else splinecore.bspline_eval_recurrence
        return payload["value"] == _q(other(p["d"], p["x"]))
    if call.kind == "bspline-piece":
        poly = polyring.Polynomial(Fraction(c) for c in payload["coefficients"])
        points = [p["j"] + Fraction(m, 7) for m in range(7)]
        return all(poly(x) == splinecore.bspline_eval_recurrence(p["d"], x) for x in points)
    if call.kind == "bspline-integrate":
        a, b = (min(max(v, Fraction(0)), Fraction(p["d"])) for v in (p["a"], p["b"]))
        return payload["value"] == _q(_irwin_hall_cdf(p["d"], b) - _irwin_hall_cdf(p["d"], a))
    if call.kind == "eulerian-row":
        row = eulerian.eulerian_row_spline(p["d"]) if p["route"] == "brute" else eulerian.eulerian_bruteforce(p["d"])
        return payload["values"] == [str(v) for v in row.values]
    if call.kind == "eulerian-refined":
        other = "explicit" if p["route"] != "explicit" else "lambda"
        return payload["values"] == [[str(v) for v in row] for row in eulerian.refined_triangle(p["d"], other).values]
    if call.kind in ("eulerian-verify", "descent-verify"):
        return payload["total_failed"] == 0 and all(r["cases_run"] > 0 for r in payload["reports"])
    if call.kind == "descent-table":
        expected = [str(descent.descent_explicit(p["d"], p["n"], k)) for k in range(p["d"] + 1)]
        return payload["values"] == expected and all(payload["checks"].values())
    if call.kind == "descent-poly":
        values = [descent.descent_explicit(p["d"], p["n"], k) for k in range(p["d"] + 1)]
        return payload["coefficients"] == polyring.Polynomial(values).coefficient_strings()
    if call.kind == "geometry-mc":
        d, s, n, hits = p["d"], p["scale"], p["samples"], payload["hits"]
        spec = geometry.SliceSpec(d=d, scale=s, lower=p["lower"], upper=p["upper"])
        if hits != geometry.mc_volume(spec, n, p["seed"]).hits:
            return False
        if Fraction(payload["estimate"]) != numcore.factorial(d) * s**d * Fraction(hits, n):
            return False
        # The hit count is binomial with the exact slab probability; six of
        # its standard deviations plus one hit are missed with probability ~1e-9.
        prob = _irwin_hall_cdf(d, p["upper"] / s) - _irwin_hall_cdf(d, p["lower"] / s)
        return abs(hits - n * prob) <= 1 + 6 * math.sqrt(n * prob * (1 - prob))
    if call.kind == "geometry-minkowski":
        d, k = p["d"], p["k"]
        expected = polyring.Polynomial(numcore.binomial(d, j) * eulerian.refined_explicit(d, k, j) for j in range(d + 1))
        return payload["coefficients"] == expected.coefficient_strings()
    raise ValueError(f"no check for call kind {call.kind!r}")


def judge_cli(call: Call, exit_code: int, stdout: str, stderr: str) -> Outcome:
    """Classify one CLI result against the exit-code contract and a second route."""
    if "Traceback" in stderr:
        if call.known_defect and exit_code == 1 and call.known_defect in stderr:
            return Outcome(KNOWN_DEFECT, 1, detail=f"known defect: {call.known_defect} traceback, exit 1")
        return Outcome(FAILED, 1, detail=f"traceback (exit {exit_code})")
    if call.expect == "usage":
        ok = exit_code == 2 and stdout == "" and stderr != ""
        return Outcome(OK if ok else FAILED, 1, detail="" if ok else f"expected usage error, got exit {exit_code}")
    if exit_code != 0 or stderr:
        return Outcome(FAILED, 1, detail=f"exit {exit_code}")
    try:
        ok = _expected_cli(call, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(FAILED, 1, detail=f"unreadable output: {exc!r}")
    digest = digest_of([list(call.argv), exit_code, stdout])
    return Outcome(OK if ok else FAILED, 1, digest, "" if ok else "differs from second route")


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    input_sets: int
    make_input: object  # (seed, index) -> one input set
    run_pass: object = None  # in-process workloads: one pass is one operation
    cli: bool = False  # cli-cold: each Call of an input set is one operation

    def make_inputs(self, seed: int) -> list:
        return [self.make_input(seed, index) for index in range(self.input_sets)]


# input_sets: no more than the passes one 22 s run completes when a pass is
# up to 1.5 times slower than at the commit that added the benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default", 6, verify_default_input, verify_default_pass),
        Workload("exact-deep", 3, exact_deep_input, exact_deep_pass),
        Workload("tables-large", 4, tables_large_input, tables_large_pass),
        Workload("cli-cold", 5, cli_cold_input, cli=True),
    )
}
