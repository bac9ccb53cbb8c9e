"""Command-line interface.

One executable with subcommand groups for spline evaluation, table
generation, volume experiments, and identity verification.  Every number
is emitted as a canonical "p/q" or integer string, never floating point,
and identical argument vectors produce byte-identical output.

Exit codes: 0 success, 1 verification failure (report still emitted in
full), 2 usage error, argument outside the library's domain, or
enumeration budget violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import descent, eulerian, geometry, splinecore, verify
from .errors import DEFAULT_ENUMERATION_BUDGET, SplinecombError
from .numcore import factorial, format_rational, parse_rational
from .verify import VerifyConfig, VerifyReport


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _required(flag: str, type=int) -> tuple[str, dict]:
    return flag, {"type": type, "required": True}


def _route(routes: dict) -> tuple[str, dict]:
    """--route over a family's route table; the reference route is the default."""
    return "--route", {"choices": tuple(routes), "default": next(iter(routes))}


_D = _required("--d", _positive_int)
_N = _required("--n", _positive_int)
_D_MAX = ("--d-max", {"type": _positive_int, "default": 6})
_N_MAX = ("--n-max", {"type": _positive_int, "default": 3})


@dataclass(frozen=True)
class _Leaf:
    """One leaf command: its arguments, what it computes, how it prints.

    render maps the result to (csv rows, json fields); the json payload is
    the echoed arguments followed by those fields.  A leaf without render
    emits verify reports, whose outcome sets the exit code.
    """

    help: str
    arguments: tuple[tuple[str, dict], ...]
    compute: Callable
    render: Callable | None = None
    echo: tuple[str, ...] = ()


def _scalar(value) -> tuple[list, dict]:
    text = format_rational(value)
    return [(text,)], {"value": text}


def _coefficients(poly) -> tuple[list, dict]:
    coeffs = poly.coefficient_strings()
    return [tuple(coeffs)], {"coefficients": coeffs}


def _eulerian_row(row: eulerian.EulerianRow) -> tuple[list, dict]:
    rows = [(k, row.value(k)) for k in range(1, row.d + 1)]
    return rows, {"values": [str(v) for v in row.values]}


def _refined(triangle: eulerian.RefinedTriangle) -> tuple[list, dict]:
    d = triangle.d
    rows = [(k, j, triangle.value(k, j)) for k in range(d + 1) for j in range(d + 1)]
    return rows, {"values": [[str(v) for v in row] for row in triangle.values]}


def _descent_table(table: descent.DescentTable) -> tuple[list, dict]:
    rows = [(k, table.values[k]) for k in range(table.d + 1)]
    conservation = sum(table.values) == table.n**table.d * factorial(table.d)
    log_concave = all(m >= 0 for m in descent.log_concavity_verdict(table))
    checks = {"conservation": conservation, "log_concave": log_concave}
    return rows, {"values": [str(v) for v in table.values], "checks": checks}


def _volume(est: geometry.VolumeEstimate) -> tuple[list, dict]:
    fields = [
        ("estimate", format_rational(est.estimate)),
        ("standard_error", format_rational(est.standard_error)),
        ("hits", est.hits),
        ("samples", est.samples),
        ("seed", est.seed),
    ]
    return fields, dict(fields)


_GROUPS = {
    "bspline": "exact cardinal B-spline operations",
    "eulerian": "Eulerian numbers and refinements",
    "descent": "descent tables of indexed permutations",
    "geometry": "volume experiments",
}


def _leaves() -> dict[str, _Leaf]:
    """The leaf commands by path.  Built with the parser, so argument types
    and route tables are looked up when the CLI runs, not at import."""
    return {
        "bspline eval": _Leaf(
            "evaluate the order-d spline",
            (_D, _required("--x", parse_rational), _route(splinecore.EVAL_ROUTES)),
            lambda a: splinecore.EVAL_ROUTES[a.route](a.d, a.x),
            _scalar,
            ("d", "x", "route"),
        ),
        "bspline piece": _Leaf(
            "polynomial piece on [j, j+1)",
            (_D, _required("--j")),
            lambda a: splinecore.bspline_piece(a.d, a.j).poly,
            _coefficients,
            ("d", "j"),
        ),
        "bspline integrate": _Leaf(
            "exact integral over [a, b]",
            (_D, _required("--a", parse_rational), _required("--b", parse_rational)),
            lambda a: splinecore.bspline_integrate(a.d, a.a, a.b),
            _scalar,
            ("d", "a", "b"),
        ),
        "eulerian row": _Leaf(
            "row of Eulerian numbers",
            (_D, _route(eulerian.ROW_ROUTES)),
            lambda a: eulerian.ROW_ROUTES[a.route](a.d, a.budget),
            _eulerian_row,
            ("d", "route"),
        ),
        "eulerian refined": _Leaf(
            "refined triangle for S_{d+1}",
            (_D, _route(eulerian.REFINED_ROUTES)),
            lambda a: eulerian.refined_triangle(a.d, a.route, a.budget),
            _refined,
            ("d", "route"),
        ),
        "eulerian verify": _Leaf(
            "Eulerian identity suite",
            (_D_MAX,),
            lambda a: [verify.verify_eulerian(VerifyConfig(d_max=a.d_max, budget=a.budget))],
        ),
        "descent table": _Leaf(
            "descent histogram for (d, n)",
            (_D, _N, _route(descent.TABLE_ROUTES)),
            lambda a: descent.descent_table(a.d, a.n, a.route, budget=a.budget),
            _descent_table,
            ("d", "n", "route"),
        ),
        "descent poly": _Leaf(
            "descent generating polynomial",
            (_D, _N),
            lambda a: descent.descent_table(a.d, a.n, "spline").polynomial,
            _coefficients,
            ("d", "n"),
        ),
        "descent verify": _Leaf(
            "descent identity suite",
            (_D_MAX, _N_MAX),
            lambda a: [
                verify.verify_descent(VerifyConfig(d_max=a.d_max, n_max=a.n_max, budget=a.budget))
            ],
        ),
        "geometry mc": _Leaf(
            "Monte Carlo slab volume",
            (
                _D,
                _required("--scale"),
                _required("--lower", parse_rational),
                _required("--upper", parse_rational),
                _required("--samples", _positive_int),
                _required("--seed"),
            ),
            lambda a: geometry.mc_volume(
                geometry.SliceSpec(d=a.d, scale=a.scale, lower=a.lower, upper=a.upper), a.samples, a.seed
            ),
            _volume,
            ("d", "scale", "lower", "upper"),
        ),
        "geometry minkowski": _Leaf(
            "Minkowski volume polynomial",
            (_D, _required("--k")),
            lambda a: geometry.minkowski_poly(a.d, a.k),
            _coefficients,
            ("d", "k"),
        ),
        "verify": _Leaf(
            "run verification suites",
            (
                ("--all", {"action": "store_true", "required": True, "help": "run every suite"}),
                _D_MAX,
                _N_MAX,
                (
                    "--samples",
                    {"type": _positive_int, "default": 100_000, "help": "Monte Carlo samples per slice/seed"},
                ),
            ),
            lambda a: verify.verify_all(
                VerifyConfig(d_max=a.d_max, n_max=a.n_max, budget=a.budget, mc_samples=a.samples)
            ),
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    common.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="most objects any brute-force enumeration may visit",
    )
    parser = argparse.ArgumentParser(prog="splinecomb", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, leaf in _leaves().items():
        *group, name = path.split()
        subparsers = top
        if group:
            if group[0] not in groups:
                node = top.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = node.add_subparsers(dest="subcommand", required=True)
            subparsers = groups[group[0]]
        p = subparsers.add_parser(name, parents=[common], help=leaf.help)
        for flag, options in leaf.arguments:
            p.add_argument(flag, **options)
        p.set_defaults(leaf=leaf)
    return parser


def _emit(args, rows: list[tuple], payload: dict) -> None:
    """rows drive the csv rendering, payload the json one; same numbers."""
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for row in rows:
            print(",".join(str(cell) for cell in row))


def _report_rows(reports: list[VerifyReport]) -> list[tuple]:
    rows = [("suite", "cases_run", "cases_failed")]
    for rep in reports:
        rows.append((rep.suite, rep.cases_run, rep.cases_failed))
    for rep in reports:
        for case, expected, actual in rep.failures:
            rows.append(("failure", rep.suite, case, expected, actual))
    return rows


def _report_payload(reports: list[VerifyReport]) -> dict:
    return {
        "reports": [
            {
                "suite": rep.suite,
                "cases_run": rep.cases_run,
                "cases_failed": rep.cases_failed,
                "failures": [
                    {"case": case, "expected": expected, "actual": actual}
                    for case, expected, actual in rep.failures
                ],
            }
            for rep in reports
        ],
        "total_cases": sum(rep.cases_run for rep in reports),
        "total_failed": sum(rep.cases_failed for rep in reports),
    }


def _emit_reports(args, reports: list[VerifyReport]) -> int:
    _emit(args, _report_rows(reports), _report_payload(reports))
    return 0 if all(rep.ok for rep in reports) else 1


def _run(args) -> int:
    leaf = args.leaf
    result = leaf.compute(args)
    if leaf.render is None:
        return _emit_reports(args, result)
    rows, fields = leaf.render(result)
    payload = {}
    for name in leaf.echo:
        value = getattr(args, name)
        payload[name] = format_rational(value) if isinstance(value, Fraction) else value
    _emit(args, rows, {**payload, **fields})
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse parses "--flag=--" as an empty list without calling the flag's type.
    if [] in vars(args).values():
        parser.error("'--' is not a value")
    try:
        return _run(args)
    except (SplinecombError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
