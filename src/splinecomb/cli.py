"""Command-line interface.

One executable with subcommand groups for spline evaluation, table
generation, volume experiments, and identity verification.  Every number
flag reads the one number grammar, `numcore.parse_rational`: rational flags
(`_rational`) take "p" or "p/q", integer flags (`_integer`) "p" alone.
The sweep leaves' flags reach `VerifyConfig` through `_config` alone.
A call imports only what its leaf needs: the leaves are declared one by
one, and `build_parser(argv)` declares only those argv can reach, so the
modules a leaf computes with are imported when it is declared.
Every number is emitted as a canonical "p/q" or integer string, never
floating point, and identical argument vectors produce byte-identical output.
`_DESCRIPTION` tells users the same in `--help`.

Exit codes: 0 success, 1 verification failure (report still emitted in
full), 2 usage error, argument outside the library's domain, or
enumeration budget violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

# Every leaf loads splinecore, and with it polyring.
from . import splinecore
from .errors import DEFAULT_ENUMERATION_BUDGET, SplinecombError
from .numcore import factorial, format_rational, parse_rational

if TYPE_CHECKING:
    from .descent import DescentTable
    from .eulerian import EulerianRow, RefinedTriangle
    from .geometry import VolumeEstimate
    from .verify import VerifyConfig, VerifyReport


def _rational() -> Callable[[str], Fraction]:
    """The argparse type of every rational flag: `parse_rational`, under the
    name argparse words its ValueError with, "invalid rational value"."""

    def rational(text: str) -> Fraction:
        return parse_rational(text)

    return rational


def _integer(lo: int | None = None) -> Callable[[str], int]:
    """The argparse type of every integer flag: `parse_rational`'s text "p"
    without "/q", that is >= lo when lo is given.  argparse words a
    ValueError "invalid integer value" and prints an ArgumentTypeError's text."""

    def integer(text: str) -> int:
        if "/" in text:
            raise ValueError(text)
        value = parse_rational(text).numerator
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


_RATIONAL = _rational()
_INTEGER = _integer()
_POSITIVE = _integer(1)


def _seed_list(text: str) -> tuple[int, ...]:
    """An argparse type for a comma-separated list of integer seeds."""
    try:
        return tuple(_INTEGER(seed) for seed in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def _required(flag: str, type=_INTEGER) -> tuple[str, dict]:
    return flag, {"type": type, "required": True}


def _route(routes: dict) -> tuple[str, dict]:
    """--route over a family's route table; the reference route is the default."""
    return "--route", {"choices": tuple(routes), "default": next(iter(routes))}


_D = _required("--d", _POSITIVE)
_N = _required("--n", _POSITIVE)
# Only the leaves that may enumerate take a budget.
_BUDGET = (
    "--budget",
    {
        "type": _POSITIVE,
        "default": DEFAULT_ENUMERATION_BUDGET,
        "help": "most objects any brute-force enumeration may visit",
    },
)


# The sweep flags whose dest differs from the VerifyConfig field they set.
_CONFIG_ALIASES = {"samples": "mc_samples", "seeds": "mc_seeds", "dilated_d_max": "mc_dilated_d_max"}

# The sweep leaves' own flags, but for their defaults (see `_sweep_flags`).
_SWEEP_FLAGS = {
    "--d-max": {"type": _POSITIVE},
    "--dilated-d-max": {"type": _POSITIVE},
    "--n-max": {"type": _POSITIVE},
    "--samples": {"type": _POSITIVE, "help": "Monte Carlo samples per slice/seed"},
    "--seeds": {"type": _seed_list, "help": "comma-separated seed list"},
}


def _sweep_flags(*flags: str) -> tuple[tuple[str, dict], ...]:
    """Sweep flags, each defaulting to the VerifyConfig field it sets."""
    from .verify import VerifyConfig

    return tuple(
        (flag, {**_SWEEP_FLAGS[flag], "default": getattr(VerifyConfig, _field(flag[2:].replace("-", "_")))})
        for flag in flags
    )


def _field(dest: str) -> str:
    return _CONFIG_ALIASES.get(dest, dest)


def _config(args) -> VerifyConfig:
    """The VerifyConfig a sweep leaf's flags set: a flag sets the field its
    dest names or its alias maps to; a field without a flag keeps its default."""
    from .verify import VerifyConfig

    flags = {_field(dest): value for dest, value in vars(args).items()}
    return VerifyConfig(**{f.name: flags[f.name] for f in fields(VerifyConfig) if f.name in flags})


@dataclass(frozen=True)
class _Leaf:
    """One leaf command: its arguments, what it computes, how it prints.
    Its help line is registered with its declaration (`_declare`).

    render maps the result to (csv rows, json fields); the json payload is
    the echoed arguments followed by those fields.  A leaf with a verdict
    exits 1 when the verdict finds the result failed, after printing it.
    """

    arguments: tuple[tuple[str, dict], ...]
    compute: Callable
    render: Callable
    echo: tuple[str, ...] = ()
    verdict: Callable | None = None


def _scalar(value) -> tuple[list, dict]:
    text = format_rational(value)
    return [(text,)], {"value": text}


def _coefficients(poly) -> tuple[list, dict]:
    coeffs = poly.coefficient_strings()
    return [tuple(coeffs)], {"coefficients": coeffs}


def _eulerian_row(row: EulerianRow) -> tuple[list, dict]:
    rows = list(enumerate(row.values, 1))
    return rows, {"values": [str(v) for v in row.values]}


def _refined(triangle: RefinedTriangle) -> tuple[list, dict]:
    d = triangle.d
    rows = [(k, j, triangle.values[k][j]) for k in range(d + 1) for j in range(d + 1)]
    return rows, {"values": [[str(v) for v in row] for row in triangle.values]}


def _descent_table(table: DescentTable) -> tuple[list, dict]:
    from . import descent

    rows = [(k, table.values[k]) for k in range(table.d + 1)]
    conservation = sum(table.values) == table.n**table.d * factorial(table.d)
    log_concave = all(m >= 0 for m in descent.log_concavity_verdict(table))
    checks = {"conservation": conservation, "log_concave": log_concave}
    return rows, {"values": [str(v) for v in table.values], "checks": checks}


def _records(header: tuple, rows: list[tuple], key: str) -> tuple[list, dict]:
    """csv: the header, then the rows; json: one record per row under key."""
    return [header, *rows], {key: [dict(zip(header, row)) for row in rows]}


def _margins(tables: list[DescentTable]) -> tuple[list, dict]:
    """Per table, its least interior log-concavity margin
    v_k^2 - v_{k-1} v_{k+1} and the least margin over v_k^2, exactly."""
    from . import descent

    rows = []
    for table in tables:
        margins = descent.log_concavity_verdict(table)
        normalized = [Fraction(m, table.values[k + 1] ** 2) for k, m in enumerate(margins)]
        rows.append((table.d, table.n, format_rational(min(margins)), format_rational(min(normalized))))
    return _records(("d", "n", "min_margin", "min_normalized_margin"), rows, "margins")


def _sweep(pairs: list[tuple]) -> tuple[list, dict]:
    rows = [
        (
            label,
            seed,
            format_rational(exact),
            format_rational(est.estimate),
            format_rational(est.standard_error),
            "yes" if inside else "NO",
        )
        for label, seed, exact, est, _, inside in pairs
    ]
    header = ("slice", "seed", "exact", "estimate", "standard_error", "within_4_sigma")
    return _records(header, rows, "pairs")


def _sweep_passes(pairs: list[tuple]) -> bool:
    """The sweep's verdict.  Its excursion count goes to stderr, so stdout
    holds the table alone."""
    from . import verify

    excursions = sum(not inside for *_, inside in pairs)
    print(f"# excursions: {excursions}", file=sys.stderr)
    return verify.mc_sweep_passes(excursions)


def _reports(reports: list[VerifyReport]) -> tuple[list, dict]:
    rows = [("suite", "cases_run", "cases_failed")]
    for rep in reports:
        rows.append((rep.suite, rep.cases_run, rep.cases_failed))
    for rep in reports:
        for case, expected, actual in rep.failures:
            rows.append(("failure", rep.suite, case, expected, actual))
    payload = {
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
    return rows, payload


def _all_ok(reports: list[VerifyReport]) -> bool:
    return all(rep.ok for rep in reports)


def _volume(est: VolumeEstimate) -> tuple[list, dict]:
    fields = [
        ("estimate", format_rational(est.estimate)),
        ("standard_error", format_rational(est.standard_error)),
        ("hits", est.hits),
        ("samples", est.samples),
        ("seed", est.seed),
    ]
    return fields, dict(fields)


_DESCRIPTION = """\
Exact cardinal B-spline values, Eulerian numbers, descent tables and slab
volumes, each computed by several independent routes.  Integer arguments
take decimal text p, rational arguments p or p/q.  Every number is printed
as an integer or a reduced p/q, never in floating point, as csv (the
default) or json (--format json).  Exit codes: 0 success, 1 verification
failure (the report is still printed in full), 2 usage error, an argument
outside the library's domain, or an enumeration over its --budget."""

_GROUPS = {
    "bspline": "exact cardinal B-spline operations",
    "eulerian": "Eulerian numbers and refinements",
    "descent": "descent tables of indexed permutations",
    "geometry": "volume experiments",
}


# Every leaf command by path: its help line and the function that declares it.
_DECLARED: dict[str, tuple[str, Callable[[], _Leaf]]] = {}


def _declare(path: str, help: str):
    """Registers the decorated function as the declaration of the leaf at
    path.  It runs, and imports the modules its leaf computes with, only
    when the leaf is built, so a call pays for its own leaf alone."""

    def register(declaration: Callable[[], _Leaf]) -> Callable[[], _Leaf]:
        _DECLARED[path] = help, declaration
        return declaration

    return register


@_declare("bspline eval", "evaluate the order-d spline")
def _bspline_eval_leaf() -> _Leaf:
    return _Leaf(
        (_D, _required("--x", _RATIONAL), _route(splinecore.EVAL_ROUTES)),
        lambda a: splinecore.EVAL_ROUTES[a.route](a.d, a.x),
        _scalar,
        ("d", "x", "route"),
    )


@_declare("bspline piece", "polynomial piece on [j, j+1)")
def _bspline_piece_leaf() -> _Leaf:
    return _Leaf((_D, _required("--j")), lambda a: splinecore.bspline_piece(a.d, a.j).poly, _coefficients, ("d", "j"))


@_declare("bspline integrate", "exact integral over [a, b]")
def _bspline_integrate_leaf() -> _Leaf:
    return _Leaf(
        (_D, _required("--a", _RATIONAL), _required("--b", _RATIONAL)),
        lambda a: splinecore.bspline_integrate(a.d, a.a, a.b),
        _scalar,
        ("d", "a", "b"),
    )


@_declare("eulerian row", "row of Eulerian numbers")
def _eulerian_row_leaf() -> _Leaf:
    from . import eulerian

    return _Leaf(
        (_D, _route(eulerian.ROW_ROUTES), _BUDGET),
        lambda a: eulerian.ROW_ROUTES[a.route](a.d, a.budget),
        _eulerian_row,
        ("d", "route"),
    )


@_declare("eulerian refined", "refined triangle for S_{d+1}")
def _eulerian_refined_leaf() -> _Leaf:
    from . import eulerian

    return _Leaf(
        (_D, _route(eulerian.REFINED_ROUTES), _BUDGET),
        lambda a: eulerian.refined_triangle(a.d, a.route, a.budget),
        _refined,
        ("d", "route"),
    )


@_declare("eulerian verify", "Eulerian identity suite")
def _eulerian_verify_leaf() -> _Leaf:
    from . import verify

    return _Leaf(
        (*_sweep_flags("--d-max"), _BUDGET),
        lambda a: [verify.verify_eulerian(_config(a))],
        _reports,
        verdict=_all_ok,
    )


@_declare("descent table", "descent histogram for (d, n)")
def _descent_table_leaf() -> _Leaf:
    from . import descent

    return _Leaf(
        (_D, _N, _route(descent.TABLE_ROUTES), _BUDGET),
        lambda a: descent.descent_table(a.d, a.n, a.route, budget=a.budget),
        _descent_table,
        ("d", "n", "route"),
    )


@_declare("descent poly", "descent generating polynomial")
def _descent_poly_leaf() -> _Leaf:
    from . import descent

    return _Leaf((_D, _N), lambda a: descent.descent_table(a.d, a.n, "spline").polynomial, _coefficients, ("d", "n"))


@_declare("descent verify", "descent identity suite")
def _descent_verify_leaf() -> _Leaf:
    from . import verify

    return _Leaf(
        (*_sweep_flags("--d-max", "--n-max"), _BUDGET),
        lambda a: [verify.verify_descent(_config(a))],
        _reports,
        verdict=_all_ok,
    )


@_declare("descent margins", "log-concavity margins of the descent tables")
def _descent_margins_leaf() -> _Leaf:
    from . import descent

    return _Leaf(
        # d = 1 has no interior margin, so the sweep starts at d = 2.
        (("--d-max", {"type": _integer(2), "default": 10}), ("--n-max", {"type": _POSITIVE, "default": 4})),
        lambda a: [
            descent.descent_table(d, n, "spline") for d in range(2, a.d_max + 1) for n in range(1, a.n_max + 1)
        ],
        _margins,
        ("d_max", "n_max"),
    )


@_declare("geometry mc", "Monte Carlo slab volume")
def _geometry_mc_leaf() -> _Leaf:
    from . import geometry

    return _Leaf(
        (
            _D,
            _required("--scale"),
            _required("--lower", _RATIONAL),
            _required("--upper", _RATIONAL),
            _required("--samples", _POSITIVE),
            _required("--seed"),
        ),
        lambda a: geometry.mc_volume(
            geometry.SliceSpec(d=a.d, scale=a.scale, lower=a.lower, upper=a.upper), a.samples, a.seed
        ),
        _volume,
        ("d", "scale", "lower", "upper"),
    )


@_declare("geometry minkowski", "Minkowski volume polynomial")
def _geometry_minkowski_leaf() -> _Leaf:
    from . import geometry

    return _Leaf((_D, _required("--k")), lambda a: geometry.minkowski_poly(a.d, a.k), _coefficients, ("d", "k"))


@_declare("geometry sweep", "Monte Carlo estimates vs exact slab volumes")
def _geometry_sweep_leaf() -> _Leaf:
    from . import verify

    return _Leaf(
        _sweep_flags("--d-max", "--dilated-d-max", "--n-max", "--samples", "--seeds"),
        lambda a: list(verify.mc_pairs(_config(a))),
        _sweep,
        ("d_max", "dilated_d_max", "n_max", "samples", "seeds"),
        _sweep_passes,
    )


@_declare("verify", "run verification suites")
def _verify_leaf() -> _Leaf:
    from . import verify

    return _Leaf(
        (
            ("--all", {"action": "store_true", "required": True, "help": "run every suite"}),
            *_sweep_flags("--d-max", "--n-max", "--samples"),
            _BUDGET,
        ),
        lambda a: verify.verify_all(_config(a)),
        _reports,
        verdict=_all_ok,
    )


def _leaves(argv: Sequence[str] | None = None) -> dict[str, _Leaf]:
    """The leaf commands by path: every one, or those that argv can reach.
    argparse takes a command name only whole, so argv reaches no leaf but
    those whose path words all appear in it."""
    words = None if argv is None else set(argv)
    return {
        path: declaration()
        for path, (_, declaration) in _DECLARED.items()
        if words is None or words.issuperset(path.split())
    }


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every group and leaf, with their help lines.  Flags go
    to the leaves `_leaves(argv)` builds: without argv every leaf, the whole
    parser the tests read; with it only those argv can reach, which is all
    that argv's run, --help or usage error reads."""
    leaves = _leaves(argv)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser = argparse.ArgumentParser(prog="splinecomb", description=_DESCRIPTION)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (help, _) in _DECLARED.items():
        *group, name = path.split()
        subparsers = top
        if group:
            if group[0] not in groups:
                node = top.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = node.add_subparsers(dest="subcommand", required=True)
            subparsers = groups[group[0]]
        if path not in leaves:
            subparsers.add_parser(name, help=help)
            continue
        p = subparsers.add_parser(name, parents=[common], help=help)
        for flag, options in leaves[path].arguments:
            p.add_argument(flag, **options)
        p.set_defaults(leaf=leaves[path])
    return parser


def _emit(args, rows: list[tuple], payload: dict) -> None:
    """rows drive the csv rendering, payload the json one; same numbers."""
    if args.format == "json":
        import json

        print(json.dumps(payload))
    else:
        for row in rows:
            print(",".join(str(cell) for cell in row))


def _run(args) -> int:
    leaf = args.leaf
    result = leaf.compute(args)
    rows, fields = leaf.render(result)
    payload = {}
    for name in leaf.echo:
        value = getattr(args, name)
        payload[name] = format_rational(value) if isinstance(value, Fraction) else value
    try:
        _emit(args, rows, {**payload, **fields})
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so the flush
        # at interpreter exit drops what is still buffered instead of failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if leaf.verdict is None or leaf.verdict(result) else 1


def _main(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    # argparse parses "--flag=--" as an empty list without calling the flag's type.
    if [] in vars(args).values():
        parser.error("'--' is not a value")
    try:
        return _run(args)
    except (SplinecombError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command.  Exact results can run past Python's default
    int <-> str digit limit, so it is lifted for this call only: an
    in-process caller keeps its own limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
