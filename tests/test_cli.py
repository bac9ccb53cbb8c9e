"""Command-line surface: grammars, formats, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import cli, descent, eulerian, geometry, splinecore, verify
from splinecomb.cli import main
from splinecomb.numcore import format_rational, parse_rational
from splinecomb.verify import VerifyConfig, VerifyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# Frozen stdout of one small call per leaf command, in both formats: the
# output bytes are part of the CLI contract.
GOLDEN_STDOUT = [
    (
        ("bspline", "eval", "--d", "4", "--x", "5/3", "--route", "recurrence"),
        "31/54\n",
        '{"d": 4, "x": "5/3", "route": "recurrence", "value": "31/54"}\n',
    ),
    (
        ("bspline", "piece", "--d", "4", "--j", "2"),
        "-22/3,10,-4,1/2\n",
        '{"d": 4, "j": 2, "coefficients": ["-22/3", "10", "-4", "1/2"]}\n',
    ),
    (
        ("bspline", "integrate", "--d", "3", "--a=-1/2", "--b", "7/4"),
        "131/192\n",
        '{"d": 3, "a": "-1/2", "b": "7/4", "value": "131/192"}\n',
    ),
    (
        ("eulerian", "row", "--d", "5", "--route", "brute"),
        "1,1\n2,26\n3,66\n4,26\n5,1\n",
        '{"d": 5, "route": "brute", "values": ["1", "26", "66", "26", "1"]}\n',
    ),
    (
        ("eulerian", "refined", "--d", "3", "--route", "lambda"),
        "0,0,1\n0,1,0\n0,2,0\n0,3,0\n1,0,4\n1,1,4\n1,2,2\n1,3,1\n2,0,1\n2,1,2\n2,2,4\n2,3,4\n3,0,0\n3,1,0\n3,2,0\n3,3,1\n",
        '{"d": 3, "route": "lambda", "values": [["1", "0", "0", "0"], ["4", "4", "2", "1"], ["1", "2", "4", "4"], ["0", "0", "0", "1"]]}\n',
    ),
    (
        ("eulerian", "verify", "--d-max", "3"),
        "suite,cases_run,cases_failed\neulerian,33,0\n",
        '{"reports": [{"suite": "eulerian", "cases_run": 33, "cases_failed": 0, "failures": []}], "total_cases": 33, "total_failed": 0}\n',
    ),
    (
        ("descent", "table", "--d", "3", "--n", "2", "--route", "refined"),
        "0,1\n1,23\n2,23\n3,1\n",
        '{"d": 3, "n": 2, "route": "refined", "values": ["1", "23", "23", "1"], "checks": {"conservation": true, "log_concave": true}}\n',
    ),
    (
        ("descent", "poly", "--d", "3", "--n", "3"),
        "1,60,93,8\n",
        '{"d": 3, "n": 3, "coefficients": ["1", "60", "93", "8"]}\n',
    ),
    (
        ("descent", "verify", "--d-max", "2", "--n-max", "2"),
        "suite,cases_run,cases_failed\ndescent,45,0\n",
        '{"reports": [{"suite": "descent", "cases_run": 45, "cases_failed": 0, "failures": []}], "total_cases": 45, "total_failed": 0}\n',
    ),
    (
        ("geometry", "mc", "--d", "2", "--scale", "2", "--lower", "1", "--upper", "3", "--samples", "500", "--seed", "7"),
        "estimate,736/125\nstandard_error,308024/1953125\nhits,368\nsamples,500\nseed,7\n",
        '{"d": 2, "scale": 2, "lower": "1", "upper": "3", "estimate": "736/125", "standard_error": "308024/1953125", "hits": 368, "samples": 500, "seed": 7}\n',
    ),
    (
        ("geometry", "minkowski", "--d", "3", "--k", "1"),
        "4,12,6,1\n",
        '{"d": 3, "k": 1, "coefficients": ["4", "12", "6", "1"]}\n',
    ),
    (
        ("verify", "--all", "--d-max", "2", "--n-max", "1", "--samples", "200"),
        "suite,cases_run,cases_failed\nbspline,331,0\neulerian,19,0\ndescent,25,0\ngeometry,41,0\nmonte-carlo,24,0\n",
        '{"reports": [{"suite": "bspline", "cases_run": 331, "cases_failed": 0, "failures": []}, {"suite": "eulerian", "cases_run": 19, "cases_failed": 0, "failures": []}, {"suite": "descent", "cases_run": 25, "cases_failed": 0, "failures": []}, {"suite": "geometry", "cases_run": 41, "cases_failed": 0, "failures": []}, {"suite": "monte-carlo", "cases_run": 24, "cases_failed": 0, "failures": []}], "total_cases": 440, "total_failed": 0}\n',
    ),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, csv_out, json_out",
    GOLDEN_STDOUT,
    ids=["-".join(w for w in g[0][:2] if not w.startswith("--")) for g in GOLDEN_STDOUT],
)
def test_golden_stdout(capsys, argv, csv_out, json_out, fmt):
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (csv_out if fmt == "csv" else json_out)


def test_eulerian_row_csv(capsys):
    code, out = run_cli(capsys, "eulerian", "row", "--d", "4", "--route", "brute", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1,1", "2,11", "3,11", "4,1"]


def test_eulerian_row_routes_agree(capsys):
    _, spline = run_cli(capsys, "eulerian", "row", "--d", "6", "--route", "spline")
    _, brute = run_cli(capsys, "eulerian", "row", "--d", "6", "--route", "brute")
    assert spline == brute


def test_eulerian_refined_json(capsys):
    code, out = run_cli(capsys, "eulerian", "refined", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [["1", "0"], ["0", "1"]]


def test_descent_table_default_route(capsys):
    code, out = run_cli(capsys, "descent", "table", "--d", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,6", "2,1"]


def test_descent_table_json_checks(capsys):
    code, out = run_cli(capsys, "descent", "table", "--d", "3", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["values"] == ["1", "23", "23", "1"]
    assert payload["checks"] == {"conservation": True, "log_concave": True}


def test_descent_poly(capsys):
    code, out = run_cli(capsys, "descent", "poly", "--d", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "1,13,4"


def test_bspline_eval_routes(capsys):
    for route in ("explicit", "recurrence"):
        code, out = run_cli(capsys, "bspline", "eval", "--d", "3", "--x", "3/2", "--route", route)
        assert code == 0
        assert out.strip() == "3/4"


def test_exact_results_past_the_int_digit_limit_print_every_digit(capsys):
    # The value's numerator and denominator run past Python's default limit
    # of 4300 digits for int <-> str conversion.
    limit = sys.get_int_max_str_digits()
    value = splinecore.bspline_eval_explicit(3000, Fraction(1, 3))
    assert value.denominator > 10**4300
    for fmt in ("csv", "json"):
        code, out = run_cli(capsys, "bspline", "eval", "--d", "3000", "--x", "1/3", "--format", fmt)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # restored on return
        text = out.strip() if fmt == "csv" else json.loads(out)["value"]
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational(text) == value
        finally:
            sys.set_int_max_str_digits(limit)


def test_bspline_piece(capsys):
    code, out = run_cli(capsys, "bspline", "piece", "--d", "2", "--j", "1")
    assert code == 0
    assert out.strip() == "2,-1"


def test_bspline_integrate(capsys):
    code, out = run_cli(capsys, "bspline", "integrate", "--d", "3", "--a", "1", "--b", "2")
    assert code == 0
    assert out.strip() == "2/3"


def test_geometry_minkowski(capsys):
    code, out = run_cli(capsys, "geometry", "minkowski", "--d", "2", "--k", "1")
    assert code == 0
    assert out.strip() == "1,4,1"


def test_geometry_mc_fields(capsys):
    code, out = run_cli(
        capsys,
        "geometry", "mc", "--d", "2", "--scale", "1",
        "--lower", "0", "--upper", "2", "--samples", "100", "--seed", "9",
    )
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.splitlines())
    assert lines["estimate"] == "2"  # whole cube, normalized volume 2!
    assert lines["standard_error"] == "0"
    assert lines["hits"] == "100"


def test_csv_and_json_carry_the_same_numbers(capsys):
    _, csv_out = run_cli(capsys, "eulerian", "row", "--d", "5")
    _, json_out = run_cli(capsys, "eulerian", "row", "--d", "5", "--format", "json")
    csv_values = [line.split(",")[1] for line in csv_out.splitlines()]
    assert json.loads(json_out)["values"] == csv_values


def test_verify_subcommands_pass(capsys):
    code, out = run_cli(capsys, "eulerian", "verify", "--d-max", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["total_failed"] == 0
    code, out = run_cli(capsys, "descent", "verify", "--d-max", "4", "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["total_failed"] == 0


def test_sweep_defaults_are_the_verify_config_defaults():
    parse = cli.build_parser().parse_args
    a = parse(["verify", "--all"])
    assert VerifyConfig(d_max=a.d_max, n_max=a.n_max, budget=a.budget, mc_samples=a.samples) == VerifyConfig()
    a = parse(["descent", "verify"])
    assert (a.d_max, a.n_max, a.budget) == (VerifyConfig.d_max, VerifyConfig.n_max, VerifyConfig.budget)
    assert parse(["eulerian", "verify"]).d_max == VerifyConfig.d_max


def test_budget_violation_exits_2(capsys):
    code = main(["eulerian", "row", "--d", "12", "--route", "brute"])
    captured = capsys.readouterr()
    assert code == 2
    assert "budget" in captured.err


def test_brute_budget_flag(capsys):
    for argv in (
        ["descent", "table", "--d", "3", "--n", "3", "--route", "brute", "--budget", "10"],
        ["eulerian", "row", "--d", "8", "--route", "brute", "--budget", "10"],
        ["eulerian", "refined", "--d", "3", "--route", "brute", "--budget", "23"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "budget" in captured.err and captured.out == "", argv


def test_a_brute_enumeration_past_int64_ranks_exits_2_without_a_traceback():
    argv = ("descent", "table", "--d", "1", "--n", str(2**63), "--route", "brute", "--budget", "9" * 20)
    proc = subprocess.run([sys.executable, "-m", "splinecomb", *argv], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_only_the_leaves_that_may_enumerate_take_a_budget(capsys):
    leaves = cli._leaves()
    takes_budget = {path for path, leaf in leaves.items() if "--budget" in dict(leaf.arguments)}
    assert takes_budget == {
        "eulerian row", "eulerian refined", "eulerian verify", "descent table", "descent verify", "verify"
    }
    valid = {
        "bspline eval": ["--d", "3", "--x", "1"],
        "bspline piece": ["--d", "3", "--j", "1"],
        "bspline integrate": ["--d", "3", "--a", "0", "--b", "1"],
        "descent poly": ["--d", "3", "--n", "2"],
        "geometry mc": ["--d", "2", "--scale", "1", "--lower", "0", "--upper", "1", "--samples", "5", "--seed", "1"],
        "geometry minkowski": ["--d", "3", "--k", "1"],
        "descent margins": ["--d-max", "3", "--n-max", "2"],
        "geometry sweep": ["--d-max", "1", "--n-max", "1", "--dilated-d-max", "1", "--samples", "50"],
    }
    assert set(valid) == set(leaves) - takes_budget
    for path, args in valid.items():
        argv = [*path.split(), *args]
        assert main(argv) == 0, argv
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "5"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget" in captured.err, argv


def test_failed_verification_exits_1(capsys, monkeypatch):
    failing = VerifyReport(suite="demo", cases_run=2, failures=(("case", "1", "2"),))
    passing = VerifyReport(suite="other", cases_run=1, failures=())
    monkeypatch.setattr(verify, "verify_all", lambda config: [passing, failing])
    code, out = run_cli(capsys, "verify", "--all", "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["total_failed"] == 1
    assert payload["reports"][1]["failures"] == [{"case": "case", "expected": "1", "actual": "2"}]
    monkeypatch.setattr(verify, "verify_all", lambda config: [passing])
    assert run_cli(capsys, "verify", "--all") == (0, "suite,cases_run,cases_failed\nother,1,0\n")


_SMALL_SWEEP = ("geometry", "sweep", "--d-max", "2", "--n-max", "1", "--dilated-d-max", "1", "--samples", "200")


def test_geometry_sweep(capsys):
    code = main(list(_SMALL_SWEEP))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "# excursions: 0\n")
    header, *rows = captured.out.splitlines()
    assert header == "slice,seed,exact,estimate,standard_error,within_4_sigma"
    # 3 unit slabs (d <= 2) and 2 dilated ones (d = 1, n = 2), each at 3 default seeds
    assert len(rows) == 5 * 3
    assert [row.split(",")[0] for row in rows[::3]] == [
        "unit d=1 k=1",
        "unit d=2 k=1",
        "unit d=2 k=2",
        "dilated d=1 n=2 k=0",
        "dilated d=1 n=2 k=1",
    ]


def test_geometry_sweep_prints_the_seed_the_generator_ran_from(capsys):
    # -5 and 2^64 - 5 seed the same stream, as in `geometry mc`.
    outputs = []
    for seeds in ("-5", "18446744073709551611"):
        code, out = run_cli(capsys, *_SMALL_SWEEP, f"--seeds={seeds}")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert {row.split(",")[1] for row in outputs[0].splitlines()[1:]} == {"18446744073709551611"}


def test_geometry_sweep_exits_1_on_two_excursions_and_prints_every_row(capsys, monkeypatch):
    # Move the first two estimates of the first seed far outside their band.
    volumes = geometry.mc_volumes

    def shifted(specs, samples, seed):
        estimates = list(volumes(specs, samples, seed))
        if seed == VerifyConfig.mc_seeds[0]:
            estimates[:2] = [dataclasses.replace(est, estimate=est.estimate + 1) for est in estimates[:2]]
        return estimates

    monkeypatch.setattr(geometry, "mc_volumes", shifted)
    code = main(list(_SMALL_SWEEP))
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "# excursions: 2\n")
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 5 * 3
    assert [row.rsplit(",", 1)[1] for row in rows].count("NO") == 2


def test_geometry_sweep_defaults_are_the_verify_config_defaults(capsys, monkeypatch):
    configs = []
    monkeypatch.setattr(verify, "mc_pairs", lambda config: configs.append(config) or [])
    assert main(["geometry", "sweep"]) == 0
    assert configs == [VerifyConfig()]
    capsys.readouterr()


# Each sweep leaf with every flag away from its default, and the config it must run.
SWEEP_CONFIGS = {
    "eulerian verify": (("--d-max", "2", "--budget", "7"), VerifyConfig(d_max=2, budget=7)),
    "descent verify": (
        ("--d-max", "2", "--n-max", "1", "--budget", "7"),
        VerifyConfig(d_max=2, n_max=1, budget=7),
    ),
    "geometry sweep": (
        ("--d-max", "2", "--dilated-d-max", "1", "--n-max", "1", "--samples", "50", "--seeds", "5,-6"),
        VerifyConfig(d_max=2, n_max=1, mc_samples=50, mc_seeds=(5, -6), mc_dilated_d_max=1),
    ),
    "verify": (
        ("--all", "--d-max", "2", "--n-max", "1", "--samples", "50", "--budget", "7"),
        VerifyConfig(d_max=2, n_max=1, budget=7, mc_samples=50),
    ),
}


@pytest.mark.parametrize("path", SWEEP_CONFIGS)
def test_every_sweep_flag_reaches_its_config_field(capsys, monkeypatch, path):
    args, expected = SWEEP_CONFIGS[path]
    argv = [*path.split(), *args]
    leaf = cli._leaves()[path]
    assert {arg for arg in args if arg.startswith("--")} == {flag for flag, _ in leaf.arguments}
    parsed = cli.build_parser().parse_args(argv)
    for flag, options in leaf.arguments:
        if "default" in options:
            assert getattr(parsed, flag[2:].replace("-", "_")) != options["default"], flag
    configs = []
    report = VerifyReport(suite="demo", cases_run=1, failures=())
    results = {"verify_eulerian": report, "verify_descent": report, "verify_all": [report], "mc_pairs": []}
    for name, result in results.items():
        monkeypatch.setattr(verify, name, lambda config, result=result: configs.append(config) or result)
    assert main(argv) == 0
    assert configs == [expected]
    capsys.readouterr()


def test_descent_margins(capsys):
    code, out = run_cli(capsys, "descent", "margins", "--d-max", "3", "--n-max", "2")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "d,n,min_margin,min_normalized_margin"
    assert [tuple(row.split(",")[:2]) for row in rows] == [("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")]


# (leaf, argv, the refusal argparse prints for the value).
SWEEP_USAGE_ERRORS = [
    ("geometry sweep", ("--samples", "0"), "must be >= 1, got 0"),
    ("geometry sweep", ("--d-max", "0"), "must be >= 1, got 0"),
    ("geometry sweep", ("--n-max", "-1"), "must be >= 1, got -1"),
    ("geometry sweep", ("--dilated-d-max", "0"), "must be >= 1, got 0"),
    ("geometry sweep", ("--seeds", "1,x"), "must be comma-separated integers, got '1,x'"),
    ("descent margins", ("--n-max", "0"), "must be >= 1, got 0"),
    ("descent margins", ("--d-max", "1"), "must be >= 2, got 1"),
]


# (leaf, argv, the refusal argparse prints for the value).  Python's int()
# reads each of these texts as a number, but an integer flag takes only
# decimal text, as a rational flag does.
NON_DECIMAL_USAGE_ERRORS = [
    usage
    for text in ("1_0", "+3", " 3", "\u0663")
    for usage in (
        ("bspline piece", ("--d", text, "--j", "0"), f"invalid integer value: {text!r}"),
        ("bspline piece", ("--j", text, "--d", "3"), f"invalid integer value: {text!r}"),
        ("geometry mc", ("--seed", text), f"invalid integer value: {text!r}"),
        ("geometry sweep", ("--seeds", text), f"must be comma-separated integers, got {text!r}"),
        ("geometry sweep", ("--seeds", f"{text},2"), f"must be comma-separated integers, got {text + ',2'!r}"),
    )
]


# (leaf, argv, the refusal argparse prints): a rational flag takes exactly
# the text of numcore.parse_rational, a trailing newline refused too.
RATIONAL_USAGE_ERRORS = [
    ("bspline eval", ("--x", "3/2\n", "--d", "3"), "invalid rational value: '3/2\\n'"),
    ("bspline eval", ("--x", "1.5", "--d", "3"), "invalid rational value: '1.5'"),
    ("bspline integrate", ("--b", "1/0", "--d", "3", "--a", "0"), "invalid rational value: '1/0'"),
    (
        "geometry mc",
        ("--upper", "1\n", "--d", "2", "--scale", "1", "--lower", "0", "--samples", "10", "--seed", "1"),
        "invalid rational value: '1\\n'",
    ),
]


def _assert_usage_error(capsys, argv, flag, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize(
    "path, args, message",
    SWEEP_USAGE_ERRORS,
    ids=[f"{path.replace(' ', '-')}-args{i}" for i, (path, *_) in enumerate(SWEEP_USAGE_ERRORS)],
)
def test_empty_or_invalid_sweeps_are_usage_errors(capsys, path, args, message):
    _assert_usage_error(capsys, [*path.split(), *args], args[0], message)


@pytest.mark.parametrize(
    "path, args, message",
    NON_DECIMAL_USAGE_ERRORS,
    ids=[f"{args[0]}={args[1]!r}" for _, args, _ in NON_DECIMAL_USAGE_ERRORS],
)
def test_integer_flags_refuse_non_decimal_text(capsys, path, args, message):
    _assert_usage_error(capsys, [*path.split(), *args], args[0], message)


@pytest.mark.parametrize(
    "path, args, message",
    RATIONAL_USAGE_ERRORS,
    ids=[f"{args[0]}={args[1]!r}" for _, args, _ in RATIONAL_USAGE_ERRORS],
)
def test_rational_flags_refuse_text_outside_the_grammar(capsys, path, args, message):
    _assert_usage_error(capsys, [*path.split(), *args], args[0], message)


def test_every_integer_flag_words_malformed_text_alike(capsys):
    refusals = []
    for args in (("--d", "x", "--j", "0"), ("--d", "3", "--j", "x")):
        with pytest.raises(SystemExit):
            main(["bspline", "piece", *args])
        refusals.append(capsys.readouterr().err.splitlines()[-1])
    assert refusals == [
        f"splinecomb bspline piece: error: argument {flag}: invalid integer value: 'x'" for flag in ("--d", "--j")
    ]


def _actions(parser):
    """Every action of a parser and of the subparsers below it."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from _actions(subparser)


def test_no_flag_parses_integers_with_bare_int():
    # A flag with type=int would read "1_0", "+3" and " 3" as numbers, and
    # one with type=parse_rational would word its refusal after that function.
    actions = list(_actions(cli.build_parser()))
    assert {"d", "j", "k", "scale", "seed", "seeds", "budget", "x", "lower"} <= {action.dest for action in actions}
    assert [action.option_strings for action in actions if action.type in (int, parse_rational)] == []
    # Every number flag reads the CLI's integer or rational type.
    types = {action.type.__name__ for action in actions if action.type is not None}
    assert types == {"integer", "rational", "_seed_list"}


def test_top_level_help_is_for_users():
    text = cli.build_parser().format_help()
    assert re.findall(r"(?<!\w)_\w+", text) == []
    assert "Exit codes" in text and "p/q" in text


def test_readme_cli_block_names_every_leaf():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    paths = []
    for line in block.splitlines():
        program, *words = line.split()
        assert program == "splinecomb", line
        paths.append(" ".join(itertools.takewhile(str.isalpha, words)))
    assert sorted(paths) == sorted(cli._leaves())


def _readme_table(readme: str, header: str) -> list[list[str]]:
    """The body rows of the README table under `header`, as lists of cells."""
    lines = readme.split(f"\n{header}\n", 1)[1].splitlines()[1:]  # past the |---| line
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_route_tables_and_cli_block_name_every_route_in_order():
    # Routes get added and swapped; this catches a README table left stale.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    expected = [
        ("B-spline value", list(splinecore.EVAL_ROUTES)),
        ("Eulerian row", list(eulerian.ROW_ROUTES)),
        ("refined triangle", list(eulerian.REFINED_ROUTES)),
        ("descent table", list(descent.TABLE_ROUTES)),
    ]
    tables = _readme_table(readme, "| family | table | routes |")
    assert [(family, routes.split(", ")) for family, _, routes in tables] == expected
    formulas = {}
    for family, route, *_ in _readme_table(readme, "| family | route | formula | primitives |"):
        formulas.setdefault(family, []).append(route)
    assert list(formulas.items()) == expected
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    cli_routes = []
    for line in block.splitlines():
        if match := re.search(r"--route ([\w|]+)", line):
            cli_routes.append((" ".join(line.split()[1:3]), match[1].split("|")))
    leaves = ["bspline eval", "eulerian row", "eulerian refined", "descent table"]
    assert cli_routes == [(leaf, routes) for leaf, (_, routes) in zip(leaves, expected)]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["eulerian", "row"])  # missing --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bspline", "eval", "--d", "3", "--x", "1.5"])  # not a rational literal
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --all is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eulerian", "row", "--d", "0"])  # dimensions are positive
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eulerian", "verify", "--d-max", "0"])  # an empty sweep is not a pass
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["descent", "table", "--d", "3", "--n", "2", "--budget", "0"])  # budgets are positive
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["descent", "table", "--d", "3", "--n", "2", "--budget=-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--samples", "0"])  # sample counts are positive
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bspline", "eval", "--d", "3", "--x", "1", "--budget", "5"])  # nothing to enumerate
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bspline", "eval", "--d", "1", "--x=--"])
    assert exc.value.code == 2


def test_invalid_slice_exits_2(capsys):
    code = main(
        ["geometry", "mc", "--d", "2", "--scale", "1", "--lower", "3", "--upper", "1",
         "--samples", "10", "--seed", "1"]
    )
    assert code == 2
    assert "slab" in capsys.readouterr().err
    code = main(["bspline", "piece", "--d", "2", "--j", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "piece index" in captured.err and captured.out == ""


def test_cli_output_is_byte_identical_across_runs():
    argv = [
        sys.executable, "-m", "splinecomb.cli",
        "geometry", "mc", "--d", "2", "--scale", "2",
        "--lower", "1", "--upper", "3", "--samples", "20000", "--seed", "7",
        "--format", "json",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["samples"] == 20000


# Runs `python -m splinecomb` with the given argv, then prints on stderr
# whether numpy was imported.
_NUMPY_PROBE = """
import runpy, sys
try:
    runpy.run_module("splinecomb", run_name="__main__", alter_sys=True)
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""


def test_numpy_is_imported_only_by_the_counter_and_the_vector_oracle():
    imported = subprocess.run(
        [sys.executable, "-c", "import sys, splinecomb; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert imported.stdout == "False\n"
    row = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, "eulerian", "row", "--d", "5"], capture_output=True, text=True
    )
    assert (row.returncode, row.stdout, row.stderr) == (0, "1,1\n2,26\n3,66\n4,26\n5,1\n", "False\n")
    mc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, "geometry", "mc", "--d", "2", "--scale", "2", "--lower", "1",
         "--upper", "3", "--samples", "20000", "--seed", "7", "--format", "json"],
        capture_output=True, text=True,
    )
    assert (mc.returncode, mc.stderr) == (0, "True\n")
    assert mc.stdout == (
        '{"d": 2, "scale": 2, "lower": "1", "upper": "3", "estimate": "7537/1250", '
        '"standard_error": "6093214423/250000000000", "hits": 15074, "samples": 20000, "seed": 7}\n'
    )
    # 7! = 5040 objects stay below the vector floor, on the scalar loop.
    small = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, "eulerian", "row", "--d", "7", "--route", "brute"],
        capture_output=True, text=True,
    )
    assert (small.returncode, small.stdout, small.stderr) == (
        0, "1,1\n2,120\n3,1191\n4,2416\n5,1191\n6,120\n7,1\n", "False\n"
    )
    # 3^6 * 6! = 524880 objects reach it.
    large = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, "descent", "table", "--d", "6", "--n", "3", "--route", "brute"],
        capture_output=True, text=True,
    )
    assert (large.returncode, large.stdout, large.stderr) == (
        0, "0,1\n1,4089\n2,88998\n3,262438\n4,154113\n5,15177\n6,64\n", "True\n"
    )


# Runs `python -m splinecomb` with the given argv, then prints on stderr the
# splinecomb submodules it loaded, and "json" if it loaded json.
_MODULES_PROBE = """
import runpy, sys
try:
    runpy.run_module("splinecomb", run_name="__main__", alter_sys=True)
finally:
    loaded = [m.split(".")[-1] for m in sys.modules if m.startswith("splinecomb.") or m == "json"]
    print(" ".join(sorted(loaded)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("bspline", "eval", "--d", "3", "--x", "1"), {"eulerian", "descent", "geometry", "verify"}),
        (("eulerian", "row", "--d", "3"), {"descent", "geometry", "verify"}),
        (("descent", "table", "--d", "3", "--n", "2"), {"geometry", "verify"}),
        (
            ("geometry", "mc", "--d", "2", "--scale", "2", "--lower", "1", "--upper", "3", "--samples", "500", "--seed", "7"),
            {"descent", "eulerian", "verify"},
        ),
    ],
    ids=["bspline eval", "eulerian row", "descent table", "geometry mc"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_leaf_loads_only_the_modules_it_runs(argv, unloaded, fmt):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, *argv, "--format", fmt], capture_output=True, text=True
    )
    loaded = set(proc.stderr.split())
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    assert {"cli", "splinecore", "polyring"} <= loaded
    assert loaded & unloaded == set()
    # json is loaded to print json, and for nothing else.
    assert ("json" in loaded) == (fmt == "json")


def test_importing_the_cli_loads_polyring():
    # The benchmark's traced CLI child imports splinecomb.cli and then installs
    # its tracer, which wraps Polynomial from sys.modules["splinecomb.polyring"].
    code = "import sys, splinecomb.cli; print('splinecomb.polyring' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "True\n"


# Runs `python -m splinecomb` with the given argv.  With "fail" first, verify
# --all instead reports 5000 failures, so its verdict is 1 and its csv fills
# more than a pipe's buffer.
_CLOSED_PIPE_PROBE = """
import runpy, sys
from splinecomb import verify
if sys.argv[1] == "fail":
    del sys.argv[1]
    failures = tuple((f"case {i}", "1", "2") for i in range(5000))
    verify.verify_all = lambda config: [verify.VerifyReport("demo", 5000, failures)]
runpy.run_module("splinecomb", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, unbuffered, first_line, status",
    [
        # 143 kB of csv, well past the pipe's buffer.
        (("eulerian", "refined", "--d", "50"), "1", b"0,0,1\n", 0),
        (("eulerian", "refined", "--d", "50"), "", b"0,0,1\n", 0),
        (("fail", "verify", "--all"), "1", b"suite,cases_run,cases_failed\n", 1),
    ],
    ids=["unbuffered", "buffered", "failed-verdict"],
)
def test_a_reader_that_closes_stdout_early_gets_no_traceback(argv, unbuffered, first_line, status):
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLOSED_PIPE_PROBE, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (status, b"")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "splinecomb.cli", "bspline", "eval", "--d", "4", "--x", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2/3"


_JUNK_RATIONALS = ("1.5", "abc", "", "1/", "/2", " 3", "0x10", "1e3", "--", "1/0", "2/-3", "3/2\n")
_JUNK_INTEGERS = ("1_0", "+3", " 3", "\u0663", "3\n", "1/1", "abc", "", "0x10", "1e3", "--")


def _mostly(usual, rare):
    """`usual` nine draws in ten, `rare` otherwise.  The roll that picks
    `rare` is the largest, so hypothesis's simplest examples are usual."""
    return st.integers(0, 9).flatmap(lambda roll: rare if roll == 9 else usual)


def _rationals():
    well_formed = st.one_of(
        st.integers(-2, 12).map(str),
        st.tuples(st.integers(-2, 36), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )
    return _mostly(well_formed, st.sampled_from(_JUNK_RATIONALS))


def _integers(usual, out_of_range=st.integers(-2, 0)):
    return _mostly(usual, st.one_of(out_of_range, st.sampled_from(_JUNK_INTEGERS)))


def _flag_values(flag: str, options: dict):
    """Mostly values the flag accepts, so most argvs run their command;
    now and then one that is out of range or malformed."""
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is cli._RATIONAL:
        return _rationals()
    if flag == "--seed":
        return _integers(st.integers(-(2**70), 2**70), st.nothing())
    if flag == "--samples":
        return _integers(st.integers(1, 2000))
    if flag == "--budget":
        return _integers(st.integers(1, 10**4))
    return _integers(st.integers(1, 6))


def test_the_argv_strategy_draws_rational_text_for_every_rational_flag():
    # _flag_values recognises a rational flag by its type; were the type
    # renamed, the property test below would silently draw integers there.
    rational_flags = [
        flag
        for leaf in cli._leaves().values()
        for flag, options in leaf.arguments
        if options.get("type") is cli._RATIONAL
    ]
    assert rational_flags == ["--x", "--a", "--b", "--lower", "--upper"]


@st.composite
def _argvs(draw):
    leaves = cli._leaves()
    path = draw(st.sampled_from(sorted(leaves)))
    argv = path.split()
    for flag, options in leaves[path].arguments:
        if draw(st.integers(0, 9)) == 9:  # now and then leave a flag out
            continue
        if options.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(_flag_values(flag, options))}")
    # json first, so hypothesis's simplest examples reach the json checks
    argv.append(f"--format={draw(st.sampled_from(('json', 'csv')))}")
    return argv


@settings(max_examples=40, deadline=None)
@given(_argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 0 and "--format=json" in argv:
        for text in _json_leaves(json.loads(out.getvalue())):
            if re.match(r"-?[0-9]", text):  # a number, not a route or suite name
                assert format_rational(parse_rational(text)) == text, (argv, text)


def _json_leaves(value):
    """Every string of a json payload; a float anywhere fails."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _json_leaves(item)
    elif isinstance(value, str):
        yield value
    else:
        assert not isinstance(value, float), value
