"""Command-line surface: grammars, formats, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import cli
from splinecomb.cli import main
from splinecomb.numcore import parse_rational


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


def test_failed_verification_exits_1(capsys):
    from splinecomb.cli import _emit_reports
    from splinecomb.verify import VerifyReport

    class Args:
        format = "json"

    failing = VerifyReport(
        suite="demo", cases_run=2, cases_failed=1, failures=(("case", "1", "2"),)
    )
    passing = VerifyReport(suite="other", cases_run=1, cases_failed=0, failures=())
    code = _emit_reports(Args(), [passing, failing])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["total_failed"] == 1
    assert payload["reports"][1]["failures"] == [{"case": "case", "expected": "1", "actual": "2"}]
    assert _emit_reports(Args(), [passing]) == 0
    capsys.readouterr()


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
    assert "support" in captured.err and captured.out == ""


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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "splinecomb.cli", "bspline", "eval", "--d", "4", "--x", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2/3"


_JUNK_RATIONALS = ("1.5", "abc", "", "1/", "/2", " 3", "0x10", "1e3", "--", "1/0", "2/-3")


def _rationals():
    return st.one_of(
        st.integers(-50, 50).map(str),
        st.tuples(st.integers(-50, 50), st.integers(1, 20)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
        st.sampled_from(_JUNK_RATIONALS),
    )


def _flag_values(flag: str, options: dict):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is parse_rational:
        return _rationals()
    if flag == "--seed":
        return st.integers(-(2**70), 2**70)
    if flag == "--samples":
        return st.integers(-2, 2000)
    return st.integers(-2, 8)


@st.composite
def _argvs(draw):
    leaves = cli._leaves()
    path = draw(st.sampled_from(sorted(leaves)))
    argv = path.split()
    for flag, options in leaves[path].arguments:
        if not draw(st.integers(0, 9)):  # now and then leave a flag out
            continue
        if options.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(_flag_values(flag, options))}")
    if draw(st.booleans()):
        argv.append(f"--budget={draw(st.integers(-2, 10**4))}")
    argv.append(f"--format={draw(st.sampled_from(('csv', 'json')))}")
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
