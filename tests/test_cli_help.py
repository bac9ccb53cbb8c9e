"""--help at every level of the CLI, and its usage errors, byte for byte.

`cli_help_golden.json` holds, per argv, the exit code, stdout and stderr
that `cli.main` gave for it at 80 columns.  After a deliberate change to a
help string or an error message, rewrite the file with

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from splinecomb import cli

GOLDEN = Path(__file__).with_name("cli_help_golden.json")

USAGE_ERRORS = [
    ("eulerian", "rwo"),  # no such leaf
    ("eulerian", "row", "--d", "3", "--route", "nope"),  # no such route
    ("eulerian", "row"),  # --d is required
    ("bspline", "eval", "--d", "3", "--x", "1.5"),  # not a rational literal
]


def help_argvs() -> list[tuple[str, ...]]:
    """--help at the root, at each group and at each leaf."""
    paths = [tuple(path.split()) for path in cli._leaves()]
    groups = list(dict.fromkeys(path[:1] for path in paths if len(path) > 1))
    return [(*node, "--help") for node in [(), *groups, *paths]]


def capture(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_the_goldens_cover_every_level_and_each_usage_error():
    assert list(json.loads(GOLDEN.read_text())) == [" ".join(argv) for argv in help_argvs() + USAGE_ERRORS]
    assert len(help_argvs()) == 1 + 4 + 14


@pytest.mark.parametrize("argv", help_argvs() + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_the_goldens_byte_for_byte(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    goldens = {" ".join(argv): capture(argv) for argv in help_argvs() + USAGE_ERRORS}
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n")
    sys.exit(0)
