"""The experiment scripts run end to end at a tiny size and keep their CSV shape."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_mc_volume_sweep():
    result = run_script(
        "mc_volume_sweep.py", "--d-max", "2", "--n-max", "1", "--dilated-d-max", "1", "--samples", "200"
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
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


def test_log_concavity_margins():
    result = run_script("log_concavity_margins.py", "--d-max", "3", "--n-max", "2")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header == "d,n,min_margin,min_normalized_margin"
    assert [tuple(row.split(",")[:2]) for row in rows] == [("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")]


@pytest.mark.parametrize(
    "name, args",
    [
        ("mc_volume_sweep.py", ("--samples", "0")),
        ("mc_volume_sweep.py", ("--d-max", "0")),
        ("mc_volume_sweep.py", ("--n-max", "-1")),
        ("mc_volume_sweep.py", ("--dilated-d-max", "0")),
        ("mc_volume_sweep.py", ("--seeds", "1,x")),
        ("log_concavity_margins.py", ("--n-max", "0")),
        ("log_concavity_margins.py", ("--d-max", "1")),
    ],
)
def test_empty_or_invalid_sweeps_are_usage_errors(name, args):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
