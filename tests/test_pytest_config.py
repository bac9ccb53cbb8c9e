"""The repo's pytest settings report a failing property test and run on."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x < 0


    def test_plain_passes():
        pass
    """
)


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Under the same settings, a failing @given test is one failure, and
    # the test after it still runs.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout, output
