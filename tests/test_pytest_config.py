"""The pytest settings in pyproject.toml report a failing test rather than
abort the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # Hypothesis imports libcst to write the failing test's patch; with some
    # mypy_extensions versions that import warns, and the suite's
    # error::DeprecationWarning filter would turn the warning into an
    # INTERNALERROR that stops the session.
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, *argv, "test_fails.py"], cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
