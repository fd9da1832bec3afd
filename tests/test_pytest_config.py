"""The repository's pytest configuration reports every result."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(n):
    assert n < 0


def test_that_passes():
    pass


def test_that_warns():
    warnings.warn("a warning is still an error", RuntimeWarning)
'''


def test_failing_property_test_does_not_end_the_run(tmp_path):
    # Hypothesis's failure report can warn from inside a pytest hook, which
    # under "error" is an INTERNALERROR that hides every other result.
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="utf-8")
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
    ]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert "2 failed, 1 passed" in result.stdout.splitlines()[-1]
