"""The suite's own pytest settings, checked on a throwaway test run in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # Warnings are errors; a deprecation that hypothesis's reporting hook
    # triggers must not turn the report of a failure into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example: test_below_five(" in output
    assert "INTERNALERROR" not in output
