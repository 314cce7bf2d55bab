"""The project's pytest settings, run on a small test file in a child pytest."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.just(1))
@settings(database=None)
def test_property_fails(x):
    assert x == 0


def test_later_test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the warning filters of pyproject.toml a failing @given test is one failure, and the next test runs."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-rA", str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_pair.py::test_property_fails" in proc.stdout
    assert "PASSED test_pair.py::test_later_test_passes" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
