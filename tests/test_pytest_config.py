"""The repository's pytest settings report a failing hypothesis test as
one failure: the run goes on and the other tests still run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    if x >= 5:
        raise AssertionError("too large")


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    """When a ``@given`` test fails, hypothesis explains the failure,
    and that import warns; under ``filterwarnings = error`` the warning
    must not stop pytest with INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
