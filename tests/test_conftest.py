"""The shared pytest setup keeps a failing property test from stopping
the run."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_failing_property_test_fails_alone(tmp_path):
    """Under the project's warning filters, a failing ``@given`` test gets
    an ordinary failure report and the test after it still runs."""
    (tmp_path / "test_sample.py").write_text(_SAMPLE)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(TESTS),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "conftest", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-q", "test_sample.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
