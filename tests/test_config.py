"""The test configuration itself: a failing example is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_is_reported_and_the_session_goes_on(tmp_path):
    # reporting the example imports libcst, whose DeprecationWarning the
    # ini's error::DeprecationWarning would turn into an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(_PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
