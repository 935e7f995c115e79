"""The repo's pytest configuration keeps a failing property test from ending the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import Phase, given, settings
from hypothesis import strategies as st


# generate only: shrinking and explaining the failure cost the run a second
@settings(database=None, max_examples=5, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_given_test_leaves_later_tests_running(tmp_path):
    # warnings are errors here; one raised in hypothesis's report hook for a
    # failing @given test used to stop the session with INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert run.returncode == 1
