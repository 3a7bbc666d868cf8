"""The repository's pytest configuration reports a failing test and runs on.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
hypothesis test fails, hypothesis's pytest plugin imports ``libcst``, whose
import warns that ``mypy_extensions.TypedDict`` is deprecated; as an error
that warning ends the whole session with ``INTERNALERROR``, and no later test
runs.  The configuration ignores that one warning, and this test holds it to
that on a probe run in a child process.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
