"""CI's warnings-as-errors steps still report a failing example.

Hypothesis's pytest plugin imports libcst while it writes a failure's
report, and libcst's ``mypy_extensions.TypedDict`` DeprecationWarning is an
error under ``-W error``: without CI's one narrow filter the falsifying
example is lost in an ``INTERNALERROR``.  The flags are read from
``ci.yml`` itself, so the step and this test cannot drift apart.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_false(n):
    assert n < 10
'''


def warning_flags() -> list[tuple[str, ...]]:
    """The ``-W`` options of each ``pytest`` command in ``ci.yml`` that
    turns every warning into an error, in order."""
    text = CI.read_text(encoding="utf-8").replace("\\\n", " ")
    found = set()
    for line in text.splitlines():
        if line.lstrip().startswith("#") or "pytest" not in line:
            continue
        if not re.search(r"-W error(\s|$)", line):
            continue
        words = shlex.split(line)
        found.add(tuple(f"-W{words[i + 1]}" for i, word in enumerate(words) if word == "-W"))
    return sorted(found)


def test_ci_has_warnings_as_errors_steps():
    assert warning_flags(), "no pytest -W error step in ci.yml"


@pytest.mark.parametrize("flags", warning_flags(), ids=" ".join)
def test_a_failing_hypothesis_test_reports_its_example(tmp_path, flags):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags,
         "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
