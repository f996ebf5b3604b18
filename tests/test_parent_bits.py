"""The parent-bit check (``tests/parent_bits.py``) as a tier-1 test, and
the mutations it and the paper reference must catch.

The check runs once per module; each probe group passes or fails as its
own test, so a failure names the group whose bytes moved.

Each row of ``MUTATIONS`` edits one line of a copy of ``src/`` and names
the check that must fail on it: probe groups, whose bytes must move
against the working tree's, or one test against ``tests/reference/``,
run by pytest on the copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import parent_bits

SRC = parent_bits.REPO / "src"
TESTS = parent_bits.REPO / "tests"

#: (what, file under src/repro, line as shipped, mutant, the check that fails)
MUTATIONS = [
    ("the step's two-row combination on a Fortran-ordered copy", "core/optimizer.py",
     "weights @ dz, weights", "weights @ np.asfortranarray(dz), weights", ("shapes",)),
    ("the gap dot on reversed copies", "core/optimizer.py",
     "first.dot(second)", "first[::-1].dot(second[::-1])", ("decide",)),
    ("stack_loss_rows padding with 1", "core/loss_estimator.py",
     'ljust(width, b"\\0")', 'ljust(width, b"\\1")', ("probe_window",)),
    ("the duplicate rule i > j", "core/extreme_points.py",
     "(order[:, None] < order)", "(order[:, None] > order)", ("non_dominated_rows",)),
    ("the message reading the accepted trial's residual", "core/optimizer.py",
     "error = np.abs(res)  #", "error = np.abs(current.res)  #", ("shapes",)),
    ("every direction forced to Case 1", "core/loss_estimator.py",
     "reached.any(axis=0) | clean", "reached.any(axis=0) | True",
     "core/test_loss_estimator.py::TestBatchEqualsTheReference"
     "::test_stacked_counts_at_every_count_width[80]"),
    ("a 1e-12 relative capacity change", "core/capacity.py",
     "(etx * cycle_s + idle)", "(etx * cycle_s + idle) * (1.0 + 1e-12)",
     "core/test_capacity.py::TestVectorEq6::test_the_vector_pass_is_the_scalar_model_bit_for_bit"
     "[1470-mac0]"),
]


@pytest.fixture(scope="module")
def base_check():
    return parent_bits.check()


@pytest.mark.parametrize("group", list(parent_bits.PROBES))
def test_the_base_commit_keeps_its_bits(base_check, group):
    how, moved = base_check
    if how is None:
        pytest.skip(f"parent bits: {moved[0]}")
    moved = [name for name in moved if name.split("/")[0] == group]
    assert not moved, f"{how}; moved: {moved} (a deliberate move goes in {parent_bits.MOVED.name})"


@pytest.fixture(scope="module")
def working_bits():
    return parent_bits.read_probes(parent_bits.start_probes(SRC))


@pytest.mark.parametrize("file, line, mutant, check", [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_the_mutation_is_caught(tmp_path, working_bits, file, line, mutant, check):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    text = (src / "repro" / file).read_text(encoding="utf-8")
    assert text.count(line) == 1, f"{file} no longer holds {line!r} once: update the row"
    (src / "repro" / file).write_text(text.replace(line, mutant), encoding="utf-8")
    if isinstance(check, tuple):
        mutated = parent_bits.read_probes(parent_bits.start_probes(src, check))
        assert any(working_bits[name] != bits for name, bits in mutated.items())
        return
    # The mutant's src first, then these tests; no conftest above tests/core
    # (the root one puts this tree's src first).
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--confcutdir={TESTS / 'core'}", str(TESTS / check)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)])),
        cwd=parent_bits.REPO, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 1 and "1 failed" in done.stdout, done.stdout + done.stderr
