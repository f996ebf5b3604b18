"""Provably small: each package under ``src/repro`` stays under a ceiling
on its non-blank lines.

The ceilings are the counts the census left (``tests/census.py``: every
function no entry point reached and nothing else kept was deleted).  A
change that needs more lines raises its package's ceiling here in the
same commit and says in CHANGES.md, in a line of its own, what the lines
buy; a change that deletes lowers the ceiling to its new count, so the
room it made is not spent unseen.  Blank lines are free; comments and
docstrings count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
TOP_LEVEL = "(top level)"

#: Non-blank lines per subpackage of ``repro``; ``TOP_LEVEL`` is the
#: modules directly under it (``engine.py``, ``scheduler.py``, ...).
CEILINGS = {
    TOP_LEVEL: 716,
    "analysis": 186,
    "core": 1565,
    "experiment": 4766,
    "mac": 1052,
    "monitors": 303,
    "net": 772,
    "phy": 296,
    "sim": 1813,
    "transport": 473,
}


def non_blank_lines() -> dict[str, int]:
    counts: dict[str, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).parts
        package = parts[0] if len(parts) > 1 else TOP_LEVEL
        lines = path.read_text(encoding="utf-8").splitlines()
        counts[package] = counts.get(package, 0) + sum(1 for line in lines if line.strip())
    return counts


def test_every_package_has_a_ceiling():
    assert set(non_blank_lines()) == set(CEILINGS)


@pytest.mark.parametrize("package", sorted(CEILINGS))
def test_a_package_stays_under_its_ceiling(package):
    count = non_blank_lines().get(package, 0)
    assert count <= CEILINGS[package], (
        f"{package} has {count} non-blank lines, over its ceiling of {CEILINGS[package]}: "
        "delete as many, or raise the ceiling and say why in CHANGES.md"
    )
