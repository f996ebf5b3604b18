"""The census tool (``tests/census.py``) on a package of its own, and its
verdict table against the source.

Running the census itself takes every example, figure benchmark and ledger
workload (minutes); CI runs ``python tests/census.py --check``.  Here the
hook runs one small script, and the table is checked for what needs no
run: well-formed rows, each naming a ``def`` that exists and pointing at a
file that names it.
"""

from __future__ import annotations

import sys

import census

PROBE = '''\
import functools
import os
import threading


def wrap(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


@wrap
def decorated():
    return 1


def in_thread():
    return 2


def in_fork():
    return 3


def never():
    return 4


def main():
    decorated()
    thread = threading.Thread(target=in_thread)
    thread.start()
    thread.join()
    child = os.fork()
    if child == 0:
        in_fork()
        os._exit(0)
    assert os.waitpid(child, 0)[1] == 0
'''


def test_the_hook_records_decorated_threaded_and_forked_calls(tmp_path):
    package = tmp_path / "probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(PROBE, encoding="utf-8")
    script = f"import sys; sys.path.insert(0, {str(tmp_path)!r}); import probe_pkg.mod; "
    script += "probe_pkg.mod.main()"
    records = census.run_hooked(
        lambda work: [("probe", [sys.executable, "-c", script])], package=package
    )
    defs = census.functions(package)
    assert census.reached_keys(records, defs, package) == {
        f"probe_pkg/mod.py:{name}"
        for name in ("wrap", "wrap.<locals>.wrapper", "decorated", "in_thread", "in_fork", "main")
    }
    assert set(defs) - census.reached_keys(records, defs, package) == {"probe_pkg/mod.py:never"}
    # Either the decorator's line or the def's matches a decorated function.
    assert len(defs["probe_pkg/mod.py:decorated"][0]) == 2


def test_every_verdict_row_is_well_formed_and_points_at_its_function():
    rows = census.load_verdicts()
    assert rows, "the verdict table is empty"
    assert census.row_problems(rows, census.functions()) == []


def test_the_functions_are_keyed_by_file_and_qualified_name():
    defs = census.functions()
    assert "repro/core/optimizer.py:RateOptimizer.solve" in defs
    assert "repro/experiment/broker.py:main" in defs
    lines, name, length = defs["repro/core/optimizer.py:RateOptimizer.solve"]
    assert name == "solve" and length >= 3 and len(lines) == 1


def test_only_a_robustness_row_may_be_reached():
    """A clean run can meet a fault by its timing; a reached row of any other
    category is stale."""
    defs = census.functions()
    rows = census.load_verdicts()
    robust = next(key for key, row in rows.items() if row["category"] == "robustness")
    spec = next(key for key, row in rows.items() if row["category"] == "spec")
    reached = set(defs) - set(rows)
    assert census.judge(reached | {robust}, defs, rows) == []
    assert census.judge(reached | {spec}, defs, rows) == [
        f"{spec}: has a verdict row but is reached"
    ]
    assert census.judge(reached - {"repro/core/optimizer.py:RateOptimizer.solve"}, defs, rows) == [
        "repro/core/optimizer.py:RateOptimizer.solve: unreached and no verdict row"
    ]
