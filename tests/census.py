"""Which functions under ``src/repro`` do the entry points reach?

    python tests/census.py                  # run the entry points, print the census
    python tests/census.py --check          # exit 1 unless the verdict table matches

The entry points are what a user runs: every ``examples/*.py``, the
figure benchmarks (``benchmarks/test_*.py`` under ``pytest
--benchmark-disable``: pytest-benchmark's timed calls pause any profiler
it finds) and ``benchmarks/ledger/run.py --seconds 2 --runs 1``, which
runs every workload untraced and traced.  Each runs in a temporary
working directory with a ``sitecustomize.py`` on ``PYTHONPATH`` that
profiles every thread of every Python process (``sys.setprofile``,
``threading.setprofile``) and records the ``(file, co_firstlineno,
co_name)`` of each call into ``src/repro``; a process writes its set at
exit, and a forked drainer or pool worker through its ``os._exit``.

A ``def`` under ``src/repro`` (found with ``ast``) is reached when a
recorded call matches its name and its ``def`` line or, decorated, its
first decorator's line (where Python 3.11 puts ``co_firstlineno``).
Every unreached function has one row in ``census_verdicts.json`` saying
why it stays: ``--check`` fails on an unreached function without a row
and on a row naming a function that is reached or gone.  A ``robustness``
row may be reached: a clean run meets a fault now and then by its timing
(a drainer SIGTERMed mid-request resets its broker connection), so the
check prints such a row instead of failing on it.  A function reached by
nothing and kept by nothing is deleted, with its tests.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
VERDICTS = Path(__file__).with_name("census_verdicts.json")
#: Entry points run side by side: the ledger beside everything else.
LANES = 2

#: Why an unreached function stays; see ``docs/architecture.md``.
CATEGORIES = {
    "spec": "a value the experiment specs accept (deleted with a schema bump)",
    "robustness": "reached by a chaos, recovery or auth test, not by a clean run",
    "entry": "an entry point of its own",
    "protocol": "a Protocol or abstract method, or a dunder the language calls",
    "instrument": "a test, the paper reference, a probe or a golden regenerator uses it",
    "ledger": "the ledger's reference rows use it",
    "paper": "a paper quantity a planned experiment reports",
    "docs": "named in the documentation's usage",
}

HOOK = '''\
import atexit, json, os, sys, threading

_PREFIX = os.environ["REPRO_CENSUS_PREFIX"]
_OUT = os.environ["REPRO_CENSUS_OUT"]
_codes = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code  # held, so the id is never reused


def _dump():
    seen = sorted({
        (c.co_filename, c.co_firstlineno, c.co_name)
        for c in list(_codes.values()) if c.co_filename.startswith(_PREFIX)
    })
    path = os.path.join(_OUT, f"{os.getpid()}-{id(seen)}.json")
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f)
    os.replace(path + ".tmp", path)


_exit = os._exit


def _recorded_exit(code):
    try:
        _dump()
    finally:
        _exit(code)


os._exit = _recorded_exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


# ------------------------------------------------------------------ functions
def functions(package: Path = PACKAGE) -> dict[str, tuple[set[int], str, int]]:
    """``{"repro/<file>:<qualname>": ({def line, first decorator line},
    name, lines)}`` for every ``def`` under ``package``; ``lines`` runs
    from the ``def`` line to the last line of the body."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{rel}:{prefix}{child.name}"
                    if key in found:
                        raise ValueError(f"two defs are {key}: give one another name")
                    lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                    found[key] = (lines, child.name, child.end_lineno - child.lineno + 1)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def reached_keys(records, defs, package: Path = PACKAGE) -> set[str]:
    """The keys of ``defs`` that a recorded ``(file, line, name)`` matches."""
    by_site = {}
    for key, (lines, name, _) in defs.items():
        rel = key.split(":")[0]
        for line in lines:
            by_site[(rel, line, name)] = key
    keys = set()
    for filename, line, name in records:
        rel = Path(filename).resolve().relative_to(package.resolve().parent).as_posix()
        if (rel, line, name) in by_site:
            keys.add(by_site[(rel, line, name)])
    return keys


# --------------------------------------------------------------- entry points
def entry_points(work: Path) -> list[tuple[str, list[str]]]:
    """``(name, command)`` for every entry point, run with ``work`` as cwd."""
    python = sys.executable
    examples = [
        (f"examples/{path.name}", [python, str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    figures = sorted(str(path) for path in (REPO / "benchmarks").glob("test_*.py"))
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    ledger = [python, str(REPO / "benchmarks" / "ledger" / "run.py"), "--seconds", "2",
              "--runs", "1", "--out", str(work / "ledger.json")]
    return [*examples, ("figure benchmarks", pytest + figures), ("ledger", ledger)]


def run_hooked(entries=entry_points, package: Path = PACKAGE) -> list:
    """Run the ``(name, command)`` pairs of ``entries(work_dir)`` under
    the hook, ``LANES`` at a time, in that directory; return the recorded
    ``(file, first line, name)`` of every call into ``package``."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = Path(scratch)
        hook, out, work = scratch / "hook", scratch / "out", scratch / "work"
        for directory in (hook, out, work):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = dict(os.environ, REPRO_CENSUS_PREFIX=str(package), REPRO_CENSUS_OUT=str(out))
        env["PYTHONPATH"] = os.pathsep.join([str(hook), str(REPO / "src")])
        for name in ("REPRO_CACHE_DIR", "REPRO_BATCH_BACKEND", "REPRO_BROKER_URL"):
            env.pop(name, None)
        pending = entries(work)
        # The ledger is the longest: it starts first, the rest share a lane.
        pending.sort(key=lambda entry: entry[0] != "ledger")
        running, failed = [], []
        try:
            while pending or running:
                while pending and len(running) < LANES:
                    name, command = pending.pop(0)
                    print(f"census: running {name}", flush=True)
                    log = open(scratch / f"{len(pending)}.log", "w+")
                    running.append((name, log, subprocess.Popen(
                        command, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)))
                time.sleep(0.1)
                for entry in [entry for entry in running if entry[2].poll() is not None]:
                    running.remove(entry)
                    name, log, process = entry
                    if process.returncode:
                        log.seek(0)
                        failed.append(f"{name} exited {process.returncode}:\n{log.read()[-4000:]}")
                    log.close()
        finally:  # interrupted: leave no entry point running
            for _, log, process in running:
                process.kill()
                process.wait()
                log.close()
        if failed:
            raise RuntimeError("census: an entry point failed\n" + "\n".join(failed))
        records = set()
        for path in out.glob("*.json"):
            records.update(map(tuple, json.loads(path.read_text(encoding="utf-8"))))
    return sorted(records)


# -------------------------------------------------------------------- verdicts
def load_verdicts(path: Path = VERDICTS) -> dict[str, dict]:
    rows = json.loads(path.read_text(encoding="utf-8"))
    table = {row["function"]: row for row in rows}
    if len(table) != len(rows):
        raise ValueError(f"{path.name}: a function has two rows")
    return table


def row_problems(rows: dict[str, dict], defs) -> list[str]:
    """What is wrong with each row: its fields, its category, a ``def``
    that is gone, or its pointer.  A pointer is a file of the repository,
    with ``::test`` names where a test reaches the function; it may be the
    function's own module only for ``protocol``, is a named test under
    ``tests/`` for ``robustness``, a document for ``docs``, and names the
    function (or its class) for ``instrument``."""
    problems = []
    for key, row in rows.items():
        if set(row) != {"function", "category", "pointer", "why"}:
            problems.append(f"{key}: fields {sorted(row)}")
            continue
        category, (path, *tests) = row["category"], row["pointer"].split("::")
        target = REPO / path
        if category not in CATEGORIES:
            problems.append(f"{key}: unknown category {category!r}")
        elif key not in defs:
            problems.append(f"{key}: no such def")
        elif not target.is_file():
            problems.append(f"{key}: pointer {path} is not a file")
        elif path.startswith("src/") and category != "protocol":
            problems.append(f"{key}: only a protocol row may point into src/")
        elif category == "robustness" and not (path.startswith("tests/") and tests):
            problems.append(f"{key}: a robustness row must name the test that reaches it")
        elif category == "docs" and not (path.startswith("docs/") or path == "README.md"):
            problems.append(f"{key}: a docs row must point at docs/ or README.md")
        else:
            text = target.read_text(encoding="utf-8")
            names = key.split(":")[1].replace(".<locals>", "").split(".")
            if category == "instrument" and not any(name in text for name in names):
                problems.append(f"{key}: {path} does not name {'.'.join(names)}")
            problems += [f"{key}: {path} has no {test}" for test in tests
                         if not re.search(rf"^\s*(def|class) {re.escape(test)}\b", text, re.M)]
    return problems


def judge(reached: set[str], defs, rows: dict[str, dict]) -> list[str]:
    """Everything ``--check`` fails on."""
    problems = row_problems(rows, defs)
    unreached = set(defs) - reached
    problems += [f"{key}: unreached and no verdict row" for key in sorted(unreached - set(rows))]
    problems += [
        f"{key}: has a verdict row but is reached"
        for key in sorted(set(rows) & reached)
        if rows[key]["category"] != "robustness"
    ]
    return problems


def summary(reached: set[str], defs) -> str:
    unreached = set(defs) - reached
    return (f"{len(defs)} defs ({sum(d[2] for d in defs.values())} lines), "
            f"{len(unreached)} unreached ({sum(defs[k][2] for k in unreached)} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="judge the verdict table")
    args = parser.parse_args(argv)
    defs = functions()
    reached = reached_keys(run_hooked(), defs)
    print(f"census: {summary(reached, defs)}")
    if not args.check:
        rows = load_verdicts() if VERDICTS.exists() else {}
        for key in sorted(set(defs) - reached):
            verdict = rows.get(key, {}).get("category", "-")
            print(f"  {verdict:10s} {defs[key][2]:4d}  {key}")
        return 0
    rows = load_verdicts()
    for key in sorted(set(rows) & reached):
        if rows[key]["category"] == "robustness":
            print(f"  reached this run (a robustness path, timing): {key}")
    problems = judge(reached, defs, rows)
    print("".join(f"  {problem}\n" for problem in problems), end="")
    print("census: " + ("verdict table does not match" if problems else "every verdict holds"))
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
