"""A deleted mechanism stays deleted.

Each entry below names something a PR measured against the ledger (or
against its own oracle) and removed; CHANGES.md has the verdicts.  The
scan is plain text over ``src/`` — and, where "only inside this
function" is the rule, the syntax tree — so it runs wherever the tests
run instead of in a CI step nobody executes locally.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
QUEUE_COMMON = "repro/experiment/backends/queue_common.py"

#: (what came back, pattern, files it may not appear in, files exempt)
GONE = [
    (
        "a per-frame memo or default frame observer PR 18 deleted",
        r"_per_cache|_airtime_cache|_label_cache|LinkTracer",
        "**/*.py",
        (),
    ),
    (
        "a lease default read downstream of the envelope (PR 20)",
        r"default_lease_s\(\)|default_max_attempts\(\)",
        "**/*.py",
        (QUEUE_COMMON,),
    ),
    (
        "a second copy of a queue transition in the broker (PR 20)",
        r"_replay|_do_[a-z]+",
        "repro/experiment/broker.py",
        (),
    ),
    (
        "the per-window set intersection in the probe log (PR 21)",
        r"\.intersection\(range\(",
        "repro/net/probing.py",
        (),
    ),
    (
        "a frozenset per conflicting link pair (PR 21)",
        r"frozenset|_conflicts\b",
        "repro/core/interference.py",
        (),
    ),
    (
        "an environment variable choosing the event queue",
        r"REPRO_SIM_SCHEDULER|SCHEDULER_ENV",
        "**/*.py",
        (),
    ),
    (
        "the static analyzer the invariant tests replaced, or its suppression comment",
        r"repro-lint:|\brepro\.lint\b",
        "**/*.py",
        (),
    ),
]


@pytest.mark.parametrize("what, pattern, glob, exempt", GONE, ids=[entry[0] for entry in GONE])
def test_deleted_name_is_absent_from_src(what, pattern, glob, exempt):
    files = [
        path for path in sorted(SRC.glob(glob)) if path.relative_to(SRC).as_posix() not in exempt
    ]
    assert files, f"nothing matches {glob}: the guard guards nothing"
    found = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not found, f"{what} is back under src/:\n" + "\n".join(found)


def test_the_analyzer_package_is_gone():  # tests/invariants holds its rules
    assert not list((SRC / "repro" / "lint").glob("**/*.py"))


def test_the_log_fit_is_computed_for_reports_and_the_knee_once_per_length():
    """``np.polyfit`` (an SVD) and ``np.gradient`` left the per-series
    path in PR 21: the fit feeds ``ChannelLossEstimate.log_fit_coefficients``
    only, and the curvature search runs inside the ``lru_cache``d function
    of ``(Wmin, S)``."""
    allowed = {"polyfit": {"estimate_channel_loss_rate"}, "gradient": {"_knee_of_log_fit"}}
    tree = ast.parse((SRC / "repro/core/loss_estimator.py").read_text(encoding="utf-8"))
    seen: dict[str, set[str]] = {name: set() for name in allowed}
    for function in tree.body:
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and node.attr in allowed:
                seen[node.attr].add(getattr(function, "name", "<module>"))
    assert seen == allowed
    knee = next(node for node in tree.body if getattr(node, "name", "") == "_knee_of_log_fit")
    assert any("lru_cache" in ast.unparse(decorator) for decorator in knee.decorator_list)


def _src_trees():
    for path in sorted(SRC.glob("**/*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_slsqp_stays_deleted_and_scipy_stays_lazy():
    """PR 22 replaced the SLSQP solve with a numpy interior-point
    iteration: ``scipy.optimize.minimize`` and the string ``"SLSQP"`` are
    gone from ``src/`` (the parent's call referees from
    ``tests/core/_parent_oracles.py``), and what scipy remains - the LPs'
    ``linprog`` - is imported inside the function that calls it, so no
    ``import repro...`` and no proportional-fair solve loads it."""
    back, eager, lazy = [], [], []
    for name, tree in _src_trees():
        in_function = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Docstrings and comments may tell the history; code may not ask for it.
                if node.value.strip().upper() == "SLSQP":
                    back.append(f"{where}: the string {node.value!r}")
            if isinstance(node, ast.Attribute) and node.attr == "minimize":
                back.append(f"{where}: calls .minimize")
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if "minimize" in {alias.name for alias in node.names}:
                    back.append(f"{where}: imports minimize")
            if any(module.split(".")[0] == "scipy" for module in modules):
                (lazy if id(node) in in_function else eager).append(where)
    assert not back, "the deleted solver is back under src/:\n" + "\n".join(back)
    assert not eager, "scipy imported at module level under src/:\n" + "\n".join(eager)
    assert lazy, "no scipy import found at all: the guard guards nothing"


def test_local_drainers_have_one_spawn_path_and_it_is_the_fork_host():
    """PR 23 replaced the cold ``python -m repro.experiment.worker`` per
    drainer with forks of one warm host: ``queue_common`` starts exactly
    one kind of subprocess (the host) and the drainer command is worker
    arguments only - no interpreter prefix to run them cold with."""
    tree = ast.parse((SRC / QUEUE_COMMON).read_text(encoding="utf-8"))
    popens = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "subprocess.Popen"
    ]
    assert len(popens) == 1
    assert "--serve-forks" in ast.unparse(popens[0])
    [command] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_drainer_command"
    ]
    built = ast.unparse(command)
    assert "sys.executable" not in built and "'-m'" not in built


def test_the_heap_is_the_event_store_a_simulator_uses():
    """The default queue is the binary heap, whatever the environment
    says; the calendar is built only when a caller names it."""
    from repro.engine import Simulator

    assert Simulator().scheduler_kind == "heap"


#: What the scenario builders beside ``generated`` were made of.
SCENARIO_BUILDERS = (
    "random_multiflow_scenario", "starvation_scenario", "build_testbed_network",
    "hidden_terminal_radio", "traffic_seed", "MultiFlowScenario",
    "StarvationScenario", "_reject_unread", "_pick_demands",
)


def test_one_function_constructs_a_scenario_network():
    """``chain``, ``testbed``, ``random_multiflow`` and ``starvation`` are
    presets of ``generated``: ``repro.sim.scenarios`` and what it held are
    gone from the library, the benchmarks and the examples, and the
    registry constructs a ``MeshNetwork`` in one place."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.scenarios")
    root = SRC.parent
    pattern = re.compile(rf"\b({'|'.join(SCENARIO_BUILDERS)})\b")
    found = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((root / top).glob("**/*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)
    tree = ast.parse((SRC / "repro/experiment/registry.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "MeshNetwork"
    ]
    assert len(calls) == 1
