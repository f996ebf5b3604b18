"""The determinism and atomic-IO invariants over ``src/``: one AST checker per rule,
mapping a parsed module to ``(line, message)`` pairs, scoped by :data:`RULES`.  Each
``fixtures/<code>/violation`` must fail its checker and each ``clean`` one pass; the
two bugs the repo shipped (``fixtures/history``), and one offending line added to a
real module, must fail under :data:`RULES`.
"""

from __future__ import annotations

import ast
import importlib.util
import json
from fnmatch import fnmatchcase
from functools import cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate_for_invariants", REPO / "tests/experiment/golden/regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


class Imports:
    """Each local name as a canonical dotted chain: ``np.random.seed``, ``npr.seed``
    and a from-imported ``seed`` all resolve to ``("numpy", "random", "seed")``."""

    def __init__(self, tree: ast.AST) -> None:
        self.bound: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:  # ``import numpy.random`` binds ``numpy``
                    module = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bound[alias.asname or module] = tuple(module.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.bound[alias.asname or alias.name] = (*node.module.split("."), alias.name)

    def resolve(self, node: ast.AST) -> tuple[str, ...] | None:
        """The chain of a name/attribute expression; ``None`` unless rooted in an import."""
        attrs: list[str] = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.bound:
            return self.bound[node.id] + tuple(attrs)
        return None


def _name(call: ast.Call) -> str | None:  # sorted(...) -> "sorted"
    return call.func.id if isinstance(call.func, ast.Name) else None


def _method(call: ast.Call) -> str | None:  # anything.iterdir() -> "iterdir"
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _calls(node: ast.AST, function: str | None = None):
    """Every call under ``node``, with the name of the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, function
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(child, child.name if is_def else function)


def builtin_hash(tree: ast.Module) -> list:
    """RPL101: builtin ``hash()`` outside ``__hash__`` is salted per process."""
    return [(call.lineno, "builtin hash() is salted per process; use zlib.crc32 or hashlib over "
             "stable bytes instead (the RNG-seeding bug in fixtures/history)")
            for call, function in _calls(tree) if _name(call) == "hash" and function != "__hash__"]


#: ``numpy.random`` names that touch no global state (the Generator era).
NP_RANDOM_SEEDED = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
                    "PCG64DXSM", "Philox", "SFC64", "MT19937"}


def seeded_random(tree: ast.Module) -> list:
    """RPL102 + RPL103: simulation draws from seeded generators, not global state or entropy."""
    imports, found = Imports(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
            seeded = {"Random"} if node.module == "random" else NP_RANDOM_SEEDED
            found += [(node.lineno, f"'from {node.module} import {alias.name}' binds process-"
                       "global RNG state; use a seeded random.Random / default_rng(SeedSequence)")
                      for alias in node.names if alias.name not in seeded]
        if not isinstance(node, ast.Call) or not (chain := imports.resolve(node.func)):
            continue
        if chain in (("random", "Random"), ("numpy", "random", "default_rng")) and not (
                node.args or node.keywords):
            found.append((node.lineno, f"{'.'.join(chain)}() without a seed draws OS entropy; "
                          "pass an explicit seed or SeedSequence"))
        elif len(chain) == 2 and chain[0] == "random" and chain[1] != "Random":
            found.append((node.lineno, f"random.{chain[1]}() uses process-global RNG state; draw "
                          "from a seeded stream (Simulator.rng_stream / default_rng(seed))"))
        elif len(chain) == 3 and chain[:2] == ("numpy", "random") and chain[2] not in NP_RANDOM_SEEDED:
            found.append((node.lineno, f"numpy.random.{chain[2]}() is the legacy global-state "
                          "API; use numpy.random.default_rng(seed) / SeedSequence streams"))
    return found


WALL_CLOCKS = {("time", f"{name}{ns}") for name in ("time", "perf_counter", "monotonic",
               "process_time") for ns in ("", "_ns")} | {("datetime", "date", "today"),
               *(("datetime", "datetime", name) for name in ("now", "utcnow", "today"))}


def wall_clock(tree: ast.Module) -> list:
    """RPL104: virtual time comes from the event loop, never the host clock."""
    imports = Imports(tree)
    return [(call.lineno, f"{'.'.join(chain)}() reads the host clock inside simulation/spec "
             "code; use the simulator's virtual now (results must not depend on host timing)")
            for call, _ in _calls(tree) if (chain := imports.resolve(call.func)) in WALL_CLOCKS]


#: Consumers that erase iteration order, and loop-body calls that bake it into output.
ORDER_ERASING = {"sorted", "set", "frozenset", "sum", "len", "min", "max", "any", "all", "dict",
                 "Counter"}
ORDER_BAKING = {"append", "extend", "insert", "appendleft", "write", "writelines", "write_text",
                "write_bytes"}


def _unordered(node: ast.AST, imports: Imports) -> str | None:
    """Why ``node`` yields elements in process-dependent order, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal" if isinstance(node, ast.Set) else "a set comprehension"
    if not isinstance(node, ast.Call):
        return None
    chain = imports.resolve(node.func)
    if _name(node) in ("set", "frozenset"):
        return f"{_name(node)}(...)"
    if chain in {("os", "listdir"), ("os", "scandir"), ("glob", "glob"), ("glob", "iglob")}:
        return f"{'.'.join(chain)}(...)"
    if _method(node) in {"iterdir", "glob", "rglob", "scandir"}:
        return f".{_method(node)}(...)"
    return None


def _order_baking(body: list[ast.stmt], imports: Imports) -> ast.AST | None:
    """A loop body's first return / yield / append / write / json.dump, nested defs skipped."""
    queue: list[ast.AST] = list(body)
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        baking_call = isinstance(node, ast.Call) and (
            _method(node) in ORDER_BAKING or imports.resolve(node.func) == ("json", "dump"))
        if baking_call or isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            return node
        queue.extend(ast.iter_child_nodes(node))
    return None


def unordered_iteration(tree: ast.Module) -> list:
    """RPL105: an unordered source reaches ordered output only through ``sorted(...)``."""
    imports, found = Imports(tree), []
    erased = {id(arg) for call, _ in _calls(tree) if _name(call) in ORDER_ERASING
              for arg in call.args}
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            reason = _unordered(node.iter, imports)
            if reason and (effect := _order_baking(node.body, imports)):
                found.append((node.iter.lineno, f"loop over {reason} feeds ordered output (line "
                              f"{effect.lineno}) in process-dependent order; wrap it in sorted()"))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)) and id(node) not in erased:
            found += [(loop.iter.lineno, f"comprehension over {reason} materializes process-"
                       "dependent order; wrap it in sorted() or feed an order-insensitive consumer")
                      for loop in node.generators if (reason := _unordered(loop.iter, imports))]
        elif (isinstance(node, ast.Call) and _name(node) in ("list", "tuple")
              and len(node.args) == 1 and id(node) not in erased
              and (reason := _unordered(node.args[0], imports))):
            found.append((node.lineno, f"{_name(node)}() materializes {reason} in "
                          "process-dependent order; use sorted(...) instead"))
    return found


def _open_mode(call: ast.Call) -> str:
    """The constant mode of an ``open``-style call; ``""`` when computed."""
    mode = call.args[1] if len(call.args) >= 2 else ast.Constant("r")
    for keyword in call.keywords:
        mode = keyword.value if keyword.arg == "mode" else mode
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else ""


def _suffix(node: ast.AST | None) -> str | None:
    """The suffix a path expression visibly ends in (constant, f-string tail, ``/ + %``)."""
    while isinstance(node, (ast.JoinedStr, ast.BinOp)):
        node = node.right if isinstance(node, ast.BinOp) else (node.values or [None])[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
        return "." + node.value.rsplit(".", 1)[1]
    return None


def non_atomic_write(tree: ast.Module) -> list:
    """RPL201: envelopes go through ``fsio`` (unique temp name + ``os.replace``)."""
    imports, found = Imports(tree), []
    for call, _ in _calls(tree):
        chain, mode = imports.resolve(call.func), _open_mode(call)
        opens = call.args and (_name(call) == "open" or chain in (("io", "open"), ("os", "fdopen")))
        if chain == ("json", "dump"):
            found.append((call.lineno, "json.dump() streams JSON into a non-atomic file handle"))
        elif _method(call) in ("write_text", "write_bytes"):
            found.append((call.lineno, f"Path.{_method(call)}() overwrites in place"))
        elif opens and any(flag in mode for flag in "wx+"):
            found.append((call.lineno, f"open(..., {mode!r}) writes in place"))
        elif opens and "a" in mode and _suffix(call.args[0]) == ".json":
            found.append((call.lineno, "appending to a .json envelope can never be atomic"))
    return [(line, message + "; write via repro.experiment.fsio.atomic_write_text so readers "
             "never see a torn file") for line, message in found]


#: The audited helpers that may delete claim / result envelopes.  A new deletion
#: site is reviewed into this list: deletion is how the requeue race lost tasks.
BLESSED_UNLINK = {
    "requeue_expired_claims", "_reap_stale_files",  # work_queue: repossession, orphan reaping
    "complete", "collect", "cancel",  # FileQueueClient: result handover, acked results, withdrawal
    "_chaos_kill",  # worker: the chaos-test kill flag
    "_retire_journals",  # broker_store: journal generations a snapshot superseded
}


def envelope_unlink(tree: ast.Module) -> list:
    """RPL202: envelopes change owner by rename, and only :data:`BLESSED_UNLINK` deletes."""
    imports, removes = Imports(tree), {("os", "remove"), ("os", "unlink")}
    return [(call.lineno, f"envelope deletion in {function or 'module scope'}, not a blessed "
             "repossession/collection helper; hand ownership over by os.replace, or review the "
             "site into BLESSED_UNLINK (write-then-unlink lost live claims: fixtures/history)")
            for call, function in _calls(tree) if function not in BLESSED_UNLINK
            and (_method(call) == "unlink" or imports.resolve(call.func) in removes)]


def bare_rename(tree: ast.Module) -> list:
    """RPL203: a rename is ``os.replace``, the atomic overwrite claims are specified in;
    ``os.rename`` raises on Windows when the target exists."""
    imports = Imports(tree)
    return [(call.lineno, "rename() is not atomic-overwrite-portable; use os.replace() / "
             "Path.replace()") for call, _ in _calls(tree)
            if _method(call) == "rename" or imports.resolve(call.func) == ("os", "rename")]


def schema_drift(specs_source: str, recorded: dict) -> list:
    """RPL301: spec fields move only with a ``SPEC_SCHEMA_VERSION`` bump, which every
    ``spec_digest`` mixes in; otherwise cached and golden payloads match stale dicts."""
    now = golden.spec_schema(specs_source)
    version, was = now["spec_schema_version"], recorded["spec_schema_version"]
    old, new = recorded["classes"], now["classes"]
    changed = [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    if version != was:
        return [(1, f"SPEC_SCHEMA_VERSION is {version} but the recorded fingerprint was taken "
                 f"at version {was}; regenerate the goldens")]
    return [(1, f"spec dataclass fields changed ({', '.join(changed)}) but SPEC_SCHEMA_VERSION "
             f"is still {version}: bump it, then regenerate the goldens")] if now != recorded else []


#: Where host state (global RNG, the wall clock) would change a result: the layers
#: run inside a simulation, monitors included (their series are payload).
SIM_LAYERS = ("repro/sim/*", "repro/mac/*", "repro/phy/*", "repro/net/*", "repro/core/*",
              "repro/transport/*", "repro/monitors/*", "repro/engine.py", "repro/scheduler.py")
#: The shared-directory envelope protocols (``fsio.py``, the blessed writer, is out).
QUEUE_MODULES = ("repro/experiment/backends/*", "repro/experiment/broker.py",
                 "repro/experiment/broker_store.py", "repro/experiment/worker.py")

#: codes -> (checker, the src/ modules it holds for, the modules exempt).  The profiler is the
#: one sim-layer wall clock: the engine reads it by a duck-typed hook, never into a payload.
RULES = {
    "RPL101": (builtin_hash, ("*",), ()),
    "RPL102+RPL103": (seeded_random, SIM_LAYERS + ("repro/experiment/registry.py",), ()),
    "RPL104": (wall_clock, SIM_LAYERS + ("repro/experiment/specs.py",), ("repro/sim/profile.py",)),
    "RPL105": (unordered_iteration, ("*",), ()),
    "RPL201": (non_atomic_write, QUEUE_MODULES + ("repro/experiment/cache.py",), ()),
    "RPL202": (envelope_unlink, QUEUE_MODULES, ()),
    "RPL203": (bare_rename, ("*",), ()),
}


def in_scope(codes: str, module: str) -> bool:
    """Does the :data:`RULES` row ``codes`` hold for ``module`` (``repro/...``)?"""
    _, include, exclude = RULES[codes]
    return any(fnmatchcase(module, p) for p in include) and not any(
        fnmatchcase(module, p) for p in exclude)


@cache
def _src_modules() -> dict:
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


@pytest.mark.parametrize("codes", RULES)
def test_src_holds_the_invariant(codes):
    scoped = [module for module in _src_modules() if in_scope(codes, module)]
    assert scoped, f"{codes} holds for no module under src/: the guard guards nothing"
    found = [f"src/{module}:{line}: {message}" for module in scoped
             for line, message in RULES[codes][0](_src_modules()[module])]
    assert not found, "\n".join(found)


def test_spec_fields_move_only_with_a_schema_version_bump():
    recorded = json.loads(golden.SCHEMA_RECORD_PATH.read_text(encoding="utf-8"))
    assert schema_drift(golden.SPECS_PATH.read_text(encoding="utf-8"), recorded) == []


@pytest.mark.parametrize("kind", ["violation", "clean"])
@pytest.mark.parametrize("code", sorted(c for key in RULES for c in key.split("+")) + ["RPL301"])
def test_violation_fixtures_fail_and_clean_ones_pass(code, kind):
    if code == "RPL301":
        record = json.loads((FIXTURES / code / kind / "fingerprint.json").read_text())
        found = schema_drift((FIXTURES / code / kind / "experiment/specs.py").read_text(), record)
    else:
        [checker] = [row[0] for key, row in RULES.items() if code in key.split("+")]
        found = checker(ast.parse((FIXTURES / code / f"{kind}.py").read_text()))
    assert bool(found) == (kind == "violation"), found


def _failing(module: str, source: str) -> set:
    """The :data:`RULES` rows ``source`` breaks when it is ``src/<module>``."""
    tree = ast.parse(source)
    return {key for key, row in RULES.items() if in_scope(key, module) and row[0](tree)}


@pytest.mark.parametrize("module, code", [("repro/pr1_hash_seeding.py", "RPL101"),
                                          ("repro/experiment/backends/pr5_requeue_race.py", "RPL202")])
def test_the_shipped_bugs_fail_under_the_production_scopes(module, code):
    assert code in _failing(module, (FIXTURES / "history" / module).read_text())


MUTANT = "\nimport os, time\nimport numpy as np\n\n\ndef _mutant(name, d, path):\n    return {}\n"


@pytest.mark.parametrize("module, line, fails", [
    ("repro/engine.py", "hash(name)", "RPL101"),
    ("repro/mac/dcf.py", "time.time()", "RPL104"),
    ("repro/core/optimizer.py", "np.random.rand()", "RPL102+RPL103"),
    ("repro/experiment/cache.py", "list(os.listdir(d))", "RPL105"),
    ("repro/experiment/backends/work_queue.py", "os.rename(d, path)", "RPL203"),
    ("repro/experiment/broker.py", "path.unlink()", "RPL202"),
    # The profiler is the one sim-layer wall clock; batch timing is out of RPL104's scope.
    ("repro/sim/profile.py", "time.time()", None),
    ("repro/experiment/batch.py", "time.time()", None),
])
def test_one_line_added_to_a_src_module_fails_exactly_its_invariant(module, line, fails):
    source = (SRC / module).read_text(encoding="utf-8") + MUTANT.format(line)
    assert _failing(module, source) == {fails} - {None}


@pytest.mark.parametrize("codes, module", [
    # RPL104 holds for every sim-layer module but the profiler.
    ("RPL104", "repro/sim/other.py"), ("RPL104", "repro/engine.py"),
    # The broker's store keeps the atomic-IO rules, its one deletion site blessed.
    *[(codes, "repro/experiment/broker_store.py") for codes in ("RPL201", "RPL202", "RPL203")],
    # The event store and the monitors run inside the simulation.
    *[(codes, module) for codes in ("RPL102+RPL103", "RPL104")
      for module in ("repro/scheduler.py", "repro/monitors/base.py", "repro/monitors/flows.py")],
])
def test_the_scope_table(codes, module):
    assert in_scope(codes, module)
    assert "_retire_journals" in BLESSED_UNLINK
