"""Each package re-exports exactly what the entry points import from it.

The entry points are what a user runs or copies: ``examples/*.py``,
every Python file under ``benchmarks/`` (the figure benchmarks and the
ledger), and the Python code blocks of ``README.md`` and ``docs/*.md``.
Two facts are read off them with ``ast`` alone, importing nothing:

* every ``__all__`` entry of a package under ``src/repro`` is imported
  from that package by some entry point — a name nobody imports from
  the package is imported from the module that defines it;
* every such import resolves: the name is in the package's ``__all__``
  (or is one of its submodules), and the package binds it by importing
  it from the module that defines it.

Tests are not entry points: they import every name from its defining
module.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _packages() -> dict[str, Path]:
    return {_module_name(init): init for init in sorted(SRC.rglob("__init__.py"))}


def _exports(init: Path) -> list[str]:
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _python_blocks(markdown: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", markdown, re.MULTILINE | re.DOTALL)


def _entry_point_sources() -> list[tuple[str, str]]:
    sources = [
        (str(path.relative_to(REPO)), path.read_text(encoding="utf-8"))
        for pattern in ("examples/*.py", "benchmarks/**/*.py")
        for path in sorted(REPO.glob(pattern))
    ]
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for i, block in enumerate(_python_blocks(doc.read_text(encoding="utf-8"))):
            sources.append((f"{doc.relative_to(REPO)} block {i}", block))
    return sources


def _package_imports() -> dict[str, dict[str, list[str]]]:
    """package -> name -> the entry points importing the name from it."""
    packages = _packages()
    imports: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for where, source in _entry_point_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in packages:
                for alias in node.names:
                    imports[node.module][alias.name].append(where)
    return imports


def _defines(module: Path, name: str) -> bool:
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return True
    return False


def _module_path(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.exists():
            return path
    return None


def test_the_entry_points_import_from_packages():
    """The check sees the imports it judges: the ledger's among them."""
    imports = _package_imports()
    assert "RateOptimizer" in imports["repro.core"]
    assert "MonitorHost" in imports["repro.monitors"]
    assert "task_envelope" in imports["repro.experiment.backends"]


def test_every_export_is_imported_by_an_entry_point():
    imports = _package_imports()
    unused = [
        f"{package}.{name}"
        for package, init in _packages().items()
        for name in _exports(init)
        if name not in imports.get(package, {})
    ]
    assert unused == []


def test_every_entry_point_import_resolves():
    packages = _packages()
    broken = []
    for package, names in _package_imports().items():
        exports = set(_exports(packages[package]))
        for name, where in names.items():
            if name not in exports and _module_path(f"{package}.{name}") is None:
                broken.append(f"{where[0]}: from {package} import {name}")
    assert broken == []


def test_every_export_is_bound_from_its_defining_module():
    unbound = []
    for package, init in _packages().items():
        sources = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.parse(init.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) and node.level == 0
            for alias in node.names
        }
        for name in _exports(init):
            module, original = sources.get(name, (None, name))
            path = _module_path(module) if module else None
            if path is None or path.name == "__init__.py" or not _defines(path, original):
                unbound.append(f"{package}.{name}")
    assert unbound == []
