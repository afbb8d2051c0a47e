"""Every export has a caller: no package ``__all__`` name lives for tests alone.

A name in a package's ``__all__`` tells a reader that something outside
the package uses it.  This walks every package of ``repro`` and, for each
``__all__`` name, looks for an AST reference to it (a ``Name``, an
``Attribute`` or an import alias; docstrings and comments do not count,
and neither does a name the file imports from outside ``repro``)
in ``src/``, ``bench/``, ``examples/``, ``tools/`` or ``benchmarks/``,
outside the module that defines it and its package's ``__init__``.
``tests/`` is not a caller: a name only tests use is imported by them from
its module, or deleted with its tests.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "examples", "tools", "benchmarks")

#: Exports with no caller in the repo, each an entry point README documents.
ALLOWED: dict[str, str] = {
    "repro.__version__": "README's Install section reads the version from it",
    "repro.concurrency.LockOrderError": (
        "README's sanitizer section names it as the error a bad nesting raises"
    ),
}


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def _defining_file(package, name: str, imported_from) -> Path:
    obj = getattr(package, name)
    if inspect.ismodule(obj):
        return Path(obj.__file__).resolve()
    if inspect.isclass(obj) or inspect.isfunction(obj):
        return Path(sys.modules[obj.__module__].__file__).resolve()
    return Path(imported_from.__file__).resolve()


def _exports(package) -> dict[str, Path]:
    """``{name: file defining it}`` for every name of ``package.__all__``."""
    imported_from = {}
    init = Path(package.__file__)
    for node in ast.parse(init.read_text(), str(init)).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported_from[alias.asname or alias.name] = module
    return {
        name: _defining_file(package, name, imported_from.get(name, package))
        for name in getattr(package, "__all__", ())
    }


def _file_references(path: Path) -> set[str]:
    """Identifiers ``path`` references, minus names it imports from outside
    ``repro``: ``collections.Counter`` is no caller of ``repro.obs.Counter``."""
    refs, names, foreign = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("repro"):
                refs.update(alias.name for alias in node.names)
            else:
                foreign.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            refs.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return refs | (names - foreign)


def _references() -> dict[str, set[Path]]:
    """``{identifier: files referencing it}`` over :data:`CALLER_DIRS`."""
    refs: dict[str, set[Path]] = defaultdict(set)
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for name in _file_references(path):
                refs[name].add(path.resolve())
    return refs


@functools.cache
def _uncalled() -> frozenset[str]:
    """Qualified ``__all__`` names with no reference outside their homes."""
    refs = _references()
    found = set()
    for package in _packages():
        init = Path(package.__file__).resolve()
        for name, defined_in in _exports(package).items():
            if not refs.get(name, set()) - {init, defined_in}:
                found.add(f"{package.__name__}.{name}")
    return frozenset(found)


def test_every_export_has_a_caller():
    assert sorted(_uncalled() - ALLOWED.keys()) == []


def test_allowlist_holds_only_uncalled_exports():
    """An entry that names no export, or whose export gained a caller, goes."""
    assert sorted(ALLOWED.keys() - _uncalled()) == []
