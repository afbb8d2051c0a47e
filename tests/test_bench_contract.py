"""The ``bench/`` import contract: everything it uses of ``repro`` resolves.

``bench/`` may not be edited in the same PR as ``src/``, so a deletion in
``src/`` that ``bench/`` still imports only shows up as a failed benchmark
run.  This walks ``bench/*.py`` and resolves every ``from repro… import X``
and every ``mod.X`` read on a module imported that way (``tune.X``,
``registry.X``) against the live package — a one-second answer to "does
``bench/`` still import?".
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_FILES = sorted(BENCH_DIR.glob("*.py"))

_MISSING = object()


def _resolve(module: str, name: str):
    """``module.name`` as ``from module import name`` would bind it."""
    found = getattr(importlib.import_module(module), name, _MISSING)
    if found is _MISSING:
        try:  # a submodule the package has not imported yet
            found = importlib.import_module(f"{module}.{name}")
        except ImportError:
            pass
    return found


def _repro_uses(path: Path) -> list[tuple[str, str, int]]:
    """``(module, attribute, line)`` for every use ``path`` makes of repro."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses: list[tuple[str, str, int]] = []
    module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module != "repro" and not (node.module or "").startswith("repro."):
            continue
        for alias in node.names:
            uses.append((node.module, alias.name, node.lineno))
            target = _resolve(node.module, alias.name)
            if isinstance(target, types.ModuleType):
                module_aliases[alias.asname or alias.name] = target.__name__
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            uses.append((module_aliases[node.value.id], node.attr, node.lineno))
    return uses


def test_bench_files_found():
    assert any(p.name == "probes.py" for p in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_repro_name_bench_uses_resolves(path):
    missing = [
        f"{path.name}:{line}: {module}.{attr}"
        for module, attr, line in _repro_uses(path)
        if _resolve(module, attr) is _MISSING
    ]
    assert not missing, "bench/ uses names src/ no longer has: " + ", ".join(missing)


def test_probes_reads_tune_through_the_module():
    # Guards the walker itself: probes.py is the file that reads ``tune.X``.
    attrs = {
        attr
        for module, attr, _ in _repro_uses(BENCH_DIR / "probes.py")
        if module == "repro.tune"
    }
    assert {"DEFAULT_CONFIG", "ConvGeometryKey", "measure_config"} <= attrs


def test_default_config_has_the_fields_kernel_split_reads():
    from repro.tune import DEFAULT_CONFIG

    for field in ("tile_m", "tile_n", "tile_k_words", "im2col"):
        assert hasattr(DEFAULT_CONFIG, field), field
