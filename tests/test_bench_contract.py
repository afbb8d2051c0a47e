"""The ``bench/`` contract: everything it uses of ``repro`` resolves and binds.

``bench/`` may not be edited in the same PR as ``src/``, so a deletion in
``src/`` that ``bench/`` still imports only shows up as a failed benchmark
run.  This walks ``bench/*.py`` and resolves every ``from repro… import X``
and every ``mod.X`` read on a module imported that way (``tune.X``,
``registry.X``) against the live package, then binds the arguments of
every call to such a name against the callee's signature — a one-second
answer to "does ``bench/`` still import, and do its calls still fit?".
``bench`` itself is never imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def _repro_imports(tree: ast.AST) -> list[tuple[str, str, str, int]]:
    """``(local name, module, attribute, line)`` per ``from repro… import``."""
    imports: list[tuple[str, str, str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module != "repro" and not (node.module or "").startswith("repro."):
            continue
        for alias in node.names:
            imports.append(
                (alias.asname or alias.name, node.module, alias.name, node.lineno)
            )
    return imports


def _repro_uses(path: Path) -> list[tuple[str, str, int]]:
    """``(module, attribute, line)`` for every use ``path`` makes of repro."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = _repro_imports(tree)
    uses = [(module, attr, line) for _, module, attr, line in imports]
    module_aliases = {
        local: target.__name__
        for local, module, attr, _ in imports
        if isinstance(target := _resolve(module, attr), types.ModuleType)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            uses.append((module_aliases[node.value.id], node.attr, node.lineno))
    return uses


def _repro_calls(path: Path) -> list[tuple[str, object, int, list[str], int]]:
    """``(label, callee, positional count, keywords, line)`` for every call
    in ``path`` whose callee is a repro name (``X(...)`` after ``from repro…
    import X``, or ``mod.X(...)`` on a repro module).  ``*args`` / ``**kwargs``
    entries are skipped: what they expand to is not in the source."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = {
        local: (module, attr) for local, module, attr, _ in _repro_imports(tree)
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imports:
            module, attr = imports[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imports
        ):
            module, attr = ".".join(imports[func.value.id]), func.attr
        else:
            continue
        callee = _resolve(module, attr)
        if callee is _MISSING or not callable(callee):
            continue  # unresolved names are the import test's finding
        calls.append((
            f"{module}.{attr}",
            callee,
            sum(not isinstance(a, ast.Starred) for a in node.args),
            [kw.arg for kw in node.keywords if kw.arg is not None],
            node.lineno,
        ))
    return calls


def _binds(callee, positional: int = 0, keywords=()) -> str | None:
    """``None`` when the arguments fit ``callee``'s signature, else why not."""
    try:
        inspect.signature(callee).bind_partial(
            *[None] * positional, **dict.fromkeys(keywords)
        )
    except TypeError as exc:
        return str(exc)
    return None


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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_repro_call_bench_makes_binds(path):
    misfits = [
        f"{path.name}:{line}: {label}: {problem}"
        for label, callee, positional, keywords, line in _repro_calls(path)
        if (problem := _binds(callee, positional, keywords)) is not None
    ]
    assert not misfits, "bench/ calls src/ no longer accepts: " + "; ".join(misfits)


def test_call_walker_sees_the_keyword_sites():
    # Guards the walker itself: the calls a signature change would break.
    seen = {
        (label, kw)
        for label, _, _, keywords, _ in _repro_calls(BENCH_DIR / "probes.py")
        for kw in keywords
    }
    assert {
        ("repro.runtime.compile_plan", "num_threads"),
        ("repro.runtime.Engine", "max_batch_size"),
        ("repro.core.reserve_bconv2d_workspace", "config"),
        ("repro.core.bgemm_blocked", "tile_k_words"),
        ("repro.tune.measure_config", "repeats"),
    } <= seen


def _workloads_literal(name: str):
    """A module-level literal of ``bench/workloads.py``, without importing it."""
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/workloads.py no longer assigns {name}")


def test_gateway_config_literal_constructs():
    from repro.serving.gateway import GatewayConfig

    GatewayConfig(**_workloads_literal("GATEWAY_CONFIG")).validate()


def test_engine_accepts_the_keywords_worker_passes_through_engine_cls():
    # worker.py calls ``engine_cls(model, num_threads=1, max_batch_size=8,
    # trace=...)`` where engine_cls is Engine or a partial of its subclass —
    # the one call the walker cannot resolve.
    from repro.runtime import Engine

    source = (BENCH_DIR / "worker.py").read_text()
    assert "engine_cls(model, num_threads=1, max_batch_size=8, trace=tracer)" in source
    assert _binds(Engine, 1, ["num_threads", "max_batch_size", "trace"]) is None


def test_node_times_are_keyed_by_graph_node():
    # worker.py::_engine_numbers looks every node_times key up in a table it
    # builds from ``graph.nodes`` (``class_of[node]``), and proxy.py emits one
    # node span per key: a plan that fuses nodes must still report each graph
    # node under its own name, or ``--trace 1`` dies with a KeyError.
    import numpy as np

    from repro.converter import convert
    from repro.runtime import compile_plan
    from repro.zoo import build_model

    graph = convert(build_model(_workloads_literal("MODEL"), input_size=32)).graph
    plan = compile_plan(graph, batch_factor=2, num_threads=1)
    assert len(plan.nodes) < len(graph.nodes), "the plan under test fuses nothing"
    node_times: dict[str, float] = {}
    plan.execute((np.zeros((2, 32, 32, 3), np.float32),), node_times)
    assert set(node_times) == {n.name for n in graph.nodes}
    assert all(t >= 0.0 for t in node_times.values())


class TestVestigialThreadParameter:
    """``num_threads`` survives only because ``bench/`` passes it by keyword:
    it accepts exactly 1."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.converter import convert
        from repro.zoo import build_model

        return convert(build_model("quicknet_small", input_size=32)).graph

    def test_engine(self, graph):
        from repro.runtime import Engine

        Engine(graph, num_threads=1).close()
        with pytest.raises(ValueError, match="num_threads"):
            Engine(graph, num_threads=2)

    def test_compile_plan(self, graph):
        from repro.runtime import compile_plan

        compile_plan(graph, num_threads=1)
        with pytest.raises(ValueError, match="num_threads"):
            compile_plan(graph, num_threads=2)

    def test_gateway_config(self):
        from repro.serving.gateway import GatewayConfig

        GatewayConfig(num_threads=1).validate()
        with pytest.raises(ValueError, match="num_threads"):
            GatewayConfig(num_threads=2).validate()
