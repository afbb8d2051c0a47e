"""docs/architecture.md §8's rule catalogue is ``diagnostics.RULES``.

Two pins: every catalogued rule id appears in §8 with the same name and
path scope (the scope the engines test, :meth:`Rule.covers`), and every
rule has a seeded fixture below that fires it — a rule nothing can fire
is a rule nothing tests.
"""

from __future__ import annotations

import pathlib
import re
import textwrap

import numpy as np
import pytest

from repro.analysis.concurrency import check_file
from repro.analysis.dataflow import analyze_graph
from repro.analysis.diagnostics import RULES
from repro.analysis.lint import lint_file
from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.ir import TensorSpec
from repro.kernels.batchnorm import BatchNormParams

REPO = pathlib.Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| ([GLC]\d{3}) \| ([a-z0-9-]+) \| ([^|]*) \|", re.M)


def _section8_rows() -> dict[str, tuple[str, tuple[str, ...]]]:
    text = (REPO / "docs" / "architecture.md").read_text()
    section = text[text.index("\n## 8. "):text.index("\n## 9. ")]
    return {
        m[1]: (m[2], tuple(re.findall(r"`([^`]+)`", m[3])))
        for m in ROW.finditer(section)
    }


def test_section8_catalogues_every_rule_with_its_scope():
    assert _section8_rows() == {
        r.id: (r.name, r.scope) for r in RULES.values()
    }


# ------------------------------------------------------------- fixtures


def _converted_net():
    rng = np.random.default_rng(0)
    b = GraphBuilder((1, 8, 8, 8))
    x = b.binarize(b.input)
    x = b.conv2d(x, rng.standard_normal((3, 3, 8, 16)).astype(np.float32),
                 binary_weights=True, padding=Padding.SAME_ZERO)
    x = b.batch_norm(x, BatchNormParams.identity(16))
    x = b.binarize(x)
    x = b.conv2d(x, rng.standard_normal((3, 3, 16, 16)).astype(np.float32),
                 binary_weights=True, padding=Padding.SAME_ZERO)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((16, 4)).astype(np.float32))
    return convert(b.finish(x)).graph


def _bconv(graph, bitpacked_output: bool):
    (node,) = [
        n for n in graph.nodes
        if n.op == "lce_bconv2d" and ("threshold" in n.params) == bitpacked_output
    ]
    return node


def _respec_packed_output(graph):
    out = _bconv(graph, True).outputs[0]
    graph.tensors[out] = TensorSpec(graph.tensors[out].shape, "float32")


GRAPH_FIXTURES = {
    "G001": lambda g: g.tensors.__setitem__("orphan", TensorSpec((1, 4))),
    "G002": _respec_packed_output,
    "G003": lambda g: _bconv(g, False).params.pop("filter_bits"),
    "G005": lambda g: _bconv(g, True).params.__setitem__(
        "multiplier", np.ones(16, np.float32)),
}

#: rule -> (path under the fixture root, source); bytes are written raw
SOURCE_FIXTURES: dict[str, tuple[str, str | bytes]] = {
    "L001": ("m.py", "def f(:\n"),
    "L002": ("m.py", b"# caf\xe9\nx = 1\n"),
    "L003": ("m.py", "import json\n"),
    "L004": ("m.py", "x = 1  \n"),
    "L005": ("m.py", "x = 1  # repro: allow[L999] its rule was deleted\n"),
    "L101": ("src/repro/kernels/k.py", """\
        import numpy as np

        def run(x, workspace):
            return np.empty_like(x)
        """),
    "L103": ("src/repro/runtime/memo.py", """\
        _CACHE = {}

        def lookup(key):
            _CACHE[key] = key
        """),
    "L104": ("src/repro/ops/noisy.py", """\
        import time

        def stamp():
            return time.time()
        """),
    "C001": ("src/repro/m.py", """\
        import threading

        LOCK = threading.Lock()
        """),
    "C003": ("src/repro/m.py", """\
        import time

        from repro.concurrency.locks import ordered_lock

        LOCK = ordered_lock("serving.server")

        def f():
            with LOCK:
                time.sleep(1)
        """),
    "C004": ("src/repro/serving/m.py", """\
        from concurrent.futures import Future

        def submit(request):
            future = Future()
            validate(request)
            return future
        """),
    "C005": ("src/repro/m.py", """\
        from repro.concurrency.locks import ordered_lock

        class Server:
            def __init__(self):
                self._lock = ordered_lock("serving.server")
                self.count = 0

            def bump(self):
                self.count += 1
        """),
}


def _fire(rule: str, tmp_path) -> set[str]:
    if rule in GRAPH_FIXTURES:
        graph = _converted_net()
        GRAPH_FIXTURES[rule](graph)
        return {d.rule for d in analyze_graph(graph)}
    relpath, source = SOURCE_FIXTURES[rule]
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path.write_text(textwrap.dedent(source))
    check = check_file if RULES[rule].engine == "concurrency" else lint_file
    return {d.rule for d in check(path)}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_catalogued_rule_has_a_fixture_that_fires_it(rule, tmp_path):
    assert rule in GRAPH_FIXTURES or rule in SOURCE_FIXTURES, (
        f"{rule} has no seeded fixture"
    )
    assert rule in _fire(rule, tmp_path)


def test_no_fixture_for_an_uncatalogued_rule():
    assert set(GRAPH_FIXTURES) | set(SOURCE_FIXTURES) <= set(RULES)
