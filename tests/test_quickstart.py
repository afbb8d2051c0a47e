"""The quick-starts a reader copies first run exactly as written: the
package docstring's ``Quickstart::`` block and README.md's first python
block."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _docstring_block(doc: str, marker: str) -> str:
    """The indented literal block following ``marker`` in a docstring."""
    lines = doc.split(marker, 1)[1].splitlines()[1:]
    block: list[str] = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


def test_package_docstring_quickstart_runs():
    source = _docstring_block(repro.__doc__, "Quickstart::")
    assert "graph_latency" in source
    namespace: dict = {}
    exec(compile(source, "repro.__doc__ Quickstart", "exec"), namespace)
    assert namespace["out"].shape == (1, 1000)
    assert namespace["latency_ms"] > 0


def test_readme_first_python_block_runs(capsys):
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    exec(compile(source, "README.md quickstart", "exec"), {})
    assert "ms on a Pixel 1" in capsys.readouterr().out
