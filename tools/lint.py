#!/usr/bin/env python3
"""Repo linter: ruff (when installed) plus the repro contract rules.

``make lint`` calls this script.  Style checking defers to ``ruff check``
(configured in pyproject.toml) when ruff is available; otherwise the AST
fallback in :mod:`repro.analysis.lint` covers syntax errors, unused
imports (including ``as`` aliases and ``import a.b.c`` submodule forms),
trailing whitespace and non-UTF-8 files.  The repo-specific contract
rules (L005 suppressions, L101 kernel allocations, L103 cache guarding,
L104 nondeterminism) always run — ruff cannot express them.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.diagnostics import format_text  # noqa: E402
from repro.analysis.lint import ROOTS, lint_repo  # noqa: E402


def run_ruff(repo: pathlib.Path) -> int:
    return subprocess.call(
        ["ruff", "check", *(r for r in ROOTS if (repo / r).exists())], cwd=repo
    )


def main() -> int:
    if shutil.which("ruff"):
        status = run_ruff(REPO)
        diags = lint_repo(REPO, style=False)  # contracts only; ruff did style
    else:
        print("lint: ruff not found, using repro.analysis.lint AST fallback")
        status = 0
        diags = lint_repo(REPO, style=True)
    if diags:
        print(format_text(diags))
        print(f"{len(diags)} error(s)")
        status = status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
