"""The repo lint engine: AST rules encoding this codebase's contracts.

Grew out of the ``tools/lint.py`` fallback.  Two rule groups share the
:mod:`repro.analysis.diagnostics` core:

**Style rules** (what ruff would catch; applied when ruff is unavailable):
L001 syntax errors, L002 non-UTF-8 files (reported, not silently skipped),
L003 unused imports — including ``from x import y as z`` aliases and
``import a.b.c`` submodule forms, each import alias tracked separately —
and L004 trailing whitespace.

**Contract rules** (repo-specific; nothing else enforces them), each
applied where ``RULES[id].scope`` says (docs/architecture.md §8):

- L101: functions that take a ``workspace`` parameter (a bound form's
  ``bind`` and the ``run`` inside it) are steady-state kernels and must
  not call ``np.zeros``/``np.empty``/``np.concatenate``-style allocators,
  except lexically inside the documented allocating fallback (the body of
  ``if <param> is None:`` or the else of ``if <param> is not None:``).
- L103: module-level mutable caches mutated from functions require a
  module-level lock (an ``ordered_lock`` beside the cache).
- L104: no ``np.random``/``random``/``secrets``/``os.urandom`` or
  wall-clock ``time.time`` (monotonic timers are fine).  The tracer's
  wall-clock anchor and the seeded input-data generators carry justified
  ``allow[L104]`` suppressions.

Suppression: append ``# repro: allow[L101] <justification>`` to the
offending line.  A suppression without a justification, or naming an id
that is not in :data:`~repro.analysis.diagnostics.RULES`, is itself an
error (L005).
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from typing import Iterable

from repro.analysis.diagnostics import RULES, Diagnostic, error

#: repo directories the lint engine walks by default
ROOTS = ("src", "tests", "benchmarks", "tools")

_ALLOC_NAMES = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "concatenate", "stack", "hstack", "vstack", "dstack",
    "tile", "repeat", "pad",
})
_NUMPY_ALIASES = frozenset({"np", "numpy"})
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem",
    "clear", "extend", "insert", "remove", "discard",
})
_MONOTONIC_OK = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                           "monotonic_ns", "process_time", "sleep"})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9, ]*)\]\s*(.*)")


# ------------------------------------------------------------- suppression
def _suppressions(text: str, location_prefix: str) -> tuple[dict[int, set[str]],
                                                            list[Diagnostic]]:
    """Parse ``# repro: allow[RULE] reason`` comments.

    Only real comments count, not docstrings or strings that quote the
    syntax.  Returns a ``lineno -> {rule ids}`` map plus L005 diagnostics
    for malformed suppressions (no rule, an id not in :data:`RULES`, or
    no justification).
    """
    allowed: dict[int, set[str]] = {}
    diags: list[Diagnostic] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        m = _ALLOW_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
        if m is None:
            continue
        lineno = tok.start[0]
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        unknown = sorted(rules - RULES.keys())
        if unknown:
            diags.append(
                error("L005", f"{location_prefix}:{lineno}",
                      f"suppression names unknown rule ids {unknown}",
                      hint="drop the suppression of a deleted rule")
            )
        elif not rules or not reason:
            diags.append(
                error(
                    "L005", f"{location_prefix}:{lineno}",
                    "suppression must name rule ids and a justification",
                    hint="write `# repro: allow[L101] <why this is safe>`",
                )
            )
        else:
            allowed.setdefault(lineno, set()).update(rules)
    return allowed, diags


def _line_of(location: str) -> int | None:
    tail = location.rsplit(":", 1)[-1]
    return int(tail) if tail.isdigit() else None


def _apply_suppressions(
    diags: list[Diagnostic], allowed: dict[int, set[str]]
) -> list[Diagnostic]:
    if not allowed:
        return diags
    kept = []
    for d in diags:
        lineno = _line_of(d.location)
        if lineno is not None and d.rule in allowed.get(lineno, ()):
            continue
        kept.append(d)
    return kept


# ------------------------------------------------------------- style rules
class _ImportRecord:
    __slots__ = ("binding", "display", "lineno", "dotted")

    def __init__(self, binding: str, display: str, lineno: int, dotted: bool):
        self.binding = binding
        self.display = display
        self.lineno = lineno
        self.dotted = dotted


def _collect_imports(tree: ast.AST) -> tuple[list[_ImportRecord], set[str]]:
    """Every import alias (tracked separately) and every name that is read."""
    imports: list[_ImportRecord] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports.append(
                        _ImportRecord(alias.asname, f"{alias.name} as "
                                      f"{alias.asname}", node.lineno, False)
                    )
                else:
                    # `import a.b.c` binds `a`; report the dotted form.
                    root = alias.name.split(".")[0]
                    imports.append(
                        _ImportRecord(root, alias.name, node.lineno,
                                      "." in alias.name)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                binding = alias.asname or alias.name
                display = (f"{alias.name} as {alias.asname}"
                           if alias.asname else alias.name)
                imports.append(
                    _ImportRecord(binding, display, node.lineno, False)
                )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    return imports, used


def _string_constants(tree: ast.AST) -> set[str]:
    return {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _style_rules(tree: ast.AST, text: str, loc: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    imports, used = _collect_imports(tree)
    exported = _string_constants(tree)
    for rec in imports:
        if rec.binding.startswith("_"):
            continue  # conventional side-effect / registration imports
        if rec.binding not in used and rec.binding not in exported:
            diags.append(
                error("L003", f"{loc}:{rec.lineno}",
                      f"unused import {rec.display!r}")
            )
    for lineno, line in enumerate(text.splitlines(), 1):
        if line != line.rstrip():
            diags.append(
                error("L004", f"{loc}:{lineno}", "trailing whitespace")
            )
    return diags


# ---------------------------------------------------------- contract rules
def _guard_params(test: ast.expr, params: set[str]) -> tuple[str | None, bool]:
    """If ``test`` is ``<param> is [not] None``, return (param, is_none)."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and test.left.id in params
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, True
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, False
    return None, False


def _is_numpy_alloc(node: ast.Call) -> str | None:
    fn = node.func
    if (
        isinstance(fn, ast.Attribute)
        and fn.attr in _ALLOC_NAMES
        and isinstance(fn.value, ast.Name)
        and fn.value.id in _NUMPY_ALIASES
    ):
        return f"{fn.value.id}.{fn.attr}"
    return None


def _kernel_alloc_rule(tree: ast.AST, loc: str) -> list[Diagnostic]:
    """L101: allocations in workspace-taking core kernels must be guarded."""
    diags: list[Diagnostic] = []

    def walk(node: ast.AST, params: set[str], allowed: bool) -> None:
        if isinstance(node, ast.If):
            param, is_none = _guard_params(node.test, params)
            body_ok = allowed or (param is not None and is_none)
            else_ok = allowed or (param is not None and not is_none)
            for child in node.body:
                walk(child, params, body_ok)
            for child in node.orelse:
                walk(child, params, else_ok)
            return
        if isinstance(node, ast.Call) and not allowed:
            alloc = _is_numpy_alloc(node)
            if alloc is not None:
                diags.append(
                    error(
                        "L101", f"{loc}:{node.lineno}",
                        f"{alloc} in a steady-state kernel",
                        hint="use workspace.take(...) or move the allocation "
                        "into the `workspace is None` fallback branch",
                    )
                )
        for child in ast.iter_child_nodes(node):
            walk(child, params, allowed)

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        if "workspace" not in params:
            continue
        for stmt in fn.body:
            walk(stmt, params, False)
    return diags


def _module_lock_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        fn = value.func
        # OrderedLock and its factories are the sanitized spelling of the
        # same idiom (repro.concurrency) and satisfy the guard just as a
        # bare threading lock does.
        lock_ctors = ("Lock", "RLock", "OrderedLock",
                      "ordered_lock", "ordered_rlock")
        is_lock = (
            isinstance(fn, ast.Attribute) and fn.attr in lock_ctors
        ) or (isinstance(fn, ast.Name) and fn.id in lock_ctors)
        if is_lock:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _module_cache_names(tree: ast.Module) -> dict[str, int]:
    caches: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        if not mutable:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and not t.id.startswith("__"):
                caches[t.id] = stmt.lineno
    return caches


def _cache_guard_rule(tree: ast.Module, loc: str) -> list[Diagnostic]:
    """L103: module caches mutated in functions need a module-level lock."""
    caches = _module_cache_names(tree)
    if not caches:
        return []
    if _module_lock_names(tree):
        return []
    diags: list[Diagnostic] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            name: str | None = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in caches
            ):
                name = node.func.value.id
            elif (
                isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete))
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AugAssign)
                    else node.targets
                )
                for t in targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in caches
                    ):
                        name = t.value.id
            if name is not None:
                diags.append(
                    error(
                        "L103", f"{loc}:{node.lineno}",
                        f"module-level cache {name!r} mutated without a "
                        "module lock",
                        hint="pair the cache with a module-level "
                        "ordered_lock, or use functools.lru_cache",
                    )
                )
    return diags


def _nondeterminism_rule(tree: ast.AST, loc: str) -> list[Diagnostic]:
    """L104: entropy and wall-clock sources in compiled-plan paths."""
    diags: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        bad: str | None = None
        if isinstance(value, ast.Name):
            if value.id in _NUMPY_ALIASES and node.attr == "random":
                bad = f"{value.id}.random"
            elif value.id == "random":
                bad = f"random.{node.attr}"
            elif value.id == "secrets":
                bad = f"secrets.{node.attr}"
            elif value.id == "os" and node.attr == "urandom":
                bad = "os.urandom"
            elif value.id == "time" and node.attr not in _MONOTONIC_OK:
                bad = f"time.{node.attr}"
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in _NUMPY_ALIASES
            and value.attr == "random"
        ):
            bad = f"{value.value.id}.random.{node.attr}"
        if bad is not None:
            diags.append(
                error(
                    "L104", f"{loc}:{node.lineno}",
                    f"{bad} in a compiled-plan path",
                    hint="plan execution must be deterministic; take seeds/"
                    "timestamps as arguments (monotonic timers are exempt)",
                )
            )
    return diags


# -------------------------------------------------------------- file driver
def lint_file(
    path: pathlib.Path,
    *,
    root: pathlib.Path | None = None,
    style: bool = True,
) -> list[Diagnostic]:
    """Lint one file: style rules (optional) plus path-scoped contracts."""
    path = pathlib.Path(path)
    loc = str(path.relative_to(root)) if root is not None else str(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [
            error("L002", f"{loc}:1",
                  f"non-UTF-8 bytes at offset {exc.start}: file cannot be "
                  "linted",
                  hint="re-encode the file as UTF-8")
        ]
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [error("L001", f"{loc}:{exc.lineno or 1}",
                      f"syntax error: {exc.msg}")]

    allowed, diags = _suppressions(text, loc)
    if style:
        diags.extend(_style_rules(tree, text, loc))
    if RULES["L101"].covers(path):
        diags.extend(_kernel_alloc_rule(tree, loc))
    if RULES["L103"].covers(path):
        diags.extend(_cache_guard_rule(tree, loc))
    if RULES["L104"].covers(path):
        diags.extend(_nondeterminism_rule(tree, loc))
    return _apply_suppressions(diags, allowed)


def iter_python_files(paths: Iterable[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(
    paths: Iterable[pathlib.Path],
    *,
    root: pathlib.Path | None = None,
    style: bool = True,
) -> list[Diagnostic]:
    """Lint files and directories; directories are walked for ``*.py``."""
    diags: list[Diagnostic] = []
    for f in iter_python_files(paths):
        diags.extend(lint_file(f, root=root, style=style))
    return diags


def lint_repo(repo: pathlib.Path, *, style: bool = True) -> list[Diagnostic]:
    """Lint the whole repo tree (:data:`ROOTS`)."""
    repo = pathlib.Path(repo)
    return lint_paths(
        [repo / r for r in ROOTS if (repo / r).exists()], root=repo, style=style
    )
