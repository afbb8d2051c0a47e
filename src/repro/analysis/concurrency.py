"""The concurrency analysis engine: static lock-discipline rules.

Third engine beside :mod:`repro.analysis.dataflow` and
:mod:`repro.analysis.lint`, sharing the :mod:`repro.analysis.diagnostics`
core and the ``# repro: allow[RULE] why`` suppression syntax.  The rank
table in :mod:`repro.concurrency.order` is the single source of truth.
Lock *order* is checked once, at runtime: the shim
(:mod:`repro.concurrency.locks`) raises on every rank inversion under
``REPRO_SANITIZE=1`` (``make sanitize``).  These rules check what no run
can show, all errors over ``src/`` (catalogue: ``RULES``,
docs/architecture.md §8): C001 every lock is built by the registered
factories under a registered name, and every registered name is built;
C003 no blocking call inside a lock's ``with`` body; C004 a created
``Future`` is resolved or handed off before anything can raise; C005
shared ``__init__`` state of a lock-declaring class is reassigned only
under its lock (methods whose caller holds it carry a justified
``allow[C005]``).

All checks are lexical approximations: they see ``with`` nesting inside
one function, not call chains.  That is the point — the discipline they
enforce (publish under the lock, keep blocking calls outside critical
sections) is exactly the discipline that makes lexical reasoning
sufficient.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable

from repro.analysis.diagnostics import RULES, Diagnostic, error
from repro.analysis.lint import (
    _apply_suppressions,
    _suppressions,
    iter_python_files,
)
from repro.concurrency.order import ACQUIRE_METHODS, LOCK_ORDER, LOCK_RANKS

_FACTORIES = ("ordered_lock", "ordered_rlock")
_BLOCKING_ZERO_ARG = frozenset({"result", "exception", "get", "join"})
_ENGINE_RUN = frozenset({"run", "run_batch"})


def _func_name(call: ast.Call) -> str | None:
    """The terminal name of a call's callee (``a.b.C()`` -> ``C``)."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _str_arg(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _has_kwarg(call: ast.Call, *names: str) -> bool:
    return any(kw.arg in names for kw in call.keywords)


# --------------------------------------------------------------- C001 + bindings
class _FileLocks:
    """Lock bindings resolved for one file.

    ``modules`` maps module-level binding names to registered lock names;
    ``classes`` maps class name -> (attr name -> lock name), with
    ``Condition(self.X)`` attrs aliased to X's lock.  Built by the same
    pass that emits C001 diagnostics, so resolution and inventory always
    agree.
    """

    def __init__(self) -> None:
        self.modules: dict[str, str] = {}
        self.classes: dict[str, dict[str, str]] = {}
        #: every registered lock name the file constructs
        self.constructed: set[str] = set()


def _lock_of_call(call: ast.Call) -> str | None:
    """The registered lock name a factory/shim call constructs, if any."""
    name = _func_name(call)
    if name in _FACTORIES or name == "OrderedLock":
        return _str_arg(call)
    return None


def _inventory(tree: ast.Module, loc: str) -> tuple[_FileLocks, list[Diagnostic]]:
    locks = _FileLocks()
    diags: list[Diagnostic] = []

    def check_call(call: ast.Call) -> None:
        name = _func_name(call)
        if name in ("Lock", "RLock"):
            diags.append(error(
                "C001", f"{loc}:{call.lineno}",
                f"raw threading.{name}() construction",
                hint="route through repro.concurrency.locks.ordered_lock"
                "/ordered_rlock with a name registered in "
                "repro.concurrency.order",
            ))
            return
        if name == "Condition" and not call.args:
            diags.append(error(
                "C001", f"{loc}:{call.lineno}",
                "Condition() creates its own unregistered RLock",
                hint="pass an ordered lock: Condition(self._lock)",
            ))
            return
        if name in _FACTORIES or name == "OrderedLock":
            lock_name = _str_arg(call)
            if lock_name is None:
                diags.append(error(
                    "C001", f"{loc}:{call.lineno}",
                    f"{name} requires a string-literal lock name",
                    hint="static checking needs the name decidable at the "
                    "construction site",
                ))
            elif lock_name not in LOCK_RANKS:
                diags.append(error(
                    "C001", f"{loc}:{call.lineno}",
                    f"lock {lock_name!r} is not registered in "
                    "repro.concurrency.order",
                    hint="add a LockRank entry with a rank and a doc line",
                ))
            elif name == "ordered_rlock" and not LOCK_RANKS[lock_name].reentrant:
                diags.append(error(
                    "C001", f"{loc}:{call.lineno}",
                    f"ordered_rlock({lock_name!r}) but the table registers "
                    "it non-reentrant",
                    hint="use ordered_lock() or flip the table entry",
                ))
            else:
                locks.constructed.add(lock_name)

    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        check_call(call)

    def record(binding: dict[str, str], target: str, value: ast.expr,
               self_scope: bool) -> None:
        if not isinstance(value, ast.Call):
            return
        lock_name = _lock_of_call(value)
        if lock_name is not None and lock_name in LOCK_RANKS:
            binding[target] = lock_name
            return
        if _func_name(value) == "Condition" and value.args:
            src = value.args[0]
            if self_scope and isinstance(src, ast.Attribute) \
                    and isinstance(src.value, ast.Name) \
                    and src.value.id == "self" and src.attr in binding:
                binding[target] = binding[src.attr]
            elif not self_scope and isinstance(src, ast.Name) \
                    and src.id in binding:
                binding[target] = binding[src.id]

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            record(locks.modules, stmt.targets[0].id, stmt.value, False)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            record(locks.modules, stmt.target.id, stmt.value, False)
        elif isinstance(stmt, ast.ClassDef):
            attrs: dict[str, str] = {}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Attribute) \
                        and isinstance(node.targets[0].value, ast.Name) \
                        and node.targets[0].value.id == "self":
                    record(attrs, node.targets[0].attr, node.value, True)
            locks.classes[stmt.name] = attrs
    return locks, diags


# -------------------------------------------------------------------- C003
def _with_item_lock(item: ast.withitem, locks: _FileLocks,
                    cls: str | None) -> str | None:
    """Resolve one ``with`` item to a registered lock name, if it is one."""
    expr = item.context_expr
    if isinstance(expr, ast.Name):
        return locks.modules.get(expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self" and cls is not None:
        return locks.classes.get(cls, {}).get(expr.attr)
    if isinstance(expr, ast.Call):
        name = _func_name(expr)
        if name in ACQUIRE_METHODS and isinstance(expr.func, ast.Attribute):
            return ACQUIRE_METHODS[name]
    return None


def _attr_chain_tail(node: ast.expr) -> str:
    """The last identifier of a receiver chain (``self._work_queue`` -> same)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _blocking_call(call: ast.Call) -> str | None:
    """Describe why ``call`` blocks, or None if it does not (lexically)."""
    fn = call.func
    if not isinstance(fn, ast.Attribute):
        return None
    attr = fn.attr
    if attr == "sleep":
        return f"{_attr_chain_tail(fn.value) or '?'}.sleep()"
    if attr in _ENGINE_RUN:
        return f"Engine.{attr}() (runs a full plan)"
    if attr in _BLOCKING_ZERO_ARG and not call.args \
            and not _has_kwarg(call, "timeout"):
        if attr in ("get", "join"):
            return f"{_attr_chain_tail(fn.value) or '?'}.{attr}() without timeout"
        return f"Future.{attr}() without timeout"
    if attr == "put" and not _has_kwarg(call, "timeout") \
            and "queue" in _attr_chain_tail(fn.value).lower() \
            and not any(
                kw.arg == "block" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in call.keywords):
        return f"{_attr_chain_tail(fn.value)}.put() without timeout"
    return None


def _blocking_rule(tree: ast.Module, loc: str, locks: _FileLocks
                   ) -> list[Diagnostic]:
    """C003: no blocking call while a registered lock is held."""
    diags: list[Diagnostic] = []

    def scan(node: ast.AST, held: list[str], cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                scan(child, held, node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def's body does not run under the enclosing lock
            for child in node.body:
                scan(child, [], cls)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = [
                name for item in node.items
                if (name := _with_item_lock(item, locks, cls)) is not None
            ]
            for child in node.body:
                scan(child, held + acquired, cls)
            return
        if isinstance(node, ast.Call) and held:
            why = _blocking_call(node)
            if why is not None:
                diags.append(error(
                    "C003", f"{loc}:{node.lineno}",
                    f"blocking call {why} while holding {held[-1]!r}",
                    hint="move the blocking call outside the critical "
                    "section (snapshot state under the lock, act after)",
                ))
        for child in ast.iter_child_nodes(node):
            scan(child, held, cls)

    for stmt in tree.body:
        scan(stmt, [], None)
    return diags


# -------------------------------------------------------------------- C004
def _is_future_ctor(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and _func_name(value) == "Future"


def _resolves(stmt: ast.stmt, name: str) -> bool:
    """Does ``stmt`` contain ``name.set_result/set_exception/cancel(...)``?"""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("set_result", "set_exception", "cancel") \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name:
            return True
    return False


def _hands_off(stmt: ast.stmt, name: str) -> bool:
    """Does ``stmt`` read ``name`` other than to resolve it (return/store/pass)?"""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            return not _resolves(stmt, name)
    return False


def _future_rule(tree: ast.Module, loc: str) -> list[Diagnostic]:
    """C004: the Future-creation-to-handoff gap must not raise unresolved."""
    diags: list[Diagnostic] = []

    def scan_tail(name: str, rest: list[ast.stmt], created: int) -> None:
        for stmt in rest:
            if _resolves(stmt, name) or _hands_off(stmt, name):
                return
            if isinstance(stmt, ast.Try) and any(
                    _resolves(h, name) for h in stmt.handlers):
                return
            if isinstance(stmt, ast.Raise):
                diags.append(error(
                    "C004", f"{loc}:{stmt.lineno}",
                    f"raise leaks future {name!r} (created at line "
                    f"{created}) unresolved",
                    hint="set_exception before raising, or create the "
                    "future after validation",
                ))
                return
            if any(isinstance(n, ast.Call) for n in ast.walk(stmt)):
                diags.append(error(
                    "C004", f"{loc}:{stmt.lineno}",
                    f"call may raise while future {name!r} (created at "
                    f"line {created}) is unresolved",
                    hint="create the future after validation, or wrap the "
                    "gap in a try whose handler calls set_exception",
                ))
                return

    def scan_block(stmts: list[ast.stmt]) -> None:
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and _is_future_ctor(stmt.value):
                scan_tail(stmt.targets[0].id, stmts[i + 1:], stmt.lineno)
            for field in ("body", "orelse", "finalbody"):
                child = getattr(stmt, field, None)
                if child:
                    scan_block(child)
            for handler in getattr(stmt, "handlers", ()):
                scan_block(handler.body)

    scan_block(tree.body)
    return diags


# -------------------------------------------------------------------- C005
def _publish_rule(tree: ast.Module, loc: str, locks: _FileLocks
                  ) -> list[Diagnostic]:
    """C005: shared instance attrs reassigned only under the class's locks."""
    diags: list[Diagnostic] = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        guards = set(locks.classes.get(cls.name, ()))
        if not any(g == "_lock" or g.endswith("_lock") for g in guards):
            continue
        init = next(
            (f for f in cls.body
             if isinstance(f, ast.FunctionDef) and f.name == "__init__"),
            None,
        )
        if init is None:
            continue
        shared = {
            t.attr
            for node in ast.walk(init)
            if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        } - guards

        def scan(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in node.body:
                    scan(child, False)
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or any(
                    isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                    and item.context_expr.attr in guards
                    for item in node.items
                )
                for child in node.body:
                    scan(child, inner)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign)) and not locked:
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Attribute) \
                            and isinstance(t.value, ast.Name) \
                            and t.value.id == "self" and t.attr in shared:
                        diags.append(error(
                            "C005", f"{loc}:{node.lineno}",
                            f"self.{t.attr} published outside "
                            f"{cls.name}'s lock",
                            hint="assign under `with self.<lock>:`; if the "
                            "caller holds it, justify with allow[C005]",
                        ))
            for child in ast.iter_child_nodes(node):
                scan(child, locked)

        for fn in cls.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and fn.name != "__init__":
                scan(fn, False)
    return diags


# -------------------------------------------------------------- file driver
def check_file(path: pathlib.Path, *, root: pathlib.Path | None = None,
               constructed: set[str] | None = None) -> list[Diagnostic]:
    """Run the C-rules over one file (C004 only in its scope);
    ``constructed`` collects the registered lock names the file builds."""
    path = pathlib.Path(path)
    loc = str(path.relative_to(root)) if root is not None else str(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return []  # the lint engine owns the L002 report
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return []  # the lint engine owns the L001 report
    allowed, _ = _suppressions(text, loc)  # the lint engine owns L005
    locks, diags = _inventory(tree, loc)
    if constructed is not None:
        constructed.update(locks.constructed)
    diags.extend(_blocking_rule(tree, loc, locks))
    diags.extend(_publish_rule(tree, loc, locks))
    if RULES["C004"].covers(path):
        diags.extend(_future_rule(tree, loc))
    return _apply_suppressions(diags, allowed)


def check_paths(paths: Iterable[pathlib.Path], *,
                root: pathlib.Path | None = None,
                constructed: set[str] | None = None) -> list[Diagnostic]:
    """Check files and directories; directories are walked for ``*.py``."""
    diags: list[Diagnostic] = []
    for f in iter_python_files(paths):
        diags.extend(check_file(f, root=root, constructed=constructed))
    return diags


def unused_ranks(constructed: set[str]) -> list[Diagnostic]:
    """C001, table side: registered ranks that nothing constructs."""
    return [
        error(
            "C001", "src/repro/concurrency/order.py",
            f"unused rank: lock {entry.name!r} (rank {entry.rank}) has no "
            "ordered_lock/ordered_rlock construction site under src/",
            hint="delete the LockRank entry along with the lock it ranked",
        )
        for entry in LOCK_ORDER
        if entry.name not in constructed
    ]


def check_repo(repo: pathlib.Path) -> list[Diagnostic]:
    """Run the C-rules over the repo's ``src/`` tree.

    Only ``src/`` — tests construct raw locks and rank-overridden
    fixtures on purpose; the inventory discipline is a production-code
    contract.
    """
    repo = pathlib.Path(repo)
    src = repo / "src"
    if not src.exists():
        return []
    constructed: set[str] = set()
    diags = check_paths([src], root=repo, constructed=constructed)
    return diags + unused_ranks(constructed)
