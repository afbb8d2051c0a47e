"""The shared diagnostic core of the static-analysis subsystem.

Both analysis engines — the graph dataflow verifier
(:mod:`repro.analysis.dataflow`) and the repo lint engine
(:mod:`repro.analysis.lint`) — report through the same vocabulary: a
:class:`Diagnostic` carries a rule id, a severity, a location (a graph
node or a ``file:line``), a message and a fix hint.  The rule catalogue
(:data:`RULES`) is the source of truth for rule ids; ``docs/architecture.md``
renders the same table for humans.

Severity semantics: an ``ERROR`` means the graph/source violates a
correctness contract and enforcement points (``Graph.validate``,
``PassManager.run``, ``make check``) must reject it; a ``WARNING`` flags a
legal-but-slow or suspicious construct (e.g. the grouped repack fallback)
and never fails a gate.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import PurePath


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One catalogued analysis rule.

    ``scope`` is where a path-scoped source rule applies, and what the
    engine tests: ``dir/`` matches that directory at any depth,
    ``dir/name.py`` one file.  Empty means every file the engine walks.
    """

    id: str
    name: str
    engine: str  # "graph" | "lint" | "concurrency"
    summary: str
    scope: tuple[str, ...] = ()

    def covers(self, path) -> bool:
        """Whether the source file at ``path`` is in this rule's scope."""
        parts = PurePath(path).parts
        return not self.scope or any(
            s[:-1] in parts if s.endswith("/") else tuple(s.split("/")) == parts[-2:]
            for s in self.scope
        )


#: the rule catalogue — every diagnostic's ``rule`` must be a key here
RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        # ------------------------------------------ graph dataflow engine
        Rule("G001", "def-before-use", "graph",
             "Graph.verify: every tensor is produced exactly once, before "
             "any use, and carries a spec (SSA dataflow)"),
        Rule("G002", "dtype-layout", "graph",
             "ops.validate_graph (registered op, well-formed attributes), "
             "then recorded tensor specs match registry re-inference; "
             "bitpacked tensors only feed binarized-domain ops"),
        Rule("G003", "bitpack-words", "graph",
             "bitpacked filter word counts match ceil(cin_g/64) layout; "
             "groups divide channels"),
        Rule("G004", "padding-semantics", "graph",
             "SAME_ZERO binarized convs carry the accumulator correction; "
             "SAME_ONE/VALID must not (paper Section 3.2)"),
        Rule("G005", "fusion-legality", "graph",
             "fused output transforms stay exact: bitpacked output needs "
             "thresholds and forbids leftover multiplier/bias; int8 needs "
             "a scale"),
        # ----------------------------------------------- repo lint engine
        Rule("L001", "syntax-error", "lint", "file must parse"),
        Rule("L002", "non-utf8", "lint", "source files must be UTF-8"),
        Rule("L003", "unused-import", "lint",
             "imports (including aliases and submodule imports) must be used"),
        Rule("L004", "trailing-whitespace", "lint", "no trailing whitespace"),
        Rule("L005", "bad-suppression", "lint",
             "suppression comments must name rule ids in this catalogue "
             "and a justification"),
        Rule("L101", "kernel-alloc", "lint",
             "functions taking a workspace must not allocate outside the "
             "Workspace API or a `is None` fallback branch",
             ("core/", "kernels/", "serving/", "tune/", "obs/trace.py")),
        Rule("L103", "unguarded-cache", "lint",
             "module-level mutable caches mutated from functions need a "
             "module-level lock (the memoization idiom)",
             ("core/", "runtime/", "obs/", "serving/", "tune/",
              "hw/calibrate.py")),
        Rule("L104", "nondeterminism", "lint",
             "no wall-clock, random or entropy sources",
             ("core/", "runtime/", "ops/", "obs/", "serving/", "tune/",
              "hw/calibrate.py")),
        # ---------------------------------------- concurrency engine
        Rule("C001", "lock-inventory", "concurrency",
             "every lock in src/ routes through ordered_lock/ordered_rlock "
             "with a name registered in repro.concurrency.order"),
        Rule("C003", "blocking-under-lock", "concurrency",
             "no Future.result/Queue.get/put/join without timeout, "
             "Engine.run* or sleep inside a lock's critical section"),
        Rule("C004", "future-resolution", "concurrency",
             "futures are resolved (or handed off) on every exception path",
             ("serving/",)),
        Rule("C005", "unlocked-publish", "concurrency",
             "classes declaring a *_lock only reassign shared instance "
             "attributes under one of their locks"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding: rule id, severity, location, message, hint."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    def format(self) -> str:
        head = f"{self.location}: {self.severity.value} [{self.rule}] {self.message}"
        return head + (f" (hint: {self.hint})" if self.hint else "")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


def error(rule: str, location: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(rule, Severity.ERROR, location, message, hint)


def warning(rule: str, location: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(rule, Severity.WARNING, location, message, hint)


def errors_of(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def format_text(diagnostics: list[Diagnostic]) -> str:
    """Human-readable report, one finding per line, errors first."""
    ordered = sorted(
        diagnostics, key=lambda d: (d.severity is not Severity.ERROR, d.location)
    )
    return "\n".join(d.format() for d in ordered)


def format_json(diagnostics: list[Diagnostic], **summary) -> str:
    """Machine-readable report: findings plus a summary block."""
    payload = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "errors": len(errors_of(diagnostics)),
        "warnings": len(diagnostics) - len(errors_of(diagnostics)),
    }
    payload.update(summary)
    return json.dumps(payload, indent=2, sort_keys=True)
