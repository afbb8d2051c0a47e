"""Model analysis and static analysis.

Two halves: model *measurement* (MAC counting, speedup statistics,
regressions — the paper's Section 5.3 question and Table 2/5 summaries)
and the *static-analysis subsystem* — a graph dataflow verifier
(:mod:`repro.analysis.dataflow`), a repo lint engine
(:mod:`repro.analysis.lint`) and a concurrency engine
(:mod:`repro.analysis.concurrency`, lock-discipline rules C001-C005)
sharing one diagnostic core (:mod:`repro.analysis.diagnostics`).
The events JSONL telemetry artifact has its schema oracle in
:mod:`repro.analysis.telemetry`.
See docs/architecture.md §8, §13 and §14.
"""

from repro.analysis.bench import validate_bench_engine, validate_bench_kernels
from repro.analysis.concurrency import check_file, check_paths, check_repo
from repro.analysis.dataflow import analyze_graph, check_graph
from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    Severity,
    errors_of,
    format_json,
    format_text,
)
from repro.analysis.lint import lint_file, lint_paths, lint_repo
from repro.analysis.macs import MacCount, count_macs, emacs
from repro.analysis.regression import loglog_fit
from repro.analysis.search import CandidateResult, evaluate_candidate, search
from repro.analysis.speedup import SpeedupStats, speedup_stats
from repro.analysis.summary import LayerSummary, format_summary, model_summary
from repro.analysis.telemetry import load_events_jsonl, validate_events

__all__ = [
    "CandidateResult",
    "Diagnostic",
    "LayerSummary",
    "MacCount",
    "RULES",
    "Severity",
    "SpeedupStats",
    "analyze_graph",
    "check_file",
    "check_graph",
    "check_paths",
    "check_repo",
    "count_macs",
    "emacs",
    "errors_of",
    "evaluate_candidate",
    "format_json",
    "format_summary",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_repo",
    "load_events_jsonl",
    "loglog_fit",
    "model_summary",
    "search",
    "speedup_stats",
    "validate_bench_engine",
    "validate_bench_kernels",
    "validate_events",
]
