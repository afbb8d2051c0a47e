"""Model analysis and static analysis.

Two halves: model *measurement* (MAC counting, speedup statistics,
regressions — the paper's Section 5.3 question and Table 2/5 summaries)
and the *static-analysis subsystem* — a graph dataflow verifier
(:mod:`repro.analysis.dataflow`), a repo lint engine
(:mod:`repro.analysis.lint`) and a concurrency engine
(:mod:`repro.analysis.concurrency`, lock-discipline rules C001, C003-C005)
sharing one diagnostic core (:mod:`repro.analysis.diagnostics`).
The package re-exports nothing: import from the submodule, so that
``Graph.validate`` loading :mod:`~repro.analysis.dataflow` does not drag
in the lint and concurrency engines.
See docs/architecture.md §8 and §13.
"""
