"""repro.runtime — the batched inference engine.

The serving layer on top of the graph IR (see ``docs/architecture.md``,
section "The runtime"):

- :mod:`repro.runtime.plan` — plan compilation: dispatch resolved,
  liveness precomputed, kernel-parameter structs built and prepacked
  weights cached once per graph instead of once per run;
- :mod:`repro.runtime.rebatch` — batch-polymorphic spec re-inference;
- :mod:`repro.runtime.engine` — the :class:`Engine`: cached plans per
  batch size, synchronous ``run`` / ``run_many`` (micro-batched by
  :func:`greedy_chunks`), all bit-identical per request to the reference
  executor.
"""

from repro.runtime.engine import Engine, EngineStats, greedy_chunks
from repro.runtime.plan import (
    CompiledNode,
    CompiledPlan,
    ParamCache,
    compile_plan,
)
from repro.runtime.rebatch import rebatched_specs

__all__ = [
    "CompiledNode",
    "CompiledPlan",
    "Engine",
    "EngineStats",
    "ParamCache",
    "compile_plan",
    "greedy_chunks",
    "rebatched_specs",
]
