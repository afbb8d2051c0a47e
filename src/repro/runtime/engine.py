"""The batched inference engine.

Layers plan compilation, prepacked-weight caching and dynamic
micro-batching over the graph IR:

- :meth:`Engine.run` — one (possibly batched) synchronous inference through
  a cached :class:`~repro.runtime.plan.CompiledPlan`;
- :meth:`Engine.run_many` — coalesces a list of requests into micro-batches
  of at most ``max_batch_size`` samples, runs each micro-batch through one
  batched plan call, and splits the results back per request.

The engine owns no threads: callers that want asynchronous, deadline-
batched submission go through :class:`repro.serving.Gateway`, which
drives ``run_many`` from its replica workers.

Determinism contract: every request's result is bit-identical to running
that request alone through the reference
:class:`~repro.graph.executor.Executor` on the base graph — however the
requests were coalesced.  See :mod:`repro.runtime.plan` for how batched
execution preserves this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.concurrency.locks import ordered_lock
from repro.core.bitpack import PackedTensor
from repro.core.workspace import Workspace
from repro.graph.ir import Graph
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.plan import CompiledPlan, ParamCache, compile_plan

Value = Any  # np.ndarray | PackedTensor
Request = tuple[Value, ...]
Result = Any  # Value | tuple[Value, ...]


@dataclass(frozen=True)
class EngineStats:
    """A snapshot of an :class:`Engine`'s counters."""

    #: inference requests accepted (one ``run`` call, or one ``run_many``
    #: element)
    requests: int
    #: base-batch groups executed (= images for batch-1 graphs)
    samples: int
    #: batched plan executions
    batches: int
    #: executed micro-batch size (in base-batch groups) -> count
    batch_histogram: dict[int, int]
    plan_cache_hits: int
    plan_cache_misses: int
    param_cache_hits: int
    param_cache_misses: int
    #: wall-clock seconds spent inside plan execution
    busy_s: float
    #: bytes of the engine's one :class:`repro.core.workspace.Workspace`:
    #: the largest reservation per buffer over its plans, not their sum
    workspace_bytes: int = 0
    #: True when every compiled plan passed the static-analysis stack at
    #: compile time (:attr:`repro.runtime.plan.CompiledPlan.verified`), so
    #: benchmark numbers provably came from a legal graph
    verified: bool = True
    #: nodes in the graph, nodes a plan executes for them and how many of
    #: those are fused blocks; the last two are 0 until a plan is compiled
    graph_nodes: int = 0
    nodes: int = 0
    fused_blocks: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.samples / self.batches if self.batches else 0.0

    @property
    def throughput_samples_per_s(self) -> float:
        return self.samples / self.busy_s if self.busy_s > 0 else 0.0


def _lead_dim(value: Value) -> int:
    bits = value.bits if isinstance(value, PackedTensor) else np.asarray(value)
    if bits.ndim == 0:
        raise ValueError("engine inputs must have a leading batch dimension")
    return bits.shape[0]


def _concat_values(values: Sequence[Value]) -> Value:
    if len(values) == 1:
        return values[0]
    if isinstance(values[0], PackedTensor):
        return PackedTensor(
            bits=np.concatenate([v.bits for v in values], axis=0),
            channels=values[0].channels,
        )
    return np.concatenate([np.asarray(v) for v in values], axis=0)


def _split_value(value: Value, sizes: Sequence[int]) -> list[Value]:
    """Split a batched value into chunks of ``sizes`` leading rows."""
    out, offset = [], 0
    for size in sizes:
        if isinstance(value, PackedTensor):
            out.append(
                PackedTensor(
                    bits=value.bits[offset : offset + size], channels=value.channels
                )
            )
        else:
            out.append(value[offset : offset + size])
        offset += size
    return out


def greedy_chunks(
    items: Sequence[tuple[Any, int]], max_batch: int
) -> list[list[tuple[Any, int]]]:
    """Greedy in-order packing of ``(request, factor)`` items into chunks.

    Each chunk's total batch factor is at most ``max_batch`` where
    possible: a single item larger than ``max_batch`` forms its own chunk
    (it cannot be split here; rebatching is a plan-level concern) and the
    ragged tail forms a final, smaller chunk.  The one batching rule,
    shared by :meth:`Engine.run_many` and the serving gateway's workers.
    """
    chunks: list[list[tuple[Any, int]]] = []
    current: list[tuple[Any, int]] = []
    current_size = 0
    for request, factor in items:
        if current and current_size + factor > max_batch:
            chunks.append(current)
            current, current_size = [], 0
        current.append((request, factor))
        current_size += factor
    if current:
        chunks.append(current)
    return chunks


class Engine:
    """Batched inference engine over one graph.

    Args:
        model: a :class:`~repro.graph.ir.Graph` or anything exposing a
            ``.graph`` attribute (e.g. a converter
            :class:`~repro.converter.ConvertedModel`).
        num_threads: vestigial, must be 1 (``bench/`` passes it by keyword).
        max_batch_size: largest micro-batch (in base-batch groups) that
            ``run_many`` will coalesce into one plan call.
        param_cache: a :class:`~repro.runtime.plan.ParamCache` to share
            prepacked weights with other engines over the same graph (the
            serving gateway's warm replica pool); a private cache when
            ``None``.

    Thread safety: threads sharing one engine take turns — plan compilation
    and the weight cache behind the plan lock, plan execution behind the
    lock of the engine's one scratch arena.  Results stay bit-exact;
    parallelism is more engines (the gateway's replicas), not more threads.

    Observability: every counter lives under the plan lock, beside the
    plan and weight caches whose counts :meth:`stats` reads with them, so
    a snapshot is consistent however many threads submit.  Pass ``trace=`` a
    :class:`~repro.obs.trace.Tracer` (or set ``engine.tracer``) to record
    ``engine.run``/``engine.run_many`` → ``batch.coalesce`` /
    ``plan.compile`` (on a plan-cache miss) → ``plan.execute`` →
    ``plan.node`` → kernel spans; the default
    :data:`~repro.obs.trace.NULL_TRACER` keeps the disabled path within
    the measured overhead budget.
    """

    def __init__(
        self,
        model: Graph | Any,
        num_threads: int = 1,
        max_batch_size: int = 8,
        trace: Tracer | None = None,
        param_cache: ParamCache | None = None,
    ) -> None:
        graph = getattr(model, "graph", model)
        if not isinstance(graph, Graph):
            raise TypeError(f"expected a Graph or model with .graph, got {model!r}")
        if num_threads != 1:
            raise ValueError(f"num_threads must be 1, got {num_threads}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        graph.verify()
        self.graph = graph
        self.max_batch_size = max_batch_size
        if not graph.inputs:
            raise ValueError("engine requires a graph with at least one input")
        self._base_batches = tuple(
            graph.tensors[t].shape[0] if graph.tensors[t].shape else 1
            for t in graph.inputs
        )

        self._plan_lock = ordered_lock("runtime.engine.plan")
        self._plans: dict[int, CompiledPlan] = {}
        self._param_cache = param_cache if param_cache is not None else ParamCache()
        # The one scratch arena every plan of this engine binds into.
        self._workspace = Workspace()

        #: tracer recording this engine's spans; NULL_TRACER when disabled
        self.tracer: Tracer = trace if trace is not None else NULL_TRACER

        # Counters, guarded by the plan lock like the caches whose counts
        # stats() reads beside them; one hold counts a whole batch.
        self._requests = 0
        self._samples = 0
        self._batches = 0
        self._batch_sizes: dict[int, int] = {}
        self._busy_s = 0.0
        self._plan_hits = 0
        self._plan_misses = 0

    # ------------------------------------------------------------- plumbing
    def plan(self, batch_factor: int = 1) -> CompiledPlan:
        """The cached :class:`CompiledPlan` for ``batch_factor``."""
        with self._plan_lock:
            plan = self._plans.get(batch_factor)
            if plan is None:
                with self.tracer.span("plan.compile", batch_factor=batch_factor):
                    plan = compile_plan(
                        self.graph, batch_factor=batch_factor,
                        cache=self._param_cache, workspace=self._workspace,
                    )
                self._plans[batch_factor] = plan
                # counted once stored: a compile that raises cached nothing
                self._plan_misses += 1
            else:
                self._plan_hits += 1
        return plan

    def _normalize_request(self, inputs: Sequence[Value]) -> Request:
        if len(inputs) != len(self.graph.inputs):
            raise ValueError(
                f"graph takes {len(self.graph.inputs)} inputs, got {len(inputs)}"
            )
        return tuple(
            v if isinstance(v, PackedTensor) else np.asarray(v) for v in inputs
        )

    def _batch_factor(self, request: Request) -> int:
        """How many base-batch groups a request carries; validates inputs."""
        factor: int | None = None
        for value, base, name in zip(request, self._base_batches, self.graph.inputs):
            lead = _lead_dim(value)
            if lead % base:
                raise ValueError(
                    f"input {name!r}: leading dimension {lead} is not a "
                    f"multiple of the graph's base batch {base}"
                )
            this = lead // base
            if factor is None:
                factor = this
            elif this != factor:
                raise ValueError(
                    f"inconsistent batch factors across inputs: {factor} vs {this}"
                )
        if not factor:
            raise ValueError("empty batch")
        return factor

    def normalize(self, inputs: Sequence[Value]) -> tuple[Request, int]:
        """Validate ``inputs`` and return ``(canonical request, factor)``.

        The serving gateway calls this at admission time so malformed
        requests raise in the submitting caller instead of inside a
        replica worker.  Raises :class:`ValueError` exactly like ``run``.
        """
        request = self._normalize_request(inputs)
        return request, self._batch_factor(request)

    def _execute(self, plan: CompiledPlan, inputs: Request) -> tuple[Value, ...]:
        start = time.perf_counter()
        outputs = plan.execute(inputs, tracer=self.tracer)
        elapsed = time.perf_counter() - start
        # One plan-lock hold per batch, taken after execute released the
        # arena: the batch, its samples, its histogram bucket and its busy
        # time land together, so stats() always sees sum(histogram) == batches.
        factor = plan.batch_factor
        with self._plan_lock:
            self._batches += 1
            self._samples += factor
            self._batch_sizes[factor] = self._batch_sizes.get(factor, 0) + 1
            self._busy_s += elapsed
        return outputs

    @staticmethod
    def _unwrap(outputs: tuple[Value, ...]) -> Result:
        return outputs[0] if len(outputs) == 1 else outputs

    # ------------------------------------------------------------ front-end
    def run(self, *inputs: Value) -> Result:
        """Synchronous inference on one (possibly batched) request.

        The leading dimension of every input must be a multiple ``k`` of the
        graph's base batch; the result is bit-identical to concatenating
        ``k`` reference-executor runs.
        """
        request = self._normalize_request(inputs)
        factor = self._batch_factor(request)
        with self._plan_lock:
            self._requests += 1
        with self.tracer.span("engine.run", batch_factor=factor):
            return self._unwrap(self._execute(self.plan(factor), request))

    def run_many(self, requests: Sequence[Value | Sequence[Value]]) -> list[Result]:
        """Run many requests, coalescing them into micro-batches.

        Args:
            requests: one entry per request — a single value for
                single-input graphs, or a tuple of values.  Requests may
                themselves be batched (any multiple of the base batch).

        Returns:
            one result per request, in order, each bit-identical to
            ``run`` on that request alone.
        """
        items: list[tuple[Request, int]] = []
        for req in requests:
            if not isinstance(req, (tuple, list)):
                req = (req,)
            request = self._normalize_request(req)
            items.append((request, self._batch_factor(request)))
        with self._plan_lock:
            self._requests += len(items)

        tracer = self.tracer
        results: list[Result] = []
        with tracer.span("engine.run_many", requests=len(items)):
            start = time.perf_counter()
            chunks = greedy_chunks(items, self.max_batch_size)
            if tracer.enabled:
                tracer.record(
                    "batch.coalesce", start, time.perf_counter() - start,
                    requests=len(items), chunks=len(chunks),
                )
            for chunk in chunks:
                results.extend(self._run_chunk(chunk))
        return results

    def _run_chunk(self, chunk: list[tuple[Request, int]]) -> list[Result]:
        """Execute one micro-batch and split its outputs per request."""
        factors = [factor for _, factor in chunk]
        total = sum(factors)
        if len(chunk) == 1:
            batched = chunk[0][0]
        else:
            batched = tuple(
                _concat_values([request[i] for request, _ in chunk])
                for i in range(len(self.graph.inputs))
            )
        outputs = self._execute(self.plan(total), batched)
        if len(chunk) == 1:
            return [self._unwrap(outputs)]
        per_request: list[list[Value]] = [[] for _ in chunk]
        for out in outputs:
            out_base = _lead_dim(out) // total
            pieces = _split_value(out, [f * out_base for f in factors])
            for i, piece in enumerate(pieces):
                per_request[i].append(piece)
        return [self._unwrap(tuple(vals)) for vals in per_request]

    def close(self) -> None:
        """Lifecycle hook for ``with Engine(...)`` and the gateway; idempotent.

        The engine owns no threads, so there is nothing to stop: plans
        and caches stay valid and ``run`` stays usable afterwards.
        """

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- metrics
    def stats(self) -> EngineStats:
        """A consistent snapshot of the engine's counters.

        Read under one plan-lock hold, the lock every counter and the
        plan and weight caches live under, so the fields agree with each
        other however many threads are submitting.
        """
        with self._plan_lock:
            plan = next(iter(self._plans.values()), None)  # all fuse alike
            return EngineStats(
                requests=self._requests,
                samples=self._samples,
                batches=self._batches,
                batch_histogram=dict(self._batch_sizes),
                plan_cache_hits=self._plan_hits,
                plan_cache_misses=self._plan_misses,
                param_cache_hits=self._param_cache.hits,
                param_cache_misses=self._param_cache.misses,
                busy_s=self._busy_s,
                # not under the arena's lock: never waits for a running plan
                workspace_bytes=self._workspace.nbytes,
                verified=all(p.verified for p in self._plans.values()),
                graph_nodes=len(self.graph.nodes),
                nodes=len(plan.nodes) if plan else 0,
                fused_blocks=plan.fused_blocks if plan else 0,
            )
