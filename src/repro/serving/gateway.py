"""The async serving gateway: the front door in front of Engine replicas.

The paper's point is that kernels only matter once they serve traffic;
this module turns the compiled-plan :class:`~repro.runtime.Engine` into a
service.  One :class:`Gateway` fronts any number of models; per model it
owns:

- a **bounded queue** with admission control — a full queue, a closed
  gateway, an unknown model or a dead replica pool sheds the request
  with a typed :class:`Rejected` *result* (the future still resolves;
  nothing ever blocks the submitter and nothing grows unboundedly);
- a **warm replica pool** — ``replicas`` engines sharing one prepacked
  :class:`~repro.runtime.plan.ParamCache`, each with one worker thread
  that *pulls* its own micro-batches: the longest-idle replica flushes
  at once while another replica is idle too (a later arrival finds that
  one free, so holding would be pure wait); otherwise it holds a
  partial batch until it reaches ``max_batch``, another replica frees,
  ``deadline_ms`` passes after the oldest queued request's submit time,
  or the last ``max_batch`` arrivals stop averaging one per
  ``deadline_ms`` (nobody is coming to share the batch) — whichever
  comes first — and runs the batch itself.  All waiting goes through
  the injected :class:`~repro.serving.clock.Clock`, so tests drive
  every deadline with a fake clock and zero wall-clock sleeps.  A
  replica that keeps failing is quarantined (its in-flight batch
  resolves to typed ``Rejected`` replies, never an exception leak or a
  deadlock) and the pool keeps serving on the survivors.

Observability: each model server counts its admission decisions and
batches under the server lock they already take, and
:meth:`Gateway.metrics_snapshot` reports them as ``gateway.<model>.*``
(the ``gateway.*`` totals are summed from those per-model reads, so
``submitted == accepted + shed`` holds at *every* snapshot).  With a
:class:`~repro.obs.trace.Tracer` attached, the gateway records
``gateway.submit`` / ``gateway.flush`` spans that nest the engine's
``engine.run_many`` → ``plan.execute`` → kernel spans,
mints a ``request_id`` per submit and records the request's lifecycle
as zero-duration marks in the same tracer — ``request.accept`` /
``request.coalesce`` / exactly one terminal ``request.complete`` |
``request.shed`` | ``request.failed`` (plus ``replica.quarantine``) —
so one trace tells what happened to each request and where its time
went.  :meth:`Gateway.stats` reads the p50/p95/p99 latency tails off the
``gateway.<model>.latency_ms`` histograms.

Determinism contract: an accepted request's reply is bit-identical to
running that request alone through ``Engine.run`` — the gateway only
re-batches, it never re-orders values inside a batch (see
``tests/test_serving_conservation.py``).
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.concurrency.locks import ordered_lock
from repro.graph.ir import Graph
from repro.obs.metrics import quantile_from_counts, significant, summarize
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.engine import Engine
from repro.runtime.plan import ParamCache
from repro.serving.clock import MONOTONIC_CLOCK, Clock

Value = Any
Request = tuple[Value, ...]

# Typed shed/failure reasons (the `Rejected.reason` vocabulary).
SHED_QUEUE_FULL = "queue_full"
SHED_CLOSED = "closed"
SHED_UNKNOWN_MODEL = "unknown_model"
SHED_NO_HEALTHY_REPLICA = "no_healthy_replica"
FAILED_REPLICA = "replica_error"


@dataclass(frozen=True)
class Rejected:
    """A typed negative reply: the request was shed or its replica died.

    Futures returned by :meth:`Gateway.submit` always *resolve* — either
    with the model outputs or with one of these.  Callers branch on
    ``isinstance(reply, Rejected)``; nothing raises out of the gateway's
    threads and nothing deadlocks on an error path.
    """

    model: str
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class GatewayConfig:
    """Per-model serving policy (one config applies to every model)."""

    #: largest micro-batch, in base-batch groups (same unit as the engine)
    max_batch: int = 8
    #: the longest a request may be held for company: a forming batch is
    #: flushed this long after its oldest request even if it is not full,
    #: and sooner — at once — while another replica is idle or when the
    #: last ``max_batch`` arrivals span more than ``max_batch * deadline_ms``;
    #: a busy replica freeing up ends the hold too
    deadline_ms: float = 5.0
    #: bounded per-model queue, in queued requests; admission sheds beyond
    max_queue: int = 64
    #: warm engines per model, sharing one prepacked ParamCache
    replicas: int = 1
    #: vestigial, must be 1 (``bench/`` passes it by keyword)
    num_threads: int = 1
    #: consecutive batch failures before a replica is quarantined
    max_replica_failures: int = 3

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        # nan and inf pass the sign test; a worker handed either waits
        # forever or dies in Condition.wait with the future unresolved.
        if self.deadline_ms < 0 or not math.isfinite(self.deadline_ms):
            raise ValueError(
                f"deadline_ms must be finite and >= 0, got {self.deadline_ms}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {self.max_queue}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.num_threads != 1:
            raise ValueError(f"num_threads must be 1, got {self.num_threads}")
        if self.max_replica_failures < 1:
            raise ValueError(
                f"max_replica_failures must be positive, "
                f"got {self.max_replica_failures}"
            )


@dataclass(frozen=True)
class GatewayStats:
    """A consistent snapshot of the gateway's counters and latency tails."""

    submitted: int
    accepted: int
    shed: int
    completed: int
    failed: int
    batches: int
    #: executed batch size (in base-batch groups) -> count
    batch_histogram: dict[int, int]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    queue_depth: dict[str, int] = field(default_factory=dict)
    shed_by_model: dict[str, int] = field(default_factory=dict)
    replicas_healthy: dict[str, int] = field(default_factory=dict)
    #: every replica engine's plans passed the static-analysis stack
    verified: bool = True

    @property
    def in_flight(self) -> int:
        """Accepted requests not yet answered."""
        return self.accepted - self.completed - self.failed

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * n for size, n in self.batch_histogram.items())
        return total / self.batches if self.batches else 0.0


def _observe(counts: dict[Any, int], value: Any) -> None:
    counts[value] = counts.get(value, 0) + 1


def _hold_until(
    t_head: float,
    recent: Sequence[float],
    max_batch: int,
    deadline_s: float,
    other_idle: bool,
) -> float:
    """Clock time up to which a partial batch may be held for company.

    ``t_head`` is the oldest queued request's submit time and ``recent``
    the last (at most ``max_batch``) accepted submit times, oldest first.
    ``other_idle`` says another healthy replica is idle too: then there
    is nothing to hold for — a companion arriving later finds that
    replica free — and the batch flushes at once.  Otherwise the
    request's own deadline caps the hold; once a full window of arrivals
    has been seen, so does the moment the window's mean gap grows past
    the deadline: from then on the measured rate says no companion
    arrives in time.  With a shorter window there is no evidence and
    only the deadline applies, so for any input the result is never
    later than ``t_head + deadline_s``.
    """
    if other_idle:
        return t_head
    until = t_head + deadline_s
    if len(recent) >= max_batch:
        until = min(until, recent[0] + max_batch * deadline_s)
    return until


def _resolve(future: Future, value: Any) -> None:
    """Resolve a reply future, tolerating caller-side cancellation."""
    if not future.set_running_or_notify_cancel():
        return  # caller cancelled while queued; reply has nowhere to go
    future.set_result(value)


class _Pending:
    """One admitted request waiting in a model queue."""

    __slots__ = (
        "request", "factor", "future", "t_submit", "t_taken", "request_id"
    )

    def __init__(
        self,
        request: Request,
        factor: int,
        future: Future,
        t_submit: float,
        request_id: str | None = None,
    ) -> None:
        self.request = request
        self.factor = factor
        self.future = future
        self.t_submit = t_submit
        self.t_taken = t_submit  # re-stamped when a worker pops it
        self.request_id = request_id


class _Replica:
    """One warm engine plus its worker-thread state.

    All mutable fields are guarded by the owning server's single lock;
    the worker thread is the only writer of ``consecutive_failures``.
    """

    __slots__ = ("idx", "engine", "thread", "quarantined", "consecutive_failures")

    def __init__(self, idx: int, engine: Engine) -> None:
        self.idx = idx
        self.engine = engine
        self.thread: threading.Thread | None = None
        self.quarantined = False
        self.consecutive_failures = 0


class _ModelServer:
    """Queue + replica pool for one model.

    One lock, one condition: ``_cond`` carries every edge (enqueue, a
    batch taken, a replica rejoining the idle FIFO, close) to the
    replica workers.  Idle replicas wait in the ``_idle`` FIFO and only
    its head may form a batch, which makes placement a deterministic
    rotation; no lock is held across engine execution.
    """

    def __init__(
        self,
        name: str,
        model: Graph | Any,
        config: GatewayConfig,
        clock: Clock,
        tracer: Tracer,
        engine_factory: Callable[..., Engine] | None = None,
    ) -> None:
        self.name = name
        self._config = config
        self._clock = clock
        self._tracer = tracer

        self._lock = ordered_lock("serving.server")
        self._cond = threading.Condition(self._lock)
        self._queue: deque[_Pending] = deque()
        self._queued_factor = 0
        # Submit times of the last max_batch accepted requests: the
        # arrival-rate evidence the deadline hold is gated on.
        self._recent: deque[float] = deque(maxlen=config.max_batch)
        self._closed = False

        # Warm pool: every replica shares one prepacked-weight cache, so
        # binarized filters are packed once per model, not once per engine.
        self.param_cache = ParamCache()
        if engine_factory is None:
            engine_factory = Engine
        self._replicas = [
            _Replica(
                idx,
                engine_factory(
                    model,
                    max_batch_size=config.max_batch,
                    trace=tracer if tracer.enabled else None,
                    param_cache=self.param_cache,
                ),
            )
            for idx in range(config.replicas)
        ]
        # Filled in index order before any worker starts, so the rotation
        # does not depend on which thread the OS happens to run first.
        self._idle: deque[_Replica] = deque(self._replicas)
        self._healthy = len(self._replicas)

        # Counters, guarded by the server lock that admission and every
        # batch outcome already hold; the latency histograms key each
        # observation at 3 significant digits (obs.metrics.significant).
        self._accepted = 0
        self._shed = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._replica_failures = 0
        self._batch_sizes: dict[int, int] = {}
        self._latencies_ms: dict[float, int] = {}
        self._queue_waits_ms: dict[float, int] = {}

        for replica in self._replicas:
            replica.thread = threading.Thread(
                target=self._worker_loop,
                args=(replica,),
                name=f"repro-gw-{name}-r{replica.idx}",
                daemon=True,
            )
            replica.thread.start()

    # --------------------------------------------------------------- views
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def healthy_replicas(self) -> int:
        with self._lock:
            return self._healthy

    def snapshot(self) -> dict[str, Any]:
        """Counters and raw ``value -> count`` histograms, keyed like
        ``metrics_snapshot()`` without the ``gateway.<model>.`` prefix,
        read under one lock hold."""
        with self._lock:
            return {
                "accepted": self._accepted,
                "shed": self._shed,
                "completed": self._completed,
                "failed": self._failed,
                "batches": self._batches,
                "replica_failures": self._replica_failures,
                "queue_depth": len(self._queue),
                "replicas_healthy": self._healthy,
                "batch_size": dict(self._batch_sizes),
                "latency_ms": dict(self._latencies_ms),
                "queue_wait_ms": dict(self._queue_waits_ms),
            }

    @property
    def engines(self) -> list[Engine]:
        return [r.engine for r in self._replicas]

    def warmup(self, factors: Sequence[int]) -> None:
        """Compile plans (and prepack weights) ahead of traffic; a factor
        above ``max_batch`` raises :class:`ValueError` from ``Engine.plan``."""
        for replica in self._replicas:
            for factor in factors:
                replica.engine.plan(factor)

    # ----------------------------------------------------------- admission
    def submit(
        self,
        request: Request,
        factor: int,
        future: Future,
        request_id: str | None = None,
    ) -> None:
        """Admit or shed; always resolves ``future`` eventually."""
        t_submit = self._clock.now()
        reason: str | None = None
        with self._lock:
            if self._closed:
                reason = SHED_CLOSED
            elif not self._healthy:
                reason = SHED_NO_HEALTHY_REPLICA
            elif len(self._queue) >= self._config.max_queue:
                reason = SHED_QUEUE_FULL
            else:
                # Count (and mark) acceptance *before* a worker can see
                # the item, so no snapshot ever observes completed >
                # accepted and the accept mark precedes the coalesce.
                self._accepted += 1
                if self._tracer.enabled:
                    self._tracer.mark(
                        "request.accept",
                        request_id=request_id, model=self.name, factor=factor,
                    )
                self._queue.append(
                    _Pending(request, factor, future, t_submit, request_id)
                )
                self._queued_factor += factor
                self._recent.append(t_submit)
                self._cond.notify_all()
            if reason is not None:
                self._shed += 1
        if reason is not None:
            self._tracer.mark(
                "request.shed", request_id=request_id, model=self.name, reason=reason
            )
            _resolve(future, Rejected(self.name, reason))

    # ------------------------------------------------------------- workers
    def _worker_loop(self, replica: _Replica) -> None:
        """One replica's life: pull a micro-batch, run it, rejoin the FIFO."""
        clock, cond = self._clock, self._cond
        max_batch = self._config.max_batch
        deadline_s = self._config.deadline_ms / 1e3
        while True:
            with cond:
                # Continuous batching with a latency deadline: the head
                # of the idle FIFO flushes a partial batch at once while
                # another replica is idle, and otherwise holds it for
                # company until it is full, another replica frees, the
                # oldest request's deadline expires, or the recent
                # arrivals stop averaging one per deadline (see
                # _hold_until) — whichever comes first; close() cuts the
                # wait short.
                while True:
                    if self._closed and not self._queue:
                        return  # closed and fully drained
                    if not self._queue or self._idle[0] is not replica:
                        remaining = None  # nothing to take, or not our turn
                    elif self._closed or self._queued_factor >= max_batch:
                        break
                    else:
                        hold_until = _hold_until(
                            self._queue[0].t_submit, self._recent, max_batch,
                            deadline_s, len(self._idle) > 1,
                        )
                        remaining = hold_until - clock.now()
                        if remaining <= 0:
                            break
                    clock.wait(cond, remaining)
                self._idle.popleft()
                batch = self._take_batch()
                cond.notify_all()  # the next idle replica is the head now
            self._run_batch(replica, batch)
            with cond:
                if replica.quarantined:
                    return
                self._idle.append(replica)
                if self._queue:
                    cond.notify_all()  # a holding head flushes: we are free

    def _take_batch(self) -> list[_Pending]:
        """Pop the first greedy micro-batch (called with the lock held).

        The popped prefix is ``greedy_chunks(queue, max_batch)[0]``: take
        while the next request fits; an oversize head runs alone (sliced
        by the engine).
        """
        batch = [self._queue.popleft()]
        size = batch[0].factor
        while self._queue and size + self._queue[0].factor <= self._config.max_batch:
            batch.append(self._queue.popleft())
            size += batch[-1].factor
        now = self._clock.now()
        for p in batch:
            p.t_taken = now
        self._queued_factor -= size  # repro: allow[C005] documented contract: the worker calls this with self._lock held
        return batch

    def _run_batch(self, replica: _Replica, batch: list[_Pending]) -> None:
        size = sum(p.factor for p in batch)
        requests = [p.request for p in batch]
        tracer = self._tracer
        if tracer.enabled:
            for p in batch:
                tracer.mark(
                    "request.coalesce",
                    request_id=p.request_id,
                    model=self.name,
                    batch_requests=len(batch),
                )
        try:
            with tracer.span(
                "gateway.flush",
                model=self.name,
                replica=replica.idx,
                requests=len(batch),
                size=size,
                request_ids=(
                    [p.request_id for p in batch] if tracer.enabled else None
                ),
            ):
                results = replica.engine.run_many(requests)
        except BaseException as exc:
            self._record_failure(replica, batch, exc)
            return
        end = self._clock.now()
        latencies_ms = [round((end - p.t_submit) * 1e3, 3) for p in batch]
        queue_waits_ms = [round((p.t_taken - p.t_submit) * 1e3, 3) for p in batch]
        buckets = [
            (significant(latency_ms), significant(queue_wait_ms))
            for latency_ms, queue_wait_ms in zip(latencies_ms, queue_waits_ms)
        ]
        with self._lock:
            replica.consecutive_failures = 0
            self._batches += 1
            _observe(self._batch_sizes, size)
            self._completed += len(batch)
            for latency_ms, queue_wait_ms in buckets:
                _observe(self._latencies_ms, latency_ms)
                _observe(self._queue_waits_ms, queue_wait_ms)
        for p, result, latency_ms, queue_wait_ms in zip(
            batch, results, latencies_ms, queue_waits_ms
        ):
            if tracer.enabled:
                tracer.mark(
                    "request.complete",
                    request_id=p.request_id,
                    model=self.name,
                    replica=replica.idx,
                    latency_ms=latency_ms,
                    queue_wait_ms=queue_wait_ms,
                )
            _resolve(p.future, result)

    def _record_failure(
        self, replica: _Replica, batch: list[_Pending], exc: BaseException
    ) -> None:
        """Fault isolation: count, maybe quarantine, answer with Rejected."""
        orphans: list[_Pending] = []
        with self._lock:
            replica.consecutive_failures += 1
            quarantined = (
                replica.consecutive_failures >= self._config.max_replica_failures
            )
            if quarantined:
                replica.quarantined = True
                self._healthy -= 1
                if not self._healthy:
                    # The pool just died: nobody is left to pull, and
                    # submit() sheds from this lock hold on, so what is
                    # queued now is all there will ever be.
                    orphans = list(self._queue)
                    self._queue.clear()
                    self._queued_factor = 0
            self._replica_failures += 1
            self._failed += len(batch) + len(orphans)
        detail = f"{type(exc).__name__}: {exc}"
        tracer = self._tracer
        if quarantined:
            tracer.mark(
                "replica.quarantine",
                model=self.name,
                replica=replica.idx,
                failures=replica.consecutive_failures,
            )
        for p in batch:
            tracer.mark(
                "request.failed",
                request_id=p.request_id,
                model=self.name,
                replica=replica.idx,
                reason=FAILED_REPLICA,
                detail=detail,
            )
            _resolve(p.future, Rejected(self.name, FAILED_REPLICA, detail))
        # Every replica is quarantined: typed reply, never a deadlock.
        for p in orphans:
            tracer.mark(
                "request.failed",
                request_id=p.request_id,
                model=self.name,
                reason=SHED_NO_HEALTHY_REPLICA,
            )
            _resolve(
                p.future,
                Rejected(self.name, SHED_NO_HEALTHY_REPLICA, "replica pool dead"),
            )

    # --------------------------------------------------------------- close
    def close(self) -> None:
        """Stop admission, drain the queue, stop workers; idempotent.

        Already-admitted requests are flushed (the deadline is cut short)
        and answered before the workers exit.  Safe to call concurrently:
        setting the flag twice and joining a thread twice are both no-ops.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for replica in self._replicas:
            if replica.thread is not None:
                replica.thread.join()
        for replica in self._replicas:
            replica.engine.close()


class Gateway:
    """Multi-model request gateway over warm Engine replica pools.

    Args:
        models: ``name -> Graph`` (or anything with ``.graph``) — the
            converted inference graphs to serve.
        config: one :class:`GatewayConfig` applied to every model.
        clock: the time source (tests inject a fake; defaults to the
            monotonic wall-free clock).
        trace: optional :class:`~repro.obs.trace.Tracer`; gateway spans
            nest the replica engines' spans in the same timeline, and
            each request's lifecycle marks join them on its request id.
    """

    def __init__(
        self,
        models: Mapping[str, Graph | Any],
        config: GatewayConfig | None = None,
        *,
        clock: Clock | None = None,
        trace: Tracer | None = None,
        engine_factory: Callable[..., Engine] | None = None,
    ) -> None:
        if not models:
            raise ValueError("gateway requires at least one model")
        # Every configuration problem surfaces here, before a worker starts.
        self.config = config if config is not None else GatewayConfig()
        self.config.validate()
        self.clock: Clock = clock if clock is not None else MONOTONIC_CLOCK
        self.tracer: Tracer = trace if trace is not None else NULL_TRACER
        self._req_seq = itertools.count(1)
        # The only request outcome no model server can count; every other
        # total is summed from the per-model counters at snapshot time.
        self._lock = ordered_lock("serving.gateway")
        self._shed_unknown = 0
        self._servers: dict[str, _ModelServer] = {}
        try:
            for name, model in models.items():
                self._servers[name] = _ModelServer(
                    name,
                    model,
                    self.config,
                    self.clock,
                    self.tracer,
                    engine_factory,
                )
        except BaseException:
            # The caller gets no handle: stop the workers already started
            # before the error leaves.
            self.close()
            raise

    # ------------------------------------------------------------ frontend
    @property
    def models(self) -> tuple[str, ...]:
        return tuple(sorted(self._servers))

    def server(self, model: str) -> _ModelServer:
        """The per-model server (tests and tooling reach in through this)."""
        return self._servers[model]

    def warmup(self, factors: Sequence[int] = (1,)) -> None:
        """Compile plans and prepack weights for every model/replica (each
        factor at most ``max_batch``, else :class:`ValueError`)."""
        for server in self._servers.values():
            server.warmup(factors)

    def submit(self, model: str, *inputs: Value) -> Future:
        """Queue one request; the future resolves to outputs or `Rejected`.

        Never blocks and never raises for load reasons — admission
        failures resolve the future with a typed :class:`Rejected`.
        Malformed inputs (wrong arity/shape) raise ``ValueError``
        synchronously, exactly like ``Engine.run``.
        """
        tracer = self.tracer
        server = self._servers.get(model)
        if server is None:
            with self._lock:
                self._shed_unknown += 1
            if tracer.enabled:  # skips minting a request id
                tracer.mark(
                    "request.shed",
                    request_id=f"{model}-{next(self._req_seq)}",
                    model=model,
                    reason=SHED_UNKNOWN_MODEL,
                )
            future: Future = Future()
            _resolve(future, Rejected(model, SHED_UNKNOWN_MODEL))
            return future
        # Validate in the caller's thread (raises like Engine.run) and
        # only *then* create the reply future: a raise between Future()
        # and its handoff would leak the future forever-pending (C004).
        request, factor = server.engines[0].normalize(inputs)
        request_id = (
            f"{model}-{next(self._req_seq)}" if tracer.enabled else None
        )
        future = Future()
        with tracer.span(
            "gateway.submit", model=model, factor=factor, request_id=request_id
        ):
            server.submit(request, factor, future, request_id)
        return future

    def close(self) -> None:
        """Drain every model server and stop all threads; idempotent.

        Safe to call concurrently (with itself and with ``submit``):
        every caller returns only after each server's workers have exited.
        """
        for server in self._servers.values():
            server.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- metrics
    def stats(self) -> GatewayStats:
        """A consistent snapshot of gateway counters plus latency tails."""
        snap = self.metrics_snapshot()
        hist = snap["gateway.batch_size"]
        latency = snap["gateway.latency_ms"]["counts"]
        return GatewayStats(
            submitted=snap["gateway.submitted"],
            accepted=snap["gateway.accepted"],
            shed=snap["gateway.shed"],
            completed=snap["gateway.completed"],
            failed=snap["gateway.failed"],
            batches=snap["gateway.batches"],
            batch_histogram={int(k): v for k, v in hist["counts"].items()},
            p50_ms=quantile_from_counts(latency, 0.50),
            p95_ms=quantile_from_counts(latency, 0.95),
            p99_ms=quantile_from_counts(latency, 0.99),
            queue_depth={
                name: snap[f"gateway.{name}.queue_depth"]
                for name in self._servers
            },
            shed_by_model={
                name: snap[f"gateway.{name}.shed"] for name in self._servers
            },
            replicas_healthy={
                name: snap[f"gateway.{name}.replicas_healthy"]
                for name in self._servers
            },
            verified=all(
                engine.stats().verified
                for server in self._servers.values()
                for engine in server.engines
            ),
        )

    def metrics_snapshot(self) -> dict[str, Any]:
        """Every counter as ``gateway.<model>.*``, plus the ``gateway.*`` totals.

        Each model server books its outcomes once, read under one hold of
        its lock; the gateway-wide totals are summed here from those
        reads, so they equal the sum of their per-model parts — and
        ``submitted == accepted + shed`` — at every snapshot.  Histograms
        render as ``{count, total, min, max, counts}``.
        """
        parts = [server.snapshot() for server in self._servers.values()]
        with self._lock:
            shed_unknown = self._shed_unknown
        snap: dict[str, Any] = {
            "gateway.shed_unknown_model": shed_unknown,
            # Ring truncation is never silent: drop counts ride every snapshot.
            "obs.trace.dropped": self.tracer.dropped,
        }
        for name, part in zip(self._servers, parts):
            for key, value in part.items():
                snap[f"gateway.{name}.{key}"] = (
                    summarize(value) if isinstance(value, dict) else value
                )
        for key in ("accepted", "shed", "completed", "failed", "batches"):
            snap[f"gateway.{key}"] = sum(part[key] for part in parts)
        snap["gateway.shed"] += shed_unknown
        snap["gateway.submitted"] = snap["gateway.accepted"] + snap["gateway.shed"]
        for key in ("batch_size", "latency_ms", "queue_wait_ms"):
            merged: dict[Any, int] = {}
            for part in parts:
                for value, n in part[key].items():
                    merged[value] = merged.get(value, 0) + n
            snap[f"gateway.{key}"] = summarize(merged)
        return snap
