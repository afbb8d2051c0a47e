"""Load generators: one thread, three disciplines.

- :func:`closed_loop` — one caller; the next call starts when the last
  returned (``single_224``, ``offline_b8_64``).
- :func:`open_loop` — requests are submitted at seeded Poisson due times
  whether or not earlier ones finished, and latency is timed **from the
  due time**, so a stall is charged to every request it delayed.  How
  late the generator itself ran is reported; a run whose lateness p99 is
  over the limit measured the generator, not the gateway, and is invalid.
- :func:`saturate` — a fixed number of futures kept in flight; completions
  reach the generator through a queue and it alone submits (never from a
  future's callback, which would run on a replica thread).

The program under test receives input arrays only — never the seed, the
schedule or the workload's name.  Replies are compared with the pooled
``Executor`` references *after* their completion time is stamped (after
the whole run for the open loop), so checking is off the timed path.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from bench import trace
from bench.trace import TraceRecorder

OK = "ok"
SHED = "shed"
FAILED = "failed"
TIMEOUT = "timeout"
MISMATCH = "mismatch"

#: how long to wait for an outstanding reply before counting it failed
REPLY_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """Everything one measured phase recorded, one entry per operation."""

    images_per_op: int
    #: when the operation was due (open loop) or started (closed loops)
    due: list[float] = field(default_factory=list)
    #: when the generator actually handed it over
    sent: list[float] = field(default_factory=list)
    #: when its reply was complete; ``nan`` if none came
    done: list[float] = field(default_factory=list)
    status: list[str] = field(default_factory=list)
    #: (wall, process CPU) when the phase began and when its last reply was in
    began: tuple[float, float] = (0.0, 0.0)
    ended: tuple[float, float] = (0.0, 0.0)
    #: seconds each ``Gateway.submit`` call took (served workloads)
    submit_call_s: list[float] = field(default_factory=list)
    #: request id -> ``request`` span id, when a recorder was attached
    request_spans: dict[int, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.status) * self.images_per_op

    @property
    def failed(self) -> int:
        return sum(s != OK for s in self.status) * self.images_per_op

    def count(self, status: str) -> int:
        return sum(s == status for s in self.status) * self.images_per_op

    def latencies_ms(self) -> list[float]:
        return [
            (d - t) * 1e3
            for t, d, s in zip(self.due, self.done, self.status)
            if s == OK
        ]

    def lateness_ms(self) -> list[float]:
        return [(s - t) * 1e3 for t, s in zip(self.due, self.sent)]


def matches(reply: Any, ref: np.ndarray) -> bool:
    """Bit-exact: same type, dtype, shape and every element equal."""
    return (
        isinstance(reply, np.ndarray)
        and reply.dtype == ref.dtype
        and np.array_equal(reply, ref)
    )


def _now() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _record_request(
    phase: Phase, recorder: TraceRecorder | None, rid: int
) -> None:
    """Add the ``request`` span (and its lateness child) for operation ``rid``."""
    if recorder is None or phase.status[rid] != OK:
        return
    span = recorder.add(trace.REQUEST, phase.due[rid], phase.done[rid], rid=rid)
    if phase.sent[rid] > phase.due[rid]:
        recorder.add(trace.LATE, phase.due[rid], phase.sent[rid], parent=span, rid=rid)
    phase.request_spans[rid] = span


def closed_loop(
    call: Callable[[list[np.ndarray]], Sequence[Any]],
    pool: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
    images_per_op: int,
    seconds: float,
    recorder: TraceRecorder | None = None,
) -> Phase:
    """One caller: ``call(inputs)`` returns one reply per input, in order."""
    phase = Phase(images_per_op)
    n = len(pool)
    phase.began = _now()
    end = phase.began[0] + seconds
    k = 0
    while True:
        idx = [(k * images_per_op + j) % n for j in range(images_per_op)]
        # A fresh view per operation: the traced run names requests by the
        # identity of the array it hands over.
        inputs = [pool[i][...] for i in idx]
        if recorder is not None:
            recorder.tag(inputs[0], k)
        t0 = time.perf_counter()
        replies = call(inputs)
        t1 = time.perf_counter()
        good = len(replies) == len(idx) and all(
            matches(r, refs[i]) for r, i in zip(replies, idx)
        )
        phase.due.append(t0)
        phase.sent.append(t0)
        phase.done.append(t1)
        phase.status.append(OK if good else MISMATCH)
        _record_request(phase, recorder, k)
        k += 1
        if t1 >= end:
            break
    phase.ended = _now()
    return phase


def _classify(
    reply: Any, ref: np.ndarray, rejected_type: type, failed_reason: str
) -> str:
    if isinstance(reply, rejected_type):
        return FAILED if reply.reason == failed_reason else SHED
    return OK if matches(reply, ref) else MISMATCH


def _send(phase: Phase, submit, completions, recorder, x, k: int, due=None) -> Any:
    """Hand request ``k`` over; its completion stamp arrives on ``completions``.

    The operation is entered as a timeout until its reply says otherwise.
    """
    if recorder is not None:
        recorder.tag(x, k)
    t0 = time.perf_counter()
    future = submit(x)
    t1 = time.perf_counter()
    future.add_done_callback(lambda _f: completions.put((k, time.perf_counter())))
    phase.due.append(t0 if due is None else due)
    phase.sent.append(t0)
    phase.done.append(float("nan"))
    phase.status.append(TIMEOUT)
    phase.submit_call_s.append(t1 - t0)
    return future


def open_loop(
    submit: Callable[[np.ndarray], Any],
    schedule: Sequence[float],
    pool: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
    seconds: float,
    rejected_type: type,
    failed_reason: str,
    recorder: TraceRecorder | None = None,
) -> Phase:
    """Submit at ``schedule`` offsets; ``submit(x)`` returns a future."""
    phase = Phase(1)
    n = len(pool)
    completions: queue.SimpleQueue = queue.SimpleQueue()
    futures = []
    phase.began = _now()
    start = phase.began[0]
    for k, offset in enumerate(schedule):
        due = start + offset
        _sleep_until(due)
        futures.append(
            _send(phase, submit, completions, recorder, pool[k % n][...], k, due)
        )
    _sleep_until(start + seconds)

    done_at = _drain(completions, len(futures))
    phase.ended = _now()
    for k, t in done_at.items():
        phase.done[k] = t
        phase.status[k] = _classify(
            futures[k].result(), refs[k % n], rejected_type, failed_reason
        )
        _record_request(phase, recorder, k)
    return phase


def _drain(completions: queue.SimpleQueue, expected: int) -> dict[int, float]:
    """Collect ``expected`` completion stamps; stop early at the reply timeout."""
    done_at: dict[int, float] = {}
    deadline = time.perf_counter() + REPLY_TIMEOUT_S
    while len(done_at) < expected:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        try:
            k, t = completions.get(timeout=remaining)
        except queue.Empty:
            break
        done_at[k] = t
    return done_at


def saturate(
    submit: Callable[[np.ndarray], Any],
    in_flight: int,
    pool: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
    seconds: float,
    rejected_type: type,
    failed_reason: str,
    recorder: TraceRecorder | None = None,
) -> Phase:
    """Keep ``in_flight`` requests outstanding for ``seconds``."""
    phase = Phase(1)
    n = len(pool)
    completions: queue.SimpleQueue = queue.SimpleQueue()
    futures: dict[int, Any] = {}

    def send(k: int) -> None:
        futures[k] = _send(phase, submit, completions, recorder, pool[k % n][...], k)

    phase.began = _now()
    end = phase.began[0] + seconds
    sent = 0
    for _ in range(in_flight):
        send(sent)
        sent += 1
    outstanding = in_flight
    while outstanding:
        try:
            k, t = completions.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            break  # whatever is still out stays a timeout
        outstanding -= 1
        phase.done[k] = t
        phase.status[k] = _classify(
            futures.pop(k).result(), refs[k % n], rejected_type, failed_reason
        )
        _record_request(phase, recorder, k)
        if t < end:
            send(sent)
            sent += 1
            outstanding += 1
    phase.ended = _now()
    return phase
