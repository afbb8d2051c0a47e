"""Open-loop load generation for the serving gateway.

The harness the benchmark curves come from.  Open-loop means arrivals
are scheduled by a seeded Poisson process and submitted on time whether
or not earlier requests finished — the discipline that actually exposes
queueing behavior (a closed loop self-throttles and can never overload
the server).  Three pieces:

- :func:`generate_arrivals` — a reproducible arrival schedule:
  exponential inter-arrival gaps at ``rate_rps`` plus weighted model
  choice over a mixed :class:`TrafficProfile`.  The generator is passed
  *in* (the caller owns the seed), so this module stays free of entropy
  sources — the repo lint's L104 determinism contract holds in
  ``serving/`` too.
- :func:`run_load` — submits the schedule through a
  :class:`~repro.serving.gateway.Gateway` on the gateway's clock,
  resolves every future, and tallies accepted/shed/failed/completed into
  a :class:`LoadReport`.  Latency percentiles come from the gateway's
  own ``gateway.latency_ms`` histogram, so the loadgen and the metrics
  can never disagree.  Those latencies start at the gateway's
  ``t_submit``, so the report also says how late each ``submit`` was
  handed over (``gen_lateness_*``): a late generator must not read as a
  fast gateway.
- the pacing is clock-driven: with the real monotonic clock the
  schedule plays back in real time; with a fake clock a test advances
  virtual time and gets exactly the same submissions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import quantile_from_counts
from repro.serving.clock import Clock
from repro.serving.gateway import FAILED_REPLICA, Gateway, Rejected

#: (model name, relative weight) pairs describing mixed traffic
TrafficProfile = Sequence[tuple[str, float]]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: offset from stream start, target model."""

    at_s: float
    model: str


@dataclass(frozen=True)
class LoadReport:
    """What one offered-load point did to the gateway."""

    offered_rps: float
    duration_s: float
    submitted: int
    accepted: int
    shed: int
    failed: int
    completed: int
    #: submit of first arrival -> last reply resolved, in clock time
    elapsed_s: float
    #: how far behind its scheduled time a ``submit`` was called
    #: (nearest-rank p99 and the worst case over the run)
    gen_lateness_p99_ms: float
    gen_lateness_max_ms: float

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0


def generate_arrivals(
    profile: TrafficProfile,
    rate_rps: float,
    duration_s: float,
    rng: Any,
) -> list[Arrival]:
    """A seeded open-loop Poisson schedule over a mixed traffic profile.

    Args:
        profile: ``(model, weight)`` pairs; weights need not sum to 1.
        rate_rps: offered aggregate arrival rate (requests/second).
        duration_s: schedule length; arrivals past it are dropped.
        rng: a ``numpy`` Generator — the caller seeds it, so the same
            seed always yields the same schedule.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    names = [name for name, _ in profile]
    weights = [float(w) for _, w in profile]
    if not names:
        raise ValueError("traffic profile must name at least one model")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError(f"profile weights must be non-negative, got {weights}")
    total = sum(weights)
    p = [w / total for w in weights]

    arrivals: list[Arrival] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_rps))
        if t >= duration_s:
            break
        choice = int(rng.choice(len(names), p=p))
        arrivals.append(Arrival(at_s=t, model=names[choice]))
    return arrivals


def run_load(
    gateway: Gateway,
    arrivals: Sequence[Arrival],
    make_request: Callable[[str], tuple],
    *,
    clock: Clock | None = None,
    reply_timeout_s: float = 60.0,
) -> LoadReport:
    """Play an arrival schedule through the gateway and tally the replies.

    ``make_request(model)`` builds the input tuple for one request (the
    caller owns input generation and any randomness in it).  Submission
    is open-loop: each arrival is submitted at its scheduled clock time
    regardless of outstanding replies; the report is computed after every
    future has resolved.
    """
    clock = clock if clock is not None else gateway.clock
    start = clock.now()
    futures = []
    lateness_ms = []
    for arrival in arrivals:
        due = start + arrival.at_s
        delay = due - clock.now()
        if delay > 0:
            clock.sleep(delay)
        lateness_ms.append(max(0.0, clock.now() - due) * 1e3)
        futures.append(gateway.submit(arrival.model, *make_request(arrival.model)))

    shed = failed = completed = 0
    for future in futures:
        reply = future.result(timeout=reply_timeout_s)
        if isinstance(reply, Rejected):
            if reply.reason == FAILED_REPLICA:
                failed += 1
            else:
                shed += 1
        else:
            completed += 1
    elapsed = clock.now() - start
    duration = arrivals[-1].at_s if arrivals else 0.0
    offered = len(arrivals) / duration if duration > 0 else 0.0
    return LoadReport(
        offered_rps=offered,
        duration_s=duration,
        submitted=len(futures),
        accepted=len(futures) - shed,
        shed=shed,
        failed=failed,
        completed=completed,
        elapsed_s=elapsed,
        gen_lateness_p99_ms=quantile_from_counts(Counter(lateness_ms), 0.99),
        gen_lateness_max_ms=max(lateness_ms, default=0.0),
    )
