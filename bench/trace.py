"""In-memory spans recorded from the benchmark's side of each boundary.

One span per boundary crossed on the way down: ``request`` (due time to
resolved future) -> ``engine.run`` / ``engine.run_many`` (the proxied
engine call) -> ``plan.execute`` -> one ``node`` span per plan node.
Spans stay in memory during the run and are written out when it ends.

A gateway batch serves several requests, so its ``engine.run_many`` tree
is recorded once, as a root, and every request it served gets a
``request.batch`` *link* span covering the same interval and naming the
batch in ``args["batch"]``.  Per-layer totals skip links (the time would
count once per request); per-request sums follow them.

``node_times`` gives durations only, so node spans carry measured
durations packed back to back from their ``plan.execute`` start.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

REQUEST = "request"
LATE = "loadgen.late"
LINK = "request.batch"
ENGINE_RUN = "engine.run"
ENGINE_RUN_MANY = "engine.run_many"
PLAN_EXECUTE = "plan.execute"
NODE = "node"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    #: request id shared by every span of one request
    rid: int | None = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects spans; ``add`` is safe from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        #: id(input array) -> request id, so the engine proxy can name the
        #: requests a batch carries without the program knowing about ids
        self._tags: dict[int, int] = {}

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        rid: int | None = None,
        **args: Any,
    ) -> int:
        with self._lock:
            span = Span(next(self._ids), name, start, end, parent, rid, args)
            self._spans.append(span)
        return span.id

    def tag(self, array: Any, rid: int) -> None:
        """Remember that ``array`` (by identity) is request ``rid``'s input."""
        self._tags[id(array)] = rid

    def rid_of(self, array: Any) -> int | None:
        return self._tags.pop(id(array), None)

    def clear(self) -> None:
        """Forget everything recorded so far (an invalid run is redone)."""
        with self._lock:
            self._spans.clear()
            self._tags.clear()

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def write(self, path, meta: dict[str, Any]) -> None:
        doc = {"meta": meta, "spans": [asdict(s) for s in self.spans()]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children count once, so self times over a tree sum to the root's
    duration exactly.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        cover = _covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        out[s.id] = s.dur - cover
    return out


def layer_self_s(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, links excluded."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        if s.name == LINK:
            continue
        totals[s.name] = totals.get(s.name, 0.0) + selfs[s.id]
    return totals


@dataclass(frozen=True)
class RequestSum:
    rid: int
    latency_s: float
    #: self time per span name over the request's subtree, links followed
    by_layer: dict[str, float]

    @property
    def unattributed_s(self) -> float:
        """The request span's own self time: inside the request, in no child."""
        return self.by_layer.get(REQUEST, 0.0)

    @property
    def residual_s(self) -> float:
        """Latency minus every self time; zero when the spans conserve time."""
        return self.latency_s - sum(self.by_layer.values())


def request_sums(spans: list[Span]) -> list[RequestSum]:
    """Per request: latency split into self times down its span tree."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def walk(span: Span, acc: dict[str, float]) -> None:
        if span.name == LINK:
            # The link stands in for the batch tree it names.  Whatever part
            # of the batch lies outside the request (it cannot, a request is
            # resolved after its batch returns) stays with the link.
            batch = by_id[span.args["batch"]]
            walk(batch, acc)
            extra = span.dur - batch.dur
            if extra:
                acc[LINK] = acc.get(LINK, 0.0) + extra
            return
        acc[span.name] = acc.get(span.name, 0.0) + selfs[span.id]
        for child in children.get(span.id, ()):
            walk(child, acc)

    out = []
    for s in spans:
        if s.name == REQUEST:
            acc: dict[str, float] = {}
            walk(s, acc)
            out.append(RequestSum(s.rid, s.dur, acc))
    return out
