"""Self-time subtraction and span-sum conservation on hand-built trees."""

import pytest

from bench import trace
from bench.trace import Span


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),       # overlaps a for 1 s
        Span(4, "c", 9.0, 12.0, parent=1),      # 2 s hang out past the parent
        Span(5, "leaf", 1.5, 2.0, parent=2),
    ]
    selfs = trace.self_times(spans)
    # children cover [1, 6] and [9, 10]: 6 s of the root's 10
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_self_times_over_a_nested_tree_sum_to_the_root():
    spans = [
        Span(1, trace.REQUEST, 0.0, 1.0, rid=0),
        Span(2, trace.ENGINE_RUN, 0.1, 0.9, parent=1, rid=0),
        Span(3, trace.PLAN_EXECUTE, 0.2, 0.8, parent=2),
        Span(4, trace.NODE, 0.2, 0.5, parent=3),
        Span(5, trace.NODE, 0.5, 0.7, parent=3),
    ]
    selfs = trace.self_times(spans)
    assert sum(selfs.values()) == pytest.approx(1.0)
    totals = trace.layer_self_s(spans)
    assert totals[trace.NODE] == pytest.approx(0.5)
    assert totals[trace.PLAN_EXECUTE] == pytest.approx(0.1)
    assert totals[trace.ENGINE_RUN] == pytest.approx(0.2)
    assert totals[trace.REQUEST] == pytest.approx(0.2)


def _served_trace():
    """Two requests answered by one batch, as the gateway workloads record it."""
    rec = trace.TraceRecorder()
    r0 = rec.add(trace.REQUEST, 0.000, 0.030, rid=0)
    rec.add(trace.LATE, 0.000, 0.001, parent=r0, rid=0)
    r1 = rec.add(trace.REQUEST, 0.004, 0.031, rid=1)
    batch = rec.add(trace.ENGINE_RUN_MANY, 0.010, 0.028, request_ids=[0, 1])
    rec.add(trace.LINK, 0.010, 0.028, parent=r0, rid=0, batch=batch)
    rec.add(trace.LINK, 0.010, 0.028, parent=r1, rid=1, batch=batch)
    execute = rec.add(trace.PLAN_EXECUTE, 0.011, 0.027, parent=batch, batch_factor=2)
    rec.add(trace.NODE, 0.011, 0.020, parent=execute, node="conv")
    rec.add(trace.NODE, 0.020, 0.026, parent=execute, node="dense")
    return rec.spans()


def test_each_requests_spans_sum_to_its_latency():
    sums = {r.rid: r for r in trace.request_sums(_served_trace())}
    for rid, latency in ((0, 0.030), (1, 0.027)):
        r = sums[rid]
        assert r.latency_s == pytest.approx(latency)
        assert r.residual_s == pytest.approx(0.0, abs=1e-12)
        # the whole batch counts for each request that waited for it
        assert r.by_layer[trace.NODE] == pytest.approx(0.015)
        assert r.by_layer[trace.PLAN_EXECUTE] == pytest.approx(0.001)
        assert r.by_layer[trace.ENGINE_RUN_MANY] == pytest.approx(0.002)
    # request 0: 30 ms - 1 ms late - 18 ms in its batch = 11 ms nobody explains
    assert sums[0].unattributed_s == pytest.approx(0.011)
    assert sums[0].by_layer[trace.LATE] == pytest.approx(0.001)
    assert sums[1].unattributed_s == pytest.approx(0.009)


def test_layer_totals_count_a_shared_batch_once():
    totals = trace.layer_self_s(_served_trace())
    assert trace.LINK not in totals
    assert totals[trace.NODE] == pytest.approx(0.015)


def test_a_batch_that_outlives_its_request_shows_up_as_a_residual():
    spans = _served_trace()
    for s in spans:
        if s.name == trace.REQUEST and s.rid == 1:
            s.end = 0.020  # resolved "before" its batch returned: clocks disagree
    sums = {r.rid: r for r in trace.request_sums(spans)}
    assert sums[1].residual_s < -0.005
    assert sums[0].residual_s == pytest.approx(0.0, abs=1e-12)


def test_recorder_tags_are_consumed_once():
    rec = trace.TraceRecorder()
    x = object()
    rec.tag(x, 7)
    assert rec.rid_of(x) == 7
    assert rec.rid_of(x) is None
