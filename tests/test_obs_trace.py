"""Unit tests for structured spans and Chrome-trace export.

Nesting semantics, ring-buffer bounds, ambient activation, the shared
no-op tracer, trace_event schema validation (including seeded
violations), and the end-to-end contract: a traced QuickNet-small engine
run exports a valid nested trace with one ``plan.node`` span per graph
node.
"""

from __future__ import annotations

import argparse
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from fake_clock import FakeClock

from repro import cli
from repro.converter import convert
from repro.obs.export import (
    chrome_trace,
    flamegraph_lines,
    node_seconds,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    active_tracer,
)
from repro.runtime import Engine
from repro.serving import Gateway, GatewayConfig, Rejected
from repro.zoo import quicknet


class TestSpans:
    def test_nesting_records_paths(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid2"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].path == ()
        assert spans["mid"].path == ("outer",)
        assert spans["inner"].path == ("outer", "mid")
        assert spans["mid2"].path == ("outer",)
        assert spans["outer"].args == {"kind": "test"}
        # children lie within the parent interval
        assert spans["outer"].start_s <= spans["mid"].start_s
        assert spans["mid"].end_s <= spans["outer"].end_s

    def test_spans_sorted_by_start(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        names = [s.name for s in tracer.spans()]
        assert names == ["a", "b"]

    def test_record_attributes_to_current_stack(self):
        tracer = Tracer()
        with tracer.span("parent"):
            t0 = time.perf_counter()
            tracer.record("leaf", t0, 1e-6, m=3)
        leaf = next(s for s in tracer.spans() if s.name == "leaf")
        assert leaf.path == ("parent",)
        assert leaf.args == {"m": 3}
        assert leaf.dur_s == 1e-6

    def test_span_exposes_duration_after_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as sp:
            pass
        assert isinstance(sp, Span) and sp.dur_s >= 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=-1)

    def test_clear(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        tracer.clear()
        assert tracer.spans() == [] and tracer.dropped == 0


class TestAmbientActivation:
    def test_default_is_null(self):
        assert active_tracer() is NULL_TRACER

    def test_enabled_span_installs_and_restores(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert active_tracer() is tracer
            inner = Tracer()
            with inner.span("nested"):
                assert active_tracer() is inner
            assert active_tracer() is tracer
        assert active_tracer() is NULL_TRACER


class TestDisabledTracer:
    def test_shared_singleton_span(self):
        """The disabled tracer never allocates span objects."""
        assert isinstance(NULL_TRACER, Tracer)
        assert not NULL_TRACER.enabled
        sp1 = NULL_TRACER.span("a")
        sp2 = NULL_TRACER.span("b")
        assert sp1 is sp2  # one process-wide no-op span, reused forever
        with sp1 as entered:
            assert entered is sp1
        assert sp1.dur_s == 0.0

    def test_noop_surface(self):
        NULL_TRACER.record("x", 0.0, 1.0)
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.dropped == 0
        NULL_TRACER.clear()


class TestChromeExport:
    def test_schema_and_wall_anchor(self):
        tracer = Tracer()
        before_us = time.time() * 1e6
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        obj = chrome_trace(tracer)
        assert validate_chrome_trace(obj) == []
        assert obj["displayTimeUnit"] == "ms"
        xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in ms} == {"process_name", "thread_name"}
        assert {e["name"] for e in xs} == {"outer", "inner"}
        inner = next(e for e in xs if e["name"] == "inner")
        assert inner["cat"] == "outer" and inner["args"] == {}
        # ts is wall-clock microseconds anchored at tracer construction
        assert abs(inner["ts"] - before_us) < 60e6

    def test_write_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(tracer, path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(obj))

    def test_validation_catches_seeded_violations(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []
        base = {"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1, "args": {}}
        problems = validate_chrome_trace(
            {"traceEvents": [dict(base)]}  # missing name
        )
        assert any("name" in p for p in problems)
        problems = validate_chrome_trace(
            {"traceEvents": [dict(base, name="bad", ph="Z")]}
        )
        assert any("ph" in p for p in problems)
        problems = validate_chrome_trace(
            {"traceEvents": [dict(base, name="neg", dur=-1.0)]}
        )
        assert any("negative" in p for p in problems)

    def test_validation_catches_broken_nesting(self):
        """A child interval escaping its parent is a schema violation."""
        base = {"ph": "X", "pid": 1, "tid": 7, "args": {}}
        events = [
            dict(base, name="parent", ts=0.0, dur=10.0),
            dict(base, name="escapee", ts=5.0, dur=10.0),  # ends at 15 > 10
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("escapes" in p for p in problems)

    def test_node_seconds_filters_by_span_name(self):
        tracer = Tracer()
        tracer.record("plan.node", 0.0, 0.25, node="conv", op="conv2d")
        tracer.record("plan.node", 1.0, 0.5, node="conv", op="conv2d")
        tracer.record("kernel.bgemm", 0.0, 9.0, m=1, n=1)
        assert node_seconds(tracer.spans()) == {"conv": pytest.approx(0.75)}

    def test_flamegraph_lines(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
            with tracer.span("leaf"):
                pass
        lines = flamegraph_lines(tracer.spans())
        assert len(lines) == 2
        assert lines[0].startswith("root") and "calls=1" in lines[0]
        assert lines[1].strip().startswith("leaf") and "calls=2" in lines[1]


class TestEngineTrace:
    def test_quicknet_trace_nested_and_complete(self):
        """ISSUE acceptance: one QuickNet-small run exports a valid trace
        with nested spans and one ``plan.node`` span per graph node."""
        model = convert(quicknet("small", input_size=32))
        tracer = Tracer()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        with Engine(model, trace=tracer) as engine:
            engine.run(x)

        spans = tracer.spans()
        by_name: dict[str, int] = {}
        for s in spans:
            by_name[s.name] = by_name.get(s.name, 0) + 1
        assert by_name["engine.run"] == 1
        assert by_name["plan.execute"] == 1
        assert by_name["plan.node"] == len(model.graph.nodes)
        assert by_name.get("kernel.bgemm", 0) > 0

        node_spans = [s for s in spans if s.name == "plan.node"]
        assert {s.args["node"] for s in node_spans} == {
            n.name for n in model.graph.nodes
        }
        # every plan.node is nested under engine.run -> plan.execute
        assert all(
            s.path == ("engine.run", "plan.execute") for s in node_spans
        )
        # kernel spans sit under their plan.node
        bgemm = [s for s in spans if s.name == "kernel.bgemm"]
        assert all(s.path[:2] == ("engine.run", "plan.execute") for s in bgemm)
        assert all(s.path[2] == "plan.node" for s in bgemm)
        # ... and carry the K schedule the panel shape derived
        for s in bgemm:
            words, k_block = s.args["words"], s.args["k_block"]
            assert 1 <= k_block <= words
            assert s.args["steps"] == -(-words // k_block)
        assert any(s.args["steps"] == 1 and s.args["words"] > 1 for s in bgemm)

        obj = chrome_trace(tracer)
        assert validate_chrome_trace(obj) == []
        measured = node_seconds(spans)
        assert set(measured) == {n.name for n in model.graph.nodes}

    def test_run_many_span_shapes(self, rng):
        model = convert(quicknet("small", input_size=32))
        tracer = Tracer()
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        with Engine(model, trace=tracer, max_batch_size=2) as engine:
            engine.run_many([x, x, x])
        names = {s.name for s in tracer.spans()}
        assert "engine.run_many" in names
        assert "batch.coalesce" in names
        coalesce = next(
            s for s in tracer.spans() if s.name == "batch.coalesce"
        )
        assert coalesce.args["requests"] == 3 and coalesce.args["chunks"] == 2
        assert validate_chrome_trace(chrome_trace(tracer)) == []


def _documented_span_tree() -> tuple[set[str], set[tuple[str | None, str]]]:
    """Span names and (parent, child) edges of architecture.md §9's block.

    A line ``<indent><name>[ / <name>...]  <prose>`` documents each name at
    depth ``indent // 2`` under every name of the nearest shallower line.
    """
    doc = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
    section = doc.read_text().split("### Span taxonomy", 1)[1]
    block = section.split("```\n", 2)[1]
    names: set[str] = set()
    edges: set[tuple[str | None, str]] = set()
    parents: list[list[str | None]] = [[None]]
    span = r"[a-z_]+\.[a-z_]+"
    for line in block.splitlines():
        m = re.match(rf"( *)({span}(?: / {span})*)(?:  |$)", line)
        if m is None:
            continue
        depth = len(m[1]) // 2
        line_names = m[2].split(" / ")
        del parents[depth + 1 :]
        names.update(line_names)
        edges.update((p, n) for p in parents[depth] for n in line_names)
        parents.append(line_names)
    return names, edges


class _BrokenEngine(Engine):
    """A replica whose every batch raises: its requests fail and, with a
    failure budget of one, it is quarantined on the first."""

    def run_many(self, requests):
        raise RuntimeError("injected fault")


def test_architecture_doc_span_taxonomy(rng):
    """§9's span block is the set of spans and marks a traced
    ``Engine.run``, ``Engine.run_many`` and ``Gateway`` emit — serving,
    warming up, shedding an unknown model's and a closed gateway's
    requests, and failing a request on a quarantined replica — name for
    name, and every emitted nesting is one the block draws."""
    model = convert(quicknet("small", input_size=32))
    x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
    tracer = Tracer()
    with Engine(model, trace=tracer) as engine:
        engine.run(x)
        engine.run_many([x, x])
    config = GatewayConfig(max_batch=1, deadline_ms=100.0, max_replica_failures=1)
    gateway = Gateway({"m": model}, config, clock=FakeClock(), trace=tracer)
    try:
        assert not isinstance(gateway.submit("m", x).result(30.0), Rejected)
        gateway.warmup(factors=(2,))
        assert gateway.submit("nope", x).result(30.0).reason == "unknown_model"
    finally:
        gateway.close()
    assert gateway.submit("m", x).result(30.0).reason == "closed"
    broken = Gateway(
        {"m": model}, config, clock=FakeClock(), trace=tracer,
        engine_factory=_BrokenEngine,
    )
    try:
        assert broken.submit("m", x).result(30.0).reason == "replica_error"
    finally:
        broken.close()
    spans = tracer.spans()
    emitted = {(s.path[-1] if s.path else None, s.name) for s in spans}

    names, edges = _documented_span_tree()
    assert names == {s.name for s in spans}
    assert emitted <= edges


def _documented_cli_commands() -> list[list[str]]:
    """The ``cli ...`` code spans in the command column of §9's
    question → command table, split into tokens without the ``cli``."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
    section = doc.read_text().split("## 9. Observability", 1)[1]
    table = section.split("| artifact |", 1)[1].split("\n\n", 1)[0]
    commands = []
    for row in table.splitlines()[2:]:  # skip the header tail and rule
        command_cell = row.strip().strip("|").split("|")[-1]
        for code in re.findall(r"`([^`]+)`", command_cell):
            if code.startswith("cli "):
                commands.append(code.split()[1:])
    return commands


def test_architecture_doc_question_table_matches_the_cli_parser():
    """Every ``cli <subcommand>`` and ``--flag`` §9's question → command
    table names exists in ``build_parser()``."""
    parser = cli.build_parser()
    (subcommands,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    commands = _documented_cli_commands()
    assert len(commands) >= 4  # one per artifact row, at least
    for subcommand, *rest in commands:
        assert subcommand in subcommands, subcommand
        options = subcommands[subcommand]._option_string_actions
        for flag in (t for t in rest if t.startswith("-")):
            assert flag in options, f"cli {subcommand} has no {flag}"


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli.main(
            ["trace", "--model", "quicknet_small", "--input-size", "32",
             "--batch", "2", "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "perfetto" in stdout and "engine.run" in stdout
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        assert any(
            e["name"] == "plan.node" for e in obj["traceEvents"]
        )

    def test_stats_command(self, capsys):
        rc = cli.main(
            ["stats", "--model", "quicknet_small", "--input-size", "32",
             "--batch", "2", "--repeats", "1"]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "quicknet_small: engine stats" in stdout
        assert "requests" in stdout
        assert "batch_histogram" in stdout
        assert "param_cache_hits" in stdout
