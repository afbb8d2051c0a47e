"""Seeded-violation tests for the graph dataflow analyses (G-rules).

Every rule in :mod:`repro.analysis.dataflow` gets two kinds of coverage:

- **clean path** — the whole model zoo (training and converted graphs)
  analyzes with zero ERROR findings, so the rules never reject the
  graphs the converter actually produces;
- **seeded violations** — a legal converted graph is mutated the way a
  buggy pass would mutate it (dropped filter bits, stale thresholds,
  wrong word count, broken SSA, ...) and the analysis must report the
  documented rule id.

The enforcement points are exercised too: ``run_passes`` must
reject a pass that leaves the graph illegal — *even when the pass
reports no change* — naming the pass and the rule; ``Executor``,
``compile_plan`` and ``save_model`` must refuse illegal graphs; and the
``verified`` stamp must propagate from ``CompiledPlan`` to
``EngineStats``.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.analysis.dataflow import analyze_graph, check_graph
from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, GraphError, TensorSpec
from repro.graph.passes import run_passes
from repro.graph.serialization import load_model, save_model
from repro.kernels.batchnorm import BatchNormParams
from repro.runtime import Engine
from repro.runtime.plan import compile_plan
from repro.zoo import MODEL_REGISTRY, build_model

# ----------------------------------------------------------------- helpers


def _rules(diags):
    return {d.rule for d in diags}


def _binary_net(padding):
    """A fresh converted binarized chain (safe to mutate per test)."""
    rng = np.random.default_rng(0)
    b = GraphBuilder((1, 8, 8, 8))
    w1 = rng.standard_normal((3, 3, 8, 16)).astype(np.float32)
    w2 = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    x = b.binarize(b.input)
    x = b.conv2d(x, w1, binary_weights=True, padding=padding)
    x = b.batch_norm(x, BatchNormParams.identity(16))
    x = b.binarize(x)
    x = b.conv2d(x, w2, binary_weights=True, padding=padding)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((16, 4)).astype(np.float32))
    return convert(b.finish(x))


def _bconvs(graph):
    return [n for n in graph.nodes if n.op == "lce_bconv2d"]


def _bitpacked_bconv(graph):
    """The chain-fused conv: bitpacked output, thresholds precomputed."""
    (node,) = [n for n in _bconvs(graph) if "threshold" in n.params]
    return node


def _float_bconv(graph):
    (node,) = [n for n in _bconvs(graph) if "threshold" not in n.params]
    return node


# ----------------------------------------------------- clean path: the zoo


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_zoo_model_analyzes_clean_before_and_after_convert(name):
    graph = build_model(name, input_size=64)
    assert not analyze_graph(graph), name
    converted = convert(graph).graph
    diags = analyze_graph(converted)
    assert not diags, [d.format() for d in diags]


# ------------------------------------------------- G001: def-before-use/SSA


def test_g001_dangling_tensor_spec():
    graph = _binary_net(Padding.SAME_ONE).graph
    graph.tensors["orphan"] = TensorSpec((1, 4))
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G001"}
    assert any("no producer" in d.message for d in diags)


def test_g001_non_topological_order():
    graph = _binary_net(Padding.SAME_ONE).graph
    graph.nodes.reverse()
    assert "G001" in _rules(analyze_graph(graph))


def test_g001_unproduced_graph_output():
    graph = _binary_net(Padding.SAME_ONE).graph
    graph.outputs.append("never_made")
    assert "G001" in _rules(analyze_graph(graph))


def test_g001_structural_errors_short_circuit_later_rules():
    graph = _binary_net(Padding.SAME_ZERO).graph
    graph.nodes.reverse()
    del _float_bconv(graph).params["filter_bits"]  # would be G003
    del _bitpacked_bconv(graph).params["threshold"]  # would be G005
    assert _rules(analyze_graph(graph)) == {"G001"}


def test_check_graph_raises_with_rule_id_and_location():
    graph = _binary_net(Padding.SAME_ONE).graph
    graph.tensors["orphan"] = TensorSpec((1, 4))
    with pytest.raises(GraphError, match=r"dataflow analysis failed.*\[G001\]"):
        check_graph(graph)
    with pytest.raises(GraphError, match="compile_plan:"):
        check_graph(graph, where="compile_plan")


# --------------------------------------------------- G002: dtype and layout


def test_g002_bitpacked_tensor_feeding_float_domain_op():
    g = Graph("leak")
    x = g.add_input("x", TensorSpec((1, 8, 8, 64)))
    q = g.add_node("lce_quantize", [x], [TensorSpec((1, 8, 8, 64), "bitpacked")])
    r = g.add_node("relu", [q.outputs[0]], [TensorSpec((1, 8, 8, 64), "bitpacked")])
    g.outputs = [r.outputs[0]]
    diags = analyze_graph(g)
    assert _rules(diags) == {"G002"}
    assert any("float-domain" in d.message for d in diags)


def test_g002_recorded_spec_diverges_from_reinference():
    graph = _binary_net(Padding.SAME_ONE).graph
    out = graph.outputs[0]
    graph.tensors[out] = TensorSpec((1, 5), graph.tensors[out].dtype)
    diags = analyze_graph(graph)
    assert "G002" in _rules(diags)
    assert any("re-inference" in d.message for d in diags)


def test_g002_unregistered_op():
    graph = _binary_net(Padding.SAME_ONE).graph
    graph.add_node("totally_bogus_op", [graph.outputs[0]], [TensorSpec((1, 4))])
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G002"}
    assert any("no kernel for op 'totally_bogus_op'" in d.message for d in diags)


# ------------------------------------------- one check per invariant


def _duplicate_node_name():
    g = Graph("dup")
    x = g.add_input("x", TensorSpec((1, 4)))
    a = g.add_node("relu", [x], [TensorSpec((1, 4))], name="a")
    b = g.add_node("relu", [a.outputs[0]], [TensorSpec((1, 4))], name="b")
    b.name = "a"
    g.outputs = [b.outputs[0]]
    return g


def _unregistered_op():
    g = Graph("unknown")
    x = g.add_input("x", TensorSpec((1, 4)))
    n = g.add_node("warp_drive", [x], [TensorSpec((1, 4))], name="engine_room")
    g.outputs = [n.outputs[0]]
    return g


def _malformed_attribute():
    g = Graph("badattrs")
    x = g.add_input("x", TensorSpec((1, 6, 6, 3)))
    n = g.add_node(
        "maxpool2d", [x], [TensorSpec((1, 3, 3, 3))],
        attrs={"pool_h": 2, "pool_w": "wide"}, name="pool",
    )
    g.outputs = [n.outputs[0]]
    return g


@pytest.mark.parametrize(
    "build, rule, owner, message",
    [
        (_duplicate_node_name, "G001", "verify", "duplicate node name 'a'"),
        (_unregistered_op, "G002", "validate_graph", "no kernel for op 'warp_drive'"),
        (_malformed_attribute, "G002", "validate_graph",
         "malformed attribute 'pool_w'"),
    ],
    ids=["duplicate-node", "unregistered-op", "malformed-attr"],
)
def test_graph_validate_checks_each_invariant_once(
    build, rule, owner, message, monkeypatch
):
    """One implementation per invariant: ``Graph.validate`` raises once,
    from the owning check, and ``analyze_graph`` reports that one error
    under its rule id."""
    import repro.analysis.dataflow as dataflow

    raised = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except GraphError:
                raised.append(name)
                raise
        return wrapped

    monkeypatch.setattr(Graph, "verify", spy("verify", Graph.verify))
    monkeypatch.setattr(
        dataflow, "validate_graph", spy("validate_graph", dataflow.validate_graph)
    )
    graph = build()
    with pytest.raises(GraphError, match=rf"\[{rule}\] .*{message}") as exc:
        graph.validate()
    assert raised == [owner]
    assert str(exc.value).count(message) == 1
    raised.clear()
    diags = analyze_graph(graph)
    assert [d.rule for d in diags] == [rule]
    assert message in diags[0].message
    assert raised == [owner]


# ------------------------------------------------------ G003: bitpack words


def test_g003_wrong_filter_bits_word_count():
    graph = _binary_net(Padding.SAME_ONE).graph
    node = _float_bconv(graph)
    node.params["filter_bits"] = np.zeros((16, 5), np.uint64)
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G003"}
    assert any("ceil(cin_g/64)" in d.message for d in diags)


def test_g003_missing_filter_bits():
    graph = _binary_net(Padding.SAME_ONE).graph
    del _float_bconv(graph).params["filter_bits"]
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G003"}


def test_g003_filter_bits_wrong_dtype():
    graph = _binary_net(Padding.SAME_ONE).graph
    node = _float_bconv(graph)
    node.params["filter_bits"] = node.params["filter_bits"].astype(np.uint32)
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G003"}
    assert any("uint64" in d.message for d in diags)


def test_g003_groups_must_divide_channels():
    graph = _binary_net(Padding.SAME_ONE).graph
    _float_bconv(graph).attrs["groups"] = 3  # 16 % 3 != 0
    assert "G003" in _rules(analyze_graph(graph))


# --------------------------------------------------- G005: fusion legality


def test_g005_bitpacked_output_requires_thresholds():
    graph = _binary_net(Padding.SAME_ONE).graph
    del _bitpacked_bconv(graph).params["threshold"]
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G005"}


def test_g005_leftover_multiplier_after_threshold_fold():
    graph = _binary_net(Padding.SAME_ONE).graph
    _bitpacked_bconv(graph).params["multiplier"] = np.ones(16, np.float32)
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G005"}
    assert any("inexact" in d.message for d in diags)


def test_g005_threshold_shape_is_per_channel():
    graph = _binary_net(Padding.SAME_ONE).graph
    _bitpacked_bconv(graph).params["threshold"] = np.zeros(17, np.int32)
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G005"}


def test_g005_stale_thresholds_on_float_output():
    graph = _binary_net(Padding.SAME_ONE).graph
    node = _float_bconv(graph)
    node.params["threshold"] = np.zeros(16, np.int32)
    node.params["threshold_flip"] = np.zeros(16, bool)
    diags = analyze_graph(graph)
    assert _rules(diags) == {"G005"}
    assert any("stale" in d.message for d in diags)


def test_g005_int8_output_requires_scale():
    graph = _binary_net(Padding.SAME_ONE).graph
    _float_bconv(graph).attrs["output_type"] = "int8"
    rules = _rules(analyze_graph(graph))
    assert "G005" in rules  # (G002 fires too: the recorded dtype is stale)


# ------------------------------------------- enforcement: pass runner


def test_pass_manager_rejects_mutation_without_report():
    """A pass that breaks the graph but returns False is still caught."""
    model = _binary_net(Padding.SAME_ONE)

    def evil_threshold_drop(graph):
        # Drop the thresholds a bitpacked output needs — and lie about
        # having changed anything.
        del _bitpacked_bconv(graph).params["threshold"]
        return False

    with pytest.raises(GraphError, match=r"pass 'evil_threshold_drop'.*\[G005\]"):
        run_passes(model.graph, (("evil_threshold_drop", evil_threshold_drop),))


def test_pass_manager_rejects_illegal_fusion():
    model = _binary_net(Padding.SAME_ONE)

    def evil_fusion(graph):
        node = _bitpacked_bconv(graph)
        node.params["multiplier"] = np.ones(16, np.float32)
        return True

    with pytest.raises(GraphError, match=r"pass 'evil_fusion'.*\[G005\]"):
        run_passes(model.graph, (("evil_fusion", evil_fusion),))


def test_pass_manager_rejects_broken_bitpacked_chain():
    model = _binary_net(Padding.SAME_ONE)

    def evil_chain(graph):
        out = graph.outputs[0]
        graph.tensors[out] = TensorSpec((1, 5), graph.tensors[out].dtype)
        return True

    with pytest.raises(GraphError, match=r"pass 'evil_chain'.*\[G002\]"):
        run_passes(model.graph, (("evil_chain", evil_chain),))


def test_pass_manager_accepts_a_well_behaved_pass():
    model = _binary_net(Padding.SAME_ONE)
    ran = []
    noop = ("noop", lambda g: ran.append(1) and False)
    assert run_passes(model.graph, (noop,)) == {"noop": 0}
    assert ran == [1]  # once: no fixpoint re-run


# ---------------------------- enforcement: executor / plan / serialization


def _illegal_graph():
    graph = _binary_net(Padding.SAME_ZERO).graph
    del _float_bconv(graph).params["filter_bits"]
    return graph


def test_executor_refuses_illegal_graph():
    with pytest.raises(GraphError, match=r"\[G003\]"):
        Executor(_illegal_graph())


def test_compile_plan_refuses_illegal_graph():
    with pytest.raises(GraphError, match=r"\[G003\]"):
        compile_plan(_illegal_graph())


def test_save_model_refuses_illegal_graph(tmp_path):
    with pytest.raises(GraphError, match=r"\[G003\]"):
        save_model(_illegal_graph(), tmp_path / "bad.lce")


def test_save_load_roundtrip_stays_clean(tmp_path):
    graph = _binary_net(Padding.SAME_ZERO).graph
    save_model(graph, tmp_path / "ok.lce")
    assert not analyze_graph(load_model(tmp_path / "ok.lce"))


# ------------------------------------------------- the `verified` stamp


def test_compiled_plan_records_verification():
    model = _binary_net(Padding.SAME_ZERO)
    assert compile_plan(model.graph).verified is True


def test_engine_stats_report_verified():
    model = _binary_net(Padding.SAME_ZERO)
    x = np.random.default_rng(2).standard_normal((1, 8, 8, 8)).astype(np.float32)
    with Engine(model, max_batch_size=2) as engine:
        engine.run(x)
        stats = engine.stats()
    assert stats.verified is True


# ------------------------------------------------- the import boundary


def test_deploy_path_loads_only_the_dataflow_verifier():
    """Build, convert and one ``Engine.run`` validate graphs through
    ``repro.analysis.dataflow`` alone: the lint and concurrency engines
    and the device model stay unloaded."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from repro import Engine, convert
        from repro.zoo import build_model
        model = convert(build_model("quicknet_small", input_size=32))
        with Engine(model) as engine:
            engine.run(np.zeros((1, 32, 32, 3), np.float32))
        print(*sys.modules)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.analysis.dataflow" in loaded
    unwanted = {
        f"repro.analysis.{name}"
        for name in ("lint", "concurrency", "bench", "summary")
    } | {"repro.hw"}
    assert not unwanted & loaded, sorted(unwanted & loaded)
