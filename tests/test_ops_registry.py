"""The repro.ops registry: completeness, schema validation, Graph.validate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, GraphError, TensorSpec
from repro.ops import (
    OpContext,
    all_specs,
    compile_node,
    get_spec,
    infer_output_specs,
    is_binary_op,
    mac_layer_ops,
    op_class_of,
)
from repro.ops.registry import OP_CLASSES, OpSpec, op_names
from repro.runtime import compile_plan


def _unknown_op_graph() -> Graph:
    g = Graph("mystery")
    x = g.add_input("x", TensorSpec((1, 4)))
    n = g.add_node("warp_drive", [x], [TensorSpec((1, 4))], name="engine_room")
    g.outputs = [n.outputs[0]]
    return g


def _toy_graph(rng) -> Graph:
    b = GraphBuilder((1, 6, 6, 3))
    w = rng.standard_normal((3, 3, 3, 8)).astype(np.float32)
    y = b.conv2d(b.input, w)
    return b.finish(b.relu(y))


class TestCompleteness:
    """Every registered op must carry the full contract."""

    def test_every_op_has_kernel_and_shape_hook(self):
        for spec in all_specs():
            assert callable(spec.kernel), spec.name
            assert callable(spec.infer), spec.name

    def test_every_op_has_a_callable_cost_model(self):
        for spec in all_specs():
            assert callable(spec.cost), spec.name
        # the dataclass itself refuses a spec without one
        with pytest.raises(TypeError, match="cost"):
            OpSpec(
                name="warp_drive", attrs=(), infer=lambda *a: [],
                kernel=lambda *a: None,
            )

    def test_op_classes_are_the_known_buckets(self):
        for spec in all_specs():
            assert spec.op_class in OP_CLASSES, spec.name

    def test_binary_flag_matches_lce_prefix(self):
        for name in op_names():
            assert is_binary_op(name) == name.startswith("lce_"), name

    def test_mac_layers_anchor_figure5_stacks(self):
        assert mac_layer_ops() == ("conv2d", "dense", "depthwise_conv2d", "lce_bconv2d")


class TestLookups:
    def test_get_spec_unknown_op(self):
        with pytest.raises(GraphError, match="no kernel for op 'warp_drive'"):
            get_spec("warp_drive")

    def test_infer_unknown_op(self):
        with pytest.raises(GraphError, match="no shape inference"):
            infer_output_specs("warp_drive", [TensorSpec((1, 4))], {}, {})

    def test_op_class_default(self):
        assert op_class_of("warp_drive") == "All other full precision"
        assert op_class_of("lce_bconv2d") == "LceBConv2d"
        assert op_class_of("conv2d") == "Full precision Conv2D"
        assert op_class_of("add") == "Full precision Add"

    def test_compile_node_resolves_identical_kernels_for_both_runtimes(self, rng):
        """Executor and CompiledPlan must share the registry's kernel path."""
        g = _toy_graph(rng)
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        direct = [compile_node(n, OpContext()) for n in g.nodes]
        value = x
        for fn in direct:
            value = fn([value])
        via_executor = Executor(g).run(x)
        via_plan = compile_plan(g).execute([x])[0]
        np.testing.assert_array_equal(value, via_executor)
        np.testing.assert_array_equal(value, via_plan)


class TestGraphValidate:
    def test_unregistered_op_rejected_naming_the_node(self):
        g = _unknown_op_graph()
        with pytest.raises(GraphError, match="engine_room.*no kernel for op 'warp_drive'"):
            g.validate()

    def test_executor_construction_validates(self):
        with pytest.raises(GraphError, match="no kernel"):
            Executor(_unknown_op_graph())

    def test_plan_compilation_validates(self):
        with pytest.raises(GraphError, match="no kernel"):
            compile_plan(_unknown_op_graph())

    def test_convert_validates(self):
        from repro.converter import convert

        with pytest.raises(GraphError, match="no kernel"):
            convert(_unknown_op_graph())

    def test_save_model_validates(self, tmp_path):
        from repro.graph.serialization import save_model

        with pytest.raises(GraphError, match="no kernel"):
            save_model(_unknown_op_graph(), tmp_path / "bad.lce")

    def test_missing_required_attribute_rejected(self):
        g = Graph("badattrs")
        x = g.add_input("x", TensorSpec((1, 6, 6, 64), "bitpacked"))
        n = g.add_node(
            "lce_bconv2d",
            [x],
            [TensorSpec((1, 6, 6, 8))],
            attrs={"kernel_h": 3, "kernel_w": 3, "in_channels": 64},
            name="bconv",
        )
        g.outputs = [n.outputs[0]]
        with pytest.raises(
            GraphError, match="bconv.*missing required attribute 'out_channels'"
        ):
            g.validate()

    def test_malformed_attribute_rejected(self):
        g = Graph("badattrs")
        x = g.add_input("x", TensorSpec((1, 6, 6, 3)))
        n = g.add_node(
            "maxpool2d",
            [x],
            [TensorSpec((1, 3, 3, 3))],
            attrs={"pool_h": 2, "pool_w": "wide"},
            name="pool",
        )
        g.outputs = [n.outputs[0]]
        with pytest.raises(GraphError, match="pool.*malformed attribute 'pool_w'"):
            g.validate()

    def test_misspelt_attribute_key_is_rejected(self, rng):
        """An undeclared key must not load as the field's default."""
        g = _toy_graph(rng)
        node = g.nodes[0]
        node.attrs["strides"] = 2
        with pytest.raises(GraphError) as err:
            g.validate()
        msg = str(err.value)
        assert repr(node.name) in msg and repr(node.op) in msg
        assert "undeclared attribute keys ['strides']" in msg

    def test_validate_accepts_every_zoo_model_converted(self):
        from repro.converter import convert
        from repro.zoo import build_model

        model = convert(build_model("quicknet_small", input_size=64))
        model.graph.validate()


class TestCliOps:
    def test_ops_table_lists_every_registered_op(self, capsys):
        assert main(["ops"]) == 0
        out = capsys.readouterr().out
        for name in op_names():
            assert name in out
        assert f"{len(op_names())} ops registered" in out

    def test_ops_single_op_shows_schema_and_latency(self, capsys):
        assert main(["ops", "--op", "lce_bconv2d"]) == 0
        out = capsys.readouterr().out
        assert "kernel_h: int" in out
        assert "latency: modeled" in out
        assert "class:   LceBConv2d" in out

    def test_ops_unknown_op_fails(self, capsys):
        assert main(["ops", "--op", "warp_drive"]) == 2
