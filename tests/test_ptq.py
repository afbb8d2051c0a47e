"""Tests for post-training int8 quantization."""

from __future__ import annotations

import numpy as np
import pytest
from copy_contract import assert_copy_contract, snapshot

from repro.core.types import Activation, Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.ptq import quantize_model
from repro.ptq.calibrate import calibrate


def _float_net(rng):
    b = GraphBuilder((1, 10, 10, 3))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
        bias=rng.standard_normal(8).astype(np.float32),
        activation=Activation.RELU,
    )
    x = b.conv2d(x, rng.standard_normal((3, 3, 8, 8)).astype(np.float32), stride=2)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((8, 5)).astype(np.float32))
    return b.finish(x)


@pytest.fixture
def float_net_and_data(rng):
    g = _float_net(rng)
    calib = [rng.standard_normal((1, 10, 10, 3)).astype(np.float32) for _ in range(4)]
    return g, calib


class TestCalibration:
    def test_records_all_float_tensors(self, float_net_and_data):
        g, calib = float_net_and_data
        ranges = calibrate(g, calib)
        for node in g.nodes:
            assert node.outputs[0] in ranges.ranges

    def test_ranges_widen_across_batches(self, rng):
        g = _float_net(rng)
        small = [0.1 * rng.standard_normal((1, 10, 10, 3)).astype(np.float32)]
        big = small + [5.0 * rng.standard_normal((1, 10, 10, 3)).astype(np.float32)]
        lo_s, hi_s = calibrate(g, small).range_of("input")
        lo_b, hi_b = calibrate(g, big).range_of("input")
        assert lo_b <= lo_s and hi_b >= hi_s

    def test_empty_batches_rejected(self, rng):
        with pytest.raises(ValueError):
            calibrate(_float_net(rng), [])

    def test_unknown_tensor_rejected(self, float_net_and_data):
        g, calib = float_net_and_data
        with pytest.raises(KeyError):
            calibrate(g, calib).range_of("nope")


class TestQuantizeModel:
    def test_structure(self, float_net_and_data):
        g, calib = float_net_and_data
        qg = quantize_model(g, calib)
        qg.verify()
        ops = [n.op for n in qg.nodes]
        assert "conv2d" not in ops and "dense" not in ops
        assert ops.count("conv2d_int8") == 2
        assert ops.count("dense_int8") == 1

    def test_adjacent_int8_ops_chain_directly(self, float_net_and_data):
        g, calib = float_net_and_data
        qg = quantize_model(g, calib)
        convs = qg.ops_by_type("conv2d_int8")
        # conv2 reads conv1's int8 output (directly or via requantize),
        # never through a float round-trip.
        producer = qg.producer(convs[1].inputs[0])
        assert producer.op in ("conv2d_int8", "requantize_int8")

    def test_accuracy_on_calibration_distribution(self, float_net_and_data):
        g, calib = float_net_and_data
        qg = quantize_model(g, calib)
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        rel = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-9)
        assert rel < 0.05

    def test_fused_relu_respected(self, rng):
        b = GraphBuilder((1, 6, 6, 2))
        x = b.conv2d(
            b.input, rng.standard_normal((3, 3, 2, 4)).astype(np.float32),
            activation=Activation.RELU,
        )
        g = b.finish(x)
        calib = [rng.standard_normal((1, 6, 6, 2)).astype(np.float32)]
        qg = quantize_model(g, calib)
        out = Executor(qg).run(calib[0])
        assert np.all(out >= -1e-6)

    def test_binary_convs_untouched(self, rng):
        b = GraphBuilder((1, 8, 8, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(b.global_avgpool(h))
        calib = [rng.standard_normal((1, 8, 8, 8)).astype(np.float32)]
        qg = quantize_model(g, calib)
        assert len(qg.ops_by_type("conv2d")) == 1
        assert not qg.ops_by_type("conv2d_int8")

    def test_copy_contract(self, rng):
        """The rewrite runs on ``graph.copy()``: the input's params stay
        bit-identical, and the binary conv's weights, kept as they are,
        are shared read-only instead of copied."""
        b = GraphBuilder((1, 8, 8, 8))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 8, 8)).astype(np.float32))
        h = b.binarize(x)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(b.global_avgpool(h))
        n_before = len(g)
        before = snapshot(g)
        calib = [rng.standard_normal((1, 8, 8, 8)).astype(np.float32)]
        qg = quantize_model(g, calib)
        assert len(g) == n_before and qg.ops_by_type("conv2d_int8")
        assert assert_copy_contract(before, g, qg) >= 1

    def test_int8_model_faster_on_device(self, rng):
        # Needs real work per layer: at tiny sizes the extra quantize ops
        # outweigh the modest int8-vs-float GEMM gain (which is itself the
        # paper's point about the Pixel 1's weak int8 path).
        b = GraphBuilder((1, 28, 28, 32))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 32, 64)).astype(np.float32))
        x = b.conv2d(x, rng.standard_normal((3, 3, 64, 64)).astype(np.float32))
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 28, 28, 32)).astype(np.float32)]
        qg = quantize_model(g, calib)
        dev = DeviceModel.pixel1()
        assert graph_latency(dev, qg).total_s < graph_latency(dev, g).total_s

    def test_int8_model_params_smaller(self, float_net_and_data):
        g, calib = float_net_and_data
        qg = quantize_model(g, calib)
        assert qg.param_nbytes() < g.param_nbytes() / 2

    def test_serialization_roundtrip(self, float_net_and_data, tmp_path):
        from repro.graph.serialization import load_model, save_model

        g, calib = float_net_and_data
        qg = quantize_model(g, calib)
        save_model(qg, tmp_path / "int8.lce")
        g2 = load_model(tmp_path / "int8.lce")
        assert np.array_equal(Executor(qg).run(calib[0]), Executor(g2).run(calib[0]))


class TestCollapseRequant:
    def test_no_collapse_across_fanout(self, rng):
        b = GraphBuilder((1, 4, 4, 2))
        x = b.conv2d(b.input, rng.standard_normal((1, 1, 2, 2)).astype(np.float32))
        y = b.relu(x)
        g = b.finish(b.add(x, y))
        calib = [rng.standard_normal((1, 4, 4, 2)).astype(np.float32)]
        qg = quantize_model(g, calib)
        qg.verify()
        # the dequantize feeding two consumers must survive
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        assert np.abs(got - ref).max() / np.abs(ref).max() < 0.05


class TestModelPrecisionExperiment:
    def test_binary_beats_int8_beats_float(self):
        from repro.experiments.model_precision import run

        results = {r.precision: r for r in run("pixel1", input_size=64)}
        assert (
            results["binary (LCE)"].latency_ms
            < results["int8 (PTQ)"].latency_ms
            < results["float32"].latency_ms
        )
        assert (
            results["binary (LCE)"].param_bytes
            < results["int8 (PTQ)"].param_bytes
            < results["float32"].param_bytes
        )


class TestPoolSink:
    def test_maxpool_runs_in_int8(self, rng):
        b = GraphBuilder((1, 12, 12, 3))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32))
        x = b.maxpool2d(x, 2, 2)
        x = b.conv2d(x, rng.standard_normal((3, 3, 8, 8)).astype(np.float32))
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 12, 12, 3)).astype(np.float32)]
        qg = quantize_model(g, calib)
        pool = qg.ops_by_type("maxpool2d")[0]
        assert qg.tensors[pool.outputs[0]].dtype == "int8"
        assert not qg.ops_by_type("quantize_int8")[1:]  # only the input one

    def test_sunk_pool_is_numerically_safe(self, rng):
        """max commutes with the affine quantization, so sinking is exact
        up to the requantization the boundary already implied."""
        b = GraphBuilder((1, 8, 8, 4))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 4, 4)).astype(np.float32))
        x = b.maxpool2d(x, 2, 2)
        x = b.conv2d(x, rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 8, 8, 4)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, calib)
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        assert np.abs(got - ref).max() / (np.abs(ref).max() + 1e-9) < 0.05


class TestBatchNormPrefusion:
    def test_bn_folded_before_quantization(self, rng):
        from repro.kernels.batchnorm import BatchNormParams

        b = GraphBuilder((1, 8, 8, 3))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        x = b.batch_norm(
            x,
            BatchNormParams(
                gamma=rng.uniform(0.5, 1.5, 4).astype(np.float32),
                beta=rng.standard_normal(4).astype(np.float32),
                mean=rng.standard_normal(4).astype(np.float32),
                variance=rng.uniform(0.5, 1.5, 4).astype(np.float32),
            ),
        )
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 8, 8, 3)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, calib)
        assert not qg.ops_by_type("batch_norm")
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        assert np.abs(got - ref).max() / np.abs(ref).max() < 0.05

    def test_original_graph_untouched(self, rng):
        from repro.kernels.batchnorm import BatchNormParams

        b = GraphBuilder((1, 8, 8, 3))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        x = b.batch_norm(x, BatchNormParams.identity(4))
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 8, 8, 3)).astype(np.float32)]
        quantize_model(g, calib)
        assert g.ops_by_type("batch_norm")


class TestResidualAdds:
    def _residual_net(self, rng):
        b = GraphBuilder((1, 10, 10, 4))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 4, 4)).astype(np.float32) * 0.3)
        h = b.conv2d(x, rng.standard_normal((3, 3, 4, 4)).astype(np.float32) * 0.3)
        x = b.add(h, x)
        x = b.conv2d(x, rng.standard_normal((3, 3, 4, 4)).astype(np.float32) * 0.3)
        return b.finish(b.global_avgpool(x))

    def test_add_runs_in_int8(self, rng):
        g = self._residual_net(rng)
        calib = [rng.standard_normal((1, 10, 10, 4)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, calib)
        assert qg.ops_by_type("add_int8")
        assert not qg.ops_by_type("add")

    def test_residual_numerics(self, rng):
        g = self._residual_net(rng)
        calib = [rng.standard_normal((1, 10, 10, 4)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, calib)
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        assert np.abs(got - ref).max() / np.abs(ref).max() < 0.06

    def test_full_resnet18_quantizes_end_to_end(self, rng):
        """The complete float ResNet-18 becomes an almost fully int8 graph:
        every conv, most residual adds, and the ReLUs between them run
        quantized.  A couple of stage-boundary adds whose shortcut operand
        fans out stay float (TFLite leaves such stragglers too)."""
        from repro.zoo import resnet18_float

        g = resnet18_float(input_size=64)
        calib = [rng.standard_normal((1, 64, 64, 3)).astype(np.float32)]
        qg = quantize_model(g, calib)
        assert not qg.ops_by_type("conv2d")
        assert len(qg.ops_by_type("add_int8")) >= 6
        assert len(qg.ops_by_type("add")) <= 2
        assert len(qg.ops_by_type("relu_int8")) >= 6

    def test_relu_sink_numerics(self, rng):
        b = GraphBuilder((1, 8, 8, 4))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 4, 4)).astype(np.float32))
        x = b.relu(x)
        x = b.conv2d(x, rng.standard_normal((3, 3, 4, 4)).astype(np.float32))
        g = b.finish(b.global_avgpool(x))
        calib = [rng.standard_normal((1, 8, 8, 4)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, calib)
        assert not qg.ops_by_type("relu")  # fused into the conv or sunk
        ref = Executor(g).run(calib[0])
        got = Executor(qg).run(calib[0])
        assert np.abs(got - ref).max() / (np.abs(ref).max() + 1e-9) < 0.06


class TestHybridDeployment:
    def test_ptq_composes_with_converted_binary_graph(self, rng):
        """Binary convs + int8 fp layers: PTQ applies cleanly *after* the
        LCE converter, leaving every binarized op untouched.

        A random BNN's argmax is no check: it can be the same class for
        every input, or flip on the ~1 % of signs the int8 stem moves.  So
        the binarized ops' params must be bit-identical, and the value the
        first ``lce_quantize`` binarizes must stay within the int8 error
        bound ``test_relu_sink_numerics`` uses.
        """
        from repro.converter import convert
        from repro.zoo import quicknet

        model = convert(quicknet("small", input_size=64))
        calib = [rng.standard_normal((1, 64, 64, 3)).astype(np.float32)]
        hybrid = quantize_model(model.graph, calib)
        assert hybrid.ops_by_type("conv2d_int8")
        assert not hybrid.ops_by_type("conv2d")
        before = {n.name: n for n in model.graph.ops_by_type("lce_bconv2d")}
        after = hybrid.ops_by_type("lce_bconv2d")
        assert [n.name for n in after] == list(before)
        for node in after:
            ref = before[node.name]
            assert node.attrs == ref.attrs
            assert node.params.keys() == ref.params.keys()
            for key, value in node.params.items():
                assert value.dtype == ref.params[key].dtype, (node.name, key)
                assert np.array_equal(value, ref.params[key]), (node.name, key)

        def first_binarized_input(graph):
            ex = Executor(graph, record_values=True)
            out = ex.run(calib[0])
            quantize = graph.ops_by_type("lce_quantize")[0]
            return ex.values[quantize.inputs[0]], out

        ref, _ = first_binarized_input(model.graph)
        got, out = first_binarized_input(hybrid)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 0.06
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-5)

    def test_hybrid_faster_than_binary_only(self, rng):
        from repro.converter import convert
        from repro.zoo import quicknet

        model = convert(quicknet("small", input_size=224))
        calib = [rng.standard_normal((1, 224, 224, 3)).astype(np.float32)]
        hybrid = quantize_model(model.graph, calib)
        dev = DeviceModel.pixel1()
        assert (
            graph_latency(dev, hybrid).total_s
            < graph_latency(dev, model.graph).total_s
        )
