"""Integration tests: the full Figure-1 pipeline, end to end.

Train-graph construction -> conversion -> execution -> serialization ->
deployment-side execution -> per-node profiling, on real zoo models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.graph.executor import Executor
from repro.graph.serialization import load_model, save_model
from repro.hw.device import DeviceModel
from repro.hw.latency import align_spans, graph_latency
from repro.obs.trace import Tracer
from repro.ops import is_binary_op
from repro.runtime import Engine
from repro.zoo import binary_resnet18, quicknet


@pytest.fixture(scope="module")
def quicknet_pipeline(tmp_path_factory):
    """One shared small QuickNet taken through the whole pipeline."""
    rng = np.random.default_rng(0)
    training_graph = quicknet("small", input_size=64)
    x = rng.standard_normal((1, 64, 64, 3)).astype(np.float32)
    training_out = Executor(training_graph).run(x)
    model = convert(training_graph)
    path = tmp_path_factory.mktemp("models") / "quicknet_small.lce"
    save_model(model.graph, path)
    deployed = load_model(path)
    return {
        "training_graph": training_graph,
        "model": model,
        "deployed": deployed,
        "x": x,
        "training_out": training_out,
        "path": path,
    }


class TestTrainToDeploy:
    def test_conversion_preserves_predictions(self, quicknet_pipeline):
        p = quicknet_pipeline
        converted_out = Executor(p["model"].graph).run(p["x"])
        np.testing.assert_allclose(
            converted_out, p["training_out"], rtol=1e-3, atol=1e-4
        )

    def test_serialized_model_identical(self, quicknet_pipeline):
        p = quicknet_pipeline
        converted_out = Executor(p["model"].graph).run(p["x"])
        deployed_out = Executor(p["deployed"]).run(p["x"])
        assert np.array_equal(converted_out, deployed_out)

    def test_model_file_smaller_than_float_params(self, quicknet_pipeline):
        p = quicknet_pipeline
        file_size = p["path"].stat().st_size
        float_params = p["training_graph"].param_nbytes()
        assert file_size < float_params / 4  # mostly-binary model shrinks a lot

    def test_conversion_reduces_node_count(self, quicknet_pipeline):
        r = quicknet_pipeline["model"].report
        assert r.nodes_after < r.nodes_before

    def test_macs_preserved(self, quicknet_pipeline):
        p = quicknet_pipeline
        a = count_macs(p["training_graph"])
        b = count_macs(p["model"].graph)
        assert (a.binary, a.full_precision) == (b.binary, b.full_precision)


class TestSimulatedDeployment:
    @pytest.fixture(scope="class")
    def aligned(self, quicknet_pipeline):
        """(measured_s, simulated_s) per node of one traced Engine.run,
        after an untraced warm-up run (a first run's one-time costs would
        otherwise swamp the small nodes)."""
        p = quicknet_pipeline
        tracer = Tracer()
        with Engine(p["model"]) as engine:
            engine.run(p["x"])
            engine.tracer = tracer
            engine.run(p["x"])
        return align_spans(DeviceModel.pixel1(), p["model"].graph, tracer.spans())

    def test_latency_estimates_for_both_devices(self, quicknet_pipeline):
        g = quicknet_pipeline["model"].graph
        pixel = graph_latency(DeviceModel.pixel1(), g).total_ms
        rpi = graph_latency(DeviceModel.rpi4b(), g).total_ms
        assert 0 < pixel < rpi  # the RPi core is slower across the board

    def test_profiler_covers_model(self, quicknet_pipeline, aligned):
        g = quicknet_pipeline["model"].graph
        assert list(aligned) == [n.name for n in g.nodes]
        ops = {n.name: n.op for n in g.nodes}
        binary_time = sum(
            sim for name, (_, sim) in aligned.items() if is_binary_op(ops[name])
        )
        total = sum(sim for _, sim in aligned.values())
        assert binary_time / total > 0.3  # QuickNet is mostly binary

    def test_measured_and_simulated_correlate(self, aligned):
        """NumPy wall-clock of the compiled plan is not ARM latency, but
        across ops spanning orders of magnitude the two should correlate
        positively."""
        meas, sim = np.array(list(aligned.values())).T
        keep = meas > 1e-6  # ignore timer-noise ops
        corr = np.corrcoef(np.log(sim[keep]), np.log(meas[keep]))[0, 1]
        assert corr > 0.3


class TestShortcutAblationPipeline:
    def test_variants_execute_identically_except_shortcuts(self, rng):
        """A and C share binary-conv weights (same seed); outputs differ
        because of the shortcuts, but both run through the full pipeline."""
        out = {}
        for variant in ("A", "C"):
            model = convert(binary_resnet18(variant, input_size=32))
            x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
            out[variant] = Executor(model.graph).run(x)
        assert out["A"].shape == out["C"].shape == (1, 1000)
        assert not np.allclose(out["A"], out["C"])
