"""Tests for the model zoo: structure, conversion, MAC invariants."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.graph.executor import Executor
from repro.zoo import (
    MODEL_REGISTRY,
    binary_resnet18,
    build_model,
    quicknet,
)
from repro.zoo.common import WeightFactory, normal_float32
from repro.zoo.quicknet_variants import QUICKNET_VARIANTS

#: models light enough to build at reduced input size in every test run
SMALL_INPUT = 64


class TestRegistry:
    def test_contains_all_paper_models(self):
        expected = {
            "binary_alexnet", "xnornet", "birealnet18", "realtobinarynet",
            "binarydensenet28", "binarydensenet37", "binarydensenet45",
            "meliusnet22", "quicknet_small", "quicknet", "quicknet_large",
        }
        assert expected == set(MODEL_REGISTRY)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("resnet9000")

    def test_accuracy_ordering_matches_paper(self):
        """QuickNet Large is the most accurate; Binary AlexNet the least."""
        accs = {n: i.top1_accuracy for n, i in MODEL_REGISTRY.items()}
        assert max(accs, key=accs.get) == "quicknet_large"
        assert min(accs, key=accs.get) == "binary_alexnet"

    def test_quicknet_accuracies_match_table3(self):
        assert MODEL_REGISTRY["quicknet_small"].top1_accuracy == 59.4
        assert MODEL_REGISTRY["quicknet"].top1_accuracy == 63.3
        assert MODEL_REGISTRY["quicknet_large"].top1_accuracy == 66.9


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestEveryModel:
    def test_builds_converts_and_counts(self, name):
        g = build_model(name, input_size=SMALL_INPUT)
        g.verify()
        macs_before = count_macs(g)
        model = convert(g)
        model.graph.verify()
        macs_after = count_macs(model.graph)
        # MAC counts are invariant under conversion.
        assert macs_before.binary == macs_after.binary
        assert macs_before.full_precision == macs_after.full_precision
        assert macs_after.binary > 0, "every zoo model has binary convolutions"
        # Conversion produced true LCE ops.
        assert model.graph.ops_by_type("lce_bconv2d")


class TestQuickNet:
    def test_variant_configs_match_table3(self):
        assert QUICKNET_VARIANTS["small"] == ((4, 4, 4, 4), (32, 64, 256, 512))
        assert QUICKNET_VARIANTS["medium"] == ((4, 4, 4, 4), (64, 128, 256, 512))
        assert QUICKNET_VARIANTS["large"] == ((6, 8, 12, 6), (64, 128, 256, 512))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            quicknet("xxl")

    def test_binary_conv_counts(self):
        g = quicknet("small", input_size=SMALL_INPUT)
        binary = [
            n for n in g.nodes if n.op == "conv2d" and n.attr("binary_weights")
        ]
        assert len(binary) == sum(QUICKNET_VARIANTS["small"][0])

    def test_one_padding_everywhere(self):
        from repro.core.types import Padding

        g = quicknet("medium", input_size=SMALL_INPUT)
        for n in g.nodes:
            if n.op == "conv2d" and n.attr("binary_weights"):
                assert Padding(n.attrs["padding"]) is Padding.SAME_ONE

    def test_stem_downsamples_4x(self):
        g = quicknet("small", input_size=224)
        # After the stem, the first binary conv must see 56x56 input.
        first_binary = next(
            n for n in g.nodes if n.op == "conv2d" and n.attr("binary_weights")
        )
        spec = g.tensors[first_binary.inputs[0]]
        assert spec.shape[1:3] == (56, 56)

    def test_every_binary_layer_has_residual(self):
        g = quicknet("small", input_size=SMALL_INPUT)
        n_binary = sum(
            1 for n in g.nodes if n.op == "conv2d" and n.attr("binary_weights")
        )
        assert len(g.ops_by_type("add")) == n_binary

    def test_executes(self, rng):
        model = convert(quicknet("small", input_size=SMALL_INPUT))
        x = rng.standard_normal((1, SMALL_INPUT, SMALL_INPUT, 3)).astype(np.float32)
        out = Executor(model.graph).run(x)
        assert out.shape == (1, 1000)
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-4)  # softmax head

    def test_large_has_more_macs_than_medium(self):
        large = count_macs(quicknet("large", input_size=SMALL_INPUT))
        medium = count_macs(quicknet("medium", input_size=SMALL_INPUT))
        assert large.binary > medium.binary
        small = count_macs(quicknet("small", input_size=SMALL_INPUT))
        assert medium.binary > small.binary


class TestResNetVariants:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            binary_resnet18("D")

    def test_shortcut_structure(self):
        a = binary_resnet18("A", input_size=SMALL_INPUT)
        b = binary_resnet18("B", input_size=SMALL_INPUT)
        c = binary_resnet18("C", input_size=SMALL_INPUT)
        assert len(a.ops_by_type("add")) == 16  # one per binarized layer
        assert len(b.ops_by_type("add")) == 13  # minus 3 downsampling layers
        assert len(c.ops_by_type("add")) == 0
        # Only variant A carries the fp pointwise shortcut convs.
        def pointwise(g):
            return [
                n for n in g.ops_by_type("conv2d")
                if not n.attr("binary_weights")
                and n.params["weights"].shape[:2] == (1, 1)
            ]
        assert len(pointwise(a)) == 3
        assert len(pointwise(b)) == 0
        assert len(pointwise(c)) == 0

    def test_variant_c_converts_to_bitpacked_chain(self):
        model = convert(binary_resnet18("C", input_size=SMALL_INPUT))
        bitpacked = [
            n for n in model.graph.ops_by_type("lce_bconv2d")
            if n.attr("output_type") == "bitpacked"
        ]
        assert len(bitpacked) == 15  # all but the last binary conv

    def test_all_variants_same_binary_macs(self):
        counts = {
            v: count_macs(binary_resnet18(v, input_size=SMALL_INPUT)).binary
            for v in "ABC"
        }
        assert counts["A"] == counts["B"] == counts["C"]

    def test_gating_adds_fp_ops(self):
        from repro.zoo import birealnet18, realtobinarynet

        r2b = realtobinarynet(input_size=SMALL_INPUT)
        bireal = birealnet18(input_size=SMALL_INPUT)
        assert len(r2b.ops_by_type("sigmoid")) == 16
        assert len(r2b.ops_by_type("dense")) > len(bireal.ops_by_type("dense"))


class TestDenseNetFamily:
    def test_depth_scaling(self):
        from repro.zoo import binarydensenet

        m28 = count_macs(binarydensenet(28, input_size=SMALL_INPUT))
        m45 = count_macs(binarydensenet(45, input_size=SMALL_INPUT))
        assert m45.binary > m28.binary

    def test_invalid_depth(self):
        from repro.zoo import binarydensenet

        with pytest.raises(ValueError):
            binarydensenet(33)

    def test_concat_feature_growth(self):
        from repro.zoo import binarydensenet

        g = binarydensenet(28, input_size=SMALL_INPUT)
        assert len(g.ops_by_type("concat")) == 6 + 6 + 6 + 5


class TestAlexNetFamily:
    def test_first_layer_full_precision(self):
        g = build_model("binary_alexnet", input_size=SMALL_INPUT)
        first_conv = g.ops_by_type("conv2d")[0]
        assert not first_conv.attr("binary_weights")
        assert first_conv.params["weights"].shape[:2] == (11, 11)

    def test_xnornet_has_scaling_bns(self):
        plain = build_model("binary_alexnet", input_size=SMALL_INPUT)
        scaled = build_model("xnornet", input_size=SMALL_INPUT)
        assert len(scaled.ops_by_type("batch_norm")) > len(plain.ops_by_type("batch_norm"))

    def test_binary_alexnet_binarizes_classifier(self):
        """BinaryNet binarizes everything after the first conv (classifier
        included, which is why the published model is only ~7.5 MB);
        XNOR-Net keeps the last layer full precision."""
        a = count_macs(build_model("binary_alexnet", input_size=SMALL_INPUT))
        x = count_macs(build_model("xnornet", input_size=SMALL_INPUT))
        assert a.binary > x.binary  # the classifier moved to the binary side
        assert a.full_precision < x.full_precision


class TestDeterminism:
    def test_same_seed_same_weights(self):
        g1 = quicknet("small", input_size=SMALL_INPUT, seed=5)
        g2 = quicknet("small", input_size=SMALL_INPUT, seed=5)
        w1 = g1.ops_by_type("conv2d")[0].params["weights"]
        w2 = g2.ops_by_type("conv2d")[0].params["weights"]
        assert np.array_equal(w1, w2)

    def test_different_seed_different_weights(self):
        g1 = quicknet("small", input_size=SMALL_INPUT, seed=5)
        g2 = quicknet("small", input_size=SMALL_INPUT, seed=6)
        w1 = g1.ops_by_type("conv2d")[0].params["weights"]
        w2 = g2.ops_by_type("conv2d")[0].params["weights"]
        assert not np.array_equal(w1, w2)


class TestWeightDraws:
    """Every normal is drawn through ``normal_float32``: float32 results
    filled from bounded float64 chunks, bit-identical to the one-shot
    formula.  Binarized latent weights are drawn as signs instead."""

    @pytest.mark.parametrize(
        "shape, scale",
        [((3, 3, 512, 512), np.sqrt(2.0 / 4608)), ((7, 11, 1013), 0.1),
         ((65536,), 1.0), (17, 0.1), ((0, 4), 1.0)],
    )
    def test_matches_one_shot_formula(self, shape, scale):
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = normal_float32(ours, shape, scale)
        want = (ref.standard_normal(shape) * scale).astype(np.float32)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # The generator is left in the same state: the next draw matches.
        assert ours.standard_normal() == ref.standard_normal()

    def test_conv_draw_has_no_float64_temporaries(self):
        wf = WeightFactory(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w = wf.conv(3, 3, 512, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.dtype == np.float32 and w.nbytes == 9_437_184
        assert peak - base <= w.nbytes + 2e6, f"peak {(peak - base) / 1e6:.1f} MB"

    # Latent binarized weights: ``+/-sqrt(2 / fan_in)`` with random signs
    # from the factory's second generator (``WeightFactory.binary``).

    def test_sign_draw_same_seed_same_array(self):
        a = WeightFactory(5).binary(3, 3, 37, 11)
        b = WeightFactory(5).binary(3, 3, 37, 11)
        assert a.dtype == np.float32 and a.shape == (3, 3, 37, 11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, WeightFactory(6).binary(3, 3, 37, 11))

    def test_sign_draw_is_signed_scale_with_fair_signs(self):
        w = WeightFactory(0).binary(3, 3, 512, 512)
        scale = np.float32(np.sqrt(2.0 / 4608))
        assert np.array_equal(np.abs(w), np.full_like(w, scale))
        assert 0.49 <= np.mean(w < 0) <= 0.51

    def test_sign_draw_leaves_the_main_generator_untouched(self):
        wf = WeightFactory(9)
        wf.binary(3, 3, 64, 64)
        assert np.array_equal(wf.conv(3, 3, 8, 8), WeightFactory(9).conv(3, 3, 8, 8))

    def test_sign_draw_peaks_at_its_result(self):
        wf = WeightFactory(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w = wf.binary(3, 3, 512, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= w.nbytes + 1e6, f"peak {(peak - base) / 1e6:.1f} MB"

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_binary_conv_holds_signed_scale(self, name):
        """Catches a ``binary_weights=True`` site still drawing Gaussians."""
        g = build_model(name, input_size=SMALL_INPUT)
        convs = [
            n for n in g.ops_by_type("conv2d") if n.attr("binary_weights")
        ]
        assert convs
        for node in convs:
            w = node.params["weights"]
            kh, kw, cin, _ = w.shape
            scale = np.float32(np.sqrt(2.0 / (kh * kw * cin)))
            assert np.all(np.abs(w) == scale), node.name


class TestModelSizeFidelity:
    """Converted model sizes track Larq Zoo's published sizes.

    The registry carries the sizes the real Larq Zoo reports for its
    pretrained converted models; our converted graphs must land close —
    a strong structural check on every architecture (layer counts, channel
    plans, what is binary vs full precision).
    """

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_within_tolerance(self, name):
        info = MODEL_REGISTRY[name]
        model = convert(info.build())
        ours_mb = model.graph.param_nbytes() / 1e6
        ratio = ours_mb / info.reported_size_mb
        assert 0.8 <= ratio <= 1.25, (
            f"{name}: {ours_mb:.2f} MB vs Larq Zoo {info.reported_size_mb} MB"
        )
