"""Tests for the training substrate: STE, optimizers, schedules, learning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.training import (
    Adam,
    BatchNormLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    QuantConv2D,
    ReluLayer,
    SGDMomentum,
    Sequential,
    TrainConfig,
    Trainer,
    clip_latent_weights,
    softmax_cross_entropy,
    ste_sign,
    ste_sign_grad,
    synthetic_images,
    warmup_cosine,
)
from repro.training.layers import Param
from repro.training.schedules import cosine_decay


class TestSTE:
    def test_sign_forward(self):
        x = np.array([-0.5, 0.0, 0.5, -2.0])
        assert np.array_equal(ste_sign(x), [-1.0, 1.0, 1.0, -1.0])

    def test_grad_passes_inside_unit_interval(self):
        x = np.array([-0.5, 0.5, 0.99])
        up = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(ste_sign_grad(x, up), up)

    def test_grad_blocked_outside(self):
        x = np.array([-1.5, 1.5])
        up = np.array([1.0, 1.0])
        assert np.array_equal(ste_sign_grad(x, up), [0.0, 0.0])

    def test_grad_boundary_inclusive(self):
        assert ste_sign_grad(np.array([1.0]), np.array([5.0]))[0] == 5.0

    def test_clip(self):
        w = np.array([-2.0, 0.5, 3.0])
        assert np.array_equal(clip_latent_weights(w), [-1.0, 0.5, 1.0])

    def test_clip_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            clip_latent_weights(np.zeros(2), limit=0)


class TestSchedules:
    def test_cosine_endpoints(self):
        s = cosine_decay(1.0, 100)
        assert s(0) == pytest.approx(1.0)
        assert s(50) == pytest.approx(0.5)
        assert s(100) == pytest.approx(0.0, abs=1e-9)

    def test_cosine_monotone_decreasing(self):
        s = cosine_decay(1.0, 50)
        values = [s(i) for i in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_ramps_linearly(self):
        s = warmup_cosine(1.0, 10, 110)
        assert s(0) == pytest.approx(0.1)
        assert s(4) == pytest.approx(0.5)
        assert s(9) == pytest.approx(1.0)

    def test_warmup_then_decays_to_zero(self):
        s = warmup_cosine(1.0, 10, 110)
        assert s(110) == pytest.approx(0.0, abs=1e-9)

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            warmup_cosine(1.0, 10, 10)


class TestOptimizers:
    def _quadratic_param(self):
        # minimize f(w) = 0.5 * w^2 -> gradient w
        return Param(np.array([5.0], np.float64), group="full_precision")

    def test_sgd_momentum_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = SGDMomentum([p], lambda step: 0.1, momentum=0.9)
        for _ in range(200):
            p.grad = p.value.copy()
            opt.step()
        assert abs(p.value[0]) < 1e-3

    def test_adam_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = Adam([p], lambda step: 0.1)
        for _ in range(500):
            p.grad = p.value.copy()
            opt.step()
        assert abs(p.value[0]) < 1e-2

    def test_adam_clips_binary_group(self):
        p = Param(np.array([0.99], np.float64), group="binary")
        opt = Adam([p], lambda step: 1.0)
        p.grad = np.array([-100.0])
        opt.step()
        assert p.value[0] <= 1.0

    def test_adam_leaves_fp_unclipped(self):
        p = Param(np.array([0.99], np.float64), group="full_precision")
        opt = Adam([p], lambda step: 1.0)
        p.grad = np.array([-100.0])
        opt.step()
        assert p.value[0] > 1.0

    def test_none_grad_skipped(self):
        p = Param(np.array([1.0]), group="full_precision")
        opt = SGDMomentum([p], lambda step: 0.1)
        opt.step()  # grad is None: no update, no crash
        assert p.value[0] == 1.0


class TestGradients:
    def test_dense_layer_numeric_gradient(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        labels = np.array([0, 2])

        def loss_fn():
            return softmax_cross_entropy(layer.forward(x), labels)[0]

        base_loss, dlogits = softmax_cross_entropy(layer.forward(x), labels)
        layer.backward(dlogits)
        analytic = layer.w.grad.copy()
        eps = 1e-4
        for idx in [(0, 0), (3, 2), (1, 1)]:
            layer.w.value[idx] += eps
            plus = loss_fn()
            layer.w.value[idx] -= 2 * eps
            minus = loss_fn()
            layer.w.value[idx] += eps
            numeric = (plus - minus) / (2 * eps)
            assert abs(numeric - analytic[idx]) < 1e-2

    def test_batchnorm_gradient_shapes(self, rng):
        layer = BatchNormLayer(5)
        x = rng.standard_normal((8, 5)).astype(np.float32)
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert layer.gamma.grad.shape == (5,)

    def test_batchnorm_dx_sums_to_zero(self, rng):
        # d/dx of a normalized batch: gradient component along the mean is
        # removed, so the per-channel gradient sum is ~0.
        layer = BatchNormLayer(3)
        x = rng.standard_normal((16, 3)).astype(np.float32)
        layer.forward(x)
        dx = layer.backward(rng.standard_normal((16, 3)).astype(np.float32))
        np.testing.assert_allclose(dx.sum(axis=0), 0.0, atol=1e-3)

    def test_quant_conv_forward_matches_core_reference(self, rng):
        from repro.core.bconv2d import BConv2DParams, bconv2d, pack_filters
        from repro.core.bitpack import pack_bits
        from repro.core.types import Padding

        layer = QuantConv2D(6, 4, kernel=3, rng=rng)
        x = rng.standard_normal((2, 5, 5, 6)).astype(np.float32)
        out = layer.forward(x)
        expected = bconv2d(
            pack_bits(x), pack_filters(layer.w.value),
            BConv2DParams(3, 3, 6, 4, padding=Padding.SAME_ONE),
        )
        assert np.array_equal(out, expected)


class TestData:
    def test_shapes(self):
        x, y = synthetic_images(100, 4, 2, 5, seed=0)
        assert x.shape == (100, 4, 4, 2) and y.shape == (100,)
        assert y.max() < 5

    def test_images(self):
        x, y = synthetic_images(10, 6, 3, 4, seed=0)
        assert x.shape == (10, 6, 6, 3)

    def test_deterministic(self):
        a = synthetic_images(10, 4, 2, 2, seed=7)
        b = synthetic_images(10, 4, 2, 2, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_rejects_bad_sizes(self):
        for sizes in ((0, 4, 2, 2), (10, 0, 2, 2), (10, 4, 0, 2), (10, 4, 2, 0)):
            with pytest.raises(ValueError):
                synthetic_images(*sizes)


class TestEndToEndLearning:
    def test_quant_conv_net_learns_quicknet_order(self):
        """conv -> ReLU -> BN (the paper's QuickNet layer order) trains."""
        x, y = synthetic_images(192, 8, 4, 4, noise=0.6, seed=1)
        rng = np.random.default_rng(0)
        model = Sequential([
            QuantConv2D(4, 16, kernel=3, binarize_input=False, rng=rng),
            ReluLayer(), BatchNormLayer(16),
            QuantConv2D(16, 16, kernel=3, rng=rng),
            ReluLayer(), BatchNormLayer(16),
            GlobalAvgPoolLayer(),
            DenseLayer(16, 4, rng=rng),
        ])
        cfg = TrainConfig(epochs=8, batch_size=32)
        steps = cfg.epochs * (len(x) // cfg.batch_size)
        hist = Trainer(model, cfg, steps).fit(x, y)
        assert hist.loss[-1] < hist.loss[0] * 0.8
        assert hist.accuracy[-1] > 0.5

    def test_trained_binary_conv_deploys_through_converter(self):
        """Train -> export to a graph -> convert -> identical predictions.

        The end-to-end pipeline of paper Figure 1, in miniature.
        """
        x, y = synthetic_images(128, 8, 4, 3, noise=0.5, seed=2)
        rng = np.random.default_rng(0)
        conv1 = QuantConv2D(4, 8, kernel=3, binarize_input=False, rng=rng)
        relu1 = ReluLayer()
        bn1 = BatchNormLayer(8)
        conv2 = QuantConv2D(8, 8, kernel=3, rng=rng)
        relu2 = ReluLayer()
        bn2 = BatchNormLayer(8)
        head = DenseLayer(8, 3, rng=rng)
        model = Sequential([conv1, relu1, bn1, conv2, relu2, bn2,
                            GlobalAvgPoolLayer(), head])
        cfg = TrainConfig(epochs=4, batch_size=32)
        steps = cfg.epochs * (len(x) // cfg.batch_size)
        Trainer(model, cfg, steps).fit(x, y)

        # Export the trained weights into an inference training-graph.
        from repro.converter import convert
        from repro.core.types import Padding
        from repro.graph.builder import GraphBuilder
        from repro.graph.executor import Executor
        from repro.kernels.batchnorm import BatchNormParams

        def bn_params(bn: BatchNormLayer) -> BatchNormParams:
            return BatchNormParams(
                gamma=bn.gamma.value.copy(), beta=bn.beta.value.copy(),
                mean=bn.running_mean.copy(), variance=bn.running_var.copy(),
                epsilon=bn.eps,
            )

        b = GraphBuilder((1, 8, 8, 4))
        h = b.conv2d(
            b.input, ste_sign(conv1.w.value), padding=Padding.SAME_ONE,
            binary_weights=True,
        )
        h = b.relu(h)
        h = b.batch_norm(h, bn_params(bn1))
        h2 = b.binarize(h)
        h2 = b.conv2d(
            h2, ste_sign(conv2.w.value), padding=Padding.SAME_ONE,
            binary_weights=True,
        )
        h2 = b.relu(h2)
        h2 = b.batch_norm(h2, bn_params(bn2))
        g = b.global_avgpool(h2)
        out = b.dense(g, head.w.value, head.b.value)
        graph = b.finish(out)
        converted = convert(graph)

        sample = x[:1]
        eager = model.forward(sample, training=False)
        deployed = Executor(converted.graph).run(sample)
        np.testing.assert_allclose(deployed, eager, rtol=1e-3, atol=1e-3)
