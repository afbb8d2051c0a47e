"""Train a binarized classifier with the paper's recipe, then deploy it.

Demonstrates the training substrate end to end on a synthetic image task
(ImageNet is unavailable offline — see DESIGN.md): latent weights with the
straight-through estimator, Adam for binary weights + SGD-momentum for
full-precision variables, linear warmup + cosine decay, QuickNet's
conv -> ReLU -> BN layer order, and finally export through the converter
with a parity check between the eager model and the deployed graph.

Run with::

    python examples/train_binarized_classifier.py
"""

from __future__ import annotations

import numpy as np

from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.kernels.batchnorm import BatchNormParams
from repro.training import (
    BatchNormLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    QuantConv2D,
    ReluLayer,
    Sequential,
    TrainConfig,
    Trainer,
    ste_sign,
    synthetic_images,
)

IMAGE_SIZE = 10
CHANNELS = 4
CLASSES = 5
HIDDEN = 16


def build_model(rng: np.random.Generator) -> Sequential:
    """A two-layer BNN in QuickNet's conv -> ReLU -> BN order."""
    return Sequential([
        QuantConv2D(CHANNELS, HIDDEN, kernel=3, binarize_input=False, rng=rng),
        ReluLayer(), BatchNormLayer(HIDDEN),
        QuantConv2D(HIDDEN, HIDDEN, kernel=3, rng=rng),
        ReluLayer(), BatchNormLayer(HIDDEN),
        GlobalAvgPoolLayer(),
        DenseLayer(HIDDEN, CLASSES, rng=rng),
    ])


def export_to_graph(model: Sequential):
    """Freeze the trained layers into a deployable training-graph."""
    conv1, _, bn1, conv2, _, bn2, _, head = model.layers

    def bn_params(bn: BatchNormLayer) -> BatchNormParams:
        return BatchNormParams(
            gamma=bn.gamma.value.copy(), beta=bn.beta.value.copy(),
            mean=bn.running_mean.copy(), variance=bn.running_var.copy(),
            epsilon=bn.eps,
        )

    b = GraphBuilder((1, IMAGE_SIZE, IMAGE_SIZE, CHANNELS))
    h = b.conv2d(b.input, ste_sign(conv1.w.value), padding=Padding.SAME_ONE,
                 binary_weights=True)
    h = b.relu(h)
    h = b.batch_norm(h, bn_params(bn1))
    h = b.binarize(h)
    h = b.conv2d(h, ste_sign(conv2.w.value), padding=Padding.SAME_ONE,
                 binary_weights=True)
    h = b.relu(h)
    h = b.batch_norm(h, bn_params(bn2))
    h = b.global_avgpool(h)
    out = b.dense(h, head.w.value, head.b.value)
    return b.finish(out)


def main() -> None:
    rng = np.random.default_rng(7)
    x, y = synthetic_images(512, IMAGE_SIZE, CHANNELS, CLASSES, noise=0.7, seed=1)
    split = 384
    x_train, y_train, x_test, y_test = x[:split], y[:split], x[split:], y[split:]

    model = build_model(rng)
    cfg = TrainConfig(epochs=12, batch_size=32, binary_lr=0.01, fp_lr=0.1)
    steps = cfg.epochs * (len(x_train) // cfg.batch_size)
    trainer = Trainer(model, cfg, steps)
    history = trainer.fit(x_train, y_train)

    print("epoch  loss    train acc")
    for i, (loss, acc) in enumerate(zip(history.loss, history.accuracy)):
        print(f"{i + 1:>5}  {loss:.4f}  {acc:.3f}")
    test_acc = trainer.evaluate(x_test, y_test)
    print(f"\nheld-out accuracy: {test_acc:.3f} (chance = {1 / CLASSES:.3f})")
    assert test_acc > 2.0 / CLASSES, "training failed to beat chance comfortably"

    # Deploy: export -> convert -> compare predictions.
    graph = export_to_graph(model)
    deployed = convert(graph)
    eager = model.forward(x_test[:8], training=False).argmax(axis=1)
    batch_preds = []
    reference = Executor(deployed.graph)
    for i in range(8):
        batch_preds.append(int(reference.run(x_test[i : i + 1]).argmax()))
    agreement = float(np.mean(eager == np.array(batch_preds)))
    print(f"eager vs deployed prediction agreement: {agreement:.2f}")
    assert agreement == 1.0
    print("deployed model matches the trained model exactly")


if __name__ == "__main__":
    main()
