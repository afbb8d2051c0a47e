"""Post-training int8 quantization of a float model (the TFLite-int8 analog).

The paper benchmarks binarized convolutions against 8-bit quantized
baselines.  This example produces such a baseline with this repo's PTQ
pipeline: calibrate a float ResNet-18 on sample data, rewrite it to int8
kernels, check the numerical fidelity, and compare size and device latency
against the float original and the binarized ResNet-18.

Run with::

    python examples/quantize_to_int8.py
"""

from __future__ import annotations

import numpy as np

from repro.converter import convert
from repro.graph.executor import Executor
from repro.hw import DeviceModel
from repro.hw.latency import graph_latency
from repro.ptq import quantize_model
from repro.zoo import binary_resnet18, resnet18_float

INPUT_SIZE = 96  # keep the NumPy inference runs quick


def main() -> None:
    rng = np.random.default_rng(0)
    device = DeviceModel.pixel1()

    print("building float ResNet-18...")
    float_graph = resnet18_float(input_size=INPUT_SIZE)

    print("calibrating on 4 sample batches and quantizing to int8...")
    calibration = [
        rng.standard_normal((1, INPUT_SIZE, INPUT_SIZE, 3)).astype(np.float32)
        for _ in range(4)
    ]
    int8_graph = quantize_model(float_graph, calibration)
    n_int8 = len(int8_graph.ops_by_type("conv2d_int8"))
    print(f"  {n_int8} convolutions now run in int8")

    # Fidelity on in-distribution data.
    sample = calibration[0]
    float_out = Executor(float_graph).run(sample)
    int8_out = Executor(int8_graph).run(sample)
    top1_match = int(float_out.argmax() == int8_out.argmax())
    rel_err = float(np.abs(int8_out - float_out).max() / np.abs(float_out).max())
    print(f"  max relative error {rel_err:.3f}; top-1 prediction match: {bool(top1_match)}")

    print("\nbinarizing the same architecture for comparison...")
    binary = convert(binary_resnet18("A", input_size=INPUT_SIZE))

    print(f"\n{'model':<22} {'latency (pixel1)':>17} {'params':>10}")
    for name, graph in (
        ("float32", float_graph),
        ("int8 (PTQ)", int8_graph),
        ("binary (LCE)", binary.graph),
    ):
        ms = graph_latency(device, graph).total_ms
        print(f"{name:<22} {ms:>14.1f} ms {graph.param_nbytes() / 1e6:>8.1f}MB")
    print(
        "\nThe familiar ordering of the paper's Figure 2, now end to end: "
        "int8 helps, binarization transforms."
    )


if __name__ == "__main__":
    main()
