"""Post-training int8 quantization (the TFLite-int8-baseline analog).

The paper benchmarks binarized convolutions against "near-lossless 8-bit
quantized" baselines produced by TensorFlow Lite.  This subpackage is our
equivalent: calibrate a float graph's activation ranges on sample data,
then rewrite its convolutions and dense layers to int8 kernels with
per-channel weight scales, collapsing back-to-back dequantize/quantize
pairs so chains of int8 ops exchange int8 tensors directly.

    from repro.ptq import quantize_model
    int8_graph = quantize_model(float_graph, calibration_batches)
"""

from repro.ptq.calibrate import TensorRanges
from repro.ptq.transform import quantize_model

__all__ = ["TensorRanges", "quantize_model"]
