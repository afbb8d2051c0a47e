"""Full-precision and int8 substrate operators (the TFLite-equivalent ops).

BNNs in practice are mixed-precision graphs: the first and last layers, the
shortcut adds, pooling and normalization all run in float32 (or int8).  The
paper runs those through stock TensorFlow Lite; this subpackage is our
from-scratch equivalent, written as vectorized NumPy reference kernels.

Modules:

- :mod:`repro.kernels.conv2d` — float32 and int8 2-D convolution.
- :mod:`repro.kernels.depthwise` — depthwise convolution.
- :mod:`repro.kernels.dense` — fully connected layers.
- :mod:`repro.kernels.pool` — max/average/global pooling.
- :mod:`repro.kernels.arithmetic` — add/mul/relu/softmax/pad/concat.
- :mod:`repro.kernels.batchnorm` — inference batch norm + folding.
- :mod:`repro.kernels.quantization` — int8 quantization parameters.
"""

from repro.kernels.arithmetic import (
    add,
    concat,
    mul,
    relu,
    relu6,
    reshape,
    softmax,
)
from repro.kernels.batchnorm import (
    BatchNormParams,
    batch_norm,
    fold_into_conv,
    fold_to_multiplier_bias,
)
from repro.kernels.conv2d import conv2d_float, conv2d_int8
from repro.kernels.dense import dense_float, dense_int8
from repro.kernels.depthwise import blur_kernel, depthwise_conv2d_float
from repro.kernels.pool import avgpool2d, global_avgpool, maxpool2d
from repro.kernels.quantization import (
    QuantParams,
    dequantize,
    quantize,
    quantize_weights_per_channel,
    requantize,
)

__all__ = [
    "BatchNormParams",
    "QuantParams",
    "add",
    "avgpool2d",
    "batch_norm",
    "blur_kernel",
    "concat",
    "conv2d_float",
    "conv2d_int8",
    "dense_float",
    "dense_int8",
    "depthwise_conv2d_float",
    "dequantize",
    "fold_into_conv",
    "fold_to_multiplier_bias",
    "global_avgpool",
    "maxpool2d",
    "mul",
    "quantize",
    "quantize_weights_per_channel",
    "relu",
    "relu6",
    "requantize",
    "reshape",
    "softmax",
]
