"""repro — a pure-Python reproduction of Larq Compute Engine (MLSys 2021).

Larq Compute Engine (LCE) is a Binarized Neural Network (BNN) inference
engine built on TensorFlow Lite.  This package reproduces, from scratch and
on NumPy only, every system the paper describes:

- :mod:`repro.core` — the LCE operator set: bitpacking, binary GEMM,
  ``LceBConv2d``, ``LceQuantize``/``LceDequantize``, ``LceBMaxPool2d``.
- :mod:`repro.kernels` — the full-precision and int8 substrate operators
  (the TFLite-equivalent ops a mixed-precision BNN needs).
- :mod:`repro.graph` — a small graph IR, executor and model serialization
  with 1-bit packed binary weights.
- :mod:`repro.runtime` — the serving path: compiled execution plans with a
  prepacked-weight cache and batched execution
  (:class:`repro.runtime.Engine`), bit-identical to the reference executor.
- :mod:`repro.converter` — the MLIR-converter analog: a pass pipeline that
  turns training graphs into optimized inference graphs.
- :mod:`repro.training` — latent-weight / straight-through-estimator
  training substrate (the Larq analog).
- :mod:`repro.zoo` — QuickNet and the literature BNNs used in the paper's
  evaluation (the Larq Zoo analog).
- :mod:`repro.hw` — an analytical latency model of ARMv8-A devices
  (Pixel 1, Raspberry Pi 4B) and of competing inference frameworks.
- :mod:`repro.analysis` — MAC counting, speedup statistics, static
  analysis.
- :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    import numpy as np
    from repro import convert, zoo
    from repro.graph import Executor
    from repro.hw import DeviceModel, graph_latency

    # training graph -> LCE model.  convert() never mutates its input and
    # shares its arrays read-only; keeping no name for the training graph
    # lets its float weights go.
    model = convert(zoo.quicknet("small"))
    out = Executor(model.graph).run(np.random.randn(1, 224, 224, 3))
    latency_ms = graph_latency(DeviceModel.pixel1(), model.graph).total_ms

Serving (batched, bit-identical to the executor)::

    from repro import Engine

    with Engine(model, max_batch_size=8) as engine:
        outs = engine.run_many([x1, x2, x3])   # coalesced into one plan run
        print(engine.stats().throughput_samples_per_s)
"""

import os

# The host engine is single-threaded by design and cores are spent on
# Gateway replicas; a BLAS pool under each replica thread only makes them
# fight (p50 468 -> 37 ms on a 2-core host).  This must run before NumPy
# loads its BLAS, hence here; a value the caller exported wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro.converter import convert  # noqa: E402
from repro.runtime import Engine  # noqa: E402
from repro.version import __version__  # noqa: E402

__all__ = ["Engine", "convert", "__version__"]
