"""The "LCE model file": compact binary serialization of a graph.

Like the paper's converted TFLite flatbuffer, the on-disk model stores
binary convolution weights *bitpacked* — one bit per weight — so binarized
models shrink ~32x relative to the float training graph (Section 3.1,
"binary weight compression").  The format is deliberately simple:

    magic  "LCEREPRO"    8 bytes
    version              u32 little-endian
    header length        u64 little-endian
    header               UTF-8 JSON (graph structure + buffer directory)
    buffers              concatenated raw little-endian arrays

Parameter arrays (packed filter bits, multipliers, thresholds, float
weights of non-binary layers, ...) live in the buffer section; the JSON
header holds everything else.  The loader checks the buffer table: each
entry's ``nbytes`` matches its shape and dtype, lies inside the buffer
section and overlaps no other entry.
"""

from __future__ import annotations

import enum
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.graph.ir import Graph, TensorSpec
from repro.kernels.batchnorm import BatchNormParams

MAGIC = b"LCEREPRO"
VERSION = 1


# --------------------------------------------------------------- attributes
def _encode_attr(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode_attr(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialize attribute of type {type(value)}")


# --------------------------------------------------------------- parameters
class _BufferWriter:
    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, array: np.ndarray) -> dict[str, Any]:
        data = np.ascontiguousarray(array)
        raw = data.tobytes()
        entry = {
            "kind": "ndarray",
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "offset": self.offset,
            "nbytes": len(raw),
        }
        self.chunks.append(raw)
        self.offset += len(raw)
        return entry


def _encode_param(value: Any, writer: _BufferWriter) -> dict[str, Any]:
    if isinstance(value, np.ndarray):
        return writer.add(value)
    if isinstance(value, BatchNormParams):
        return {
            "kind": "batch_norm_params",
            "epsilon": float(value.epsilon),
            "fields": {
                name: writer.add(np.asarray(getattr(value, name)))
                for name in ("gamma", "beta", "mean", "variance")
            },
        }
    raise TypeError(f"cannot serialize parameter of type {type(value)}")


def _decode_param(entry: dict[str, Any], buffers: bytes, where: str, spans: list) -> Any:
    """Decode one parameter, appending each buffer it reads to ``spans`` as
    ``(start, stop, where)``; ``where`` names it in every error."""
    kind = entry["kind"]
    if kind == "ndarray":
        dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
        start, nbytes = entry["offset"], entry["nbytes"]
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{where}: nbytes {nbytes} is not {dtype}{list(shape)}'s")
        if not 0 <= start <= len(buffers) - nbytes:
            raise ValueError(f"{where}: bytes [{start}, {start + nbytes}) lie outside "
                             f"the {len(buffers)}-byte buffer section")
        spans.append((start, start + nbytes, where))
        raw = buffers[start : start + nbytes]
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if kind == "batch_norm_params":
        fields = {
            name: _decode_param(sub, buffers, f"{where}.{name}", spans)
            for name, sub in entry["fields"].items()
        }
        return BatchNormParams(epsilon=entry["epsilon"], **fields)
    raise ValueError(f"{where}: unknown parameter kind {kind!r}")


def _check_disjoint(spans: list) -> None:
    """No two non-empty buffers share a byte."""
    end, owner = 0, None
    for start, stop, where in sorted(s for s in spans if s[0] < s[1]):
        if start < end:
            raise ValueError(f"{where}: bytes [{start}, {stop}) overlap {owner}")
        end, owner = stop, where


# -------------------------------------------------------------------- model
def save_model(graph: Graph, path: str | Path) -> int:
    """Serialize a graph; returns the file size in bytes.

    Validation includes each op's declared attribute schema (see
    :mod:`repro.ops`): a graph whose attributes would not round-trip
    through the schema is rejected before any bytes are written.
    """
    graph.validate()
    writer = _BufferWriter()
    nodes = []
    for node in graph.nodes:
        nodes.append(
            {
                "name": node.name,
                "op": node.op,
                "inputs": node.inputs,
                "outputs": node.outputs,
                "attrs": {k: _encode_attr(v) for k, v in node.attrs.items()},
                "params": {k: _encode_param(v, writer) for k, v in node.params.items()},
            }
        )
    header = {
        "name": graph.name,
        "inputs": graph.inputs,
        "outputs": graph.outputs,
        "tensors": {
            t: {"shape": list(s.shape), "dtype": s.dtype}
            for t, s in graph.tensors.items()
        },
        "nodes": nodes,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    path = Path(path)
    with path.open("wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).tobytes())
        f.write(np.uint64(len(header_bytes)).tobytes())
        f.write(header_bytes)
        for chunk in writer.chunks:
            f.write(chunk)
    return path.stat().st_size


def load_model(path: str | Path) -> Graph:
    """Load a graph saved by :func:`save_model`."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an LCE model file")
    version = int(np.frombuffer(raw, np.uint32, count=1, offset=len(MAGIC))[0])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    header_len_offset = len(MAGIC) + 4
    header_len = int(np.frombuffer(raw, np.uint64, count=1, offset=header_len_offset)[0])
    header_start = header_len_offset + 8
    header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
    buffers = raw[header_start + header_len :]

    graph = Graph(name=header["name"])
    graph.tensors = {
        t: TensorSpec(tuple(s["shape"]), s["dtype"])
        for t, s in header["tensors"].items()
    }
    graph.inputs = list(header["inputs"])
    graph.outputs = list(header["outputs"])
    from repro.graph.ir import Node

    spans: list = []
    for spec in header["nodes"]:
        graph.nodes.append(
            Node(
                name=spec["name"],
                op=spec["op"],
                inputs=list(spec["inputs"]),
                outputs=list(spec["outputs"]),
                attrs=dict(spec["attrs"]),
                params={
                    k: _decode_param(
                        v, buffers, f"node {spec['name']!r} parameter {k!r}", spans
                    )
                    for k, v in spec["params"].items()
                },
            )
        )
    _check_disjoint(spans)
    graph.validate()
    return graph
