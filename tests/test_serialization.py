"""Tests for the LCE model file format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.serialization import MAGIC, load_model, save_model
from repro.kernels.batchnorm import BatchNormParams


def _toy_binary_graph(rng, channels=64):
    b = GraphBuilder((1, 8, 8, channels))
    h = b.binarize(b.input)
    h = b.conv2d(
        h, rng.choice([-1.0, 1.0], (3, 3, channels, channels)).astype(np.float32),
        padding=Padding.SAME_ONE, binary_weights=True,
    )
    h = b.batch_norm(h, BatchNormParams.identity(channels))
    h = b.global_avgpool(h)
    return b.finish(h)


class TestRoundTrip:
    def test_training_graph_roundtrip(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        path = tmp_path / "model.lce"
        save_model(g, path)
        g2 = load_model(path)
        x = rng.standard_normal((1, 8, 8, 64)).astype(np.float32)
        np.testing.assert_allclose(Executor(g).run(x), Executor(g2).run(x), rtol=1e-6)

    def test_converted_graph_roundtrip(self, rng, tmp_path):
        model = convert(_toy_binary_graph(rng))
        path = tmp_path / "model.lce"
        save_model(model.graph, path)
        g2 = load_model(path)
        x = rng.standard_normal((1, 8, 8, 64)).astype(np.float32)
        assert np.array_equal(
            Executor(model.graph).run(x), Executor(g2).run(x)
        )

    def test_preserves_structure(self, rng, tmp_path):
        model = convert(_toy_binary_graph(rng))
        path = tmp_path / "model.lce"
        save_model(model.graph, path)
        g2 = load_model(path)
        assert [n.op for n in g2.nodes] == [n.op for n in model.graph.nodes]
        assert g2.inputs == model.graph.inputs
        assert g2.outputs == model.graph.outputs

    def test_uint64_filter_bits_preserved(self, rng, tmp_path):
        model = convert(_toy_binary_graph(rng))
        path = tmp_path / "model.lce"
        save_model(model.graph, path)
        g2 = load_model(path)
        orig = model.graph.ops_by_type("lce_bconv2d")[0].params["filter_bits"]
        loaded = g2.ops_by_type("lce_bconv2d")[0].params["filter_bits"]
        assert loaded.dtype == np.uint64
        assert np.array_equal(orig, loaded)


class TestCompression:
    def test_converted_file_much_smaller(self, rng, tmp_path):
        """Binary weight compression (paper Section 3.1): the dominant
        binary conv weights shrink 32x, so the converted file is a fraction
        of the training graph's."""
        g = _toy_binary_graph(rng, channels=64)
        training_size = save_model(g, tmp_path / "train.lce")
        model = convert(g)
        converted_size = save_model(model.graph, tmp_path / "conv.lce")
        assert converted_size < training_size / 10

    def test_binary_weight_buffers_exactly_32x(self, rng):
        g = _toy_binary_graph(rng, channels=64)
        float_weights = g.ops_by_type("conv2d")[0].params["weights"]
        model = convert(g)
        packed = model.graph.ops_by_type("lce_bconv2d")[0].params["filter_bits"]
        assert float_weights.nbytes == 32 * packed.nbytes


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lce"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 100)
        with pytest.raises(ValueError, match="not an LCE model"):
            load_model(path)

    def test_bad_version(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        path = tmp_path / "model.lce"
        save_model(g, path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = 99  # clobber the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_unverifiable_graph_rejected_on_save(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        g.outputs = ["missing"]
        with pytest.raises(Exception):
            save_model(g, tmp_path / "bad.lce")


class TestFaultInjection:
    def test_truncated_buffer_section(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        path = tmp_path / "model.lce"
        save_model(g, path)
        raw = path.read_bytes()
        (tmp_path / "trunc.lce").write_bytes(raw[: len(raw) - 64])
        with pytest.raises(ValueError):
            load_model(tmp_path / "trunc.lce")

    def test_truncated_header(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        path = tmp_path / "model.lce"
        save_model(g, path)
        raw = path.read_bytes()
        (tmp_path / "trunc.lce").write_bytes(raw[:40])
        with pytest.raises(Exception):
            load_model(tmp_path / "trunc.lce")

    def test_corrupted_json_header(self, rng, tmp_path):
        g = _toy_binary_graph(rng)
        path = tmp_path / "model.lce"
        save_model(g, path)
        raw = bytearray(path.read_bytes())
        raw[20] = ord("!")  # clobber the header's opening brace
        (tmp_path / "bad.lce").write_bytes(bytes(raw))
        with pytest.raises(Exception):
            load_model(tmp_path / "bad.lce")

    def test_empty_file(self, tmp_path):
        (tmp_path / "empty.lce").write_bytes(b"")
        with pytest.raises(ValueError):
            load_model(tmp_path / "empty.lce")


def _edit_buffer_table(path, edit):
    """Rewrite the header of the file at ``path`` through ``edit(entries)``
    over its ndarray entries sorted by offset, keeping the buffers."""
    raw = path.read_bytes()
    length = int(np.frombuffer(raw, np.uint64, count=1, offset=len(MAGIC) + 4)[0])
    start = len(MAGIC) + 12
    header = json.loads(raw[start : start + length])
    entries = []
    for node in header["nodes"]:
        for name, entry in node["params"].items():
            for sub in entry.get("fields", {"": entry}).values():
                entries.append((sub["offset"], node["name"], name, sub))
    edit([e[1:] for e in sorted(entries, key=lambda e: e[0])])
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(
        raw[: len(MAGIC) + 4] + np.uint64(len(new)).tobytes() + new
        + raw[start + length :]
    )


class TestBufferTable:
    """A header whose buffer table disagrees with the bytes is refused,
    naming the node and parameter, instead of loading other bytes."""

    def _refused(self, rng, tmp_path, edit, message):
        """Save a converted graph, break its table with ``edit(entries)``
        (which returns the node and parameter it broke), and load it."""
        path = tmp_path / "model.lce"
        save_model(convert(_toy_binary_graph(rng)).graph, path)
        broken = []
        _edit_buffer_table(path, lambda entries: broken.append(edit(entries)))
        with pytest.raises(ValueError, match=message) as exc:
            load_model(path)
        node, name = broken[0]
        assert f"node {node!r} parameter {name!r}" in str(exc.value)

    def test_a_shifted_offset(self, rng, tmp_path):
        def shift(entries):
            node, name, entry = entries[0]  # the next entry starts where it ends
            entry["offset"] += np.dtype(entry["dtype"]).itemsize
            return node, name

        self._refused(rng, tmp_path, shift, "overlap")

    def test_an_offset_past_the_section(self, rng, tmp_path):
        def shift(entries):
            node, name, entry = entries[-1]
            entry["offset"] += 8
            return node, name

        self._refused(rng, tmp_path, shift, "outside")

    def test_an_inflated_nbytes(self, rng, tmp_path):
        def inflate(entries):
            node, name, entry = entries[0]
            entry["nbytes"] += 8
            return node, name

        self._refused(rng, tmp_path, inflate, "nbytes")

    def test_an_overlap(self, rng, tmp_path):
        def overlap(entries):
            (_, _, first), (node, name, second) = entries[:2]
            second["offset"] = first["offset"]
            return node, name

        self._refused(rng, tmp_path, overlap, "overlap")
