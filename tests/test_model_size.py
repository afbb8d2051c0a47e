"""§3.1: binary weight compression in the serialized model file."""

from __future__ import annotations

from repro.converter import convert
from repro.graph.serialization import save_model
from repro.zoo import quicknet


def test_model_file_compression(tmp_path):
    training_graph = quicknet("small", input_size=64)
    training_size = save_model(training_graph, tmp_path / "training.lce")
    model = convert(training_graph)
    converted_size = save_model(model.graph, tmp_path / "converted.lce")
    # The binary conv weights shrink exactly 32x; overall factor depends on
    # the fp fraction (stem, transitions, classifier head).
    assert training_size / converted_size > 10
    # Per-buffer exactness: every packed filter is 32x its latent weights.
    for node in model.graph.ops_by_type("lce_bconv2d"):
        kh = node.attrs["kernel_h"]
        kw = node.attrs["kernel_w"]
        cin = node.attrs["in_channels"]
        cout = node.attrs["out_channels"]
        float_bytes = kh * kw * cin * cout * 4
        words = -(-cin // 64)
        packed_bytes = cout * kh * kw * words * 8
        assert node.params["filter_bits"].nbytes == packed_bytes
        if cin % 64 == 0:
            assert float_bytes == 32 * packed_bytes
