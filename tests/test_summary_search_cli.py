"""Tests for the model summary and CLI tooling."""

from __future__ import annotations

import pytest

from repro.analysis.macs import count_macs
from repro.analysis.summary import format_summary, model_summary
from repro.cli import main as cli_main
from repro.converter import convert
from repro.zoo import quicknet


class TestSummary:
    def test_one_row_per_node(self):
        g = quicknet("small", input_size=64)
        rows = model_summary(g)
        assert len(rows) == len(g)

    def test_totals_match_count_macs(self):
        g = quicknet("small", input_size=64)
        rows = model_summary(g)
        total_binary = sum(r.macs.binary for r in rows)
        total_fp = sum(r.macs.full_precision for r in rows)
        macs = count_macs(g)
        assert (total_binary, total_fp) == (macs.binary, macs.full_precision)

    def test_param_bytes_match_graph(self):
        g = quicknet("small", input_size=64)
        assert sum(r.param_bytes for r in model_summary(g)) == g.param_nbytes()

    def test_format_contains_binary_share(self):
        g = convert(quicknet("small", input_size=64)).graph
        text = format_summary(g)
        assert "% binary" in text
        assert "lce_bconv2d" in text


class TestCLI:
    def test_benchmark(self, capsys):
        assert cli_main([
            "benchmark", "--model", "quicknet_small", "--input-size", "64",
            "--device", "pixel1", "--threads", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "quicknet_small on pixel1 (2 threads)" in out
        assert "ms" in out

    def test_profile(self, capsys):
        assert cli_main([
            "profile", "--model", "quicknet_small", "--input-size", "64",
            "--device", "rpi4b",
        ]) == 0
        assert "LceBConv2d (accumulation loop)" in capsys.readouterr().out

    def test_summarize(self, capsys):
        assert cli_main([
            "summarize", "--model", "quicknet_small", "--input-size", "64",
            "--converted",
        ]) == 0
        assert "% binary" in capsys.readouterr().out

    def test_convert(self, tmp_path, capsys):
        out_file = tmp_path / "m.lce"
        assert cli_main([
            "convert", "--model", "quicknet_small", "--input-size", "64",
            "--output", str(out_file),
        ]) == 0
        assert out_file.exists()
        from repro.graph.serialization import load_model

        load_model(out_file).verify()

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["benchmark", "--model", "resnet9000"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--slo-p95-ms", "-1"],
            ["serve", "--slo-p95-ms", "inf"],
            ["serve", "--max-batch", "0"],
            ["serve", "--max-queue", "0"],
            ["serve", "--replicas", "0"],
            ["serve", "--requests", "0"],
            ["serve", "--input-size", "0"],
            ["serve", "--deadline-ms", "nan"],
            ["serve", "--deadline-ms", "-1"],
            ["stats", "--batch", "0"],
            ["stats", "--repeats", "0"],
            ["trace", "--batch", "0"],
            ["benchmark", "--input-size", "0"],
            ["analyze", "--input-size", "0"],
            ["calibrate", "--repeats", "0"],
            ["calibrate", "--input-size", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}",
    )
    def test_bad_numeric_flag_is_a_usage_error(self, argv, monkeypatch, capsys):
        """A bad count or deadline exits 2 with a usage message before any
        model is built; exit 1 stays the status of a real SLO breach."""
        import repro.zoo
        from repro import cli

        def build_model(*args, **kwargs):
            raise AssertionError(f"{argv}: a model was built")

        monkeypatch.setattr(cli, "build_model", build_model)
        monkeypatch.setattr(repro.zoo, "build_model", build_model)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[1]}: " in capsys.readouterr().err

    def test_zero_deadline_is_a_valid_flag(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(
            ["serve", "--deadline-ms", "0"]
        ).deadline_ms == 0.0
