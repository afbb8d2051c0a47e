"""The evaluation ledger: the paper's shape must hold, and EXPERIMENTS.md
must say so.

Every experiment runs once per session (``repro.experiments.ledger``'s
``collect``).  EXPERIMENTS.md's tables must equal a fresh render of the
claims — which pins every simulated value the document prints — and every
claim must hold.  The classes below name, per paper artifact, the claims
each used to assert on its own; the bands live with the claims in the
experiment modules.
"""

from __future__ import annotations

import difflib
from fnmatch import fnmatch

import pytest

from repro.experiments import ledger


@pytest.fixture(scope="module")
def claims():
    return ledger.collect()


def test_experiments_md_is_a_fresh_render(claims):
    committed = ledger.EXPERIMENTS_MD.read_text()
    fresh = ledger.render(committed, claims)
    diff = difflib.unified_diff(committed.splitlines(), fresh.splitlines(),
                                "committed", "fresh", lineterm="")
    assert fresh == committed, "run python -m repro.experiments.ledger:\n" + "\n".join(diff)


def test_every_claim_holds(claims):
    assert [c for c in claims if c.holds is False] == []


def _holds(claims, *patterns):
    """Every claim whose id matches one of ``patterns`` has a band and holds;
    each pattern matches at least one claim."""
    for pattern in patterns:
        matched = [c for c in claims if fnmatch(c.id, pattern)]
        assert matched, f"no claim matches {pattern!r}"
        for c in matched:
            assert c.holds is True, c


class TestTable1:
    def test_matches_paper(self, claims):
        _holds(claims, "T1.*")


class TestFigure2:
    def test_pixel1_speedup_pattern(self, claims):
        _holds(claims, "F2.A.vs_float", "F2.D.vs_float", "F2.*.vs_int8")

    def test_speedup_grows_with_channels(self, claims):
        _holds(claims, "F2.grows")

    def test_rpi4b_pattern(self, claims):
        _holds(claims, "F11.A.vs_float", "F11.D.vs_float", "F11.*.vs_int8")


class TestFigure3:
    def test_loglog_slope_near_one(self, claims):
        _holds(claims, "F3.*.slope", "F3.*.r2")

    def test_sweep_size(self, claims):
        _holds(claims, "F3.points")

    def test_float_latency_spans_paper_range(self, claims):
        _holds(claims, "F3.float_min", "F3.float_max")


class TestTable2:
    def test_pixel1_within_paper_band(self, claims):
        _holds(claims, "T2.vs32.mean", "T2.vs32.min", "T2.vs32.max", "T2.vs8.mean")

    def test_rpi4b_within_paper_band(self, claims):
        _holds(claims, "T5.vs32.mean", "T5.vs8.mean")

    def test_rpi_float_speedup_higher_int8_lower(self, claims):
        _holds(claims, "T5.*.vs_pixel1")


class TestFigure4:
    def test_lce_fastest_per_conv(self, claims):
        _holds(claims, "F4.*.lce_fastest")

    def test_birealnet_anchors(self, claims):
        _holds(claims, "F4.birealnet.lce", "F4.birealnet.dabnn", "F4.birealnet.ratio")

    def test_tvm_fallback_dominates(self, claims):
        _holds(claims, "F4.birealnet.tvm")


class TestFigure5:
    def test_quicknet_most_binary(self, claims):
        _holds(claims, "F5.most_binary")

    def test_first_layer_impact(self, claims):
        _holds(claims, "F5.*.first_layer")

    def test_quicknet_fastest(self, claims):
        _holds(claims, "F5.quicknet_faster")


class TestTable3:
    def test_configs_and_ordering(self, claims):
        _holds(claims, "T3.*.config", "T3.latency_order", "T3.accuracy_order")

    def test_model_sizes_small(self, claims):
        _holds(claims, "T3.*.size")


class TestFigure7:
    def test_quicknets_on_pareto_front(self, claims):
        _holds(claims, "F7.front")

    def test_densenets_dominated(self, claims):
        _holds(claims, "F7.dominated")

    def test_quicknet_large_beats_densenet_both_axes(self, claims):
        _holds(claims, "F7.qnl_vs_bdn45")

    def test_alexnet_era_models_least_accurate(self, claims):
        _holds(claims, "F7.*.top1")


class TestFigure8:
    def test_shortcut_cost_ordering(self, claims):
        _holds(claims, "F8.order")

    def test_regular_shortcut_cost_small(self, claims):
        _holds(claims, "F8.regular_cost")

    def test_downsample_shortcut_costs_more_per_block(self, claims):
        _holds(claims, "F8.downsampling_cost")

    def test_variant_c_fully_chains(self, claims):
        _holds(claims, "F8.*.bitpacked")

    def test_block_type_microbench_ordering(self, claims):
        _holds(claims, "F9.order")


class TestTable4:
    def test_shares_match_paper_within_tolerance(self, claims):
        _holds(claims, "T4.quantize", "T4.bconv_*", "T4.fp_*")

    def test_add_cost_exceeds_output_transform(self, claims):
        _holds(claims, "T4.add_vs_transform")


class TestFigure10:
    def test_family_fits_tight(self, claims):
        _holds(claims, "F10.*.r2")

    def test_alexnet_above_global_fit(self, claims):
        _holds(claims, "F10.binary_alexnet.vs_fit")

    def test_quicknet_below_global_fit(self, claims):
        _holds(claims, "F10.quicknet_large.vs_fit")

    def test_cross_family_spread_exceeds_within_family(self, claims):
        _holds(claims, "F10.spread")
