"""Tests for the per-geometry kernel autotuner (:mod:`repro.tune`).

Covers the geometry key, the bounded candidate search, the persistent
:class:`TuningCache` artifact (round-trip, typed rejection of corrupt
files, diff) and — most importantly — the plan-compilation contract:
tuned schedules steer ``lce_bconv2d`` nodes bit-identically, lookups
keyed under a different device-profile id must *miss*, and untuned
geometries fall back to the default schedule unchanged.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.converter import convert
from repro.core.kernel_config import (
    DEFAULT_CONFIG,
    KernelConfig,
    validate_kernel_config,
)
from repro.hw.device import DeviceProfile
from repro.runtime import Engine, compile_plan
from repro.tune import (
    ConvGeometryKey,
    TuningCache,
    TuningEntry,
    TuningError,
    candidate_configs,
    diff_tunings,
    graph_geometries,
    list_tunings,
    load_tuning,
    measure_config,
    node_geometry,
    save_tuning,
    tune_geometries,
    tune_geometry,
    validate_tuning,
)
from repro.zoo import build_model


def _tiny_geometry(**overrides):
    kw = dict(
        batch=1, in_h=4, in_w=4, in_channels=32, out_channels=32,
        kernel_h=3, kernel_w=3,
    )
    kw.update(overrides)
    return ConvGeometryKey(**kw)


def _entry(geometry=None, profile_id="default", config=None):
    return TuningEntry(
        geometry=geometry or _tiny_geometry(),
        device_profile_id=profile_id,
        config=config or KernelConfig(tile_m=128, tile_n=64),
        best_us=10.0,
        default_us=13.0,
        candidates=8,
        repeats=3,
    )


def _quicknet_model():
    return convert(build_model("quicknet_small", input_size=32), in_place=True)


# --------------------------------------------------------------- geometry


class TestConvGeometryKey:
    def test_key_string_is_stable(self):
        g = ConvGeometryKey(
            batch=1, in_h=7, in_w=7, in_channels=512, out_channels=512,
            kernel_h=3, kernel_w=3,
        )
        assert g.key == "b1_i7x7x512_o512_k3x3_s1_d1_same_one_g1"

    def test_derived_quantities(self):
        g = _tiny_geometry()
        assert g.out_hw == (4, 4)
        assert g.bgemm_m == 16
        assert g.bgemm_words == 9  # 3*3 taps, 32 channels -> 1 word each
        assert g.macs == 16 * 32 * (9 * 32)

    def test_json_round_trip(self):
        g = _tiny_geometry()
        assert ConvGeometryKey.from_json(g.to_json()) == g

    def test_rejects_unknown_fields(self):
        obj = _tiny_geometry().to_json()
        obj["vectorize"] = True
        with pytest.raises(ValueError, match="vectorize"):
            ConvGeometryKey.from_json(obj)

    @pytest.mark.parametrize("field", ["batch", "in_h", "in_channels", "kernel_h"])
    def test_rejects_non_positive_dims(self, field):
        with pytest.raises(ValueError):
            _tiny_geometry(**{field: 0})

    def test_rejects_unknown_padding(self):
        with pytest.raises(ValueError):
            _tiny_geometry(padding="reflect")

    def test_graph_geometries_dedups_quicknet(self):
        model = _quicknet_model()
        keys = [g.key for g in graph_geometries(model.graph)]
        assert keys == [
            "b1_i8x8x32_o32_k3x3_s1_d1_same_one_g1",
            "b1_i4x4x64_o64_k3x3_s1_d1_same_one_g1",
            "b1_i2x2x256_o256_k3x3_s1_d1_same_one_g1",
            "b1_i1x1x512_o512_k3x3_s1_d1_same_one_g1",
        ]

    def test_graph_geometries_scales_with_batch_factor(self):
        model = _quicknet_model()
        for g in graph_geometries(model.graph, batch_factor=4):
            assert g.batch == 4

    def test_node_geometry_matches_graph_sweep(self):
        from repro.runtime import rebatched_specs

        model = _quicknet_model()
        node = next(n for n in model.graph.nodes if n.op == "lce_bconv2d")
        geometry = node_geometry(node, rebatched_specs(model.graph, 1))
        assert geometry.key == "b1_i8x8x32_o32_k3x3_s1_d1_same_one_g1"

    def test_node_geometry_rejects_other_ops(self):
        model = _quicknet_model()
        node = next(n for n in model.graph.nodes if n.op != "lce_bconv2d")
        with pytest.raises(ValueError, match="not lce_bconv2d"):
            node_geometry(node, {})


# ----------------------------------------------------------- kernel config


class TestKernelConfig:
    def test_default_is_default(self):
        assert DEFAULT_CONFIG.is_default
        assert not KernelConfig(tile_m=64).is_default

    def test_json_round_trip(self):
        cfg = KernelConfig(tile_m=64, tile_n=32, im2col="direct")
        assert KernelConfig.from_json(cfg.to_json()) == cfg

    def test_validate_reports_all_problems(self):
        problems = validate_kernel_config(
            {"tile_m": 0, "tile_n": "x", "im2col": "magic"}
        )
        assert len(problems) >= 3

    @pytest.mark.parametrize(
        "kw", [{"tile_m": 0}, {"tile_n": -1}, {"tile_k_words": True},
               {"im2col": "nope"}, {"thread_grain": 0}],
    )
    def test_constructor_validates(self, kw):
        with pytest.raises((TypeError, ValueError)):
            KernelConfig(**kw)


# ----------------------------------------------------------------- search


class TestSearch:
    def test_candidates_start_with_default(self):
        cands = candidate_configs(_tiny_geometry())
        assert cands[0] == DEFAULT_CONFIG
        assert len(cands) == len(set(cands)), "candidates must be deduped"

    def test_k_depth_is_not_searched(self):
        # The kernel derives its K depth from each candidate's panel shape.
        for threads in (1, 2):
            cands = candidate_configs(_tiny_geometry(), num_threads=threads)
            assert {c.tile_k_words for c in cands} == {1}

    def test_explicit_k_depth_in_a_config_is_still_honoured(self):
        # Caches written before the depth was derived carry tile_k_words > 1.
        cfg = KernelConfig.from_json(
            {**DEFAULT_CONFIG.to_json(), "tile_k_words": 2}
        )
        assert measure_config(_tiny_geometry(), cfg, repeats=1) > 0

    def test_truncation_keeps_default(self):
        cands = candidate_configs(_tiny_geometry(), max_candidates=3)
        assert len(cands) == 3
        assert DEFAULT_CONFIG in cands

    def test_threaded_search_adds_grain_axis(self):
        grains = {
            c.thread_grain
            for c in candidate_configs(_tiny_geometry(), num_threads=2)
        }
        assert grains == {1, 2}

    def test_measure_config_returns_positive_us(self):
        us = measure_config(_tiny_geometry(), DEFAULT_CONFIG, repeats=2)
        assert us > 0

    def test_tune_geometry_produces_consistent_entry(self):
        # (the tiny geometry's whole grid is 3 candidates now that the K
        # depth is derived rather than searched)
        entry = tune_geometry(_tiny_geometry(), repeats=2, max_candidates=2)
        assert entry.device_profile_id == "default"
        assert entry.candidates == 2
        assert entry.repeats == 2
        # The default config is always in the candidate set, so the
        # winner can never be measurably slower than it.
        assert entry.best_us <= entry.default_us
        assert entry.speedup >= 1.0

    def test_near_tie_resolves_to_default(self, monkeypatch):
        # A non-default candidate that wins by less than min_gain is
        # timing noise: the entry must record the default schedule.
        import repro.tune.search as search

        def fake_measure(geometry, config, **kwargs):
            return 100.0 if config == DEFAULT_CONFIG else 95.0

        monkeypatch.setattr(search, "measure_config", fake_measure)
        entry = search.tune_geometry(_tiny_geometry(), repeats=2)
        assert entry.config == DEFAULT_CONFIG
        assert entry.best_us == entry.default_us == 100.0

    def test_clear_win_is_kept(self, monkeypatch):
        import repro.tune.search as search

        def fake_measure(geometry, config, **kwargs):
            return 100.0 if config == DEFAULT_CONFIG else 80.0

        monkeypatch.setattr(search, "measure_config", fake_measure)
        entry = search.tune_geometry(_tiny_geometry(), repeats=2)
        assert entry.config != DEFAULT_CONFIG
        assert entry.best_us == 80.0

    def test_rejects_bad_min_gain(self):
        with pytest.raises(ValueError, match="min_gain"):
            tune_geometry(_tiny_geometry(), repeats=1, min_gain=1.5)

    def test_tune_geometries_builds_cache(self):
        geometries = [_tiny_geometry(), _tiny_geometry(in_h=5, in_w=5)]
        cache = tune_geometries(
            geometries, name="t", repeats=2, max_candidates=2
        )
        assert cache.name == "t"
        assert len(cache) == 2


# ------------------------------------------------------------ cache lookup


class TestTuningCacheLookup:
    def test_hit_returns_entry(self):
        entry = _entry()
        cache = TuningCache(name="c", entries=(entry,))
        assert cache.lookup(entry.geometry.key, "default") is entry

    def test_same_geometry_different_profile_id_misses(self):
        # The satellite contract: a schedule tuned under one calibrated
        # device profile must never steer plans compiled under another.
        entry = _entry(profile_id="rpi4b-cal")
        cache = TuningCache(name="c", entries=(entry,))
        assert cache.lookup(entry.geometry.key, "rpi4b-cal") is entry
        assert cache.lookup(entry.geometry.key, "default") is None
        assert cache.lookup(entry.geometry.key, "pixel1-cal") is None

    def test_unknown_geometry_misses(self):
        cache = TuningCache(name="c", entries=(_entry(),))
        assert cache.lookup("b9_i9x9x9_o9_k9x9_s1_d1_same_one_g1", "default") is None

    def test_with_entry_replaces_same_key(self):
        first = _entry()
        better = _entry(config=KernelConfig(tile_m=512))
        cache = TuningCache(name="c", entries=(first,)).with_entry(better)
        assert len(cache) == 1
        assert cache.lookup(*first.key).config == better.config


# -------------------------------------------------------- artifact round-trip


class TestTuningArtifact:
    def test_save_load_round_trip(self, tmp_path):
        cache = TuningCache(name="roundtrip", entries=(_entry(),))
        path = save_tuning(cache, tmp_path / "t.json")
        assert load_tuning(path) == cache

    def test_validate_accepts_saved_artifact(self, tmp_path):
        cache = TuningCache(name="ok", entries=(_entry(),))
        path = save_tuning(cache, tmp_path / "t.json")
        assert validate_tuning(json.loads(path.read_text())) == []

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(TuningError, match="cannot read"):
            load_tuning(tmp_path / "absent.json")

    def test_non_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(TuningError, match="not valid JSON"):
            load_tuning(path)

    def test_schema_violation_raises_typed_error(self, tmp_path):
        obj = TuningCache(name="bad", entries=(_entry(),)).to_json()
        obj["entries"][0]["config"]["tile_m"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(TuningError, match="tile_m"):
            load_tuning(path)

    def test_newer_schema_version_rejected(self):
        obj = TuningCache(name="future").to_json()
        obj["schema_version"] = 99
        problems = validate_tuning(obj)
        assert any("newer than supported" in p for p in problems)

    def test_duplicate_keys_rejected(self):
        e = _entry()
        obj = {
            "schema": "repro.tuning_cache",
            "schema_version": 1,
            "name": "dup",
            "entries": [e.to_json(), e.to_json()],
        }
        problems = validate_tuning(obj)
        assert any("duplicates" in p for p in problems)

    def test_list_tunings_summarizes_and_flags_invalid(self, tmp_path):
        save_tuning(
            TuningCache(name="good", entries=(_entry(),)), tmp_path / "a.json"
        )
        bad = TuningCache(name="bad", entries=(_entry(),)).to_json()
        bad["entries"][0]["best_us"] = -1
        (tmp_path / "b.json").write_text(json.dumps(bad))
        (tmp_path / "other.json").write_text(json.dumps({"schema": "x"}))
        (tmp_path / "not.json").write_text("}{")
        rows = list_tunings(tmp_path)
        assert len(rows) == 2
        good_row = next(r for r in rows if "name" in r)
        assert good_row["name"] == "good"
        assert good_row["entries"] == 1
        assert good_row["profiles"] == ["default"]
        bad_row = next(r for r in rows if "problems" in r)
        assert any("best_us" in p for p in bad_row["problems"])

    def test_diff_reports_config_changes_and_one_sided_keys(self):
        shared = _entry()
        changed = _entry(config=KernelConfig(tile_m=512, im2col="direct"))
        only_a = _entry(geometry=_tiny_geometry(in_h=5, in_w=5))
        a = TuningCache(name="a", entries=(shared, only_a))
        b = TuningCache(name="a", entries=(changed,))
        diffs = diff_tunings(a, b)
        assert "name" not in diffs
        key = f"{shared.geometry.key}@default"
        assert diffs[key] == (shared.config.to_json(), changed.config.to_json())
        lone = diffs[f"{only_a.geometry.key}@default"]
        assert lone == (only_a.config.to_json(), None)

    def test_diff_identical_caches_is_empty(self):
        cache = TuningCache(name="same", entries=(_entry(),))
        assert diff_tunings(cache, cache) == {}


# -------------------------------------------------- plan-compilation wiring


def _tuned_cache_for(model, config, profile_id="default"):
    """A cache steering the first (8x8x32) QuickNet geometry to ``config``."""
    geometry = graph_geometries(model.graph)[0]
    entry = TuningEntry(
        geometry=geometry,
        device_profile_id=profile_id,
        config=config,
        best_us=5.0,
        default_us=9.0,
        candidates=4,
        repeats=3,
    )
    return TuningCache(name="test-tuned", entries=(entry,))


class TestPlanWiring:
    CONFIG = KernelConfig(tile_m=64, tile_n=32, im2col="direct")

    def test_tuned_plan_records_sources(self):
        model = _quicknet_model()
        tuning = _tuned_cache_for(model, self.CONFIG)
        plan = compile_plan(model.graph, tuning=tuning)
        assert plan.tuning_id == "test-tuned"
        tuned = [t for t in plan.tuning if t.source == "tuned"]
        defaulted = [t for t in plan.tuning if t.source == "default"]
        # 4 of the 16 binary convs share the 8x8x32 geometry.
        assert plan.tuned_nodes == len(tuned) == 4
        assert len(defaulted) == 12
        assert all(t.config == self.CONFIG for t in tuned)
        assert all(t.config is None for t in defaulted)
        assert all(t.op == "lce_bconv2d" for t in plan.tuning)

    def test_untuned_plan_has_no_tuning_records(self):
        model = _quicknet_model()
        plan = compile_plan(model.graph)
        assert plan.tuning == ()
        assert plan.tuning_id is None
        assert plan.tuned_nodes == 0

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_tuned_outputs_bit_identical(self, rng, threads):
        model = _quicknet_model()
        tuning = _tuned_cache_for(model, self.CONFIG)
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        with Engine(model, num_threads=threads) as plain:
            expected = plain.run(x)
        with Engine(model, num_threads=threads, tuning=tuning) as tuned:
            got = tuned.run(x)
            stats = tuned.stats()
        assert np.array_equal(got[0], expected[0])
        assert stats.tuning_id == "test-tuned"
        assert stats.tuned_nodes == 4

    def test_profile_id_mismatch_falls_back_to_default(self, rng):
        # Entries tuned under a differently-named calibrated profile must
        # not steer this plan: same geometry, different device, miss.
        model = _quicknet_model()
        tuning = _tuned_cache_for(model, self.CONFIG, profile_id="rpi4b-cal")
        plan = compile_plan(model.graph, tuning=tuning)
        assert plan.tuned_nodes == 0
        assert all(t.source == "default" for t in plan.tuning)

    def test_default_profile_object_matches_default_id(self):
        # DeviceProfile.default(...) keeps the artifact name "default", so
        # caches tuned without calibration still hit under it.
        model = _quicknet_model()
        tuning = _tuned_cache_for(model, self.CONFIG)
        profile = DeviceProfile.default("pixel1")
        plan = compile_plan(model.graph, profile=profile, tuning=tuning)
        assert plan.tuned_nodes == 4

    def test_untuned_stats_report_none(self, rng):
        model = _quicknet_model()
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        with Engine(model) as engine:
            engine.run(x)
            stats = engine.stats()
        assert stats.tuning_id == "none"
        assert stats.tuned_nodes == 0
