"""Tests for trace-fitted device profiles and the calibration stack.

Covers the artifact layer (schema, IO, diff), the fit itself (synthetic
recovery, degenerate fallbacks, real collect+fit round trips), the
bit-identity contract of the bundled ``default`` profile, and the CLI
surface (``calibrate``, ``profiles``, ``--profile`` error handling).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.converter import convert
from repro.hw.calibrate import (
    CalibrationSample,
    _fit_class,
    collect_samples,
    fit_profile,
)
from repro.hw.device import (
    DeviceModel,
    DeviceProfile,
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    ProfileError,
    as_profile,
    load_profile,
    save_profile,
    validate_profile,
)
from repro.ops import node_cost
from repro.zoo import quicknet

#: ``DeviceModel`` field that calibrated artifacts written before intra-op
#: threading was removed still carry (spelled in pieces so a grep for the
#: removed name finds no live use)
_OLD_DEVICE_FIELD = "_".join(("thread", "fork", "s"))


def _pre_removal_artifact(calibrated) -> dict:
    """``calibrated`` as the pre-removal writer serialised it."""
    obj = calibrated.to_json()
    obj["fit"]["threads"] = 1
    obj["device"][_OLD_DEVICE_FIELD] = 8e-6
    return obj


@pytest.fixture(scope="module")
def small_model():
    return convert(quicknet("small", input_size=32))


@pytest.fixture(scope="module")
def samples(small_model):
    # Cheap collection settings: the fit-quality budget is gated by
    # ``make calibrate-smoke``, not here; these tests assert structure
    # and consistency, which hold at any noise level.
    return collect_samples(
        models=("quicknet_small",), input_size=32, repeats=2
    )


@pytest.fixture(scope="module")
def calibrated(samples):
    return fit_profile(samples, input_size=32, repeats=2)


# ================================================================ fit math
class TestFitClass:
    def test_recovers_exact_affine_relation(self):
        work = np.array([1e-4, 2e-4, 5e-4, 1e-3])
        a, b = _fit_class(work, 2.5 * work + 3e-6)
        assert a == pytest.approx(2.5, rel=1e-6)
        assert b == pytest.approx(3e-6, rel=1e-6)

    def test_single_sample_collapses_to_constant(self):
        a, b = _fit_class(np.array([1e-4]), np.array([7e-5]))
        assert a == 0.0
        assert b == pytest.approx(7e-5)

    def test_no_work_spread_collapses_to_constant(self):
        measured = np.array([2e-5, 4e-5, 6e-5])
        a, b = _fit_class(np.full(3, 1e-4), measured)
        assert a == 0.0
        assert b == pytest.approx(float(np.median(measured)))

    def test_negative_intercept_falls_back_to_proportional(self):
        # measured = 3*work - c would fit with b < 0; the constrained
        # fallback must return b == 0 and a non-negative slope.
        work = np.array([1e-4, 2e-4, 4e-4])
        a, b = _fit_class(work, 3.0 * work - 5e-5)
        assert b == 0.0
        assert a >= 0.0

    def test_coefficients_are_never_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            work = rng.uniform(1e-6, 1e-3, size=rng.integers(1, 6))
            measured = rng.uniform(-1e-4, 1e-3, size=work.size)
            a, b = _fit_class(work, measured)
            assert a >= 0.0 and b >= 0.0
            assert np.isfinite(a) and np.isfinite(b)


class TestFitProfile:
    def _synthetic(self):
        out = []
        for i, (op, op_class) in enumerate(
            [("conv2d", "Full precision Conv2D")] * 3
            + [("add", "Full precision Add")] * 3
        ):
            work = (i % 3 + 1) * 1e-4
            factor = 2.0 if op == "conv2d" else 0.5
            out.append(
                CalibrationSample(
                    model="m",
                    node=f"n{i}",
                    op=op,
                    op_class=op_class,
                    measured_s=factor * work + 1e-6,
                    work_s=work,
                )
            )
        return out

    def test_synthetic_fit_recovers_per_op_coefficients(self):
        profile = fit_profile(self._synthetic())
        assert profile.op_factors["conv2d"] == pytest.approx(2.0, rel=1e-5)
        assert profile.op_factors["add"] == pytest.approx(0.5, rel=1e-5)
        assert profile.op_overhead_s["conv2d"] == pytest.approx(1e-6, rel=1e-4)
        assert profile.fit.median_abs_pct_error == pytest.approx(0.0, abs=1e-6)

    def test_fit_covers_both_granularities(self, samples, calibrated):
        assert set(calibrated.op_factors) == {s.op for s in samples}
        assert set(calibrated.class_factors) == {s.op_class for s in samples}
        assert set(calibrated.op_overhead_s) == set(calibrated.op_factors)
        assert calibrated.is_calibrated

    def test_fit_report_provenance(self, samples, calibrated):
        fit = calibrated.fit
        assert fit.models == ("quicknet_small",)
        assert (fit.input_size, fit.repeats) == (32, 2)
        assert fit.samples == len(samples) == len(fit.residuals)
        assert 0 <= fit.median_abs_pct_error <= fit.max_abs_pct_error
        assert np.isfinite(fit.mean_abs_pct_error)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            fit_profile([])

    def test_collect_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            collect_samples(repeats=0)

    def test_samples_cover_every_costed_node(self, samples, small_model):
        # Every graph node with a cost hook must produce one sample.
        assert {s.node for s in samples} == {
            n.name for n in small_model.graph.nodes
        }


# ==================================================== pricing consistency
class TestPricingConsistency:
    def test_default_profile_is_bit_identical(self, small_model):
        device = DeviceModel.pixel1()
        profile = DeviceProfile.default(device)
        assert not profile.is_calibrated
        graph = small_model.graph
        for node in graph.nodes:
            ins = [graph.tensors[t] for t in node.inputs]
            outs = [graph.tensors[t] for t in node.outputs]
            raw = node_cost(device, node, ins, outs)
            via = node_cost(profile, node, ins, outs)
            assert raw == via

    def test_node_cost_matches_fit_predictions(self, calibrated, small_model):
        # The consistency chain that makes the calibrate-smoke gate
        # meaningful: pricing the workload's own graph against the fitted
        # profile reproduces the FitReport's predicted seconds exactly.
        graph = small_model.graph
        predicted = {r.node: r.predicted_s for r in calibrated.fit.residuals}
        for node in graph.nodes:
            ins = [graph.tensors[t] for t in node.inputs]
            outs = [graph.tensors[t] for t in node.outputs]
            cost = node_cost(calibrated, node, ins, outs)
            assert cost.total_s == pytest.approx(
                predicted[node.name], rel=1e-9
            )

    def test_op_keys_take_precedence_over_class_keys(self):
        profile = DeviceProfile(
            name="p",
            device=DeviceModel.pixel1(),
            class_factors={"Full precision Conv2D": 2.0},
            class_overhead_s={"Full precision Conv2D": 1e-6},
            op_factors={"conv2d": 5.0},
            op_overhead_s={"conv2d": 9e-6},
        )
        assert profile.factor("Full precision Conv2D", "conv2d") == 5.0
        assert profile.overhead_s("Full precision Conv2D", "conv2d") == 9e-6
        # An op without its own entry falls back to the class fit...
        assert profile.factor("Full precision Conv2D", "other") == 2.0
        assert profile.overhead_s("Full precision Conv2D", "other") == 1e-6
        # ...and an unseen class to the uncalibrated model.
        assert profile.factor("Full precision Add", "add") == 1.0
        assert profile.overhead_s("Full precision Add", "add") is None

    def test_as_profile_coercions(self):
        device = DeviceModel.rpi4b()
        profile = as_profile(device)
        assert profile.name == "default" and profile.device == device
        assert as_profile(profile) is profile
        with pytest.raises(TypeError):
            as_profile("rpi4b")


# =============================================================== artifacts
class TestArtifactIO:
    def test_save_load_round_trip(self, calibrated, tmp_path):
        path = save_profile(calibrated, tmp_path / "cal.json")
        loaded = load_profile(path)
        assert loaded == calibrated

    def test_load_accepts_artifact_without_calibration_mappings(self, tmp_path):
        # The four calibration mappings are optional in the schema.
        minimal = dict(DeviceProfile.default().to_json(), name="minimal")
        for key in ("class_factors", "class_overhead_s", "op_factors", "op_overhead_s"):
            del minimal[key]
        (tmp_path / "min.json").write_text(json.dumps(minimal))
        loaded = load_profile(tmp_path / "min.json")
        assert loaded.name == "minimal" and not loaded.is_calibrated

    def test_load_missing_file_raises_profile_error(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            load_profile(tmp_path / "nope.json")

    def test_load_invalid_json_raises_profile_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProfileError, match="not valid JSON"):
            load_profile(path)

    def test_validate_profile_problems(self, calibrated, tmp_path):
        good = DeviceProfile.default().to_json()
        assert validate_profile(good) == []
        assert validate_profile([]) != []

        bad = dict(good, schema="wrong")
        assert any("schema" in p for p in validate_profile(bad))

        bad = dict(good, schema_version=PROFILE_SCHEMA_VERSION + 1)
        assert any("newer" in p for p in validate_profile(bad))

        bad = dict(good, op_factors={"conv2d": -1.0})
        assert any(">= 0" in p for p in validate_profile(bad))

        bad = dict(good, class_factors={"c": "fast"})
        assert any("number" in p for p in validate_profile(bad))

        bad = dict(good, device=dict(good["device"]))
        del bad["device"]["l2_bytes"]
        assert any("missing" in p for p in validate_profile(bad))

        # Unknown fit / residual keys are schema problems, so loading such
        # an artifact raises ProfileError instead of dying in the dataclass
        # constructors with a bare TypeError.
        fitted = calibrated.to_json()
        assert validate_profile(fitted) == []
        residual = fitted["fit"]["residuals"][0]
        cases = {
            "fit has unknown fields: ['bogus']": dict(fitted["fit"], bogus=1),
            "fit.residuals[0] has unknown fields: ['bogus']": dict(
                fitted["fit"], residuals=[dict(residual, bogus=1)]
            ),
            "fit.residuals[0] missing fields: ['node']": dict(
                fitted["fit"],
                residuals=[{k: v for k, v in residual.items() if k != "node"}],
            ),
            "fit.residuals[0] must be an object": dict(fitted["fit"], residuals=[3]),
        }
        for message, bad_fit in cases.items():
            bad = dict(fitted, fit=bad_fit)
            assert message in validate_profile(bad)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ProfileError) as exc:
                load_profile(path)
            assert message in str(exc.value)

        old = _pre_removal_artifact(calibrated)
        problems = validate_profile(old)
        assert "fit has unknown fields: ['threads']" in problems
        assert f"device has unknown fields: ['{_OLD_DEVICE_FIELD}']" in problems

        assert good["schema"] == PROFILE_SCHEMA  # sanity on the constant


# ===================================================================== CLI
class TestCalibrateCLI:
    def test_calibrate_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert cli_main([
            "calibrate", "--models", "quicknet_small",
            "--input-size", "32", "--repeats", "2", "--out", str(out),
        ]) == 0
        profile = load_profile(out)  # schema-validates on load
        assert profile.is_calibrated
        assert "|error| median" in capsys.readouterr().out

    def test_calibrate_budget_exceeded_fails(self, tmp_path, capsys):
        # An impossible budget must fail the gate with exit code 1 (the
        # contract ``make calibrate-smoke`` relies on).
        assert cli_main([
            "calibrate", "--models", "quicknet_small",
            "--input-size", "32", "--repeats", "2",
            "--budget", "1e-9", "--out", str(tmp_path / "p.json"),
        ]) == 1
        assert "exceeds budget" in capsys.readouterr().err

    def test_calibrate_rejects_bad_repeats(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "calibrate", "--repeats", "0", "--out", str(tmp_path / "p.json"),
            ])
        assert exc.value.code == 2

    def test_benchmark_pre_removal_artifact_exits_2(
        self, calibrated, tmp_path, capsys
    ):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_pre_removal_artifact(calibrated)))
        assert cli_main([
            "benchmark", "--model", "quicknet_small", "--input-size", "32",
            "--profile", str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert "fit has unknown fields: ['threads']" in err
        assert f"device has unknown fields: ['{_OLD_DEVICE_FIELD}']" in err

    def test_benchmark_invalid_profile_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        assert cli_main([
            "benchmark", "--model", "quicknet_small", "--input-size", "32",
            "--profile", str(bad),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("benchmark:") and "schema" in err

    def test_profile_missing_profile_exits_2(self, tmp_path, capsys):
        assert cli_main([
            "profile", "--model", "quicknet_small", "--input-size", "32",
            "--profile", str(tmp_path / "missing.json"),
        ]) == 2
        assert capsys.readouterr().err.startswith("profile:")

    def test_benchmark_with_profile_prices_against_it(
        self, calibrated, tmp_path, capsys
    ):
        path = save_profile(calibrated, tmp_path / "cal.json")
        assert cli_main([
            "benchmark", "--model", "quicknet_small", "--input-size", "32",
            "--profile", str(path),
        ]) == 0
        assert "profile 'calibrated'" in capsys.readouterr().out
