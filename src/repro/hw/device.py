"""Calibrated device profiles for the latency model.

A :class:`DeviceModel` captures everything the per-op cost functions in
:mod:`repro.hw.latency` need: clock frequency, cache capacity, sustained
kernel throughputs per precision, memory bandwidth, and the bandwidth-like
rates of the non-GEMM stages (im2col, bitpacking, output transforms,
elementwise ops).

Sustained MAC throughputs are the *achieved* rates of real kernels — the
theoretical peaks of :mod:`repro.hw.isa` scaled by an attainable kernel
efficiency (register-blocking overheads, load latency, loop tails).  The
profiles below are calibrated once against the paper's anchor points:

- ``pixel1``: Figure 2 (12-17x binary-vs-float on the ResNet18 convs) and
  Table 2 (mean 15.0x / 10.8x, ranges 8.5-18.5x / 6.1-13.4x);
- ``rpi4b``: Figure 11 and Table 5 (mean 17.5x / 8.3x, ranges 8.8-23.0x /
  5.1-9.6x) plus the Table 4 QuickNet operator shares.

They are then held fixed for every experiment — the model-level results
(Figures 5, 7, 8, 10 and Tables 3, 4) are predictions, not fits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

Precision = str  # "float32" | "int8" | "binary"


@dataclass(frozen=True)
class DeviceModel:
    """An ARMv8-A CPU core with calibrated kernel throughputs."""

    name: str
    freq_hz: float
    l2_bytes: int
    #: usable fraction of L2 before a GEMM's weight panel starts thrashing
    l2_usable_fraction: float
    #: DRAM streaming bandwidth, bytes per core cycle
    dram_bytes_per_cycle: float
    #: sustained MACs/cycle per precision for large, cache-friendly GEMMs
    sustained_macs_per_cycle: dict[Precision, float]
    #: throughput multiplier when the weight working set spills L2
    spill_penalty: dict[Precision, float]
    #: binary rows pay a fixed per-row reduction prologue, expressed as
    #: equivalent extra packed words of depth
    binary_row_overhead_words: float
    #: BGEMM throughput multiplier when the bitpacked im2col buffer
    #: exceeds ~2x L2 and patch streaming starts thrashing the cache
    binary_patch_spill_penalty: float
    #: float/int8 GEMMs pay a per-row tail, as equivalent extra depth elems
    gemm_row_overhead_elems: float
    #: GEMM efficiency multiplier for image-stem convolutions (<= 4 input
    #: channels): im2col with 3-channel depth packs registers poorly
    stem_channel_penalty: float
    #: fixed per-op dispatch overhead, seconds
    op_overhead_s: float
    #: im2col copy rate (bytes of patch matrix written per cycle)
    im2col_bytes_per_cycle: float
    #: LceQuantize rate (input float bytes consumed per cycle)
    pack_bytes_per_cycle: float
    #: float output transformation rate (elements per cycle)
    transform_elems_per_cycle: float
    #: thresholded bitpacked output rate (elements per cycle)
    threshold_elems_per_cycle: float
    #: elementwise float ops (add/mul/bn/relu): bytes touched per cycle
    eltwise_bytes_per_cycle: float
    #: pooling rate, window elements per cycle
    pool_elems_per_cycle: float
    #: int8 requantization rate, elements per cycle
    requant_elems_per_cycle: float

    # ------------------------------------------------------------- helpers
    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.freq_hz

    def weights_fit_l2(self, weight_bytes: float) -> bool:
        return weight_bytes <= self.l2_usable_fraction * self.l2_bytes

    def sustained(self, precision: Precision, weight_bytes: float) -> float:
        """Achieved MACs/cycle given the weight working set."""
        base = self.sustained_macs_per_cycle[precision]
        if not self.weights_fit_l2(weight_bytes):
            base *= self.spill_penalty[precision]
        return base

    def with_overrides(self, **kwargs) -> "DeviceModel":
        """A copy with some fields replaced (used by framework models)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------ profiles
    @classmethod
    def pixel1(cls) -> "DeviceModel":
        """Google Pixel 1 (Snapdragon 821, Kryo big core @ 2.15 GHz).

        The Kryo core predates the ARMv8.2 dot-product extension, so int8
        GEMMs use widening multiply-accumulate sequences and land much
        closer to float throughput than Table 1's Cortex-A76 peak would
        suggest — visible in the paper's modest int8-vs-float gap.
        """
        return cls(
            name="pixel1",
            freq_hz=2.15e9,
            l2_bytes=1 * 1024 * 1024,
            l2_usable_fraction=0.75,
            dram_bytes_per_cycle=6.0,
            sustained_macs_per_cycle={"float32": 4.6, "int8": 5.8, "binary": 72.0},
            spill_penalty={"float32": 0.84, "int8": 0.88, "binary": 0.98},
            binary_row_overhead_words=2.0,
            binary_patch_spill_penalty=0.65,
            gemm_row_overhead_elems=8.0,
            stem_channel_penalty=0.45,
            op_overhead_s=2.5e-6,
            im2col_bytes_per_cycle=8.0,
            pack_bytes_per_cycle=8.0,
            transform_elems_per_cycle=2.0,
            threshold_elems_per_cycle=8.0,
            eltwise_bytes_per_cycle=4.0,
            pool_elems_per_cycle=2.0,
            requant_elems_per_cycle=2.0,
        )

    @classmethod
    def rpi4b(cls) -> "DeviceModel":
        """Raspberry Pi 4 Model B (Cortex-A72 @ 1.5 GHz, 64-bit OS).

        The A72's weaker float pipes push binary-vs-float speedups higher
        than the Pixel 1 (up to ~23x), while its int8 path is relatively
        stronger, compressing binary-vs-int8 to 5-10x (paper Table 5).
        """
        return cls(
            name="rpi4b",
            freq_hz=1.5e9,
            l2_bytes=1 * 1024 * 1024,
            l2_usable_fraction=0.75,
            dram_bytes_per_cycle=4.0,
            sustained_macs_per_cycle={"float32": 3.5, "int8": 6.8, "binary": 62.0},
            spill_penalty={"float32": 0.78, "int8": 0.88, "binary": 0.98},
            binary_row_overhead_words=2.0,
            binary_patch_spill_penalty=0.55,
            gemm_row_overhead_elems=8.0,
            stem_channel_penalty=0.45,
            op_overhead_s=4e-6,
            im2col_bytes_per_cycle=6.0,
            pack_bytes_per_cycle=3.0,
            transform_elems_per_cycle=0.8,
            threshold_elems_per_cycle=6.0,
            eltwise_bytes_per_cycle=3.0,
            pool_elems_per_cycle=1.0,
            requant_elems_per_cycle=1.5,
        )

    @classmethod
    def by_name(cls, name: str) -> "DeviceModel":
        try:
            return {"pixel1": cls.pixel1, "rpi4b": cls.rpi4b}[name]()
        except KeyError:
            raise ValueError(f"unknown device {name!r}") from None


# ============================================================ device profiles
#
# A :class:`DeviceProfile` is the first-class, persistable artifact the whole
# cost stack prices against.  It bundles a :class:`DeviceModel` (the analytic
# constants) with trace-fitted *per-op-class calibration*: a multiplicative
# factor on the modelled work of each profiling class and an optional
# replacement for the fixed per-op dispatch overhead.  The bundled ``default``
# profile carries empty calibration, so estimates are bit-for-bit identical
# to pricing against the raw :class:`DeviceModel`.

PROFILE_SCHEMA = "repro.device_profile"
PROFILE_SCHEMA_VERSION = 1


class ProfileError(ValueError):
    """A device-profile artifact failed schema validation or IO."""


@dataclass(frozen=True)
class NodeResidual:
    """Predicted-vs-measured record for one calibration sample."""

    model: str
    node: str
    op: str
    op_class: str
    measured_s: float
    predicted_s: float
    pct_error: float  # 100 * (predicted - measured) / measured


@dataclass(frozen=True)
class FitReport:
    """Provenance and error summary of one calibration fit."""

    models: tuple[str, ...]
    input_size: int
    repeats: int
    samples: int
    median_abs_pct_error: float
    mean_abs_pct_error: float
    max_abs_pct_error: float
    residuals: tuple[NodeResidual, ...] = ()


@dataclass(frozen=True)
class DeviceProfile:
    """A device model plus trace-fitted calibration coefficients.

    ``class_factors[c]`` multiplies the modelled *work* (all non-overhead
    stages) of ops in profiling class ``c``; ``class_overhead_s[c]``
    replaces the fixed dispatch overhead for that class.  ``op_factors``
    and ``op_overhead_s`` refine individual ops (keyed by op name) and
    take precedence over their class entries — profiling classes lump
    heterogeneous ops (e.g. maxpool and depthwise conv share a Table-4
    bucket), so the per-op fit is what meets the error budget, with the
    class fit as the fallback for ops unseen during calibration.  Keys
    absent from every mapping fall back to the uncalibrated model, so an
    empty profile reproduces :class:`DeviceModel` estimates exactly.
    """

    name: str
    device: DeviceModel
    class_factors: Mapping[str, float] = field(default_factory=dict)
    class_overhead_s: Mapping[str, float] = field(default_factory=dict)
    op_factors: Mapping[str, float] = field(default_factory=dict)
    op_overhead_s: Mapping[str, float] = field(default_factory=dict)
    fit: FitReport | None = None
    schema_version: int = PROFILE_SCHEMA_VERSION

    # ----------------------------------------------------------- calibration
    def factor(self, op_class: str, op: str | None = None) -> float:
        """Work multiplier for ``op`` / ``op_class`` (1.0 when uncalibrated)."""
        if op is not None and op in self.op_factors:
            return float(self.op_factors[op])
        return float(self.class_factors.get(op_class, 1.0))

    def overhead_s(self, op_class: str, op: str | None = None) -> float | None:
        """Calibrated dispatch overhead for ``op`` / ``op_class``, or
        ``None`` to keep the device model's ``op_overhead_s``."""
        if op is not None and op in self.op_overhead_s:
            return float(self.op_overhead_s[op])
        value = self.class_overhead_s.get(op_class)
        return None if value is None else float(value)

    @property
    def is_calibrated(self) -> bool:
        return bool(
            self.class_factors
            or self.class_overhead_s
            or self.op_factors
            or self.op_overhead_s
        )

    # ------------------------------------------------------------- factories
    @classmethod
    def default(cls, device: "DeviceModel | str" = "pixel1") -> "DeviceProfile":
        """The bundled uncalibrated profile for ``device`` — estimates are
        bit-for-bit identical to pricing against the raw device model."""
        model = DeviceModel.by_name(device) if isinstance(device, str) else device
        return cls(name="default", device=model)

    # ---------------------------------------------------------- (de)serialise
    def to_json(self) -> dict:
        obj: dict = {
            "schema": PROFILE_SCHEMA,
            "schema_version": self.schema_version,
            "name": self.name,
            "device": asdict(self.device),
            "class_factors": {k: float(v) for k, v in self.class_factors.items()},
            "class_overhead_s": {
                k: float(v) for k, v in self.class_overhead_s.items()
            },
            "op_factors": {k: float(v) for k, v in self.op_factors.items()},
            "op_overhead_s": {k: float(v) for k, v in self.op_overhead_s.items()},
        }
        if self.fit is not None:
            obj["fit"] = asdict(self.fit)
            obj["fit"]["models"] = list(self.fit.models)
            obj["fit"]["residuals"] = [asdict(r) for r in self.fit.residuals]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DeviceProfile":
        problems = validate_profile(obj)
        if problems:
            raise ProfileError(
                "invalid device profile: " + "; ".join(problems)
            )
        device = DeviceModel(**obj["device"])
        fit = None
        if obj.get("fit") is not None:
            f = dict(obj["fit"])
            f["models"] = tuple(f.get("models", ()))
            f["residuals"] = tuple(
                NodeResidual(**r) for r in f.get("residuals", ())
            )
            fit = FitReport(**f)
        return cls(
            name=obj["name"],
            device=device,
            class_factors=dict(obj.get("class_factors", {})),
            class_overhead_s=dict(obj.get("class_overhead_s", {})),
            op_factors=dict(obj.get("op_factors", {})),
            op_overhead_s=dict(obj.get("op_overhead_s", {})),
            fit=fit,
            schema_version=int(obj["schema_version"]),
        )


def as_profile(device: "DeviceModel | DeviceProfile") -> DeviceProfile:
    """Coerce a raw :class:`DeviceModel` to its uncalibrated profile.

    Every cost entry point accepts either; this is the single coercion
    used by :func:`repro.ops.registry.node_cost` and :mod:`repro.hw.latency`.
    """
    if isinstance(device, DeviceProfile):
        return device
    if isinstance(device, DeviceModel):
        return DeviceProfile(name="default", device=device)
    raise TypeError(
        f"expected DeviceModel or DeviceProfile, got {type(device).__name__}"
    )


_DEVICE_FIELDS = {f.name for f in DeviceModel.__dataclass_fields__.values()}
_FIT_FIELDS = {f.name for f in FitReport.__dataclass_fields__.values()}
_RESIDUAL_FIELDS = {f.name for f in NodeResidual.__dataclass_fields__.values()}


def _check_fields(problems: list[str], label: str, obj: dict, fields: set) -> None:
    """Report ``obj``'s missing and unknown keys against a dataclass's fields."""
    missing, extra = fields - set(obj), set(obj) - fields
    if missing:
        problems.append(f"{label} missing fields: {sorted(missing)}")
    if extra:
        problems.append(f"{label} has unknown fields: {sorted(extra)}")


def validate_profile(obj) -> list[str]:
    """Schema oracle for a device-profile JSON object.

    Returns a list of human-readable problems (empty when valid) —
    mirroring the BENCH schema oracles, so callers can report every
    problem at once instead of failing on the first.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"profile must be a JSON object, got {type(obj).__name__}"]
    if obj.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {obj.get('schema')!r}"
        )
    version = obj.get("schema_version")
    if not isinstance(version, int):
        problems.append("schema_version must be an integer")
    elif version > PROFILE_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{PROFILE_SCHEMA_VERSION}"
        )
    if not isinstance(obj.get("name"), str) or not obj.get("name"):
        problems.append("name must be a non-empty string")
    device = obj.get("device")
    if not isinstance(device, dict):
        problems.append("device must be an object of DeviceModel fields")
    else:
        _check_fields(problems, "device", device, _DEVICE_FIELDS)
        for key in ("sustained_macs_per_cycle", "spill_penalty"):
            if key in device and not isinstance(device[key], dict):
                problems.append(f"device.{key} must be a mapping")
    for key in ("class_factors", "class_overhead_s", "op_factors", "op_overhead_s"):
        mapping = obj.get(key, {})
        if not isinstance(mapping, dict):
            problems.append(f"{key} must be a mapping")
            continue
        for cls_name, value in mapping.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{key}[{cls_name!r}] must be a number")
            elif value < 0:
                problems.append(f"{key}[{cls_name!r}] must be >= 0")
    fit = obj.get("fit")
    if fit is not None:
        if not isinstance(fit, dict):
            problems.append("fit must be an object or null")
        else:
            _check_fields(problems, "fit", fit, _FIT_FIELDS)
            residuals = fit.get("residuals", [])
            if not isinstance(residuals, list):
                problems.append("fit.residuals must be a list")
                residuals = []
            for i, residual in enumerate(residuals):
                label = f"fit.residuals[{i}]"
                if not isinstance(residual, dict):
                    problems.append(f"{label} must be an object")
                else:
                    _check_fields(problems, label, residual, _RESIDUAL_FIELDS)
    return problems


def save_profile(profile: DeviceProfile, path: "str | Path") -> Path:
    """Write ``profile`` to ``path`` as versioned JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(profile.to_json(), indent=2, sort_keys=True))
    return path


def load_profile(path: "str | Path") -> DeviceProfile:
    """Load and schema-validate a profile artifact.

    Raises :class:`ProfileError` (never a bare ``KeyError``/``JSONDecodeError``)
    so CLI consumers can fail with a typed message and non-zero exit.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile {path} is not valid JSON: {exc}") from exc
    try:
        return DeviceProfile.from_json(obj)
    except ProfileError as exc:
        raise ProfileError(f"profile {path}: {exc}") from exc
