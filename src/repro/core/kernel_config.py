"""Per-geometry kernel schedule configuration.

A :class:`KernelConfig` names one point in the binarized hot path's
schedule space — the knobs the per-geometry autotuner (:mod:`repro.tune`)
searches over and :func:`repro.runtime.plan.compile_plan` applies when a
tuning cache supplies a measured winner:

- ``tile_m`` / ``tile_n`` — BGEMM output-panel blocking
  (:func:`repro.core.bgemm.bgemm_blocked`);
- ``tile_k_words`` — the K depth of the K-major tile kernel, in packed
  words per XOR step: ``1`` (the default, and the only value the tuner
  emits) derives it from the panel shape
  (:func:`repro.core.bgemm.derive_k_block`); a larger value is used as
  given, so caches written when the depth was searched still load;
- ``im2col`` — patch materialization strategy: ``"indirect"`` gathers
  through the precomputed indirection buffer, ``"direct"`` copies one
  strided slice per kernel tap;
- ``thread_grain`` — how many consecutive row tiles form one unit of the
  round-robin tile-to-slot assignment in
  :func:`repro.core.threading.bgemm_parallel`.

Every knob is bit-exactness-preserving by construction (the BGEMM is
exact integer arithmetic and both im2col strategies produce identical
patch layouts), so :data:`DEFAULT_CONFIG` and any tuned config compute
identical results — only the wall clock moves.

This module lives in :mod:`repro.core` (not :mod:`repro.tune`) so the
kernels can consume configs without importing the tuner; ``repro.tune``
re-exports it as part of its public API.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

#: Search-space vocabulary for the im2col strategy knob.
IM2COL_STRATEGIES = ("indirect", "direct")


@dataclass(frozen=True)
class KernelConfig:
    """One schedule point for the binarized conv hot path."""

    tile_m: int = 256
    tile_n: int = 128
    tile_k_words: int = 1
    im2col: str = "indirect"
    thread_grain: int = 1

    def __post_init__(self) -> None:
        problems = validate_kernel_config(asdict(self))
        if problems:
            raise ValueError("invalid KernelConfig: " + "; ".join(problems))

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_CONFIG

    def with_overrides(self, **kwargs) -> "KernelConfig":
        return replace(self, **kwargs)

    # ---------------------------------------------------------- (de)serialise
    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "KernelConfig":
        problems = validate_kernel_config(obj)
        if problems:
            raise ValueError("invalid kernel config: " + "; ".join(problems))
        return cls(**obj)


_CONFIG_FIELDS = tuple(KernelConfig.__dataclass_fields__)


def validate_kernel_config(obj) -> list[str]:
    """Schema problems with a kernel-config JSON object ([] if none)."""
    if not isinstance(obj, dict):
        return [f"kernel config must be an object, got {type(obj).__name__}"]
    problems: list[str] = []
    missing = set(_CONFIG_FIELDS) - set(obj)
    extra = set(obj) - set(_CONFIG_FIELDS)
    if missing:
        problems.append(f"missing fields: {sorted(missing)}")
    if extra:
        problems.append(f"unknown fields: {sorted(extra)}")
    for key in ("tile_m", "tile_n", "tile_k_words", "thread_grain"):
        value = obj.get(key)
        if key in missing:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{key} must be an integer, got {value!r}")
        elif value < 1:
            problems.append(f"{key} must be >= 1, got {value}")
    im2col = obj.get("im2col")
    if "im2col" not in missing and im2col not in IM2COL_STRATEGIES:
        problems.append(
            f"im2col must be one of {IM2COL_STRATEGIES}, got {im2col!r}"
        )
    return problems


#: the untuned schedule — exactly the historical fixed constants
DEFAULT_CONFIG = KernelConfig()
