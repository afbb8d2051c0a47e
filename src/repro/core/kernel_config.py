"""Kernel schedule configuration for the binarized conv hot path.

A :class:`KernelConfig` names one point in the hot path's schedule space:

- ``tile_m`` / ``tile_n`` — caps (256 patch rows x 512 filter columns)
  on the BGEMM output panel; the panel a convolution runs is derived from
  them and the problem by :func:`repro.core.bgemm.derive_panel` (all
  ``N`` columns at once when ``M <= 8``, else the longer side up to its
  cap and the other side at most 64).  ``bgemm_blocked`` keeps its own
  256 x 128 tiles;
- ``tile_k_words`` — the K depth of the K-major tile kernel, in packed
  words per XOR step: ``1`` (the default) derives it from the panel shape
  (:func:`repro.core.bgemm.derive_k_block`); a larger value is used as
  given;
- ``im2col`` — ``"indirect"`` or ``"direct"``: which of
  :mod:`repro.core.indirection`'s two gathers a measurement should time.
  No kernel reads it (the bound kernel's im2col is one strided copy, the
  reference ``bconv2d`` is a +/-1 float convolution); only ``bench/``'s
  probe does, and ROADMAP item 2 removes the field with it.

The schedule is fixed: every plan runs :data:`DEFAULT_CONFIG`.  The
``config=`` argument of :class:`repro.core.bconv2d.BoundBConv2D` (and of
``reserve_bconv2d_workspace``, which sizes the arena for the same tiles)
exists for kernel measurements (:func:`repro.tune.measure_config`); the
reference ``bconv2d`` takes none.  Every knob is bit-exactness-preserving
by construction (the BGEMM is exact integer arithmetic), so any config
computes identical results — only the wall clock moves.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Vocabulary of the im2col strategy knob.
IM2COL_STRATEGIES = ("indirect", "direct")


@dataclass(frozen=True)
class KernelConfig:
    """One schedule point for the binarized conv hot path."""

    tile_m: int = 256
    tile_n: int = 512
    tile_k_words: int = 1
    im2col: str = "indirect"

    def __post_init__(self) -> None:
        problems: list[str] = []
        for key in ("tile_m", "tile_n", "tile_k_words"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{key} must be an integer, got {value!r}")
            elif value < 1:
                problems.append(f"{key} must be >= 1, got {value}")
        if self.im2col not in IM2COL_STRATEGIES:
            problems.append(
                f"im2col must be one of {IM2COL_STRATEGIES}, got {self.im2col!r}"
            )
        if problems:
            raise ValueError("invalid KernelConfig: " + "; ".join(problems))


#: the schedule every plan runs
DEFAULT_CONFIG = KernelConfig()
