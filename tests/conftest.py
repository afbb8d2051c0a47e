"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for everything: these tests exercise NumPy kernels,
# so per-example runtime dominates and hypothesis deadlines only add noise.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


class _RecordingAdd:
    """``np.add`` whose ``reduce`` records the buffer size it runs under."""

    def __init__(self, probe: "BgemmBufsizeProbe") -> None:
        self._probe = probe

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self._probe.at_reduce.append(np.getbufsize())
        if self._probe.reduce_raises:
            raise RuntimeError("K-sum reduce failed")
        return np.add.reduce(*args, **kwargs)


class BgemmBufsizeProbe:
    """NumPy as ``repro.core.bgemm`` sees it, recording ``np.getbufsize()``
    at every XOR step (``at_xor``) and every K-sum reduce (``at_reduce``)
    in the calling thread; ``reduce_raises`` makes the reduce fail."""

    def __init__(self) -> None:
        self.at_xor: list[int] = []
        self.at_reduce: list[int] = []
        self.reduce_raises = False
        self.add = _RecordingAdd(self)

    def __getattr__(self, name):
        return getattr(np, name)

    def bitwise_xor(self, *args, **kwargs):
        self.at_xor.append(np.getbufsize())
        return np.bitwise_xor(*args, **kwargs)


@pytest.fixture
def bgemm_bufsizes(monkeypatch) -> BgemmBufsizeProbe:
    """A :class:`BgemmBufsizeProbe` installed as ``repro.core.bgemm.np``."""
    probe = BgemmBufsizeProbe()
    monkeypatch.setattr(importlib.import_module("repro.core.bgemm"), "np", probe)
    return probe

