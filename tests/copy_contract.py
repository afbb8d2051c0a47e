"""The copy contract of ``convert`` / ``quantize_model``, as test helpers.

Both run their passes on ``Graph.copy()``: the input graph's params stay
bit-identical, and every ndarray param of the result is either a new
array or a read-only view sharing memory with an input array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest


def _arrays(value):
    """The ndarrays a param holds: itself, or a record's array fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [
            v for f in dataclasses.fields(value)
            if isinstance(v := getattr(value, f.name), np.ndarray)
        ]
    return []


def snapshot(graph) -> dict[tuple[str, str, int], np.ndarray]:
    """A private copy of every array in every param of ``graph``."""
    return {
        (n.name, key, i): a.copy()
        for n in graph.nodes
        for key, value in n.params.items()
        for i, a in enumerate(_arrays(value))
    }


def assert_copy_contract(before, training, result) -> int:
    """Check the contract; return how many result arrays are shared.

    ``before`` is :func:`snapshot` of ``training`` taken before the call
    that produced the ``result`` graph.
    """
    after = snapshot(training)
    assert after.keys() == before.keys()
    for key, a in before.items():
        assert a.dtype == after[key].dtype and np.array_equal(
            a, after[key], equal_nan=True
        ), key
    originals = [
        a for n in training.nodes for v in n.params.values() for a in _arrays(v)
    ]
    shared = 0
    for n in result.nodes:
        for key, value in n.params.items():
            if not isinstance(value, np.ndarray):
                continue
            if any(np.shares_memory(value, a) for a in originals):
                assert not value.flags.writeable, (n.name, key)
                if value.size:
                    with pytest.raises(ValueError):
                        value.flat[0] = value.flat[0]
                shared += 1
    return shared
