"""Inputs are a function of the seed and nothing else."""

import numpy as np
import pytest

from bench import workloads


def test_same_seed_same_arrival_schedule():
    a = workloads.poisson_schedule(3, 30.0, 5.0)
    b = workloads.poisson_schedule(3, 30.0, 5.0)
    c = workloads.poisson_schedule(4, 30.0, 5.0)
    assert a == b
    assert a != c
    assert a == sorted(a) and 0.0 < a[0] and a[-1] < 5.0
    assert 100 < len(a) < 200  # 150 expected


def test_same_seed_same_input_pool():
    a = workloads.make_pool(3, 32)
    b = workloads.make_pool(3, 32)
    c = workloads.make_pool(4, 32)
    assert len(a) == workloads.POOL_SIZE
    assert all(x.shape == (1, 32, 32, 3) and x.dtype == np.float32 for x in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0], a[1])


def test_pool_can_be_drawn_one_image_at_a_time():
    first = next(workloads.iter_pool(3, 32))
    assert np.array_equal(first, workloads.make_pool(3, 32)[0])


def test_schedule_rejects_nonsense():
    with pytest.raises(ValueError):
        workloads.poisson_schedule(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        workloads.poisson_schedule(0, 1.0, 0.0)


def test_workloads_stress_different_layers():
    modes = {w.mode for w in workloads.WORKLOADS}
    assert modes == {"run", "run_many", "open", "saturate"}
    assert sum(w.served for w in workloads.WORKLOADS) == 2
    # what the driver runs still has an engine-only and a served workload
    assert {w.mode for w in workloads.GATED} == {"run", "run_many", "open"}
