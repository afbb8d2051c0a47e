"""Tests for repro.core.workspace: the preallocated scratch arena."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.workspace import Workspace


class TestWorkspace:
    def test_take_returns_requested_view(self):
        ws = Workspace()
        a = ws.take("a", (3, 4), np.int32)
        assert a.shape == (3, 4) and a.dtype == np.int32
        assert a.flags.c_contiguous

    def test_grow_only(self):
        ws = Workspace()
        big = ws.take("buf", (100,), np.uint64)
        assert ws.grows == 1
        small = ws.take("buf", (10, 5), np.uint64)
        assert ws.grows == 1, "smaller request must not reallocate"
        assert small.base is big.base or small.base is ws.buffer("buf")
        ws.take("buf", (200,), np.uint64)
        assert ws.grows == 2

    def test_same_size_returns_same_storage(self):
        ws = Workspace()
        first = ws.take("x", (8, 8), np.uint8)
        second = ws.take("x", (8, 8), np.uint8)
        assert first.base is second.base

    def test_dtype_conflict_is_an_error_not_a_reallocation(self):
        # Two users alternating dtypes on one name used to drop and
        # reallocate the buffer on every take (six takes -> grows += 6) on
        # the path whose contract is "never grows".
        ws = Workspace()
        for _ in range(3):
            ws.take("x", (16,), np.uint64)
            with pytest.raises(ValueError, match="'x' holds uint64"):
                ws.take("x", (16,), np.uint8)
        with pytest.raises(ValueError, match="'x' holds uint64"):
            ws.reserve("x", 1000, np.int32)
        assert ws.grows == 1
        assert ws.buffer("x").dtype == np.uint64

    def test_names_and_nbytes(self):
        ws = Workspace()
        ws.take("b", (4,), np.uint64)
        ws.take("a", (2,), np.uint8)
        assert ws.names() == ("a", "b")
        assert ws.nbytes == 4 * 8 + 2

    def test_reserve_preallocates(self):
        ws = Workspace()
        ws.reserve("buf", 64, np.uint64)
        grows = ws.grows
        ws.take("buf", (8, 8), np.uint64)
        assert ws.grows == grows


class TestBound:
    def test_views_are_built_once_and_rebuilt_when_the_arena_grows(self):
        ws = Workspace()
        builds = []

        def build(w):
            builds.append(w.grows)
            return w.take("buf", (8,), np.uint64)

        first = ws.bound("k", build)
        assert ws.bound("k", build) is first and len(builds) == 2
        ws.take("other", (4,), np.uint8)  # grows behind the bound views
        again = ws.bound("k", build)
        assert again is not first and again.base is ws.buffer("buf")
        assert ws.bound("k", build) is again

    def test_build_is_repeated_until_it_takes_nothing_new(self):
        # The first build grows "buf" twice; what is returned must come
        # from a pass in which no buffer moved.
        ws = Workspace()

        def build(w):
            small = w.take("buf", (4,), np.uint64)
            big = w.take("buf", (64,), np.uint64)
            return small, big

        small, big = ws.bound("k", build)
        assert small.base is ws.buffer("buf") and big.base is ws.buffer("buf")

    def test_growth_lets_go_of_the_replaced_buffer(self):
        # One arena serves every plan of an engine: a kernel bound while
        # "buf" was small may never run again, and its memoized views must
        # not pin the old storage once a larger plan replaced it.
        ws = Workspace()
        ws.bound("small plan", lambda w: w.take("buf", (8,), np.uint64))
        old = weakref.ref(ws.buffer("buf"))
        ws.reserve("buf", 64, np.uint64)
        gc.collect()
        assert old() is None


class TestLock:
    def test_reserve_waits_for_the_holder(self):
        # Compile-while-running: a reservation may replace a buffer, so it
        # must not happen under a call that holds the arena.
        ws = Workspace()
        ws.reserve("buf", 8, np.uint64)
        before = ws.buffer("buf")
        done = threading.Event()

        def grow():
            ws.reserve("buf", 64, np.uint64)
            done.set()

        with ws.lock:
            thread = threading.Thread(target=grow)
            thread.start()
            assert not done.wait(0.05)
            assert ws.buffer("buf") is before
            assert ws.nbytes == 64  # readable without the lock
        thread.join()
        assert done.is_set() and ws.buffer("buf").size == 64
