"""Tests for repro.core.indirection: compile-time im2col plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitpack import pack_bits, unpack_bits
from repro.core.im2col import im2col_float
from repro.core.indirection import get_indirection, im2col_indirect
from repro.core.types import Padding
from repro.core.workspace import Workspace

GEOMETRIES = [
    # (h, w, kh, kw, stride, dilation, padding)
    (8, 8, 3, 3, 1, 1, Padding.SAME_ONE),
    (8, 8, 3, 3, 1, 1, Padding.SAME_ZERO),
    (9, 7, 3, 3, 2, 1, Padding.SAME_ONE),
    (8, 8, 3, 3, 1, 2, Padding.SAME_ONE),
    (8, 8, 5, 5, 1, 1, Padding.VALID),
    (7, 7, 1, 1, 1, 1, Padding.SAME_ONE),
]


class TestGetIndirection:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_dynamic_im2col(self, rng, geometry):
        """The indirect gather is bit-identical to packing the one-padded
        float im2col, tap by tap."""
        h, w, kh, kw, stride, dilation, padding = geometry
        x = pack_bits(rng.standard_normal((2, h, w, 70)).astype(np.float32))
        patches, geom = im2col_float(
            unpack_bits(x), kh, kw, stride, dilation, padding, pad_value=1.0
        )
        taps = pack_bits(patches.reshape(len(patches), kh * kw, 70)).bits
        expected = taps.reshape(len(patches), -1)
        ind = get_indirection(h, w, kh, kw, stride, dilation, padding)
        assert ind.geom == geom
        got = im2col_indirect(x, ind)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_arrays_read_only(self):
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ZERO)
        assert not ind.flat_index.flags.writeable
        assert ind.pad_mask is not None and not ind.pad_mask.flags.writeable

    def test_pad_mask_only_for_same_zero(self):
        assert get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE).pad_mask is None
        assert get_indirection(6, 6, 3, 3, 1, 1, Padding.VALID).pad_mask is None


class TestWorkspacePath:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_workspace_bit_identical(self, rng, geometry):
        h, w, kh, kw, stride, dilation, padding = geometry
        x = pack_bits(rng.standard_normal((2, h, w, 70)).astype(np.float32))
        ind = get_indirection(h, w, kh, kw, stride, dilation, padding)
        ws = Workspace()
        assert np.array_equal(im2col_indirect(x, ind, ws), im2col_indirect(x, ind))

    def test_buffers_reused_across_calls(self, rng):
        ind = get_indirection(8, 8, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((2, 8, 8, 70)).astype(np.float32))
        ws = Workspace()
        im2col_indirect(x, ind, ws)
        patches_buf = ws.buffer("bconv/patches")
        padded_buf = ws.buffer("bconv/padded")
        grows = ws.grows
        for _ in range(3):
            im2col_indirect(x, ind, ws)
        assert ws.grows == grows
        assert ws.buffer("bconv/patches") is patches_buf
        assert ws.buffer("bconv/padded") is padded_buf

    def test_stale_border_rezeroed(self, rng):
        """A reused padded buffer may hold another node's words in its
        border; the indirect path must re-zero it (one-padding semantics)."""
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((1, 6, 6, 64)).astype(np.float32))
        ws = Workspace()
        expected = im2col_indirect(x, ind)
        # Poison the buffer the padded staging area will reuse.
        ws.take("bconv/padded", (1, 8, 8, 1), np.uint64)[...] = np.uint64(~np.uint64(0))
        got = im2col_indirect(x, ind, ws)
        assert np.array_equal(got, expected)

    def test_shape_mismatch_rejected(self, rng):
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((1, 7, 7, 64)).astype(np.float32))
        with pytest.raises(ValueError, match="indirection was built for"):
            im2col_indirect(x, ind)
