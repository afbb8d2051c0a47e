"""The K-major plan-path BGEMM: bit-exact for every tiling and depth; a
shape-derived K depth with stated bounds; scratch reservations that equal
what the kernel takes."""

from __future__ import annotations

import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.converter import convert
from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    PackedFilters,
    kmajor_words,
    pack_filters,
    reserve_bconv2d_workspace,
    unpack_filters,
    whole_map_taps,
)
from repro.core.bgemm import (
    _acc_dtype,
    bgemm_blocked,
    bgemm_reference,
    bgemm_scratch_spec,
    bind_kmajor,
    derive_k_block,
    derive_panel,
)
from repro.core.bitpack import pack_bits
from repro.core.kernel_config import DEFAULT_CONFIG
from repro.core.types import Padding
from repro.core.workspace import Workspace
from repro.ops import ParamCache, get_spec
from repro.runtime import Engine
from repro.runtime.rebatch import rebatched_specs
from repro.zoo import build_model

#: the module (``repro.core.bgemm`` the attribute is the function it exports)
bgemm_mod = importlib.import_module("repro.core.bgemm")

DEPTH = 190  # 3 packed words, the last one partial
WORDS = 3


def _operands(rng, m, n, depth=DEPTH):
    a = pack_bits(rng.choice([-1.0, 1.0], (m, depth))).bits
    b = pack_bits(rng.choice([-1.0, 1.0], (n, depth))).bits
    return a, b


def _kmajor(a, b, depth, workspace=None, **kw):
    """``bgemm_blocked``'s K-major path (it packs both operands), in a
    fresh arena unless one is given."""
    out = np.full((a.shape[0], b.shape[0]), -7, np.int32)
    got = bgemm_blocked(
        a, b, depth, out=out,
        workspace=Workspace() if workspace is None else workspace, **kw,
    )
    assert got is out
    return out


@pytest.fixture(scope="module")
def grid_case():
    rng = np.random.default_rng(99)
    a, b = _operands(rng, 33, 17)
    return a, b, bgemm_reference(a, b, DEPTH)


class TestKMajorAgainstReference:
    @pytest.mark.parametrize("tile_m", [1, 3, 33, 34, 1000])
    @pytest.mark.parametrize("tile_n", [1, 5, 17, 18, 1000])
    def test_adversarial_grid_every_depth_and_schedule(
        self, grid_case, tile_m, tile_n
    ):
        a, b, expected = grid_case
        # tile_k_words == 1 is the derived depth; 2..words+1 are explicit.
        for tile_k_words in range(1, WORDS + 2):
            got = _kmajor(
                a, b, DEPTH, tile_m=tile_m, tile_n=tile_n,
                tile_k_words=tile_k_words,
            )
            assert np.array_equal(got, expected), tile_k_words

    @pytest.mark.parametrize("tile_m,tile_n", [(1, 1), (3, 5), (34, 18)])
    def test_derived_depth_of_one(self, grid_case, monkeypatch, tile_m, tile_n):
        # A one-word budget makes every panel derive depth 1, the one depth
        # ``tile_k_words`` cannot name explicitly.
        monkeypatch.setattr(bgemm_mod, "_XOR_BLOCK_WORDS", 1)
        a, b, expected = grid_case
        got = _kmajor(a, b, DEPTH, tile_m=tile_m, tile_n=tile_n)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k_block", range(1, WORDS + 2))
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 17), (33, 1), (7, 5)])
    def test_tile_kernel_at_every_plain_depth(self, rng, m, n, k_block):
        a, b = _operands(rng, m, n)
        at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        out = np.empty((m, n), np.int32)
        bind_kmajor(at, bt, DEPTH, out, Workspace(), m, n, k_block, "t")()
        assert np.array_equal(out, bgemm_reference(a, b, DEPTH))

    def test_tile_kernel_is_layout_agnostic(self, rng):
        # K-major storage is the fast layout, not a correctness condition.
        a, b = _operands(rng, 6, 4)
        out = np.empty((6, 4), np.int32)
        bind_kmajor(a.T, b.T, DEPTH, out, Workspace(), 6, 4, 2, "t")()
        assert np.array_equal(out, bgemm_reference(a, b, DEPTH))

    def test_grouped_conv_call_shape(self, rng):
        # Column-sliced K-major filters into a column-sliced accumulator,
        # one group at a time through one arena.
        a, b = _operands(rng, 40, 24)
        at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        acc = np.empty((40, 24), np.int32)
        ws = Workspace()
        k_block = derive_k_block(16, 5, WORDS)
        for g in range(3):
            cols = slice(g * 8, (g + 1) * 8)
            bind_kmajor(
                at, bt[:, cols], DEPTH, acc[:, cols], ws, 16, 5, k_block, "t"
            )()
        assert np.array_equal(acc, bgemm_reference(a, b, DEPTH))

    @pytest.mark.parametrize("tile_k_words", [1, 2, 100])
    def test_row_major_wrappers_pack_and_agree(self, rng, tile_k_words):
        a, b = _operands(rng, 70, 9, 300)
        expected = bgemm_reference(a, b, 300)
        ws = Workspace()
        kw = dict(tile_m=32, tile_n=4, workspace=ws, tile_k_words=tile_k_words)
        assert np.array_equal(bgemm_blocked(a, b, 300, **kw), expected)
        assert ws.buffer("bgemm/at") is not None
        assert not any("xor3" in name or "pop3" in name for name in ws.names())

    def test_operand_and_out_checks_kept(self, rng):
        a, b = _operands(rng, 4, 3)
        out = np.empty((4, 3), np.int32)
        kw = dict(workspace=Workspace())
        with pytest.raises(TypeError):
            bgemm_blocked(a.astype(np.int64), b, DEPTH, out=out, **kw)
        with pytest.raises(ValueError, match="word-count"):
            bgemm_blocked(a[:, :2], b, DEPTH, out=out, **kw)
        with pytest.raises(ValueError, match="depth"):
            bgemm_blocked(a, b, WORDS * 64 + 1, out=out, **kw)
        with pytest.raises(ValueError, match="out must be"):
            bgemm_blocked(a, b, DEPTH, out=out.astype(np.int64), **kw)
        with pytest.raises(ValueError, match="out must be"):
            bgemm_blocked(a, b, DEPTH, out=out[:3], **kw)
        with pytest.raises(ValueError):
            bgemm_blocked(a, b, DEPTH, out=out, tile_k_words=0, **kw)


class TestDeriveKBlock:
    @given(
        mt=st.integers(1, 1024),
        nt=st.integers(1, 512),
        words=st.integers(1, 300),
    )
    def test_bounds_and_balance(self, mt, nt, words):
        budget = bgemm_mod._XOR_BLOCK_WORDS
        kb = derive_k_block(mt, nt, words)
        assert 1 <= kb <= words
        assert kb * mt * nt <= max(budget, mt * nt)
        steps = -(-words // kb)
        sizes = [min(kb, words - i * kb) for i in range(steps)]
        assert sum(sizes) == words and min(sizes) >= 1
        assert max(sizes) - min(sizes) < kb
        # Balanced, not greedy: no schedule with as few steps has a
        # shallower first step.
        assert kb == -(-words // steps)

    def test_the_shapes_the_docstring_names(self):
        assert derive_k_block(1, 128, 72) == 72
        assert derive_k_block(256, 128, 72) == 2
        assert derive_k_block(1024, 512, 9) == 1


class TestDerivePanel:
    def test_few_rows_take_one_full_width_panel(self):
        # the two 32x32 QuickNet layers the rule was measured on
        assert derive_panel(4, 256, 36) == (4, 256, derive_k_block(4, 256, 36))
        assert derive_panel(1, 512, 72) == (1, 512, 72)
        assert derive_panel(8, 1000, 9)[:2] == (8, 1000)

    #: (batch, spatial side, channels) of every QuickNet-small 3x3 binarized
    #: conv at 224 px, at 64 px batch 8 and at 32 px -> its panel
    QUICKNET_SMALL_PANELS = [
        ((1, 56, 32), (256, 32, 5)),
        ((1, 28, 64), (256, 64, 3)),
        ((1, 14, 256), (64, 256, 4)),
        ((1, 7, 512), (49, 512, 2)),
        ((8, 16, 32), (256, 32, 5)),
        ((8, 8, 64), (256, 64, 3)),
        ((8, 4, 256), (64, 256, 4)),
        ((8, 2, 512), (32, 512, 4)),
        ((1, 8, 32), (64, 32, 5)),
        ((1, 4, 64), (16, 64, 9)),
        ((1, 2, 256), (4, 256, 36)),
        ((1, 1, 512), (1, 512, 72)),
    ]

    def test_the_longer_side_leads_the_quicknet_small_panels(self):
        for (batch, side, channels), panel in self.QUICKNET_SMALL_PANELS:
            m, k_words = batch * side * side, kmajor_words(9, channels)
            assert derive_panel(m, channels, k_words) == panel, (batch, side)
            # the schedule every plan runs names the same caps
            assert derive_panel(
                m, channels, k_words, DEFAULT_CONFIG.tile_m, DEFAULT_CONFIG.tile_n
            ) == panel

    @given(
        m=st.integers(1, 600), n=st.integers(1, 600), words=st.integers(1, 100),
        tile_m=st.integers(1, 600), tile_n=st.integers(1, 600),
        tile_k_words=st.integers(1, 5),
    )
    def test_the_longer_side_leads_within_the_caps(
        self, m, n, words, tile_m, tile_n, tile_k_words
    ):
        mt, nt, kb = derive_panel(m, n, words, tile_m, tile_n, tile_k_words)
        if m <= 8:
            assert (mt, nt) == (min(tile_m, m), n)
        elif m > n:  # patch rows lead
            assert (mt, nt) == (min(tile_m, m), min(tile_n, n, 64))
        else:  # filter columns lead
            assert (mt, nt) == (min(tile_m, m, 64), min(tile_n, n))
        if tile_k_words == 1:
            assert kb == derive_k_block(mt, nt, words)
        else:
            assert kb == min(tile_k_words, words)

    def test_an_explicit_tile_n_still_means_what_it_says(self, rng):
        # bench/probes.py passes tile_n to bgemm_blocked by keyword: the
        # panel rule is the bound convolution's, not the BGEMM entry points'.
        a, b = _operands(rng, 4, 300)
        ws = Workspace()
        out = bgemm_blocked(a, b, DEPTH, tile_m=256, tile_n=128, workspace=ws)
        assert np.array_equal(out, bgemm_reference(a, b, DEPTH))
        pops = f"bgemm/pops_{_acc_dtype(WORDS).name}"
        assert ws.buffer(pops).size == 4 * 128
        assert ws.buffer("bgemm/ck").size == WORDS * 4 * 128
        # ... while the reservation follows the derived (wider) panel
        sizes = {name: size for name, size, _ in bgemm_scratch_spec(4, 300, WORDS)}
        assert sizes[pops] == 4 * 300
        assert sizes["bgemm/ck"] == WORDS * 4 * 300


class TestScratchReservationIsExact:
    # 3 words sum K in uint16, 1024 words (65536 > 65535) in int32
    @pytest.mark.parametrize("depth,acc", [
        (DEPTH, np.uint16), (1024 * 64 - 5, np.int32),
    ])
    @pytest.mark.parametrize("tile_k_words", [1, 2])
    @pytest.mark.parametrize("m,n,tile_m,tile_n", [
        (1, 17, 256, 128), (33, 17, 8, 5), (300, 40, 64, 16),
    ])
    def test_reserved_arena_never_grows_and_is_all_used(
        self, rng, m, n, tile_m, tile_n, tile_k_words, depth, acc
    ):
        words = -(-depth // 64)
        a, b = _operands(rng, m, n, depth)
        ws = Workspace()
        spec = bgemm_scratch_spec(
            m, n, words, tile_m, tile_n, tile_k_words=tile_k_words
        )
        mt, nt, kb = derive_panel(m, n, words, tile_m, tile_n, tile_k_words)
        # one accumulator, and a count slab one word row per K word
        assert spec == [
            ("bgemm/at", words * m, np.dtype(np.uint64)),
            ("bgemm/xk", kb * mt * nt, np.dtype(np.uint64)),
            ("bgemm/ck", words * mt * nt, np.dtype(np.uint8)),
            (f"bgemm/pops_{np.dtype(acc).name}", mt * nt, np.dtype(acc)),
        ]
        for name, size, dtype in spec:
            ws.reserve(name, size, dtype)
        grows = ws.grows
        at = ws.take("bgemm/at", (words, m), np.uint64)
        np.copyto(at, a.T)
        out = np.empty((m, n), np.int32)
        bind_kmajor(at, np.ascontiguousarray(b.T), depth, out, ws, mt, nt, kb)()
        assert ws.grows == grows
        assert {name: ws.buffer(name).size for name in ws.names()} == {
            name: size for name, size, _ in spec
        }
        assert np.array_equal(out, bgemm_reference(a, b, depth))

    # odd half counts (1, 32, 96, 160: a zero tail half at 9 taps) and even
    # ones (33, 100: whole words per tap)
    @pytest.mark.parametrize("cin", [1, 32, 33, 96, 100, 160])
    def test_dense_slab_never_grows_after_the_first_execute(self, rng, cin):
        p = BConv2DParams(3, 3, cin, 70, stride=2, padding=Padding.SAME_ONE)
        filters = pack_filters(rng.choice([-1.0, 1.0], (3, 3, cin, 70)))
        for batch in (1, 3):
            x = rng.standard_normal((batch, 9, 9, cin)).astype(np.float32)
            ws = Workspace()
            reserve_bconv2d_workspace(ws, p, 9, 9, batch, quantize=True)
            grows = ws.grows
            run = BoundBConv2D(filters, p, 9, 9, batch, quantize=True).bind(ws)
            for _ in range(2):
                run(x)
            assert ws.grows == grows
            # exactly the dense slab: batch x 5 x 5 patch rows of K words
            assert ws.buffer("bgemm/at").size == batch * 25 * kmajor_words(9, cin)


class TestNarrowAccumulators:
    """K sums in uint16 up to 1023 words (65472 <= 65535), int32 beyond."""

    @pytest.mark.parametrize("words,acc", [(1023, np.uint16), (1024, np.int32)])
    @pytest.mark.parametrize("tile_k_words", [1, 300])
    def test_every_bit_differs_at_the_boundary(self, words, acc, tile_k_words):
        # every popcount is 64: the K sum is words * 64, the largest there is
        a = np.zeros((5, words), np.uint64)
        b = np.full((3, words), np.iinfo(np.uint64).max, np.uint64)
        depth = words * 64
        ws = Workspace()
        got = np.empty((5, 3), np.int32)
        mt, nt, kb = derive_panel(5, 3, words, tile_k_words=tile_k_words)
        bind_kmajor(
            np.ascontiguousarray(a.T), np.ascontiguousarray(b.T), depth, got,
            ws, mt, nt, kb,
        )()
        assert np.array_equal(got, bgemm_reference(a, b, depth))
        assert (got == -depth).all()
        assert [n for n in ws.names() if n != "bgemm/xk"] == [
            "bgemm/ck", f"bgemm/pops_{np.dtype(acc).name}"
        ]
        assert ws.buffer("bgemm/ck").size == words * 5 * 3


class TestSharedCountSlab:
    """Every GEMM of an arena popcounts into the one ``bgemm/ck``; a tile
    reduces only its own ``words`` rows of it, each step writes its own."""

    def test_back_to_back_gemms_read_only_their_own_rows(self, rng):
        ws = Workspace()
        # 72 words, one step: fills the slab with live counts
        a, b = _operands(rng, 20, 24, 72 * 64 - 9)
        assert np.array_equal(
            _kmajor(a, b, 72 * 64 - 9, ws), bgemm_reference(a, b, 72 * 64 - 9)
        )
        assert ws.buffer("bgemm/ck").size == 72 * 20 * 24
        # 5 words: a shallower, differently shaped view of the same slab
        a, b = _operands(rng, 9, 7, 5 * 64 - 3)
        assert np.array_equal(
            _kmajor(a, b, 5 * 64 - 3, ws), bgemm_reference(a, b, 5 * 64 - 3)
        )
        # 37 words at k_block 4: nine full steps and a one-word last one,
        # over three panels (the last an edge) that reuse the slab in turn
        a, b = _operands(rng, 40, 24, 37 * 64 - 1)
        got = _kmajor(
            a, b, 37 * 64 - 1, ws, tile_m=16, tile_n=24, tile_k_words=4
        )
        assert np.array_equal(got, bgemm_reference(a, b, 37 * 64 - 1))
        assert ws.buffer("bgemm/ck").size == 72 * 20 * 24


class TestUfuncBufferScope:
    """Every XOR step runs under the 256-element ufunc buffer, every K-sum
    reduce under NumPy's default one, and neither leaks to the caller."""

    @pytest.mark.parametrize("caller_bufsize", [None, 4096])
    def test_engine_run_restores_the_callers_buffer(
        self, quicknet_small, rng, bgemm_bufsizes, caller_bufsize
    ):
        size, model = quicknet_small
        x = rng.standard_normal((1, size, size, 3)).astype(np.float32)
        with Engine(model) as engine, np.errstate():
            if caller_bufsize is not None:
                np.setbufsize(caller_bufsize)
            before = np.getbufsize()
            engine.run(x)
            assert np.getbufsize() == before
        assert set(bgemm_bufsizes.at_xor) == {bgemm_mod._UFUNC_BUFSIZE}
        assert set(bgemm_bufsizes.at_reduce) == {bgemm_mod._REDUCE_BUFSIZE}

    def test_every_tile_switches_phase_and_back(self, rng, bgemm_bufsizes):
        # 3 x 3 panels of two K steps each: the XORs after a tile's reduce
        # are back under the narrow buffer
        a, b = _operands(rng, 7, 5)
        got = _kmajor(a, b, DEPTH, tile_m=3, tile_n=2, tile_k_words=2)
        assert bgemm_bufsizes.at_xor == [bgemm_mod._UFUNC_BUFSIZE] * 18
        assert bgemm_bufsizes.at_reduce == [bgemm_mod._REDUCE_BUFSIZE] * 9
        assert np.array_equal(got, bgemm_reference(a, b, DEPTH))

    def test_a_gemm_that_raises_restores_the_buffer(self, rng, monkeypatch):
        seen = []

        def failing(tile, depth):
            seen.append(np.getbufsize())
            raise RuntimeError("tile step failed")

        monkeypatch.setattr(bgemm_mod, "_run_tile", failing)
        a, b = _operands(rng, 7, 5)
        before = np.getbufsize()
        with pytest.raises(RuntimeError, match="tile step failed"):
            _kmajor(a, b, DEPTH)
        assert np.getbufsize() == before
        assert seen == [bgemm_mod._UFUNC_BUFSIZE]

    @pytest.mark.parametrize("caller_bufsize", [None, 4096])
    def test_a_reduce_that_raises_restores_the_callers_buffer(
        self, rng, bgemm_bufsizes, caller_bufsize
    ):
        bgemm_bufsizes.reduce_raises = True
        a, b = _operands(rng, 7, 5)
        with np.errstate():
            if caller_bufsize is not None:
                np.setbufsize(caller_bufsize)
            before = np.getbufsize()
            with pytest.raises(RuntimeError, match="K-sum reduce failed"):
                _kmajor(a, b, DEPTH, tile_k_words=2)
            assert np.getbufsize() == before
        assert bgemm_bufsizes.at_xor == [bgemm_mod._UFUNC_BUFSIZE] * 2
        assert bgemm_bufsizes.at_reduce == [bgemm_mod._REDUCE_BUFSIZE]


@pytest.fixture(scope="module", params=[32, 64])
def quicknet_small(request):
    size = request.param
    return size, convert(build_model("quicknet_small", input_size=size))


def _largest_slabs(graph, factor: int) -> tuple[int, int]:
    """The largest K-major slab (patch rows x dense K, uint64 words) and
    the largest tile count slab (K words x panel, bytes) a batch factor's
    binarized convolutions take: ``(pixels, kh * kw)`` patches against
    ``cout`` columns, or on a whole map ``(1, in_h * in_w)`` patches per
    image against ``pixels * cout``."""
    specs = rebatched_specs(graph, factor)
    spec = get_spec("lce_bconv2d")
    slab = counts = 0
    for node in graph.nodes:
        if node.op != "lce_bconv2d":
            continue
        a = spec.parse_attrs(node.attrs)
        n, in_h, in_w, cin = specs[node.inputs[0]].shape
        n, h, w, cout = specs[node.outputs[0]].shape
        params = BConv2DParams(a.kernel_h, a.kernel_w, cin, cout,
                               a.stride, a.dilation, a.padding)
        rows, cols, taps = n * h * w, cout, a.kernel_h * a.kernel_w
        if whole_map_taps(params, in_h, in_w) is not None:
            rows, cols, taps = n, h * w * cout, in_h * in_w
        words = kmajor_words(taps, cin)
        mt, nt, _ = derive_panel(rows, cols, words)
        slab, counts = max(slab, rows * words), max(counts, words * mt * nt)
    return slab, counts


def test_plan_arena_constant_from_first_execute(quicknet_small, rng):
    """Reservation == use: compiling a batch factor's plan preallocates the
    engine's arena for it — the dense K-major slab and the count slab
    included — and no execution, the first included, grows it."""
    size, model = quicknet_small
    slab = counts = 0
    with Engine(model, max_batch_size=8) as engine:
        for factor in range(1, 9):
            x = rng.standard_normal((factor, size, size, 3)).astype(np.float32)
            ws = engine.plan(factor).workspace  # compiling reserves
            grows = ws.grows
            for _ in range(2):
                engine.run(x)
            assert engine.plan(1).workspace is ws
            assert ws.grows == grows, f"batch factor {factor} grew its arena"
            slabs = _largest_slabs(model.graph, factor)
            slab, counts = max(slab, slabs[0]), max(counts, slabs[1])
            assert ws.buffer("bgemm/at").size == slab
            assert ws.buffer("bgemm/ck").size == counts


def _dense_filter_rows(filters, taps=None) -> np.ndarray:
    """The dense K layout built independently of ``PackedFilters.kmajor_of``:
    every tap's channels (of ``taps``, all by default) padded with +1 to a
    multiple of 32, the taps concatenated, and the row packed whole
    (``pack_bits`` zero-pads the tail)."""
    w = unpack_filters(filters)
    kh, kw, cin, cout = w.shape
    taps = list(range(kh * kw) if taps is None else taps)
    per_tap = np.ones((cout, len(taps), -(-cin // 32) * 32), np.float32)
    per_tap[:, :, :cin] = w.reshape(kh * kw, cin, cout)[taps].transpose(2, 0, 1)
    return pack_bits(per_tap.reshape(cout, -1)).bits


def test_kmajor_filters_packed_once_per_model(quicknet_small, monkeypatch):
    """Every batch factor's plan, in two engines sharing a ParamCache,
    multiplies against one K-major operand per filter, built once at
    plan-compile time: every tap's, or on a whole map the per-pixel
    regather (and then not every tap's too)."""
    size, model = quicknet_small
    builds = Counter()
    kmajor_of = PackedFilters.kmajor_of

    def counted(filters, *gather):
        builds[id(filters), gather] += gather not in filters.operands
        return kmajor_of(filters, *gather)

    monkeypatch.setattr(PackedFilters, "kmajor_of", counted)
    cache = ParamCache()
    with Engine(model, param_cache=cache) as a, Engine(model, param_cache=cache) as b:
        for factor in range(1, 9):
            a.plan(factor), b.plan(factor)
    whole_maps = 0
    for node in model.graph.nodes:
        if node.op != "lce_bconv2d":
            continue
        filters = cache._store[node.name, "packed_filters"]
        params = cache._store[node.name, "bconv_params"]
        in_h, in_w = model.graph.tensors[node.inputs[0]].shape[1:3]
        gather = whole_map_taps(params, in_h, in_w)
        whole_maps += gather is not None
        (key, operand), = filters.operands.items()
        assert builds[id(filters), key] == 1
        assert operand.flags.c_contiguous
        if gather is None:
            assert key == (tuple(range(filters.kernel_h * filters.kernel_w)),)
            assert np.array_equal(operand, _dense_filter_rows(filters).T)
        else:
            assert key == gather
            blocks = [_dense_filter_rows(filters, taps) for taps in gather]
            assert np.array_equal(operand, np.concatenate(blocks).T)
    assert whole_maps == {32: 8, 64: 4}[size]
