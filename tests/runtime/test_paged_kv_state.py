"""Pool-resident KV state: append shapes, growth, and incremental K / V
lookup columns equal to the plans of a from-scratch quantize of the
padded history."""

import numpy as np
import pytest

from repro.kernels import build_weight_plan
from repro.lut.attention import QuantizedKvCache
from repro.runtime.paging import (
    INITIAL_POOL_BLOCKS,
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
)


def _rows(tokens, kv_heads, head_dim, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(tokens, kv_heads, head_dim)),
        rng.normal(size=(tokens, kv_heads, head_dim)),
    )


def _block_state(cache):
    """Every per-block array the pool holds for *cache*'s blocks."""
    pool = cache.pool
    ids = cache.block_ids
    state = {name: getattr(pool, name)[ids] for name in pool._resident}
    state["block_ids"] = np.array(ids)
    return state


def _assert_state_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestFloatState:
    @pytest.mark.parametrize("bits", [None, 4], ids=("float", "int4"))
    def test_bulk_append_equals_token_by_token(self, bits):
        """One multi-block append lands the same slabs and K-arena columns
        as the same rows appended one token at a time."""
        k, v = _rows(19, 2, 8, seed=1)
        one = PagedLayerCache(BlockAllocator(2, 8, block_size=8, bits=bits))
        bulk = PagedLayerCache(BlockAllocator(2, 8, block_size=8, bits=bits))
        for i in range(19):
            one.append(k[i], v[i])
        bulk.append(k, v)
        np.testing.assert_array_equal(bulk.k_view(), k.transpose(1, 0, 2))
        _assert_state_equal(_block_state(bulk), _block_state(one))
        assert bulk.pool.stats["k_plan_cols"] == one.pool.stats["k_plan_cols"]

    @pytest.mark.parametrize("bits", [None, 4], ids=("float", "int4"))
    def test_growth_preserves_history(self, bits):
        """An unbounded pool that doubles its storage mid-sequence keeps
        every earlier block's state exactly as a pre-sized pool holds it."""
        tokens = (INITIAL_POOL_BLOCKS * 2 + 3) * 4
        k, v = _rows(tokens, 1, 4, seed=2)
        grown = PagedLayerCache(BlockAllocator(1, 4, block_size=4, bits=bits))
        sized = PagedLayerCache(BlockAllocator(
            1, 4, block_size=4, bits=bits, num_blocks=4 * INITIAL_POOL_BLOCKS,
        ))
        start = grown.pool.capacity
        for i in range(tokens):
            grown.append(k[i], v[i])
            sized.append(k[i], v[i])
        assert grown.pool.capacity > start
        np.testing.assert_array_equal(grown.k_view(), k.transpose(1, 0, 2))
        np.testing.assert_array_equal(grown.v_view(), v.transpose(1, 0, 2))
        _assert_state_equal(_block_state(grown), _block_state(sized))


def _padded_quantize(cache, k, v):
    """``QuantizedKvCache.quantize`` of the history zero-padded to the
    cache's allocated context."""
    ctx = cache.padded_context()
    kv, tokens, hd = cache.kv_heads, k.shape[0], cache.head_dim
    k_pad = np.zeros((kv, ctx, hd))
    v_pad = np.zeros((kv, ctx, hd))
    k_pad[:, :tokens] = k.transpose(1, 0, 2)
    v_pad[:, :tokens] = v.transpose(1, 0, 2)
    return QuantizedKvCache.quantize(k_pad, v_pad, bits=cache.bits)


def _plan_columns(plan, tokens):
    """A plan's ``(indices, scale, zero)``, the first *tokens* output
    columns of each."""
    return tuple(
        np.asarray(arr)[..., :tokens]
        for arr in (plan.indices, plan.scale_gn, plan.zero_gn)
    )


class TestIncrementalQuantization:
    """The pool's per-block lookup columns equal the plans of a
    from-scratch quantize of the whole padded history."""

    @pytest.mark.parametrize("head_dim", [8, 16])  # 16: group-16 branch
    @pytest.mark.parametrize("tokens", [5, 12, 16, 37])
    def test_k_arena_matches_full_quantize_on_padded_floats(
        self, head_dim, tokens
    ):
        """Incrementally written K-arena columns, block after block, are
        the full-context K plan's columns: per-token scales never look at
        another row."""
        k, v = _rows(tokens, 3, head_dim, seed=head_dim + tokens)
        cache = PagedLayerCache(BlockAllocator(3, head_dim, 16, bits=4))
        cache.append(k[:3], v[:3])
        for i in range(3, tokens):
            cache.append(k[i], v[i])
        full = _padded_quantize(cache, k, v)
        pool, ids = cache.pool, cache.block_ids
        for h in range(3):
            want = _plan_columns(
                build_weight_plan(full.k_quant[h], pool.lut_k), tokens
            )
            # (blocks, ..., block_size) -> (..., blocks · block_size)
            got = (
                np.moveaxis(arr[ids, h], 0, -2).reshape(
                    arr.shape[2:-1] + (-1,)
                )[..., :tokens]
                for arr in (pool._ka_idx, pool._ka_scale, pool._ka_zero)
            )
            for name, g, w in zip(("idx", "scale", "zero"), got, want):
                np.testing.assert_array_equal(g, w, err_msg=f"{name} {h}")

    @pytest.mark.parametrize("tokens", [5, 12, 16, 37])
    def test_v_arena_matches_full_quantize_on_padded_floats(self, tokens):
        """With 16-token blocks the V groups along the context coincide
        with the blocks, so each refreshed V arena slab is its block's
        lookup groups of the full-context V plan."""
        k, v = _rows(tokens, 2, 16, seed=tokens)
        cache = PagedLayerCache(BlockAllocator(2, 16, 16, bits=4))
        cache.append(k, v)
        pool = cache.pool
        pool.refresh_v_arenas(cache.block_ids)
        full = _padded_quantize(cache, k, v)
        gv = 16 // pool.lut_k
        for h in range(2):
            want = _plan_columns(
                build_weight_plan(full.v_quant[h], pool.lut_k), 16
            )
            for i, bid in enumerate(cache.block_ids):
                groups = np.s_[..., i * gv:(i + 1) * gv, :]
                for name, arr, w in zip(
                    ("idx", "scale", "zero"),
                    (pool._va_idx, pool._va_scale, pool._va_zero), want,
                ):
                    np.testing.assert_array_equal(
                        arr[bid, h], w[groups],
                        err_msg=f"{name} head {h} block {i}",
                    )

    def test_repeated_refreshes_requantize_only_the_tail(self):
        """Full blocks refresh their V arenas once, ever; afterwards only
        the block an append touched is requantized."""
        k, v = _rows(49, 2, 16, seed=3)
        cache = PagedLayerCache(BlockAllocator(2, 16, 16, bits=4))
        pool = cache.pool
        cache.append(k[:40], v[:40])

        def refresh_cols():
            before = pool.stats["v_quant_cols"]
            pool.refresh_v_arenas(cache.block_ids)
            return pool.stats["v_quant_cols"] - before

        block = 2 * 16                       # kv_heads x block_size
        assert refresh_cols() == 3 * block   # first refresh: everything
        assert refresh_cols() == 0
        cache.append(k[40], v[40])
        assert refresh_cols() == block
        cache.append(k[41:49], v[41:49])     # fills block 3, opens block 4
        assert refresh_cols() == 2 * block

    def test_interleaved_refreshes_match_one_scratch_refresh(self):
        """Refreshing between appends leaves every arena exactly as one
        refresh of the final context in a fresh pool leaves it."""
        k, v = _rows(37, 2, 16, seed=17)
        step = PagedLayerCache(BlockAllocator(2, 16, 16, bits=4))
        for i in range(37):
            step.append(k[i], v[i])
            if i % 3 == 0:
                step.pool.refresh_v_arenas(step.block_ids)
        step.pool.refresh_v_arenas(step.block_ids)
        scratch = PagedLayerCache(BlockAllocator(2, 16, 16, bits=4))
        scratch.append(k, v)
        scratch.pool.refresh_v_arenas(scratch.block_ids)
        _assert_state_equal(_block_state(step), _block_state(scratch))


class TestGroupedQueryHeads:
    @pytest.mark.parametrize("backend", ["lut-naive", "lut-blocked"])
    def test_repeat_shares_each_kv_heads_state(self, backend):
        """Every query head of a group reads its KV head's one copy of
        the arena state: equal queries give the ungrouped output, bit
        for bit, in each of the group's heads."""
        k, v = _rows(21, 2, 8, seed=4)
        cache = PagedLayerCache(BlockAllocator(2, 8, 8, bits=4))
        cache.append(k, v)
        query = np.random.default_rng(5).normal(size=(1, 2, 8))
        solo = fused_paged_decode_attention(query, [cache], backend=backend)
        grouped = fused_paged_decode_attention(
            np.repeat(query, 3, axis=1), [cache], repeat=3, backend=backend
        )
        for r in range(3):
            np.testing.assert_array_equal(
                grouped.reshape(1, 2, 3, 8)[:, :, r], solo
            )
