"""Stacked V-arena refresh and one-quantize K append.

:meth:`BlockAllocator.refresh_v_arenas` rebuilds every stale block of a
request with one stacked quantize + plan; :meth:`PagedLayerCache.append`
quantizes a multi-block prompt's K rows once. Both lean on the same
argument — scales are per weight row and every plan array is per output
column, so stacking changes no value. The property below pins the V
side against the per-block, per-head :meth:`BlockAllocator.v_quantized`
plans over random pools; the call-count tests pin that the batching is
really one call (a per-block loop fails them).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.paging as paging
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    batched_decode_append,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
)

_V_ARENAS = ("_va_fill", "_va_flat", "_va_scale", "_va_zero", "_va_deq")


def _rows(rng, n, pool):
    return rng.normal(size=(2, n, pool.kv_heads, pool.head_dim))


def _cache(pool, rng, length):
    cache = PagedLayerCache(pool)
    cache.append(*_rows(rng, length, pool))
    return cache


def _assert_arena_matches_per_head_plans(pool, bid):
    """Block *bid*'s arena slabs equal its per-head ``v_quantized``
    plans (built from the float slab alone, one head at a time)."""
    _, plans = pool.v_quantized(bid)
    entries = 1 << (pool.lut_k - 1)
    assert pool._va_fill[bid] == pool._fill[bid]
    for h, plan in enumerate(plans):
        np.testing.assert_array_equal(
            pool._va_flat[bid, h], plan.flat_lookup_indices(entries, True)
        )
        np.testing.assert_array_equal(pool._va_scale[bid, h], plan.scale_gn)
        np.testing.assert_array_equal(pool._va_zero[bid, h], plan.zero_gn)
        np.testing.assert_array_equal(pool._va_deq[bid, h], plan.dequantized)


@st.composite
def _pools(draw):
    block_size = draw(st.sampled_from([4, 16, 32]))
    kv_heads = draw(st.sampled_from([1, 2, 4]))  # 4 query heads: GQA or not
    head_dim = draw(st.sampled_from([4, 8, 16]))
    bits = draw(st.sampled_from([2, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    lengths = draw(
        st.lists(st.integers(1, 3 * block_size), min_size=3, max_size=5)
    )
    return block_size, kv_heads, head_dim, bits, seed, lengths


class TestRefreshVArenas:
    @given(_pools(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacked_refresh_equals_per_block_per_head_plans(self, cfg, data):
        block_size, kv_heads, head_dim, bits, seed, lengths = cfg
        rng = np.random.default_rng(seed)
        pool = BlockAllocator(kv_heads, head_dim, block_size, bits=bits)
        caches = [_cache(pool, rng, n) for n in lengths]
        # Some arenas already built; then a grown block (stale again), a
        # truncated one (reset to never-built if the arena saw the dead
        # rows) and a freed-and-reused one (scrubbed to never-built).
        built = data.draw(st.lists(st.sampled_from(sorted(pool._in_use))))
        pool.refresh_v_arenas(built)
        if caches[0].length % block_size:
            caches[0].append(*_rows(rng, 1, pool))
        caches[1].truncate_rows(
            data.draw(st.integers(0, min(caches[1].length - 1, block_size)))
        )
        caches[2].release()
        caches[2] = _cache(pool, rng, data.draw(st.integers(1, block_size)))

        live = sorted(pool._in_use)
        request = data.draw(st.lists(st.sampled_from(live), max_size=12))
        stale = {
            b for b in request if pool._va_fill[b] != pool._fill[b]
        }
        before = {name: getattr(pool, name).copy() for name in _V_ARENAS}
        cols = pool.stats["v_quant_cols"]

        pool.refresh_v_arenas(request)

        assert pool.stats["v_quant_cols"] - cols == (
            len(stale) * block_size * kv_heads
        )
        untouched = np.setdiff1d(np.arange(pool.capacity), sorted(stale))
        for name in _V_ARENAS:
            np.testing.assert_array_equal(
                getattr(pool, name)[untouched], before[name][untouched],
                err_msg=name,
            )
        for bid in set(request):
            _assert_arena_matches_per_head_plans(pool, bid)

        # Everything requested is fresh now: asking again, or for
        # nothing, does no work and writes nothing.
        after = {name: getattr(pool, name).copy() for name in _V_ARENAS}
        cols = pool.stats["v_quant_cols"]
        pool.refresh_v_arenas(request)
        pool.refresh_v_arenas([])
        assert pool.stats["v_quant_cols"] == cols
        for name in _V_ARENAS:
            np.testing.assert_array_equal(
                getattr(pool, name), after[name], err_msg=name
            )


@pytest.fixture
def quantize_calls(monkeypatch):
    """Shapes of every weight ``repro.runtime.paging`` quantizes."""
    calls = []
    real = paging.quantize_weights

    def counting(weights, *args, **kwargs):
        calls.append(np.shape(weights))
        return real(weights, *args, **kwargs)

    monkeypatch.setattr(paging, "quantize_weights", counting)
    return calls


class TestOneQuantizePerCall:
    KV, HD, BLOCK = 2, 8, 16

    @pytest.mark.parametrize("repeat", [1, 2])
    def test_one_v_quantize_per_fused_decode_attention(
        self, quantize_calls, repeat
    ):
        rng = np.random.default_rng(3)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        lengths = [1, 5, 16, 17, 30, 33, 40, 48]  # B = 8, 1-3 blocks each
        caches = [_cache(pool, rng, n) for n in lengths]
        queries = rng.normal(size=(8, self.KV * repeat, self.HD))
        for step in range(3):
            quantize_calls.clear()
            fused_paged_decode_attention(queries, caches, repeat=repeat)
            # Step 0 finds every block of every prompt stale, later
            # steps one trailing block per sequence: one call either way.
            stale = sum(-(-n // self.BLOCK) for n in lengths) if step == 0 else 8
            assert quantize_calls == [
                (stale * self.KV * self.HD, self.BLOCK)
            ]
            batched_decode_append(caches, *_rows(rng, 8, pool))
        quantize_calls.clear()
        fused_paged_decode_attention(queries, caches, repeat=repeat)
        fused_paged_decode_attention(queries, caches, repeat=repeat)
        assert len(quantize_calls) == 1  # second call: nothing stale

    def test_one_k_quantize_per_multi_block_append(self, quantize_calls):
        rng = np.random.default_rng(4)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        rowwise = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        n = 3 * self.BLOCK + 5
        k, v = _rows(rng, 4 + n, pool)
        cache, oracle = PagedLayerCache(pool), PagedLayerCache(rowwise)
        cache.append(k[:4], v[:4])  # the prompt starts mid-block
        quantize_calls.clear()
        cache.append(k[4:], v[4:])
        assert quantize_calls == [(n * self.KV, self.HD)]
        assert len(cache.block_ids) == 4
        # Same pool state as one append (one quantize) per row.
        for i in range(4 + n):
            oracle.append(k[i], v[i])
        for name in BlockAllocator._FLOAT_ARRAYS + BlockAllocator._QUANT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(pool, name), getattr(rowwise, name), err_msg=name
            )
        assert pool.stats["k_plan_cols"] == rowwise.stats["k_plan_cols"]


def test_v_quant_timer_covers_quantize_on_both_paths(monkeypatch):
    """``v_quant_s`` times quantize + plan + index build whether the
    work comes from an arena refresh or verify's masked requantization."""
    real = paging.quantize_weights

    def slow(weights, *args, **kwargs):
        time.sleep(0.02)
        return real(weights, *args, **kwargs)

    rng = np.random.default_rng(5)
    pool = BlockAllocator(2, 8, 16, bits=4)
    cache = _cache(pool, rng, 20)
    monkeypatch.setattr(paging, "quantize_weights", slow)
    pool.refresh_v_arenas(cache.block_ids)
    assert pool.stats["v_quant_s"] >= 0.02
    # Verify over a partial trailing block: only the fresh-partial
    # branch quantizes (the one full block is already fresh).
    pool.stats["v_quant_s"] = 0.0
    cache.append(*_rows(rng, 2, pool))
    fused_paged_verify_attention(
        rng.normal(size=(1, 2, 2, 8)), [cache], [20]
    )
    assert pool.stats["v_quant_s"] >= 0.02
