"""Batched K/V append parity: one pool-level write == the per-sequence loop.

:func:`~repro.runtime.paging.batched_decode_append` claims that a
decode batch's appends — boundary allocations, copy-on-write clones,
the stacked quantize + plan build, and prefix-index maintenance — land
the pool and every cache in state *bit-identical* to the sequential
``cache.append`` loop. These tests pin the claim by replaying the same
scripted histories through both paths and diffing the complete pool
state: float slabs, quantized codes/scales, the K-arena lookup
columns, fill counters, free list, refcounts, prefix index, and stats.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    batched_decode_append,
    fused_paged_decode_attention,
)

KV_HEADS, HEAD_DIM, BLOCK = 2, 8, 8

#: Pool arrays that must match bit for bit after any append path.
_POOL_ARRAYS = (
    "_k", "_v", "_fill", "_refcount",
    "_ka_idx", "_ka_scale", "_ka_zero",
)


def _pool_pair(bits=4, **kwargs):
    return (
        BlockAllocator(KV_HEADS, HEAD_DIM, block_size=BLOCK, bits=bits,
                       **kwargs),
        BlockAllocator(KV_HEADS, HEAD_DIM, block_size=BLOCK, bits=bits,
                       **kwargs),
    )


def _assert_pools_identical(got: BlockAllocator, want: BlockAllocator):
    for name in _POOL_ARRAYS:
        a, b = getattr(got, name, None), getattr(want, name, None)
        if b is None:
            continue
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got._free == want._free
    assert got._block_key == want._block_key
    assert got._prefix_index == want._prefix_index
    assert got.stats["k_plan_cols"] == want.stats["k_plan_cols"]
    assert got.stats["allocated"] == want.stats["allocated"]
    assert got.stats["cow"] == want.stats["cow"]


def _assert_caches_identical(got, want):
    for a, b in zip(got, want):
        assert a.length == b.length
        assert a.block_ids == b.block_ids
        assert a._tokens == b._tokens
        assert a._chain == b._chain


def _grow(pool, lengths, seed=0, layer=None, track=False):
    """Deterministically grow one cache per length (shared rng draw
    order across both pools)."""
    rng = np.random.default_rng(seed)
    caches = []
    for length in lengths:
        cache = PagedLayerCache(pool, layer=layer)
        if length:
            kwargs = {}
            if track:
                kwargs["token_ids"] = [int(t) % 64 for t in range(length)]
            cache.append(
                rng.normal(size=(length, KV_HEADS, HEAD_DIM)),
                rng.normal(size=(length, KV_HEADS, HEAD_DIM)),
                **kwargs,
            )
        caches.append(cache)
    return caches


def _step_rows(nseq, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(nseq, KV_HEADS, HEAD_DIM)),
        rng.normal(size=(nseq, KV_HEADS, HEAD_DIM)),
    )


def _sequential(caches, k_rows, v_rows, token_ids=None):
    for s, cache in enumerate(caches):
        kwargs = {}
        if token_ids is not None:
            kwargs["token_ids"] = [int(token_ids[s])]
        cache.append(k_rows[s], v_rows[s], **kwargs)


class TestBatchedAppendParity:
    @pytest.mark.parametrize("bits", [None, 2, 4])
    def test_mid_block_rows_bit_identical(self, bits):
        """No allocations: rows land inside existing trailing blocks."""
        pool_b, pool_s = _pool_pair(bits=bits)
        lengths = [1, 3, BLOCK - 1, BLOCK + 2]
        caches_b = _grow(pool_b, lengths, seed=1)
        caches_s = _grow(pool_s, lengths, seed=1)
        for step in range(3):
            k, v = _step_rows(len(lengths), seed=100 + step)
            batched_decode_append(caches_b, k, v)
            _sequential(caches_s, k, v)
            _assert_pools_identical(pool_b, pool_s)
            _assert_caches_identical(caches_b, caches_s)

    @pytest.mark.parametrize("bits", [None, 4])
    def test_boundary_allocations_bit_identical(self, bits):
        """Sequences sitting exactly at padded capacity allocate one
        block each — drawn from the free list in batch order, exactly
        like the sequential loop."""
        pool_b, pool_s = _pool_pair(bits=bits)
        lengths = [BLOCK, 2, 2 * BLOCK, BLOCK]
        caches_b = _grow(pool_b, lengths, seed=2)
        caches_s = _grow(pool_s, lengths, seed=2)
        k, v = _step_rows(len(lengths), seed=7)
        batched_decode_append(caches_b, k, v)
        _sequential(caches_s, k, v)
        _assert_pools_identical(pool_b, pool_s)
        _assert_caches_identical(caches_b, caches_s)

    def test_freed_block_reuse_bit_identical(self):
        """Boundary allocations that must recycle scrubbed blocks draw
        the same ids in the same order as the sequential loop."""
        pool_b, pool_s = _pool_pair(num_blocks=8, prefix_cache_blocks=0)
        for pool in (pool_b, pool_s):
            victim = PagedLayerCache(pool)
            victim.append(np.zeros((2 * BLOCK, KV_HEADS, HEAD_DIM)),
                          np.zeros((2 * BLOCK, KV_HEADS, HEAD_DIM)))
            victim.release()
        lengths = [BLOCK, BLOCK]
        caches_b = _grow(pool_b, lengths, seed=3)
        caches_s = _grow(pool_s, lengths, seed=3)
        k, v = _step_rows(2, seed=11)
        batched_decode_append(caches_b, k, v)
        _sequential(caches_s, k, v)
        _assert_pools_identical(pool_b, pool_s)
        assert pool_b.stats["reused"] == pool_s.stats["reused"] > 0

    def test_cow_divergence_bit_identical(self):
        """A fork holding a shared trailing block copy-on-writes it
        before the row lands — same clone source/destination as the
        sequential path."""
        pool_b, pool_s = _pool_pair()
        tokens = list(range(12))
        setups = []
        for pool in (pool_b, pool_s):
            rng = np.random.default_rng(4)
            donor = PagedLayerCache(pool, layer=0)
            donor.append(rng.normal(size=(12, KV_HEADS, HEAD_DIM)),
                         rng.normal(size=(12, KV_HEADS, HEAD_DIM)),
                         token_ids=tokens)
            chain = pool.match_prefix(0, tokens)
            assert chain
            covered = sum(fill for _, fill in chain)
            fork = PagedLayerCache(pool, layer=0)
            fork.adopt_prefix(chain, tokens[:covered])
            assert pool.stats["shared"] > 0
            setups.append([donor, fork])
        k, v = _step_rows(2, seed=13)
        ids = np.array([21, 22])
        batched_decode_append(setups[0], k, v, token_ids=ids)
        _sequential(setups[1], k, v, token_ids=ids)
        assert pool_b.stats["cow"] > 0
        _assert_pools_identical(pool_b, pool_s)
        _assert_caches_identical(setups[0], setups[1])

    def test_prefix_index_maintenance_matches(self):
        """Layer-tagged caches fed token ids register the same prefix
        keys, so a later sequence adopts identically grown tables."""
        pool_b, pool_s = _pool_pair()
        lengths = [BLOCK - 1, BLOCK]
        caches_b = _grow(pool_b, lengths, seed=5, layer=0, track=True)
        caches_s = _grow(pool_s, lengths, seed=5, layer=0, track=True)
        for step in range(3):
            k, v = _step_rows(2, seed=40 + step)
            ids = np.array([step + 1, step + 2])
            batched_decode_append(caches_b, k, v, token_ids=ids)
            _sequential(caches_s, k, v, token_ids=ids)
        _assert_pools_identical(pool_b, pool_s)
        _assert_caches_identical(caches_b, caches_s)
        probe = caches_b[1]._tokens
        assert pool_b.match_prefix(0, probe) == pool_s.match_prefix(0, probe)

    def test_multi_step_decode_attention_parity(self):
        """End to end: several batched steps, then fused attention over
        the batched pool equals attention over the sequential pool."""
        pool_b, pool_s = _pool_pair()
        lengths = [3, BLOCK, 2 * BLOCK - 1]
        caches_b = _grow(pool_b, lengths, seed=6)
        caches_s = _grow(pool_s, lengths, seed=6)
        for step in range(2 * BLOCK):
            k, v = _step_rows(3, seed=200 + step)
            batched_decode_append(caches_b, k, v)
            _sequential(caches_s, k, v)
        _assert_pools_identical(pool_b, pool_s)
        rng = np.random.default_rng(9)
        q = rng.normal(size=(3, KV_HEADS * 2, HEAD_DIM))
        np.testing.assert_array_equal(
            fused_paged_decode_attention(q, caches_b, repeat=2,
                                         backend="lut-blocked"),
            fused_paged_decode_attention(q, caches_s, repeat=2,
                                         backend="lut-blocked"),
        )


class TestBatchedAppendValidation:
    def test_empty_batch_is_noop(self):
        batched_decode_append([], np.zeros((0,)), np.zeros((0,)))

    def test_rejects_mixed_pools(self):
        pool_a, pool_b = _pool_pair()
        caches = [_grow(pool_a, [2], seed=0)[0],
                  _grow(pool_b, [2], seed=0)[0]]
        k, v = _step_rows(2, seed=0)
        with pytest.raises(ServingError, match="shared block pool"):
            batched_decode_append(caches, k, v)

    def test_rejects_bad_shapes_and_ids(self):
        pool, _ = _pool_pair()
        caches = _grow(pool, [2, 3], seed=0)
        k, v = _step_rows(2, seed=0)
        with pytest.raises(ServingError, match="shape"):
            batched_decode_append(caches, k[:1], v[:1])
        with pytest.raises(ServingError, match="token ids"):
            batched_decode_append(caches, k, v, token_ids=[1, 2, 3])

    def test_rejects_released_cache(self):
        pool, _ = _pool_pair()
        caches = _grow(pool, [2], seed=0)
        caches[0].release()
        k, v = _step_rows(1, seed=0)
        with pytest.raises(ServingError, match="released"):
            batched_decode_append(caches, k, v)

    def test_append_rows_rejects_duplicates_shared_and_overflow(self):
        pool, _ = _pool_pair()
        cache = _grow(pool, [2], seed=0)[0]
        bid = cache.block_ids[-1]
        row = np.zeros((1, KV_HEADS, HEAD_DIM))
        two = np.zeros((2, KV_HEADS, HEAD_DIM))
        with pytest.raises(ServingError, match="distinct"):
            pool.append_rows([bid, bid], two, two)
        with pytest.raises(ServingError, match="shape"):
            pool.append_rows([bid], two, two)
        full = _grow(pool, [BLOCK], seed=1)[0]
        with pytest.raises(ServingError, match="overflow"):
            pool.append_rows([full.block_ids[-1]], row, row)
        shared_pool, _ = _pool_pair()
        donor = PagedLayerCache(shared_pool, layer=0)
        tokens = list(range(BLOCK))
        donor.append(np.zeros((BLOCK, KV_HEADS, HEAD_DIM)),
                     np.zeros((BLOCK, KV_HEADS, HEAD_DIM)),
                     token_ids=tokens)
        fork = PagedLayerCache(shared_pool, layer=0)
        chain = shared_pool.match_prefix(0, tokens)
        fork.adopt_prefix(chain, tokens)
        with pytest.raises(ServingError, match="copy-on-write"):
            shared_pool.append_rows([fork.block_ids[-1]], row, row)


class TestRejectedAppendKeepsThePrefixIndex:
    """A write that raises changes nothing — the prefix-index entry of
    every destination included, however far the checks got."""

    def _indexed(self, pool, tokens, seed):
        cache = PagedLayerCache(pool, layer=0)
        cache.append(*_step_rows(len(tokens), seed), token_ids=tokens)
        return cache

    def test_append_rows_overflowing_a_full_block(self):
        pool, _ = _pool_pair()
        tokens = list(range(BLOCK))
        bid = self._indexed(pool, tokens, 0).block_ids[-1]
        row = np.zeros((1, KV_HEADS, HEAD_DIM))
        with pytest.raises(ServingError, match="overflow"):
            pool.append_rows([bid], row, row)
        assert pool.match_prefix(0, tokens) == [(bid, BLOCK)]

    def test_write_rows_overflowing_a_full_block(self):
        pool, _ = _pool_pair()
        tokens = list(range(BLOCK))
        bid = self._indexed(pool, tokens, 0).block_ids[-1]
        with pytest.raises(ServingError, match="overflow"):
            pool.write_rows(bid, *_step_rows(1, 1))
        assert pool.match_prefix(0, tokens) == [(bid, BLOCK)]

    def test_append_rows_whose_second_destination_is_shared(self):
        pool, _ = _pool_pair()
        first = self._indexed(pool, [1, 2, 3], 0).block_ids[-1]
        tokens = list(range(BLOCK))
        donor = self._indexed(pool, tokens, 1)
        fork = PagedLayerCache(pool, layer=0)
        fork.adopt_prefix(pool.match_prefix(0, tokens), tokens)
        with pytest.raises(ServingError, match="copy-on-write"):
            pool.append_rows(
                [first, fork.block_ids[-1]], *_step_rows(2, 2)
            )
        assert pool.match_prefix(0, [1, 2, 3]) == [(first, 3)]
        assert pool.match_prefix(0, tokens) == [(donor.block_ids[-1], BLOCK)]
        assert int(pool._fill[first]) == 3
