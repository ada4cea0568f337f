"""Paged KV allocation: pool lifecycle, incremental arena columns,
bit-exact parity with from-scratch dense computation, block reuse."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.lut.attention import QuantizedKvCache, lut_decode_attention
from repro.models.configs import ModelConfig
from repro.runtime import DecoderModel, RuntimeConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
)
from tests.runtime.oracle import assert_parity, reference_paged_attention

BACKENDS = ("reference", "lut-naive", "lut-blocked")

TINY = ModelConfig(
    "paging-tiny", hidden=32, ffn=64, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)


class TestBlockAllocator:
    def test_allocate_free_reuse(self):
        pool = BlockAllocator(2, 8, block_size=8, num_blocks=3)
        ids = [pool.allocate() for _ in range(3)]
        assert len(set(ids)) == 3
        assert pool.free_blocks == 0 and pool.used_blocks == 3
        with pytest.raises(ServingError):
            pool.allocate()
        pool.free(ids[1])
        assert pool.free_blocks == 1
        again = pool.allocate()
        assert again == ids[1]
        assert pool.stats["reused"] == 1

    def test_unbounded_pool_grows(self):
        pool = BlockAllocator(1, 4, block_size=4)
        start = pool.capacity
        ids = [pool.allocate() for _ in range(start * 2 + 1)]
        assert pool.capacity > start
        assert len(set(ids)) == len(ids)
        assert pool.free_blocks is None

    def test_double_free_rejected(self):
        pool = BlockAllocator(1, 4, block_size=4, num_blocks=2)
        bid = pool.allocate()
        pool.free(bid)
        with pytest.raises(ServingError):
            pool.free(bid)

    def test_validation(self):
        with pytest.raises(ServingError):
            BlockAllocator(0, 8)
        with pytest.raises(ServingError):
            BlockAllocator(2, 8, block_size=6, lut_k=4)
        with pytest.raises(ServingError):
            BlockAllocator(2, 8, bits=12)
        with pytest.raises(ServingError):
            BlockAllocator(2, 8, num_blocks=0)

    def test_blocks_for_tokens(self):
        pool = BlockAllocator(2, 8, block_size=16)
        assert pool.blocks_for_tokens(0) == 0
        assert pool.blocks_for_tokens(1) == 1
        assert pool.blocks_for_tokens(16) == 1
        assert pool.blocks_for_tokens(17) == 2


class TestPagedLayerCache:
    def test_views_match_contiguous_cache(self):
        """The block-gathered views are the appended rows, concatenated."""
        pool = BlockAllocator(2, 8, block_size=4)
        paged = PagedLayerCache(pool)
        rng = np.random.default_rng(0)
        k = rng.normal(size=(11, 2, 8))
        v = rng.normal(size=(11, 2, 8))
        paged.append(k[:5], v[:5])       # bulk across block boundary
        for i in range(5, 11):
            paged.append(k[i], v[i])
        assert paged.length == 11
        assert len(paged.block_ids) == 3
        np.testing.assert_array_equal(paged.k_view(), k.transpose(1, 0, 2))
        np.testing.assert_array_equal(paged.v_view(), v.transpose(1, 0, 2))

    def test_release_returns_blocks_and_is_idempotent(self):
        pool = BlockAllocator(2, 8, block_size=4, num_blocks=4)
        cache = PagedLayerCache(pool)
        cache.append(np.zeros((9, 2, 8)), np.zeros((9, 2, 8)))
        assert pool.used_blocks == 3
        cache.release()
        cache.release()
        assert pool.used_blocks == 0
        with pytest.raises(ServingError):
            cache.append(np.zeros((2, 8)), np.zeros((2, 8)))

    def test_shape_validation(self):
        cache = PagedLayerCache(BlockAllocator(2, 8, block_size=4))
        with pytest.raises(ServingError):
            cache.append(np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ServingError):
            cache.append(np.zeros((2, 8)), np.zeros((3, 8)))

    def test_memory_bytes(self):
        pool = BlockAllocator(2, 8, block_size=16, bits=4)
        cache = PagedLayerCache(pool)
        cache.append(np.zeros((17, 2, 8)), np.zeros((17, 2, 8)))
        entries = 2 * 2 * 32 * 8      # K+V, heads, 2 blocks, head_dim
        assert cache.memory_bytes() == (entries * 4 + 7) // 8
        fpool = BlockAllocator(2, 8, block_size=16)
        fcache = PagedLayerCache(fpool)
        fcache.append(np.zeros((3, 2, 8)), np.zeros((3, 2, 8)))
        assert fcache.memory_bytes() == 2 * 2 * 16 * 8 * 8


def _attend(query, cache, repeat=1, backend=None):
    return fused_paged_decode_attention(
        query[None], [cache], repeat=repeat, backend=backend
    )[0]


def _grown_cache(table, rows, block_size, bits, start):
    """A cache holding ``rows[:start]`` in one of four block-table states:
    private, adopting a live donor's full block, adopting its partial
    block (the next append copy-on-writes it), or on blocks a released
    sequence left behind (scrubbed, then reused)."""
    k, v = rows
    kv_heads, head_dim = k.shape[1:]
    pool = BlockAllocator(
        kv_heads, head_dim, block_size=block_size, bits=bits,
        num_blocks=8, prefix_cache_blocks=0,
    )
    ids = list(range(len(k)))
    if table == "reused":
        first = PagedLayerCache(pool)
        first.append(k[::-1] * 3.0, v[::-1] - 1.0)
        _attend(np.ones((kv_heads, head_dim)), first)  # arenas written
        first.release()
    cache = PagedLayerCache(pool, layer=0)
    if table in ("adopted", "cow"):
        donor = PagedLayerCache(pool, layer=0)
        donor.append(k[:start], v[:start], token_ids=ids[:start])
        chain = pool.match_prefix(0, ids[:start])
        cache.adopt_prefix(chain, ids[:start])  # the donor stays live
    else:
        cache.append(k[:start], v[:start], token_ids=ids[:start])
    return cache


class TestPagedDecodeParity:
    """Incremental paged attention == from-scratch dense computation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("head_dim,block_size", [(8, 8), (16, 16)],
                             ids=("per-row", "grouped"))
    @pytest.mark.parametrize("table", ["private", "adopted", "cow", "reused"])
    def test_incremental_equals_scratch_at_every_length(
        self, backend, head_dim, block_size, table
    ):
        """Grow a paged cache token by token, attending between appends
        (arena columns written once and V arenas refreshed as blocks
        fill), and pin the fused output against a from-scratch
        recomputation at every context length across three block
        boundaries — bitwise on the LUT backends, 1e-9 on reference —
        whether the table is private, adopted, CoW-split or reused."""
        kv_heads, bits, repeat = 2, 4, 2
        rng = np.random.default_rng(head_dim)
        total = 2 * block_size + 5
        k = rng.normal(size=(total, kv_heads, head_dim))
        v = rng.normal(size=(total, kv_heads, head_dim))
        query = rng.normal(size=(kv_heads * repeat, head_dim))
        start = block_size if table == "adopted" else 5
        cache = _grown_cache(table, (k, v), block_size, bits, start)
        pool = cache.pool
        for t in range(start, total + 1):
            got = _attend(query, cache, repeat=repeat, backend=backend)
            want = reference_paged_attention(
                k[:t].transpose(1, 0, 2), v[:t].transpose(1, 0, 2), query,
                bits=bits, block_size=block_size, lut_k=4,
                backend=backend, repeat=repeat,
            )
            assert_parity(got, want, backend, msg=f"length {t}")
            if t < total:
                cache.append(k[t], v[t], token_ids=[t])
        assert pool.stats["shared"] == (table in ("adopted", "cow"))
        assert pool.stats["cow"] == (table == "cow")
        assert pool.stats["reused"] == (3 if table == "reused" else 0)

    def test_single_block_matches_contiguous_cache_exactly(self):
        """Within one 16-token block the paged recipe coincides with the
        dense ``QuantizedKvCache.quantize`` + ``lut_decode_attention``
        path over the zero-padded history bit for bit (same padding,
        same V grouping, single context matmul)."""
        rng = np.random.default_rng(7)
        k = rng.normal(size=(13, 2, 16))
        v = rng.normal(size=(13, 2, 16))
        query = rng.normal(size=(2, 16))
        pool = BlockAllocator(2, 16, block_size=16, bits=4)
        paged = PagedLayerCache(pool)
        paged.append(k, v)
        got = _attend(query, paged, backend="lut-blocked")
        k_pad, v_pad = np.zeros((2, 2, 16, 16))
        k_pad[:, :13] = k.transpose(1, 0, 2)
        v_pad[:, :13] = v.transpose(1, 0, 2)
        want = lut_decode_attention(
            query, QuantizedKvCache.quantize(k_pad, v_pad, bits=4),
            backend="lut-blocked", context_valid=13,
        )
        np.testing.assert_array_equal(got, want)

    def test_lut_backends_bit_identical_multi_block(self):
        rng = np.random.default_rng(9)
        k = rng.normal(size=(21, 2, 8))
        v = rng.normal(size=(21, 2, 8))
        query = rng.normal(size=(4, 8))
        outs = {}
        for backend in ("lut-naive", "lut-blocked"):
            pool = BlockAllocator(2, 8, block_size=8, bits=4)
            cache = PagedLayerCache(pool)
            cache.append(k, v)
            outs[backend] = _attend(query, cache, repeat=2, backend=backend)
        np.testing.assert_array_equal(outs["lut-naive"], outs["lut-blocked"])


class TestPlanWorkIsFlat:
    def test_per_step_plan_columns_constant_in_context(self):
        """The tentpole invariant: after the first materialization, every
        decode step builds/extends exactly one K-plan column per KV head
        per layer and requantizes exactly one trailing V block per layer
        — independent of how long the context has grown."""
        model = DecoderModel(
            TINY,
            RuntimeConfig(weight_bits=4, kv_bits=4, max_seq_len=64,
                          kv_block_size=16),
        )
        caches = model.new_caches()
        model.prefill(np.arange(8), caches)
        model.decode_step(1, caches)      # first step builds the plans
        pool = model.kv_pool
        expected_k = TINY.layers * TINY.kv_heads
        expected_v = TINY.layers * TINY.kv_heads * pool.block_size
        for step in range(40):
            before_k = pool.stats["k_plan_cols"]
            before_v = pool.stats["v_quant_cols"]
            model.decode_step(step % TINY.vocab, caches)
            assert pool.stats["k_plan_cols"] - before_k == expected_k, (
                f"step {step}: K-plan work grew with context"
            )
            assert pool.stats["v_quant_cols"] - before_v == expected_v, (
                f"step {step}: V-quant work grew with context"
            )

    def test_full_blocks_freeze_their_plans(self):
        """A full block's K-arena columns and V arenas (with their fill
        stamp) stay untouched by later appends and attends."""
        pool = BlockAllocator(1, 8, block_size=8, bits=4)
        cache = PagedLayerCache(pool)
        rng = np.random.default_rng(3)
        cache.append(rng.normal(size=(8, 1, 8)), rng.normal(size=(8, 1, 8)))
        query = rng.normal(size=(1, 8))
        _attend(query, cache, backend="lut-blocked")
        first = cache.block_ids[0]
        names = [
            name for name in pool._QUANT_ARRAYS if name[:4] in ("_ka_", "_va_")
        ]
        frozen = {name: getattr(pool, name)[first].copy() for name in names}
        assert frozen["_va_fill"] == 8
        for _ in range(2):
            cache.append(
                rng.normal(size=(5, 1, 8)), rng.normal(size=(5, 1, 8))
            )
            _attend(query, cache, backend="lut-blocked")
        assert len(cache.block_ids) == 3
        for name in names:
            np.testing.assert_array_equal(
                getattr(pool, name)[first], frozen[name], err_msg=name
            )


class TestBlockReuse:
    def test_freed_blocks_reused_without_state_leakage(self):
        """Satellite: a completed request's blocks serve the next request
        with exact-logit fidelity — the scrubbed pool state leaks
        nothing from the previous occupant."""
        rt = RuntimeConfig(
            weight_bits=4, kv_bits=4, max_seq_len=32, kv_block_size=16,
            kv_pool_blocks=TINY.layers,   # exactly one sequence fits
        )
        prompt_a = np.arange(10)
        prompt_b = (np.arange(9) * 3) % TINY.vocab

        def run_request(model, prompt, steps):
            caches = model.new_caches()
            logits = [model.prefill(prompt, caches)[-1]]
            for t in range(steps):
                logits.append(model.decode_step(t + 1, caches))
            ids = {bid for c in caches for bid in c.block_ids}
            return np.stack(logits), caches, ids

        model = DecoderModel(TINY, rt)
        _, caches_a, ids_a = run_request(model, prompt_a, steps=5)
        model.free_caches(caches_a)
        logits_b, caches_b, ids_b = run_request(model, prompt_b, steps=5)
        assert ids_b == ids_a                  # the pool forced reuse
        assert model.kv_pool.stats["reused"] >= len(ids_a)

        fresh = DecoderModel(TINY, rt)         # same seed, same weights
        logits_fresh, _, _ = run_request(fresh, prompt_b, steps=5)
        np.testing.assert_array_equal(logits_b, logits_fresh)

    def test_bounded_pool_exhaustion_raises(self):
        model = DecoderModel(
            TINY,
            RuntimeConfig(weight_bits=4, kv_bits=4, max_seq_len=32,
                          kv_block_size=16, kv_pool_blocks=TINY.layers),
        )
        caches = model.new_caches()
        model.prefill(np.arange(4), caches)
        other = model.new_caches()
        with pytest.raises(ServingError):
            model.prefill(np.arange(4), other)
