"""Copy-on-write prefix sharing: refcounts, the prefix index,
adoption parity, CoW divergence, recently-freed reuse, and the
allocator refcount invariants under random op interleavings."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.models.configs import ModelConfig
from repro.runtime import (
    DecoderModel,
    Request,
    RuntimeConfig,
    ServingEngine,
)
from repro.runtime.paging import BlockAllocator, PagedLayerCache

BACKENDS = ("reference", "lut-naive", "lut-blocked")

TINY = ModelConfig(
    "share-tiny", hidden=32, ffn=64, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)


def _row(token: int, kv_heads: int = 2, head_dim: int = 8) -> np.ndarray:
    """Deterministic K/V row per token id: identical tokens always carry
    identical content, the property real prefills have and the prefix
    index relies on."""
    base = np.cos((token + 1) * np.arange(1, kv_heads * head_dim + 1))
    return base.reshape(kv_heads, head_dim)


def _fill_cache(cache: PagedLayerCache, tokens) -> None:
    rows = np.stack([_row(t) for t in tokens])
    cache.append(rows, 0.5 * rows, token_ids=list(tokens))


class TestRefcounts:
    def test_allocate_share_free_lifecycle(self):
        pool = BlockAllocator(2, 8, block_size=8, bits=4, num_blocks=4)
        bid = pool.allocate()
        assert pool.refcount(bid) == 1
        pool._refcount[bid] = 1  # sanity: direct state matches accessor
        pool.adopt(bid)
        assert pool.refcount(bid) == 2
        assert pool.shared_in_use == 1
        pool.free(bid)
        assert pool.refcount(bid) == 1
        assert bid in pool._in_use          # still held: not scrubbed
        pool.free(bid)
        assert pool.refcount(bid) == 0
        assert bid not in pool._in_use

    def test_free_never_scrubs_shared_block(self):
        """The satellite invariant: releasing one holder of a shared
        block must leave its contents, plans and V cache untouched."""
        pool = BlockAllocator(2, 8, block_size=4, bits=4)
        cache_a = PagedLayerCache(pool, layer=0)
        _fill_cache(cache_a, [3, 1, 4, 1])          # one full block
        bid = cache_a.block_ids[0]
        before_k = pool._k[bid].copy()
        before_idx = pool._ka_idx[bid].copy()
        cache_b = PagedLayerCache(pool, layer=0)
        chain = pool.match_prefix(0, [3, 1, 4, 1])
        assert chain == [(bid, 4)]
        cache_b.adopt_prefix(chain, [3, 1, 4, 1])
        cache_a.release()                            # one holder leaves
        assert pool.refcount(bid) == 1
        np.testing.assert_array_equal(pool._k[bid], before_k)
        np.testing.assert_array_equal(pool._ka_idx[bid], before_idx)
        np.testing.assert_array_equal(
            cache_b.k_view()[0], np.stack([_row(t)[0] for t in (3, 1, 4, 1)])
        )

    def test_write_into_shared_block_rejected_at_pool_layer(self):
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        cache = PagedLayerCache(pool, layer=0)
        _fill_cache(cache, [1, 2, 3])
        bid = cache.block_ids[0]
        pool.adopt(bid)
        with pytest.raises(ServingError):
            pool.write_rows(bid, _row(4)[None], _row(4)[None])
        pool.free(bid)

    def test_double_free_still_rejected(self):
        pool = BlockAllocator(1, 4, block_size=4, num_blocks=2)
        bid = pool.allocate()
        pool.free(bid)
        with pytest.raises(ServingError):
            pool.free(bid)


class TestPrefixIndex:
    def test_key_bytes_are_the_numpy_formula(self):
        """``prefix_key`` hashes ``array('q')`` bytes; every key the index
        ever held was the sha256 of the numpy int64 bytes of the layer, the
        predecessor key and the segment. Same bytes, so the same keys —
        over random layers, predecessors (empty or a 32-byte key) and
        segments of 0 to 16 ids up to the int64 range, from tuples, lists
        and int64 arrays."""
        import hashlib

        rng = np.random.default_rng(11)
        for _ in range(300):
            layer = int(rng.integers(0, 64))
            prev = b"" if rng.random() < 0.3 else rng.bytes(32)
            ids = rng.integers(0, 2**63 - 1, size=int(rng.integers(0, 17)))
            if rng.random() < 0.5:
                ids %= 50_000
            old = hashlib.sha256()
            old.update(np.int64(layer).tobytes())
            old.update(prev)
            old.update(np.asarray(ids, dtype=np.int64).tobytes())
            for segment in (tuple(int(t) for t in ids), list(ids), ids):
                assert BlockAllocator.prefix_key(layer, prev, segment) == (
                    old.digest()
                )

    def test_full_block_chain_then_partial_tail(self):
        pool = BlockAllocator(2, 8, block_size=4, bits=4)
        cache = PagedLayerCache(pool, layer=0)
        tokens = [7, 1, 2, 9, 5, 6, 3, 8, 11, 12]   # 2 full + fill-2 tail
        _fill_cache(cache, tokens)
        chain = pool.match_prefix(0, tokens)
        assert [fill for _, fill in chain] == [4, 4, 2]
        assert [bid for bid, _ in chain] == cache.block_ids
        # A shorter query stops at full blocks only: the partial tail
        # matches only at its exact current content.
        assert [f for _, f in pool.match_prefix(0, tokens[:9])] == [4, 4]
        # Diverging content does not match past the divergence point.
        assert [f for _, f in pool.match_prefix(0, tokens[:5] + [60, 61])] == [4]
        # Other layers see nothing.
        assert pool.match_prefix(1, tokens) == []

    def test_append_updates_partial_entry(self):
        """A partial trailing block's index entry must always describe
        its exact current rows — stale entries would hand out blocks
        whose fill disagrees with the matched token count."""
        pool = BlockAllocator(2, 8, block_size=4, bits=4)
        cache = PagedLayerCache(pool, layer=0)
        _fill_cache(cache, [1, 2])
        assert [f for _, f in pool.match_prefix(0, [1, 2])] == [2]
        _fill_cache(cache, [3])
        assert pool.match_prefix(0, [1, 2]) == []
        assert [f for _, f in pool.match_prefix(0, [1, 2, 3])] == [3]

    def test_recently_freed_blocks_parked_and_resurrected(self):
        pool = BlockAllocator(2, 8, block_size=4, bits=4, num_blocks=4)
        cache = PagedLayerCache(pool, layer=0)
        _fill_cache(cache, [5, 6, 7, 8, 1])          # 1 full + partial
        full_bid = cache.block_ids[0]
        cache.release()
        # Full indexed block parked; partial scrubbed straight to free.
        assert pool.cached_free_blocks == 1
        assert pool.used_blocks == 0
        chain = pool.match_prefix(0, [5, 6, 7, 8, 9])
        assert chain == [(full_bid, 4)]
        other = PagedLayerCache(pool, layer=0)
        other.adopt_prefix(chain, [5, 6, 7, 8])
        assert pool.cached_free_blocks == 0
        assert pool.refcount(full_bid) == 1
        np.testing.assert_array_equal(
            other.k_view(), np.stack([_row(t) for t in (5, 6, 7, 8)]).transpose(1, 0, 2)
        )
        other.release()

    def test_bounded_pool_evicts_cached_free_lru(self):
        """Parked blocks are capacity, not a leak: when a bounded pool
        runs out of virgin blocks the least-recently-parked cached-free
        block is reclaimed (and unindexed) instead of raising."""
        pool = BlockAllocator(2, 8, block_size=4, bits=4, num_blocks=2)
        a = PagedLayerCache(pool, layer=0)
        _fill_cache(a, [1, 2, 3, 4])
        b = PagedLayerCache(pool, layer=0)
        _fill_cache(b, [9, 8, 7, 6])
        a.release()
        b.release()
        assert pool.cached_free_blocks == 2
        fresh = PagedLayerCache(pool, layer=0)
        _fill_cache(fresh, [11, 12, 13, 14])         # evicts a's block
        assert pool.stats["evicted"] == 1
        assert pool.match_prefix(0, [1, 2, 3, 4]) == []
        assert [f for _, f in pool.match_prefix(0, [9, 8, 7, 6])] == [4]
        fresh.release()

    def test_pool_exhaustion_message_still_raised_when_nothing_cached(self):
        pool = BlockAllocator(2, 8, block_size=4, num_blocks=1)
        pool.allocate()
        with pytest.raises(ServingError):
            pool.allocate()

    def test_prefix_cache_bounded_even_on_unbounded_pool(self):
        """The parked set is capped (LRU) independently of the pool
        bound — an unbounded pool must not retain every distinct
        prompt's blocks forever."""
        pool = BlockAllocator(2, 8, block_size=4, bits=4,
                              prefix_cache_blocks=2)
        for i in range(4):
            cache = PagedLayerCache(pool, layer=0)
            _fill_cache(cache, [i * 10 + d for d in range(4)])
            cache.release()
        assert pool.cached_free_blocks == 2          # capped, not 4
        assert pool.stats["evicted"] == 2
        # The survivors are the most recently parked prompts.
        assert pool.match_prefix(0, [0, 1, 2, 3]) == []
        assert [f for _, f in pool.match_prefix(0, [30, 31, 32, 33])] == [4]

    def test_prefix_cache_zero_disables_parking(self):
        pool = BlockAllocator(2, 8, block_size=4, bits=4,
                              prefix_cache_blocks=0)
        cache = PagedLayerCache(pool, layer=0)
        _fill_cache(cache, [1, 2, 3, 4])
        cache.release()
        assert pool.cached_free_blocks == 0
        assert pool.match_prefix(0, [1, 2, 3, 4]) == []


class TestCopyOnWrite:
    def test_append_into_shared_partial_block_cows(self):
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        a = PagedLayerCache(pool, layer=0)
        _fill_cache(a, [1, 2, 3])
        shared_bid = a.block_ids[0]
        b = PagedLayerCache(pool, layer=0)
        chain = pool.match_prefix(0, [1, 2, 3])
        b.adopt_prefix(chain, [1, 2, 3])
        assert pool.refcount(shared_bid) == 2
        _fill_cache(b, [50])                          # diverge -> CoW
        assert pool.stats["cow"] == 1
        assert b.block_ids[0] != shared_bid
        assert pool.refcount(shared_bid) == 1         # a keeps the original
        assert pool.refcount(b.block_ids[0]) == 1
        # Both sequences see exactly their own histories.
        np.testing.assert_array_equal(
            a.k_view(), np.stack([_row(t) for t in (1, 2, 3)]).transpose(1, 0, 2)
        )
        np.testing.assert_array_equal(
            b.k_view(), np.stack([_row(t) for t in (1, 2, 3, 50)]).transpose(1, 0, 2)
        )
        # The original holder can keep appending without another CoW.
        _fill_cache(a, [60])
        assert pool.stats["cow"] == 1
        a.release()
        b.release()

    def test_adoption_requires_empty_cache(self):
        pool = BlockAllocator(2, 8, block_size=4, bits=4)
        a = PagedLayerCache(pool, layer=0)
        _fill_cache(a, [1, 2, 3, 4])
        chain = pool.match_prefix(0, [1, 2, 3, 4])
        b = PagedLayerCache(pool, layer=0)
        _fill_cache(b, [9])
        with pytest.raises(ServingError):
            b.adopt_prefix(chain, [1, 2, 3, 4])


def _from_scratch_reference(rt_kwargs, prompt, chunk_at, decode_tokens):
    """Independent from-scratch dense computation of *prompt* + decodes.

    Nothing is shared or adopted — every row is recomputed on a fresh
    model. The prefill is chunked at the adoption boundary so the
    suffix rows see the same mpGEMM batch shapes as the shared run.
    """
    fresh = DecoderModel(TINY, RuntimeConfig(**rt_kwargs))
    caches = fresh.new_caches()
    if chunk_at:
        fresh.prefill(np.array(prompt[:chunk_at]), caches)
    logits = [fresh.prefill(np.array(prompt[chunk_at:]), caches)[-1]]
    for token in decode_tokens:
        logits.append(fresh.decode_step(token, caches))
    fresh.free_caches(caches)
    return np.stack(logits)


def _assert_parity(backend, got, want):
    """Bit-identical on the reduction-order-pinned LUT backends; the
    `reference` backend's BLAS GEMMs may associate differently across
    batch shapes (a donor's K/V rows were produced at the donor's
    prompt shape), so it is pinned at the runtime's established 1e-9
    — the same split the PR 3/4 decode-parity suites use."""
    if backend == "reference":
        np.testing.assert_allclose(got, want, atol=1e-9)
    else:
        np.testing.assert_array_equal(got, want)


class TestSharedAttentionBitParity:
    """Attention-level parity on all three backends: an adopted/CoW-split
    block table holds the same bytes as a privately built one, so fused
    decode attention over it must match the from-scratch dense
    recomputation — bit for bit on the LUT backends, 1e-9 on
    ``reference``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adopted_and_cow_tables_decode_bit_identical(self, backend):
        from repro.runtime.paging import fused_paged_decode_attention
        from tests.runtime.oracle import reference_paged_attention

        kv_heads, head_dim, block_size, bits = 2, 8, 8, 4
        rng = np.random.default_rng(42)
        pool = BlockAllocator(
            kv_heads, head_dim, block_size=block_size, bits=bits
        )
        donor_tokens = [int(t) for t in rng.integers(0, 64, 11)]
        donor = PagedLayerCache(pool, layer=0)
        _fill_cache(donor, donor_tokens)
        # Adopt one full block + the partial tail, then diverge (CoW).
        adopter = PagedLayerCache(pool, layer=0)
        chain = pool.match_prefix(0, donor_tokens)
        adopter.adopt_prefix(chain, donor_tokens)
        extra = [int(t) for t in rng.integers(0, 64, 3)]
        _fill_cache(adopter, extra)
        assert pool.stats["cow"] == 1
        tokens = donor_tokens + extra
        k_hist = np.stack([_row(t) for t in tokens]).transpose(1, 0, 2)
        v_hist = 0.5 * k_hist
        query = rng.normal(size=(kv_heads * 2, head_dim))
        got, got_donor = fused_paged_decode_attention(
            np.stack([query, query]), [adopter, donor], repeat=2,
            backend=backend,
        )
        want = reference_paged_attention(
            k_hist, v_hist, query, bits=bits, block_size=block_size,
            lut_k=4, backend=backend, repeat=2,
        )
        _assert_parity(backend, got, want)
        # The donor's view is equally untouched by the split.
        want_donor = reference_paged_attention(
            k_hist[:, :len(donor_tokens)], v_hist[:, :len(donor_tokens)],
            query, bits=bits, block_size=block_size, lut_k=4,
            backend=backend, repeat=2,
        )
        _assert_parity(backend, got_donor, want_donor)


class TestSharedPrefixDecodeParity:
    """Model-level acceptance bar: shared-prefix prefill + decode must
    reproduce an independent from-scratch computation on every
    registered backend (bit-identical on the LUT backends)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_decode_matches_from_scratch(self, backend):
        rt = dict(
            weight_bits=4, kv_bits=4, backend=backend, max_seq_len=96,
        )
        common = tuple(int(t) for t in (np.arange(37) * 5) % TINY.vocab)
        prompt_a = common + (1, 2, 3)
        prompt_b = common + (9, 8)

        model = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_a = model.new_caches()
        model.prefill(np.array(prompt_a), caches_a)
        model.decode_step(5, caches_a)               # donor stays live
        caches_b = model.new_caches()
        logits_b = [model.prefill(np.array(prompt_b), caches_b)[-1]]
        shared = model.stats["shared_prefix_tokens"]
        assert shared >= 32                          # two full blocks
        assert model.kv_pool.stats["shared"] > 0     # adoption happened
        for t in (5, 6, 7):
            logits_b.append(model.decode_step(t, caches_b))

        want = _from_scratch_reference(rt, prompt_b, shared, (5, 6, 7))
        _assert_parity(backend, np.stack(logits_b), want)
        model.free_caches(caches_a)
        model.free_caches(caches_b)

    def test_shared_prefill_matches_unchunked_on_lut_backend(self):
        """On the reduction-order-pinned LUT backends the shared run is
        bit-identical even to an *unchunked* fresh prefill."""
        rt = dict(
            weight_bits=4, kv_bits=4, backend="lut-blocked", max_seq_len=96,
        )
        common = tuple(int(t) for t in (np.arange(35) * 5) % TINY.vocab)
        prompt_b = common + (9, 8)
        model = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_a = model.new_caches()
        model.prefill(np.array(common + (1,)), caches_a)
        caches_b = model.new_caches()
        got = [model.prefill(np.array(prompt_b), caches_b)[-1]]
        assert model.stats["shared_prefix_tokens"] >= 32
        got.append(model.decode_step(3, caches_b))
        want = _from_scratch_reference(rt, prompt_b, 0, (3,))
        np.testing.assert_array_equal(np.stack(got), want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cow_divergence_matches_from_scratch(self, backend):
        """Two prompts diverging inside a shared partial block: the
        adopter copy-on-writes at its first computed token, and both
        decode to their from-scratch references."""
        rt = dict(
            weight_bits=4, kv_bits=4, backend=backend, max_seq_len=64,
        )
        base = tuple(int(t) for t in (np.arange(10) * 3) % TINY.vocab)
        prompt_b = base + (21, 22)

        model = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_a = model.new_caches()
        model.prefill(np.array(base), caches_a)      # partial-block donor
        caches_b = model.new_caches()
        model.prefill(np.array(prompt_b), caches_b)
        shared = model.stats["shared_prefix_tokens"]
        assert shared == len(base)
        assert model.kv_pool.stats["cow"] > 0        # partial share split
        out_b = np.stack(
            [model.decode_step(t, caches_b) for t in (3, 4)]
        )
        out_a = np.stack(
            [model.decode_step(t, caches_a) for t in (3, 4)]
        )

        want_b = _from_scratch_reference(rt, prompt_b, shared, (3, 4))
        _assert_parity(backend, out_b, want_b[1:])
        want_a = _from_scratch_reference(rt, base, 0, (3, 4))
        _assert_parity(backend, out_a, want_a[1:])

    def test_float_kv_sharing_bit_identical(self):
        """Sharing also holds on the float-KV decode path (no plans).

        The linears are pinned to the batch-invariant blocked backend —
        this test covers the KV mode, not the kernel matrix (the
        backend sweep above covers that)."""
        rt = dict(
            weight_bits=4, kv_bits=None, backend="lut-blocked",
            max_seq_len=96,
        )
        common = tuple(int(t) for t in (np.arange(33) * 7) % TINY.vocab)
        model = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_a = model.new_caches()
        model.prefill(np.array(common + (2,)), caches_a)
        caches_b = model.new_caches()
        model.prefill(np.array(common + (11, 12)), caches_b)
        assert model.kv_pool.stats["shared"] > 0
        got = model.decode_step(9, caches_b)
        fresh = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_f = fresh.new_caches()
        fresh.prefill(np.array(common + (11, 12)), caches_f)
        want = fresh.decode_step(9, caches_f)
        np.testing.assert_array_equal(got, want)

    def test_sharing_disabled_runs_private(self):
        rt = dict(
            weight_bits=4, kv_bits=4, max_seq_len=96, prefix_sharing=False,
        )
        common = tuple(int(t) for t in np.arange(34) % TINY.vocab)
        model = DecoderModel(TINY, RuntimeConfig(**rt))
        caches_a = model.new_caches()
        model.prefill(np.array(common + (1,)), caches_a)
        caches_b = model.new_caches()
        logits = model.prefill(np.array(common + (2,)), caches_b)
        assert logits.shape[0] == len(common) + 1    # everything computed
        assert model.kv_pool.stats["shared"] == 0
        assert model.shareable_blocks(common + (2,)) == 0


class TestBlocksSaved:
    def test_shared_engine_allocates_strictly_fewer_blocks(self):
        """The perf-guard criterion: serving N common-prefix requests
        with sharing allocates strictly fewer pool blocks than the
        no-sharing baseline, with identical outputs."""
        common = tuple(int(t) for t in (np.arange(36) * 11) % TINY.vocab)
        requests = [
            Request(
                request_id=f"r{i}",
                prompt=common + (i + 1, i + 2),
                max_new_tokens=4,
            )
            for i in range(4)
        ]

        def serve(prefix_sharing):
            model = DecoderModel(
                TINY,
                RuntimeConfig(
                    weight_bits=4, kv_bits=4, max_seq_len=96,
                    prefix_sharing=prefix_sharing,
                ),
            )
            engine = ServingEngine(model, max_batch_size=4)
            for request in requests:
                engine.submit(request)
            results, stats = engine.run()
            tokens = {r.request_id: r.tokens for r in results}
            return tokens, model.kv_pool.stats, stats

        shared_tokens, shared_pool, shared_stats = serve(True)
        private_tokens, private_pool, _ = serve(False)
        assert shared_tokens == private_tokens       # exact outputs
        assert shared_pool["allocated"] < private_pool["allocated"]
        assert shared_pool["shared"] > 0
        assert shared_stats.shared_block_ratio > 0.0
        assert any(t.kv_blocks_shared > 0 for t in shared_stats.trace)


class TestSubmitSharingDiscount:
    COMMON = tuple(int(t) for t in (np.arange(32) * 3) % TINY.vocab)
    RT = dict(
        weight_bits=4, kv_bits=4, max_seq_len=96, kv_block_size=16,
        kv_pool_blocks=8,
    )

    def _seed(self):
        """A long-running donor holding the common prefix live."""
        return Request(
            "seed", prompt=self.COMMON + (63,), max_new_tokens=16,
        )

    def test_submit_accounts_for_live_shareable_blocks(self):
        """Satellite bugfix: a prompt whose worst case exceeds the pool
        only because of blocks live sequences already hold must be
        admitted (and still be rejected cold)."""
        # Worst case: 49 + 40 - 1 = 88 tokens -> 6 blocks x 2 layers =
        # 12 > 8: rejected against the private footprint.
        big = Request(
            "big", prompt=self.COMMON + tuple(range(17)),
            max_new_tokens=40,
        )
        cold = ServingEngine(DecoderModel(TINY, RuntimeConfig(**self.RT)))
        with pytest.raises(ServingError):
            cold.submit(big)

        warm_model = DecoderModel(TINY, RuntimeConfig(**self.RT))
        warm = ServingEngine(warm_model, max_batch_size=2)
        warm.submit(self._seed())
        warm.step()                      # seed active, prefix held live
        # The two full common-prefix blocks per layer are live-shared,
        # so the discounted footprint 12 - 4 = 8 <= 8 admits it.
        assert warm_model.shareable_blocks(big.prompt, live_only=True) == 4
        warm.submit(big)
        assert "big" in warm._ids

    def test_parked_blocks_do_not_discount_submit(self):
        """Adopting a parked block re-occupies pool capacity, so a
        request that fits only against parked matches can never fit --
        submit must keep rejecting it (the pre-fix crash scenario)."""
        big = Request(
            "big", prompt=self.COMMON + tuple(range(17)),
            max_new_tokens=40,
        )
        model = DecoderModel(TINY, RuntimeConfig(**self.RT))
        engine = ServingEngine(model, max_batch_size=2)
        engine.submit(self._seed())
        engine.run()                     # seed completed: blocks parked
        assert model.kv_pool.cached_free_blocks > 0
        assert model.shareable_blocks(big.prompt) == 4          # compute
        assert model.shareable_blocks(big.prompt, live_only=True) == 0
        with pytest.raises(ServingError):
            engine.submit(big)

    def test_discounted_request_completes_via_sharing_and_eos(self):
        """An over-committed admission backed by live sharing completes
        when generation ends early -- the over-commit case the discount
        plus preemption relief exists for."""
        model = DecoderModel(TINY, RuntimeConfig(**self.RT))
        engine = ServingEngine(model, max_batch_size=2)
        engine.submit(self._seed())
        engine.step()                    # seed active, prefix held live
        engine.submit(
            Request("probe", prompt=self.COMMON + (1, 2), max_new_tokens=1)
        )
        while not engine.finished:       # probe finishes at its prefill
            engine.step()
        eos = engine.finished[0].tokens[0]
        # 34 + 40 - 1 = 73 tokens -> 5 blocks x 2 = 10 > 8 privately,
        # 10 - 4 = 6 <= 8 with the live-shared prefix; eos ends the
        # generation long before the worst case materializes.
        engine.submit(
            Request(
                "over-commit", prompt=self.COMMON + (1, 2),
                max_new_tokens=40, eos_token_id=eos,
            )
        )
        results, _ = engine.run()
        by_id = {r.request_id: r for r in results}
        assert by_id["over-commit"].finish_reason == "eos"
        assert len(by_id["over-commit"].tokens) == 1
        assert model.kv_pool.used_blocks == 0


class TestRefcountInvariant:
    """Property-style satellite: under any interleaving of
    share/append/CoW/free, the sum of refcounts equals the live
    block-table references and shared contents are never scrubbed."""

    def test_random_interleavings_preserve_invariants(self):
        rng = np.random.default_rng(1234)
        pool = BlockAllocator(2, 8, block_size=4, bits=4, num_blocks=24)
        live: list[tuple[PagedLayerCache, list[int]]] = []
        histories: list[list[int]] = []

        def check():
            table_refs: dict[int, int] = {}
            for cache, _ in live:
                for bid in cache.block_ids:
                    table_refs[bid] = table_refs.get(bid, 0) + 1
            in_use_refs = {
                bid: pool.refcount(bid) for bid in pool._in_use
            }
            assert table_refs == in_use_refs
            assert sum(in_use_refs.values()) == sum(table_refs.values())
            # Every live cache still reads exactly its own history —
            # no scrub or CoW ever corrupted a shared holder.
            for cache, tokens in live:
                np.testing.assert_array_equal(
                    cache.k_view(),
                    np.stack([_row(t) for t in tokens]).transpose(1, 0, 2),
                )

        for _ in range(120):
            op = rng.choice(["new", "append", "release"])
            if op == "new" and len(live) < 5:
                if histories and rng.random() < 0.7:
                    base = list(histories[rng.integers(len(histories))])
                    cut = int(rng.integers(1, len(base) + 1))
                    tokens = base[:cut] + [
                        int(t) for t in rng.integers(0, 64, 2)
                    ]
                else:
                    tokens = [
                        int(t)
                        for t in rng.integers(0, 64, int(rng.integers(2, 10)))
                    ]
                cache = PagedLayerCache(pool, layer=0)
                chain = pool.match_prefix(0, tokens[:-1])
                covered = sum(fill for _, fill in chain)
                if covered:
                    cache.adopt_prefix(chain, tokens[:covered])
                try:
                    _fill_cache(cache, tokens[covered:])
                except ServingError:      # bounded pool ran dry
                    cache.release()
                    continue
                live.append((cache, tokens))
                histories.append(tokens)
            elif op == "append" and live:
                idx = int(rng.integers(len(live)))
                cache, tokens = live[idx]
                extra = [int(t) for t in rng.integers(0, 64, 1)]
                try:
                    _fill_cache(cache, extra)
                except ServingError:
                    continue
                tokens.extend(extra)
            elif op == "release" and live:
                idx = int(rng.integers(len(live)))
                cache, _ = live.pop(idx)
                cache.release()
            check()

        for cache, _ in live:
            cache.release()
        assert pool.used_blocks == 0
        assert sum(pool._refcount[bid] for bid in range(pool.capacity)) == 0
