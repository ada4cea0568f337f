"""Property fuzz for the KV rollback: ``append`` → ``truncate_rows``
round-trips leave the pool bit-equal to one that never appended.

Two pools are driven through an *identical* seeded history — multi-cache
appends with token tracking, prefix adoption (shared blocks + CoW),
releases (parked and scrubbed blocks, freed-block reuse). Then the test
pool appends ``kept + dropped`` extra rows to a victim cache and rolls
``dropped`` back, while the oracle pool appends only ``kept``. Every
piece of pool state — float slabs, K/V plan arenas, fill, refcounts,
free-list *order*, prefix index, parked set, stats — must match bit-for-bit, and both pools must keep evolving identically
afterwards. This is the invariant speculative decoding's rejected-draft
rollback stands on.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.runtime.paging import BlockAllocator, PagedLayerCache

KV_HEADS = 2
HEAD_DIM = 8
BLOCK = 8
SEEDS = range(10)

#: Wall-clock timers are excluded from the bit-equality diff; every
#: counting stat must restore exactly.
TIMER_STATS = ("k_plan_s", "v_quant_s")


def _make_pool(bits):
    return BlockAllocator(
        KV_HEADS, HEAD_DIM, block_size=BLOCK, num_blocks=64, bits=bits
    )


def _rows(rng, t):
    return (
        rng.normal(size=(t, KV_HEADS, HEAD_DIM)),
        rng.normal(size=(t, KV_HEADS, HEAD_DIM)),
    )


def assert_pools_bit_equal(a: BlockAllocator, b: BlockAllocator) -> None:
    assert a.capacity == b.capacity
    names = a._FLOAT_ARRAYS + (a._QUANT_ARRAYS if a.bits is not None else ())
    for name in names:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert a._free == b._free, "free-list order must restore exactly"
    assert a._in_use == b._in_use
    assert a._ever_used == b._ever_used
    assert a._alloc_first_use == b._alloc_first_use
    np.testing.assert_array_equal(a._fill, b._fill)
    np.testing.assert_array_equal(a._refcount, b._refcount)
    assert a._prefix_index == b._prefix_index
    assert a._block_key == b._block_key
    assert a._block_tokens == b._block_tokens
    assert list(a._cached_free) == list(b._cached_free), "LRU park order"
    for key in a.stats:
        if key in TIMER_STATS:
            continue
        assert a.stats[key] == b.stats[key], f"stats[{key!r}]"


def assert_lazy_state_equal(a: BlockAllocator, b: BlockAllocator) -> None:
    """Refresh the V arenas of every live or parked block of both
    pools, then compare the plan arenas (stamps may differ before the
    refresh — rollback resets an arena the oracle still holds; both
    must rebuild bit-identically). Mutates plan-work stats, so call
    after the stats diff."""
    if a.bits is None:
        return
    for pool in (a, b):
        live = sorted(pool._in_use | set(pool._cached_free))
        pool.refresh_v_arenas(live)
    for name in a._QUANT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


def assert_caches_equal(a: PagedLayerCache, b: PagedLayerCache) -> None:
    assert a.block_ids == b.block_ids
    assert a.length == b.length
    assert a._tokens == b._tokens
    assert a._chain == b._chain


class _MirroredPools:
    """Drive two pools through one op stream; burst+rollback on `test`
    only, `kept`-row append on `oracle`."""

    def __init__(self, bits, seed):
        self.rng = np.random.default_rng(seed)
        self.test = _make_pool(bits)
        self.oracle = _make_pool(bits)
        self.caches: list[tuple[PagedLayerCache, PagedLayerCache]] = []
        self.next_token = 0

    def new_cache(self, layer=0):
        pair = (
            PagedLayerCache(self.test, layer=layer),
            PagedLayerCache(self.oracle, layer=layer),
        )
        self.caches.append(pair)
        return pair

    def append(self, pair, t, tracked=True):
        state = self.rng.bit_generator.state
        tokens = np.arange(self.next_token, self.next_token + t)
        self.next_token += t
        for cache in pair:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            k, v = _rows(rng, t)
            cache.append(k, v, token_ids=tokens if tracked else None)

    def adopt_clone(self, pair, upto):
        """New cache pair adopting the first *upto* tokens of *pair* —
        produces shared blocks (and CoW on the next append)."""
        src_test, _ = pair
        tokens = src_test._tokens[:upto]
        chain_t = self.test.match_prefix(0, tokens)
        chain_o = self.oracle.match_prefix(0, tokens)
        covered = sum(f for _, f in chain_t)
        assert covered == sum(f for _, f in chain_o)
        if covered == 0:
            return None
        new_t, new_o = self.new_cache()
        new_t.adopt_prefix(chain_t, tokens[:covered])
        new_o.adopt_prefix(chain_o, tokens[:covered])
        return (new_t, new_o)

    def release(self, pair):
        pair[0].release()
        pair[1].release()
        self.caches.remove(pair)

    def common_history(self, steps=8):
        for _ in range(steps):
            roll = self.rng.random()
            if roll < 0.5 or not self.caches:
                if len(self.caches) < 4:
                    pair = self.new_cache()
                    self.append(pair, int(self.rng.integers(1, 2 * BLOCK)))
                else:
                    pair = self.caches[
                        int(self.rng.integers(len(self.caches)))
                    ]
                    self.append(pair, int(self.rng.integers(1, BLOCK)))
            elif roll < 0.7 and len(self.caches) > 1:
                self.release(
                    self.caches[int(self.rng.integers(len(self.caches)))]
                )
            else:
                src = self.caches[int(self.rng.integers(len(self.caches)))]
                if src[0].length > 1:
                    upto = int(self.rng.integers(1, src[0].length + 1))
                    self.adopt_clone(src, upto)

    def burst_and_rollback(self):
        """The property under test, on a random victim."""
        candidates = [p for p in self.caches if p[0].length >= 1]
        if not candidates:
            pair = self.new_cache()
            self.append(pair, int(self.rng.integers(1, BLOCK)))
            candidates = [pair]
        victim_t, victim_o = candidates[
            int(self.rng.integers(len(candidates)))
        ]
        trailing = victim_t.block_ids[-1]
        cow_pending = (
            self.test.refcount(trailing) > 1
            and victim_t.length % BLOCK != 0
        )
        kept = int(self.rng.integers(1 if cow_pending else 0, 4))
        dropped = int(self.rng.integers(1, 2 * BLOCK))
        # Keep the round-trip within current storage: a burst that grew
        # the pool (or evicted a parked block) is not undoable and the
        # engine's speculative step guards headroom the same way.
        need = -(-(victim_t.length % BLOCK + kept + dropped) // BLOCK)
        assert len(self.test._free) >= need

        state = self.rng.bit_generator.state
        tokens = np.arange(self.next_token, self.next_token + kept + dropped)
        self.next_token += kept + dropped
        rng_t = np.random.default_rng()
        rng_t.bit_generator.state = state
        k, v = _rows(rng_t, kept + dropped)
        row_by_row = self.rng.random() < 0.5
        if row_by_row:
            for i in range(kept + dropped):
                victim_t.append(k[i], v[i], token_ids=tokens[i: i + 1])
        else:
            victim_t.append(k, v, token_ids=tokens)
        victim_t.truncate_rows(dropped)
        if kept:
            victim_o.append(k[:kept], v[:kept], token_ids=tokens[:kept])
        return victim_t, victim_o


@pytest.mark.parametrize("bits", [4, None], ids=["int4", "float"])
class TestTruncateRoundTripFuzz:
    def test_pool_bit_equal_to_never_appended(self, bits):
        for seed in SEEDS:
            world = _MirroredPools(bits, seed)
            world.common_history()
            vt, vo = world.burst_and_rollback()
            assert_caches_equal(vt, vo)
            assert_pools_bit_equal(world.test, world.oracle)

    def test_pools_keep_evolving_identically_after_rollback(self, bits):
        for seed in SEEDS:
            world = _MirroredPools(bits, seed)
            world.common_history(steps=5)
            world.burst_and_rollback()
            world.common_history(steps=5)
            world.burst_and_rollback()
            assert_pools_bit_equal(world.test, world.oracle)
            for ct, co in world.caches:
                assert_caches_equal(ct, co)
            assert_lazy_state_equal(world.test, world.oracle)


class TestTruncateContracts:
    def test_full_rollback_restores_virgin_pool(self):
        pool = _make_pool(4)
        virgin = _make_pool(4)
        cache = PagedLayerCache(pool, layer=0)
        rng = np.random.default_rng(0)
        k, v = _rows(rng, 3 * BLOCK - 2)
        cache.append(k, v, token_ids=np.arange(3 * BLOCK - 2))
        cache.truncate_rows(3 * BLOCK - 2)
        assert cache.length == 0 and cache.block_ids == []
        assert_pools_bit_equal(pool, virgin)

    def test_partial_block_truncate_restores_registration(self):
        pool = _make_pool(4)
        cache = PagedLayerCache(pool, layer=0)
        rng = np.random.default_rng(1)
        k, v = _rows(rng, 5)
        cache.append(k, v, token_ids=np.arange(5))
        key_before = dict(pool._block_key)
        index_before = dict(pool._prefix_index)
        k2, v2 = _rows(rng, 2)
        cache.append(k2, v2, token_ids=np.arange(5, 7))
        cache.truncate_rows(2)
        assert pool._block_key == key_before
        assert pool._prefix_index == index_before
        # The restored entry is adoptable again.
        assert pool.match_prefix(0, list(range(5)))

    def test_truncate_more_than_length_rejected(self):
        pool = _make_pool(4)
        cache = PagedLayerCache(pool)
        k, v = _rows(np.random.default_rng(2), 3)
        cache.append(k, v)
        with pytest.raises(ServingError):
            cache.truncate_rows(4)
        with pytest.raises(ServingError):
            cache.truncate_rows(-1)
        cache.truncate_rows(0)  # no-op
        assert cache.length == 3

    def test_shared_trailing_block_refused(self):
        pool = _make_pool(4)
        a = PagedLayerCache(pool, layer=0)
        rng = np.random.default_rng(3)
        k, v = _rows(rng, 5)
        a.append(k, v, token_ids=np.arange(5))
        chain = pool.match_prefix(0, list(range(5)))
        b = PagedLayerCache(pool, layer=0)
        b.adopt_prefix(chain, list(range(5)))
        with pytest.raises(ServingError):
            a.truncate_rows(1)

    def test_pool_level_truncate_validation(self):
        pool = _make_pool(4)
        bid = pool.allocate()
        k, v = _rows(np.random.default_rng(4), 3)
        pool.write_rows(bid, k, v)
        with pytest.raises(ServingError):
            pool.truncate_rows(bid, 4)
        with pytest.raises(ServingError):
            pool.truncate_rows(bid, -1)
        with pytest.raises(ServingError):
            pool.truncate_rows(99, 0)

    def test_append_rows_then_truncate_round_trip(self):
        # The batched-append path (one row into each of several
        # distinct blocks) rolls back the same way.
        pool = _make_pool(4)
        virgin = _make_pool(4)
        rng = np.random.default_rng(5)
        bids = [pool.allocate() for _ in range(3)]
        vids = [virgin.allocate() for _ in range(3)]
        k, v = _rows(rng, 3)
        seed_k, seed_v = _rows(rng, 3)
        pool.write_rows(bids[0], seed_k, seed_v)
        virgin.write_rows(vids[0], seed_k, seed_v)
        pool.append_rows(bids, k, v)
        for bid in bids:
            pool.truncate_rows(bid, int(pool._fill[bid]) - 1)
        assert_pools_bit_equal(pool, virgin)
