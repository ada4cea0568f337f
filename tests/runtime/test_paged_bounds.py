"""A corrupt block table is an error, not a read or write out of bounds.

The numpy body of the paged attention executor gathers ``arena[ids]``,
and numpy raises ``IndexError`` on an id past the pool's capacity; the
compiled body (``lut_block``) follows the same ids through raw
pointers, so it checks them first. On both bodies (this module is in
``BOTH_BODIES``): a bad id raises ``IndexError``, no arena, block table
or free list changes, and the process is still there to assert it. The
pool's writer (``kv_append`` / ``kv_refresh``) writes through block ids
and offsets the same way: the pool refuses a bad one before either body
runs, and the compiled writer refuses it again before its first write.
An index byte reaches the pool only from its writers or from a swap
payload, and the pool refuses a payload holding one at or past
``2**lut_k`` before it allocates.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.kernels import (
    effective_activations,
    get_backend,
    native,
    paged_lut_execute,
)
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
)

KV, HD, BLOCK, REPEAT = 2, 8, 16, 2
BLOCKED = get_backend("lut-blocked")


@pytest.fixture
def served():
    """A pool with three sequences of 1-3 blocks and a decode's queries."""
    rng = np.random.default_rng(11)
    pool = BlockAllocator(KV, HD, BLOCK, bits=4)
    caches = []
    for length in (5, 20, 40):
        cache = PagedLayerCache(pool)
        cache.append(
            rng.normal(size=(length, KV, HD)), rng.normal(size=(length, KV, HD))
        )
        caches.append(cache)
    queries = rng.normal(size=(len(caches), KV * REPEAT, HD))
    fused_paged_decode_attention(queries, caches, repeat=REPEAT)  # V arenas
    return pool, caches, queries


def _snapshot(pool, caches):
    return (
        {name: getattr(pool, name).copy() for name in pool._resident},
        list(pool._free), set(pool._in_use), pool.used_blocks,
        [list(cache.block_ids) for cache in caches],
    )


def _assert_untouched(pool, caches, before):
    arrays, free, in_use, used, tables = before
    for name, array in arrays.items():
        assert getattr(pool, name).tobytes() == array.tobytes(), name
    assert (pool._free, pool._in_use, pool.used_blocks) == (free, in_use, used)
    assert [list(cache.block_ids) for cache in caches] == tables


def _score_operands(pool, queries, ids):
    config = LutMpGemmConfig(k=pool.lut_k)
    q2 = queries.reshape(-1, HD)
    sums = effective_activations(q2, config).reshape(
        -1, HD // pool.lut_k, pool.lut_k
    ).sum(axis=-1)
    return (
        precompute_tables(q2, config), sums, ids,
        (pool._ka_idx, pool._ka_scale, pool._ka_zero), REPEAT,
    )


def _context_operands(pool, rng, ids, counts):
    config = LutMpGemmConfig(k=pool.lut_k)
    p2 = rng.random(size=(ids.size * KV * REPEAT, BLOCK))
    sums = p2.reshape(-1, BLOCK // pool.lut_k, pool.lut_k).sum(axis=-1)
    return (
        precompute_tables(p2, config), sums, ids,
        (pool._va_idx, pool._va_scale, pool._va_zero), REPEAT, counts,
    )


def _block_table(caches):
    counts = np.array([len(c.block_ids) for c in caches], dtype=np.int64)
    ids = np.zeros((len(caches), counts.max()), dtype=np.int64)
    for row, cache in enumerate(caches):
        ids[row, :counts[row]] = cache.block_ids
    return ids, counts


class TestExecutorBounds:
    def test_block_id_past_capacity_raises(self, served, lut_body):
        pool, caches, queries = served
        ids, counts = _block_table(caches)
        before = _snapshot(pool, caches)
        for bad in (pool.capacity, pool.capacity + 1000, 2**62):
            for row, col in ((0, 0), (2, 2), (0, 2)):  # live, live, pad
                corrupt = ids.copy()
                corrupt[row, col] = bad
                with pytest.raises(IndexError):
                    paged_lut_execute(
                        BLOCKED, *_score_operands(pool, queries, corrupt)
                    )
                with pytest.raises(IndexError):
                    paged_lut_execute(BLOCKED, *_context_operands(
                        pool, np.random.default_rng(0), corrupt, counts
                    ))
        assert BLOCKED.last_paged_body == (lut_body or "compiled")
        _assert_untouched(pool, caches, before)
        # The same call with the table it was given still works.
        paged_lut_execute(BLOCKED, *_score_operands(pool, queries, ids))

    def test_compiled_body_refuses_what_numpy_wraps_or_ignores(self, served):
        """A negative id (numpy indexes from the end) and a count outside
        ``[1, max_blocks]``; an index byte past ``2**lut_k``, which the
        numpy body's fold lookup raises on, reads inside the table."""
        if not native.status()["loaded"]:
            pytest.skip("the numpy body wraps a negative id silently")
        pool, caches, queries = served
        ids, counts = _block_table(caches)
        before = _snapshot(pool, caches)
        rng = np.random.default_rng(1)
        corrupt = ids.copy()
        corrupt[1, 0] = -1
        with pytest.raises(IndexError):
            paged_lut_execute(BLOCKED, *_score_operands(pool, queries, corrupt))
        for bad_count in (0, -3, ids.shape[1] + 1):
            bad = counts.copy()
            bad[1] = bad_count
            with pytest.raises(IndexError):
                paged_lut_execute(
                    BLOCKED, *_context_operands(pool, rng, ids, bad)
                )
        assert BLOCKED.last_paged_body == "compiled"
        _assert_untouched(pool, caches, before)
        idx = pool._ka_idx.copy()
        idx[ids[2, 1], 1, 3, 0, 2] = 255
        operands = _score_operands(pool, queries, ids)
        out = paged_lut_execute(
            BLOCKED, *operands[:3], (idx, *operands[3][1:]), REPEAT
        )
        assert np.isfinite(out).all()

    def test_operands_the_routine_does_not_take_run_the_numpy_body(
        self, served
    ):
        """Anything but int64 C-contiguous ids (and the rest of
        ``_compiled_takes``) falls back; the result is the same."""
        pool, caches, queries = served
        ids, counts = _block_table(caches)
        operands = _score_operands(pool, queries, ids)
        want = paged_lut_execute(BLOCKED, *operands)
        for other in (ids.astype(np.int32), np.asfortranarray(ids)):
            got = paged_lut_execute(
                BLOCKED, *operands[:2], other, *operands[3:]
            )
            assert BLOCKED.last_paged_body == "numpy"
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        naive = get_backend("lut-naive")
        got = paged_lut_execute(naive, *operands)
        assert not hasattr(naive, "last_paged_body")
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


class TestRestoreBounds:
    @pytest.mark.parametrize("name", ["_ka_idx", "_va_idx"])
    def test_restore_refuses_an_index_past_the_table(
        self, served, lut_body, name
    ):
        """Bytes at or past ``2**lut_k`` name no entry of a group's table;
        the payload is refused before any block is allocated, and a
        payload holding the largest legal index restores."""
        pool, caches, queries = served
        payload = caches[2].serialize()
        top = 1 << pool.lut_k
        for bad in (top, 255):
            corrupt = {
                **payload,
                "blocks": [dict(bp) for bp in payload["blocks"]],
            }
            arena = payload["blocks"][1][name].copy()
            arena[1, 2, 0, 3] = bad
            corrupt["blocks"][1][name] = arena
            assert not pool.accepts(corrupt)
            before = _snapshot(pool, caches)
            with pytest.raises(ServingError, match="block format"):
                PagedLayerCache.restore(pool, corrupt)
            _assert_untouched(pool, caches, before)
        payload["blocks"][1][name][1, 2, 0, 3] = top - 1
        restored = PagedLayerCache.restore(pool, payload)
        fused_paged_decode_attention(
            queries[:1], [restored], repeat=REPEAT, backend="lut-blocked"
        )
        assert BLOCKED.last_paged_body == (lut_body or "compiled")


class TestAttentionBounds:
    @pytest.mark.parametrize("backend", ["lut-blocked", "lut-naive"])
    def test_corrupt_block_table_raises_and_leaves_the_pool_alone(
        self, served, backend
    ):
        pool, caches, queries = served
        want = fused_paged_decode_attention(
            queries, caches, repeat=REPEAT, backend=backend
        )
        before = _snapshot(pool, caches)
        real = caches[1].block_ids[1]
        caches[1].block_ids[1] = pool.capacity + 3
        with pytest.raises(IndexError):
            fused_paged_decode_attention(
                queries, caches, repeat=REPEAT, backend=backend
            )
        with pytest.raises(IndexError):
            fused_paged_verify_attention(
                queries[:, None], caches, [c.length - 1 for c in caches],
                repeat=REPEAT, backend=backend,
            )
        caches[1].block_ids[1] = real
        _assert_untouched(pool, caches, before)
        got = fused_paged_decode_attention(
            queries, caches, repeat=REPEAT, backend=backend
        )
        assert got.tobytes() == want.tobytes()


class TestWriterBounds:
    """A bad block id or offset on an append or a V refresh raises and
    changes nothing, on either body."""

    def test_append_and_refresh_refuse_ids_outside_the_pool(self, served):
        pool, caches, _ = served
        before = _snapshot(pool, caches)
        row = np.zeros((1, KV, HD))
        for bad in (pool.capacity, pool.capacity + 1000, -1):
            live = caches[0].block_ids[-1]  # room left: fill 5
            with pytest.raises(IndexError):
                pool.append_rows([live, bad], *np.zeros((2, 2, KV, HD)))
            with pytest.raises(IndexError):
                pool.write_rows(bad, row, row)
            with pytest.raises(IndexError):
                pool.refresh_v_arenas([live, bad])
        _assert_untouched(pool, caches, before)

    def test_append_refuses_a_corrupt_fill(self, served):
        pool, caches, _ = served
        bid = caches[0].block_ids[-1]
        pool._fill[bid] = -1
        before = _snapshot(pool, caches)
        row = np.zeros((1, KV, HD))
        with pytest.raises(IndexError):
            pool.append_rows([bid], row, row)
        with pytest.raises(IndexError):
            pool.write_rows(bid, row, row)
        _assert_untouched(pool, caches, before)

    @pytest.mark.parametrize(
        "bid, off", [("capacity", 0), (0, BLOCK), (0, -1), (-1, 0)]
    )
    def test_land_rows_refuses_a_bad_slot(self, served, lut_body, bid, off):
        """Past the pool's own checks: the slot itself. numpy indexes a
        negative id or offset from the end, so only the compiled writer
        refuses those."""
        pool, caches, _ = served
        if lut_body == "numpy" and -1 in (bid, off):
            pytest.skip("the numpy body wraps a negative id or offset")
        bid = pool.capacity if bid == "capacity" else bid
        before = _snapshot(pool, caches)
        live = caches[1].block_ids[-1]
        bids = np.array([live, bid], dtype=np.int64)
        offs = np.array([int(pool._fill[live]), off], dtype=np.int64)
        with pytest.raises(IndexError):
            pool._land_rows(bids, offs, *np.ones((2, 2, KV, HD)))
        _assert_untouched(pool, caches, before)

    def test_compiled_refresh_refuses_a_bad_id(self, served, lut_body):
        pool, caches, _ = served
        if lut_body == "numpy":
            pytest.skip("the pool's own check is all the numpy body has")
        before = _snapshot(pool, caches)
        for bad in (pool.capacity, -1):
            ids = np.array([caches[2].block_ids[0], bad], dtype=np.int64)
            with pytest.raises(IndexError):
                pool._kv_compiled(native.kv_refresh(), ids.ctypes.data, 2)
        _assert_untouched(pool, caches, before)
