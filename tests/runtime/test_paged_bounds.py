"""A corrupt block table is an error, not a read out of bounds.

The numpy body of the paged attention executor gathers ``arena[ids]``,
and numpy raises ``IndexError`` on an id past the pool's capacity; the
compiled body (``lut_rows_paged``) follows the same ids through raw
pointers, so it checks them first. On both bodies (this module is in
``BOTH_BODIES``): a bad id raises ``IndexError``, no arena, block table
or free list changes, and the process is still there to assert it.
"""

import numpy as np
import pytest

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
        (pool._ka_flat, pool._ka_scale, pool._ka_zero), REPEAT,
    )


def _context_operands(pool, rng, ids, counts):
    config = LutMpGemmConfig(k=pool.lut_k)
    p2 = rng.random(size=(ids.size * KV * REPEAT, BLOCK))
    sums = p2.reshape(-1, BLOCK // pool.lut_k, pool.lut_k).sum(axis=-1)
    return (
        precompute_tables(p2, config), sums, ids,
        (pool._va_flat, pool._va_scale, pool._va_zero), REPEAT, counts,
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
        """A negative id (numpy indexes from the end), a count outside
        ``[1, max_blocks]`` and a flat index outside the table."""
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
        width = (HD // pool.lut_k) * (1 << pool.lut_k)  # G · 2E
        for bad_flat in (width, -1):
            flat = pool._ka_flat.copy()
            flat[ids[2, 1], 1, 3, 0, 2] = bad_flat
            operands = _score_operands(pool, queries, ids)
            with pytest.raises(IndexError):
                paged_lut_execute(
                    BLOCKED, *operands[:3], (flat, *operands[3][1:]), REPEAT
                )

    def test_operands_the_routine_does_not_take_run_the_numpy_body(
        self, served
    ):
        """Anything but int64 C-contiguous ids (and the rest of
        ``_paged_handles``) falls back; the result is the same."""
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
