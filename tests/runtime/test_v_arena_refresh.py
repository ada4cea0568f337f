"""Stacked V-arena refresh and one-quantize K append.

:meth:`BlockAllocator.refresh_v_arenas` rebuilds every stale block of a
request with one stacked quantize + column build;
:meth:`PagedLayerCache.append` quantizes each block's share of a
prompt's K rows once. Both lean on the same argument — scales are per weight row and
every lookup column is per output column, so stacking changes no value.
The property below pins the V side against per-block, per-head
``quantize_weights`` → ``build_weight_plan`` plans over random pools;
the call-count tests pin that the
batching is really one call on the shared quantize core or the compiled
writer (a per-block loop fails them), that each KV head's query heads
share one gathered row (a per-head gather fails them) and that no
``WeightPlan`` is built on the fused step.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
import repro.runtime.paging as paging
from repro.errors import LutError, QuantizationError
from repro.kernels import build_weight_plan
from repro.quant.weight import quantize_weights
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    batched_decode_append,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
)
from tests.runtime.oracle import assert_parity, oracle_attention

#: The V lookup-column arenas the context dispatch reads, and with the
#: fill stamp, everything ``refresh_v_arenas`` writes.
_V_COLUMNS = ("_va_idx", "_va_scale", "_va_zero")
_V_STATE = ("_va_fill",) + _V_COLUMNS


def _rows(rng, n, pool):
    return rng.normal(size=(2, n, pool.kv_heads, pool.head_dim))


def _cache(pool, rng, length):
    cache = PagedLayerCache(pool)
    cache.append(*_rows(rng, length, pool))
    return cache


def _assert_arena_matches_per_head_plans(pool, bid):
    """Block *bid*'s arena slabs equal its per-head plans, built from the
    float slab alone, one head at a time, through ``quantize_weights`` →
    ``build_weight_plan``."""
    assert pool._va_fill[bid] == pool._fill[bid]
    for h in range(pool.kv_heads):
        _, plan = _plan_of(
            pool._v[bid, h].T, pool.bits, pool._v_group, pool.lut_k
        )
        np.testing.assert_array_equal(
            pool._va_idx[bid, h], plan.indices, strict=True
        )
        np.testing.assert_array_equal(pool._va_scale[bid, h], plan.scale_gn)
        np.testing.assert_array_equal(pool._va_zero[bid, h], plan.zero_gn)


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
        # truncated one (reset to never-built if its arena saw the dead
        # rows) and a freed-and-reused one (scrubbed to never-built).
        pool.refresh_v_arenas(
            data.draw(st.lists(st.sampled_from(sorted(pool._in_use))))
        )
        if caches[0].length % block_size:
            caches[0].append(*_rows(rng, 1, pool))
        caches[1].truncate_rows(
            data.draw(st.integers(0, min(caches[1].length - 1, block_size)))
        )
        caches[2].release()
        caches[2] = _cache(pool, rng, data.draw(st.integers(1, block_size)))

        live = sorted(pool._in_use)
        request = data.draw(st.lists(st.sampled_from(live), max_size=12))
        stale = {b for b in request if pool._va_fill[b] != pool._fill[b]}
        before = {name: getattr(pool, name).copy() for name in _V_STATE}
        cols = pool.stats["v_quant_cols"]

        pool.refresh_v_arenas(request)

        assert pool.stats["v_quant_cols"] - cols == (
            len(stale) * block_size * kv_heads
        )
        # Only the stale blocks' arenas change.
        untouched = np.setdiff1d(np.arange(pool.capacity), sorted(stale))
        for name in _V_STATE:
            np.testing.assert_array_equal(
                getattr(pool, name)[untouched], before[name][untouched],
                err_msg=name,
            )
        for bid in set(request):
            _assert_arena_matches_per_head_plans(pool, bid)

        # Everything requested is fresh now: asking again, or for
        # nothing, does no work and writes nothing.
        after = {name: getattr(pool, name).copy() for name in _V_STATE}
        cols = pool.stats["v_quant_cols"]
        pool.refresh_v_arenas(request)
        pool.refresh_v_arenas([])
        assert pool.stats["v_quant_cols"] == cols
        for name in _V_STATE:
            np.testing.assert_array_equal(
                getattr(pool, name), after[name], err_msg=name
            )

    @pytest.mark.parametrize("first", ["lut-blocked", "reference"])
    def test_alternating_backends_share_one_pool(self, first):
        """``lut-blocked`` and ``reference`` dispatches alternate on one
        pool across appends. Both run the LUT attention over the same V
        arenas under one fill stamp: whichever dispatches second at a
        step finds every arena fresh, requantizes nothing and returns
        the first one's bytes."""
        rng = np.random.default_rng(11)
        pool = BlockAllocator(2, 8, 8, bits=4)
        caches = [_cache(pool, rng, n) for n in (3, 8, 13)]
        backends = [first] + [
            name for name in ("lut-blocked", "reference") if name != first
        ]
        for step in range(12):
            queries = rng.normal(size=(3, 4, 8))
            lead, follow = backends[step % 2], backends[1 - step % 2]
            got = fused_paged_decode_attention(
                queries, caches, repeat=2, backend=lead
            )
            want = np.stack([
                oracle_attention(queries[i], cache, repeat=2, backend=lead)
                for i, cache in enumerate(caches)
            ])
            assert_parity(got, want, lead, msg=f"step {step}")
            trailing = [c.block_ids[-1] for c in caches]
            np.testing.assert_array_equal(
                pool._va_fill[trailing], pool._fill[trailing]
            )
            cols = pool.stats["v_quant_cols"]
            again = fused_paged_decode_attention(
                queries, caches, repeat=2, backend=follow
            )
            assert pool.stats["v_quant_cols"] == cols, f"step {step}"
            assert again.tobytes() == got.tobytes(), f"step {step}"
            batched_decode_append(caches, *_rows(rng, 3, pool))


@st.composite
def _column_cases(draw):
    bits = draw(st.sampled_from([2, 4, 8]))
    lut_k = draw(st.sampled_from([2, 4]))
    head_dim = draw(st.sampled_from([4, 8, 16, 32]))  # 32: two K groups
    block_size = draw(st.sampled_from([4, 16, 32]))
    kv_heads = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    return bits, lut_k, head_dim, block_size, kv_heads, seed


def _plan_of(weight, bits, group, lut_k):
    """The oracle chain for one ``(n, K)`` weight: per-row scales (per
    *group* columns when set), then the offline plan."""
    kwargs = dict(axis=1, group_size=group) if group else dict(axis=0)
    qw = quantize_weights(weight, bits, **kwargs)
    return qw, build_weight_plan(qw, lut_k)


class TestDirectColumns:
    """The pool's direct column build against ``quantize_weights`` →
    ``build_weight_plan`` → ``indices`` / ``scale_gn`` / ``zero_gn``, one
    head at a time."""

    @given(_column_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_k_columns_equal_plan_chain(self, cfg, data):
        bits, lut_k, head_dim, block_size, kv_heads, seed = cfg
        rng = np.random.default_rng(seed)
        pool = BlockAllocator(
            kv_heads, head_dim, block_size, bits=bits, lut_k=lut_k
        )
        rows = data.draw(st.integers(1, 5))
        k_rows = rng.normal(size=(rows, kv_heads, head_dim))
        constant = data.draw(st.lists(st.integers(0, rows - 1), max_size=2))
        for r in constant:
            k_rows[r, 0] = rng.normal()  # span 0 -> scale 1.0
        idx, a_scale, a_zero = pool._k_columns(k_rows)
        for r in range(rows):
            for h in range(kv_heads):
                _, plan = _plan_of(
                    k_rows[r, h][None], bits, pool._k_group, lut_k
                )
                at = f"row {r} head {h}"
                np.testing.assert_array_equal(
                    idx[r, h], plan.indices[..., 0], at
                )
                np.testing.assert_array_equal(
                    a_scale[r, h], plan.scale_gn[:, 0], at
                )
                np.testing.assert_array_equal(
                    a_zero[r, h], plan.zero_gn[:, 0], at
                )
        for r in constant:
            assert (a_scale[r, 0] == 0.5).all()  # scale 1.0, halved

    @given(_column_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_v_arena_columns_equal_plan_chain(self, cfg, data):
        bits, lut_k, head_dim, block_size, kv_heads, seed = cfg
        rng = np.random.default_rng(seed)
        pool = BlockAllocator(
            kv_heads, head_dim, block_size, bits=bits, lut_k=lut_k
        )
        slabs = data.draw(st.integers(1, 3))
        v = rng.normal(size=(slabs, kv_heads, block_size, head_dim))
        for c in range(slabs):  # zero-padded partial slabs
            v[c, :, data.draw(st.integers(1, block_size)):] = 0.0
        if data.draw(st.booleans()):
            v[0, 0, :, 0] = rng.normal()  # constant weight row
        idx, a_scale, a_zero = pool._v_arena_columns(v)
        for c in range(slabs):
            for h in range(kv_heads):
                _, plan = _plan_of(v[c, h].T, bits, pool._v_group, lut_k)
                at = f"slab {c} head {h}"
                np.testing.assert_array_equal(
                    idx[c, h], plan.indices, at
                )
                np.testing.assert_array_equal(a_scale[c, h], plan.scale_gn, at)
                np.testing.assert_array_equal(a_zero[c, h], plan.zero_gn, at)

    def test_error_paths_keep_their_types(self):
        # A scale group that is not whole lookup groups: the scale would
        # vary inside a k-group (KV_GROUP = 16 against lut_k = 3).
        rng = np.random.default_rng(8)
        pool = BlockAllocator(1, 48, 48, bits=4, lut_k=3)
        with pytest.raises(LutError):
            pool._k_columns(rng.normal(size=(2, 1, 48)))
        with pytest.raises(LutError):
            pool._v_arena_columns(rng.normal(size=(1, 1, 48, 48)))
        pool = BlockAllocator(2, 8, 16, bits=4)
        with pytest.raises(QuantizationError):  # empty tensor
            pool._k_columns(np.zeros((0, 2, 8)))
        with pytest.raises(QuantizationError):
            pool._v_arena_columns(np.zeros((0, 2, 16, 8)))


def _compiled_weight(pool, fn, n) -> tuple[int, int, int]:
    """``(rows, scale groups, group length)`` of the weight one compiled
    writer call quantizes: *n* K rows (``kv_append``) or the V slabs of
    *n* blocks (``kv_refresh``)."""
    if fn.__name__ == "kv_append":
        rows, length, group = n * pool.kv_heads, pool.head_dim, pool._k_group
    else:
        rows = n * pool.kv_heads * pool.head_dim
        length, group = pool.block_size, pool._v_group
    group = group or length
    return rows, length // group, group


@pytest.fixture
def quantize_calls(monkeypatch):
    """Shapes of every weight the pool quantizes in one call, ``(rows,
    scale groups, group length)``, on either body: what the numpy body
    sends through the shared quantize core, or what one compiled writer
    call covers."""
    calls = []
    real = paging.affine_quantize
    real_compiled = BlockAllocator._kv_compiled

    def counting(weights, *args, **kwargs):
        calls.append(np.shape(weights))
        return real(weights, *args, **kwargs)

    def counting_compiled(pool, fn, *args):
        calls.append(_compiled_weight(pool, fn, args[-1]))
        return real_compiled(pool, fn, *args)

    monkeypatch.setattr(paging, "affine_quantize", counting)
    monkeypatch.setattr(BlockAllocator, "_kv_compiled", counting_compiled)
    return calls


class _Dispatches(list):
    """Dispatch shapes; ``columns`` holds the arrays each one read."""

    def __init__(self):
        super().__init__()
        self.columns = []

    def clear(self):
        super().clear()
        self.columns.clear()


@pytest.fixture
def gather_calls(monkeypatch):
    """``(weight rows R, shared activation rows M)`` of every fused LUT
    dispatch (either body: the paged executor is the seam both share),
    and in ``gather_calls.columns`` the column arrays each was handed."""
    calls = _Dispatches()
    real = paging.paged_lut_execute

    def counting(kernel, table, sums, ids, columns, repeat, counts=None):
        rows = ids.shape[0] * columns[0].shape[1] * (
            1 if counts is None else ids.shape[1]
        )
        assert len(table) % rows == 0
        calls.append((rows, len(table) // rows))
        calls.columns.append(tuple(columns))
        return real(kernel, table, sums, ids, columns, repeat, counts)

    monkeypatch.setattr(paging, "paged_lut_execute", counting)
    return calls


class TestOneQuantizePerCall:
    KV, HD, BLOCK = 2, 8, 16

    @pytest.mark.parametrize("repeat", [1, 2])
    def test_one_v_quantize_per_fused_decode_attention(
        self, quantize_calls, gather_calls, repeat
    ):
        rng = np.random.default_rng(3)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        lengths = [1, 5, 16, 17, 30, 33, 40, 48]  # B = 8, 1-3 blocks each
        caches = [_cache(pool, rng, n) for n in lengths]
        queries = rng.normal(size=(8, self.KV * repeat, self.HD))
        for step in range(3):
            quantize_calls.clear()
            gather_calls.clear()
            fused_paged_decode_attention(
                queries, caches, repeat=repeat, backend="lut-blocked"
            )
            # Step 0 finds every block of every prompt stale, later
            # steps one trailing block per sequence: one call either way.
            stale = sum(-(-n // self.BLOCK) for n in lengths) if step == 0 else 8
            assert quantize_calls == [
                (stale * self.KV * self.HD, 1, self.BLOCK)
            ]
            # One gathered row per KV head (score) / per KV head and
            # block (context), its query heads riding along as M.
            maxb = max(len(c.block_ids) for c in caches)
            assert gather_calls == [
                (8 * self.KV, repeat), (8 * self.KV * maxb, repeat)
            ]
            batched_decode_append(caches, *_rows(rng, 8, pool))
        quantize_calls.clear()
        for _ in range(2):
            fused_paged_decode_attention(
                queries, caches, repeat=repeat, backend="lut-blocked"
            )
        assert len(quantize_calls) == 1  # second call: nothing stale

    def test_one_k_quantize_per_block_of_a_prompt(self, quantize_calls):
        """A multi-block prompt lands block by block, each block's K rows
        in one quantize (numpy) or one writer call (compiled)."""
        rng = np.random.default_rng(4)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        rowwise = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        n = 3 * self.BLOCK + 5
        k, v = _rows(rng, 4 + n, pool)
        cache, oracle = PagedLayerCache(pool), PagedLayerCache(rowwise)
        cache.append(k[:4], v[:4])  # the prompt starts mid-block
        quantize_calls.clear()
        cache.append(k[4:], v[4:])
        assert quantize_calls == [
            (rows * self.KV, 1, self.HD) for rows in (12, 16, 16, 9)
        ]
        assert len(cache.block_ids) == 4
        # Same pool state as one append (one quantize) per row.
        for i in range(4 + n):
            oracle.append(k[i], v[i])
        for name in BlockAllocator._FLOAT_ARRAYS + BlockAllocator._QUANT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(pool, name), getattr(rowwise, name), err_msg=name
            )
        assert pool.stats["k_plan_cols"] == rowwise.stats["k_plan_cols"]

    def test_no_weight_plan_on_the_fused_step(self, monkeypatch):
        """A ``batched_decode_append`` + ``fused_paged_decode_attention``
        step builds its arena columns straight from the codes: zero
        ``build_weight_plan`` calls, wherever the name is bound."""
        import repro.kernels.plan as plan_module
        import tests.runtime.oracle as oracle

        assert not hasattr(paging, "build_weight_plan")
        calls = []
        for module in (repro.kernels, plan_module, oracle):
            real = module.build_weight_plan
            monkeypatch.setattr(
                module, "build_weight_plan",
                lambda *a, _real=real: calls.append(a) or _real(*a),
            )
        rng = np.random.default_rng(6)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        caches = [_cache(pool, rng, n) for n in (1, 5, 16, 17, 30, 33)]
        queries = rng.normal(size=(6, self.KV * 2, self.HD))
        for _ in range(3):
            batched_decode_append(caches, *_rows(rng, 6, pool))
            fused_paged_decode_attention(queries, caches, repeat=2)
        assert calls == []
        oracle_attention(queries[0], caches[0], repeat=2)  # the oracle does
        assert calls


@pytest.fixture
def masked_builds(monkeypatch):
    """The slab count of every V-arena build made outside
    ``refresh_v_arenas``: the attention's masked requantizations."""
    builds, refreshing = [], []
    real_refresh = BlockAllocator.refresh_v_arenas
    real_build = BlockAllocator._v_arena_columns

    def refresh(pool, *args, **kwargs):
        refreshing.append(True)
        try:
            return real_refresh(pool, *args, **kwargs)
        finally:
            refreshing.pop()

    def build(pool, v_slabs, *args, **kwargs):
        if not refreshing:
            builds.append(len(v_slabs))
        return real_build(pool, v_slabs, *args, **kwargs)

    monkeypatch.setattr(BlockAllocator, "refresh_v_arenas", refresh)
    monkeypatch.setattr(BlockAllocator, "_v_arena_columns", build)
    return builds


@pytest.mark.parametrize("backend", ["lut-naive", "lut-blocked"])
class TestContextReadsTheArenasInPlace:
    """Decode, and a verify whose rows all see their blocks' current
    fill, hand the pool's own arenas to both dispatches and requantize
    nothing outside the refresh; only a row whose time-j trailing block
    has grown since gets a masked build of its own, one block each."""

    KV, HD, BLOCK, REPEAT = 2, 8, 16, 2

    def _verify(self, rng, bases, t, backend):
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        caches = [_cache(pool, rng, n) for n in bases]
        for cache in caches:
            cache.append(*_rows(rng, t, pool))
        queries = rng.normal(
            size=(len(bases), t, self.KV * self.REPEAT, self.HD)
        )
        fused_paged_verify_attention(
            queries, caches, bases, repeat=self.REPEAT, backend=backend
        )
        return pool, max(len(c.block_ids) for c in caches)

    @staticmethod
    def _reads_the_pool(columns, pool, names) -> bool:
        return all(c is getattr(pool, name) for c, name in zip(columns, names))

    def _assert_in_place(self, pool, gather_calls):
        score, context = gather_calls.columns
        assert self._reads_the_pool(
            score, pool, ("_ka_idx", "_ka_scale", "_ka_zero")
        )
        assert self._reads_the_pool(
            context, pool, _V_COLUMNS
        )

    def test_decode(self, backend, gather_calls, masked_builds):
        rng = np.random.default_rng(12)
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        caches = [_cache(pool, rng, n) for n in (1, 15, 16, 17, 40)]
        fused_paged_decode_attention(
            rng.normal(size=(5, self.KV * self.REPEAT, self.HD)), caches,
            repeat=self.REPEAT, backend=backend,
        )
        self._assert_in_place(pool, gather_calls)
        assert masked_builds == []

    @pytest.mark.parametrize("bases, t", [
        ((15, 31, 47), 2),    # row 0 fills its block; row 1 starts one
        ((1, 16, 20), 1),
    ])
    def test_verify_of_rows_at_current_fill(
        self, backend, gather_calls, masked_builds, bases, t
    ):
        pool, maxb = self._verify(np.random.default_rng(13), bases, t, backend)
        self._assert_in_place(pool, gather_calls)
        assert masked_builds == []
        # The row-repeated table: B · T rows of every KV head and block.
        assert gather_calls[1] == (
            len(bases) * t * self.KV * maxb, self.REPEAT
        )

    def test_masked_rows_requantize_one_block_each(
        self, backend, gather_calls, masked_builds
    ):
        # T = 4 over 16-token blocks: 5 -> rows 0-2 masked (fills 6-8 of
        # 9); 14 -> row 0 (15 of 16) and row 2 (1 of 2), row 1 fills its
        # block; 16 -> rows 0-2 (1-3 of 4). The last row never is.
        pool, _ = self._verify(
            np.random.default_rng(14), (5, 14, 16), 4, backend
        )
        assert masked_builds == [3 + 2 + 3]
        _, context = gather_calls.columns
        assert not any(
            c is getattr(pool, name)
            for c, name in zip(context, _V_COLUMNS)
        )


@pytest.mark.parametrize("accepted", range(5))
def test_rollback_after_verify_leaves_a_never_speculated_pool(accepted):
    """Verify refreshes every live V arena at its current fill, and
    ``truncate_rows`` rolls the rejected rows back. From there the next
    decode step returns the same bytes as on a pool that only ever
    appended the *accepted* rows, and leaves every pool array
    byte-equal to that pool's: block by block through the tables (a
    rolled-back block freed mid-batch can shift later ids) and scrubbed
    everywhere else."""
    t, bases = 4, (5, 14, 16, 30)
    rng = np.random.default_rng(15)
    hist = [_rows(rng, n + t + 1, BlockAllocator(2, 8, 16)) for n in bases]
    q0, q1 = rng.normal(size=(2, len(bases), 4, 8))

    def world(rows):
        pool = BlockAllocator(2, 8, 16, num_blocks=12, bits=4)
        caches = []
        for n, (k, v) in zip(bases, hist):
            caches.append(PagedLayerCache(pool))
            caches[-1].append(k[:n], v[:n])
        fused_paged_decode_attention(q0, caches, repeat=2)
        for cache, n, (k, v) in zip(caches, bases, hist):
            if rows:
                cache.append(k[n:n + rows], v[n:n + rows])
        return pool, caches

    spec_pool, spec = world(t)
    fused_paged_verify_attention(
        rng.normal(size=(len(bases), t, 4, 8)), spec, bases, repeat=2
    )
    for cache in spec:
        cache.truncate_rows(t - accepted)
    plain_pool, plain = world(accepted)
    step = [np.stack([h[n + accepted] for h, n in zip(side, bases)])
            for side in zip(*hist)]
    outs = []
    for pool, caches in ((spec_pool, spec), (plain_pool, plain)):
        batched_decode_append(caches, *step)
        outs.append(fused_paged_decode_attention(q1, caches, repeat=2))
    np.testing.assert_array_equal(outs[0], outs[1])
    assert spec_pool._resident == plain_pool._resident
    for name in spec_pool._resident:
        arrays = []
        for pool, caches in ((spec_pool, spec), (plain_pool, plain)):
            arr = getattr(pool, name)
            free = sorted(set(range(pool.capacity)) - pool._in_use)
            np.testing.assert_array_equal(
                arr[free], pool._layout[name][2], err_msg=name
            )
            arrays.append([arr[c.block_ids] for c in caches])
        for got, want in zip(*arrays):
            np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.fixture
def slow_quantize(monkeypatch):
    """Every quantize the pool makes, on either body, takes >= 20 ms
    more."""
    real = paging.affine_quantize
    real_compiled = BlockAllocator._kv_compiled

    def slow(weights, *args, **kwargs):
        time.sleep(0.02)
        return real(weights, *args, **kwargs)

    def slow_compiled(pool, fn, *args):
        time.sleep(0.02)
        return real_compiled(pool, fn, *args)

    monkeypatch.setattr(paging, "affine_quantize", slow)
    monkeypatch.setattr(BlockAllocator, "_kv_compiled", slow_compiled)


def test_v_quant_timer_covers_quantize_on_both_paths(slow_quantize):
    """``v_quant_s`` times quantize + index build whether the work comes
    from an arena refresh or verify's masked requantization, on either
    body."""
    rng = np.random.default_rng(5)
    pool = BlockAllocator(2, 8, 16, bits=4)
    cache = _cache(pool, rng, 20)
    assert pool.stats["v_quant_s"] == 0.0
    pool.refresh_v_arenas(cache.block_ids)
    assert pool.stats["v_quant_s"] >= 0.02
    # Verify over a partial trailing block whose arenas are fresh at
    # the current fill: only row 0's masked build quantizes.
    cache.append(*_rows(rng, 2, pool))
    pool.refresh_v_arenas(cache.block_ids)
    pool.stats["v_quant_s"] = 0.0
    fused_paged_verify_attention(
        rng.normal(size=(1, 2, 2, 8)), [cache], [20]
    )
    assert pool.stats["v_quant_s"] >= 0.02


@pytest.mark.parametrize("batched", [False, True])
def test_k_plan_timer_covers_quantize_on_both_paths(slow_quantize, batched):
    """``k_plan_s`` times the K rows' whole quantize + column build, on
    either body, for a prompt append and a batched decode append alike."""
    rng = np.random.default_rng(7)
    pool = BlockAllocator(2, 8, 16, bits=4)
    caches = [_cache(pool, rng, 3) for _ in range(2)] if batched else []
    pool.stats["k_plan_s"] = 0.0
    if batched:
        batched_decode_append(caches, *_rows(rng, 2, pool))
    else:
        _cache(pool, rng, 5)
    assert pool.stats["k_plan_s"] >= 0.02
