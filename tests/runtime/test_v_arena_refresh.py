"""Stacked V-arena refresh and one-quantize K append.

:meth:`BlockAllocator.refresh_v_arenas` rebuilds every stale block of a
request with one stacked quantize + column build;
:meth:`PagedLayerCache.append` quantizes a multi-block prompt's K rows
once. Both lean on the same argument — scales are per weight row and
every lookup column is per output column, so stacking changes no value.
The property below pins the V side against the per-block, per-head
:meth:`BlockAllocator.v_quantized` plans over random pools, for the
arenas of either kind of backend; the call-count tests pin that the
batching is really one call on the shared quantize core (a per-block
loop fails them), that each KV head's query heads share one gathered
row (a per-head gather fails them) and that no ``WeightPlan`` is built
on the fused step.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    paged_decode_attention,
)

#: The arenas (fill stamp first) a table backend / a table-less backend
#: maintains, keyed by ``refresh_v_arenas``' *deq* flag.
_V_ARENAS = {
    False: ("_va_fill",) + BlockAllocator._V_ARENAS[False],
    True: ("_va_deq_fill",) + BlockAllocator._V_ARENAS[True],
}
_ALL_V_ARENAS = _V_ARENAS[False] + _V_ARENAS[True]


def _rows(rng, n, pool):
    return rng.normal(size=(2, n, pool.kv_heads, pool.head_dim))


def _cache(pool, rng, length):
    cache = PagedLayerCache(pool)
    cache.append(*_rows(rng, length, pool))
    return cache


def _assert_arena_matches_per_head_plans(pool, bid, deq):
    """Block *bid*'s arena slabs of one kind equal its per-head
    ``v_quantized`` plans (built from the float slab alone, one head at
    a time, through ``quantize_weights`` → ``build_weight_plan``)."""
    _, plans = pool.v_quantized(bid)
    entries = 1 << (pool.lut_k - 1)
    assert getattr(pool, _V_ARENAS[deq][0])[bid] == pool._fill[bid]
    for h, plan in enumerate(plans):
        if deq:
            np.testing.assert_array_equal(
                pool._va_deq[bid, h], plan.dequantized
            )
            continue
        np.testing.assert_array_equal(
            pool._va_flat[bid, h], plan.flat_lookup_indices(entries, True)
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
        # Some arenas of either kind already built; then a grown block
        # (stale again), a truncated one (reset to never-built if an
        # arena saw the dead rows) and a freed-and-reused one (scrubbed
        # to never-built).
        deq = data.draw(st.booleans())
        for kind in (deq, not deq):
            pool.refresh_v_arenas(
                data.draw(st.lists(st.sampled_from(sorted(pool._in_use)))),
                kind,
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
        stamp = getattr(pool, _V_ARENAS[deq][0])
        stale = {b for b in request if stamp[b] != pool._fill[b]}
        before = {
            name: getattr(pool, name).copy() for name in _ALL_V_ARENAS
        }
        cols = pool.stats["v_quant_cols"]

        pool.refresh_v_arenas(request, deq)

        assert pool.stats["v_quant_cols"] - cols == (
            len(stale) * block_size * kv_heads
        )
        # Only the stale blocks' arenas of the requested kind change.
        untouched = np.setdiff1d(np.arange(pool.capacity), sorted(stale))
        for name in _V_ARENAS[deq]:
            np.testing.assert_array_equal(
                getattr(pool, name)[untouched], before[name][untouched],
                err_msg=name,
            )
        for name in _V_ARENAS[not deq]:
            np.testing.assert_array_equal(
                getattr(pool, name), before[name], err_msg=name
            )
        for bid in set(request):
            _assert_arena_matches_per_head_plans(pool, bid, deq)

        # Everything requested is fresh now: asking again, or for
        # nothing, does no work and writes nothing.
        after = {
            name: getattr(pool, name).copy() for name in _ALL_V_ARENAS
        }
        cols = pool.stats["v_quant_cols"]
        pool.refresh_v_arenas(request, deq)
        pool.refresh_v_arenas([], deq)
        assert pool.stats["v_quant_cols"] == cols
        for name in _ALL_V_ARENAS:
            np.testing.assert_array_equal(
                getattr(pool, name), after[name], err_msg=name
            )


    @pytest.mark.parametrize("first", ["lut-blocked", "reference"])
    def test_alternating_backends_share_one_pool(self, first):
        """``lut-blocked`` and ``reference`` dispatches alternate on one
        pool across appends: each kind of backend maintains only its own
        V arenas, so each must find *its* columns stale after the other
        refreshed — a shared fill stamp would serve stale ones."""
        rng = np.random.default_rng(11)
        pool = BlockAllocator(2, 8, 8, bits=4)
        caches = [_cache(pool, rng, n) for n in (3, 8, 13)]
        backends = [first] + [
            name for name in ("lut-blocked", "reference") if name != first
        ]
        for step in range(12):
            backend = backends[step % 2]
            queries = rng.normal(size=(3, 4, 8))
            got = fused_paged_decode_attention(
                queries, caches, repeat=2, backend=backend
            )
            want = np.stack([
                paged_decode_attention(
                    queries[i], cache, repeat=2, backend=backend
                )
                for i, cache in enumerate(caches)
            ])
            if backend == "reference":
                np.testing.assert_allclose(
                    got, want, atol=1e-9, err_msg=f"step {step}"
                )
            else:
                np.testing.assert_array_equal(
                    got, want, err_msg=f"step {step}"
                )
            # Only the dispatching kind's stamp moved to the new fill.
            trailing = [c.block_ids[-1] for c in caches]
            fresh, other = (
                (pool._va_deq_fill, pool._va_fill)
                if backend == "reference"
                else (pool._va_fill, pool._va_deq_fill)
            )
            np.testing.assert_array_equal(
                fresh[trailing], pool._fill[trailing]
            )
            if step:
                assert (other[trailing] != pool._fill[trailing]).all()
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
    ``build_weight_plan`` → ``flat_lookup_indices(…, True)`` /
    ``scale_gn`` / ``zero_gn`` / ``dequantized``, one head at a time."""

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
        codes, scale, zero_point, flat, a_scale, a_zero = pool._k_columns(
            k_rows
        )
        entries = 1 << (lut_k - 1)
        for r in range(rows):
            for h in range(kv_heads):
                qw, plan = _plan_of(
                    k_rows[r, h][None], bits, pool._k_group, lut_k
                )
                at = f"row {r} head {h}"
                np.testing.assert_array_equal(codes[r, h], qw.codes[0], at)
                np.testing.assert_array_equal(scale[r, h], qw.scale[0], at)
                np.testing.assert_array_equal(
                    zero_point[r, h], qw.zero_point[0], at
                )
                np.testing.assert_array_equal(
                    flat[r, h],
                    plan.flat_lookup_indices(entries, True)[..., 0], at,
                )
                np.testing.assert_array_equal(
                    a_scale[r, h], plan.scale_gn[:, 0], at
                )
                np.testing.assert_array_equal(
                    a_zero[r, h], plan.zero_gn[:, 0], at
                )
        for r in constant:
            assert (scale[r, 0] == 1.0).all()

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
        flat, a_scale, a_zero = pool._v_arena_columns(v)
        (deq,) = pool._v_arena_columns(v, deq=True)
        entries = 1 << (lut_k - 1)
        for c in range(slabs):
            for h in range(kv_heads):
                _, plan = _plan_of(v[c, h].T, bits, pool._v_group, lut_k)
                at = f"slab {c} head {h}"
                np.testing.assert_array_equal(
                    flat[c, h], plan.flat_lookup_indices(entries, True), at
                )
                np.testing.assert_array_equal(a_scale[c, h], plan.scale_gn, at)
                np.testing.assert_array_equal(a_zero[c, h], plan.zero_gn, at)
                np.testing.assert_array_equal(deq[c, h], plan.dequantized, at)

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


@pytest.fixture
def quantize_calls(monkeypatch):
    """Shapes of every weight ``repro.runtime.paging`` sends through the
    shared quantize core, ``(rows, scale groups, group length)``."""
    calls = []
    real = paging.affine_quantize

    def counting(weights, *args, **kwargs):
        calls.append(np.shape(weights))
        return real(weights, *args, **kwargs)

    monkeypatch.setattr(paging, "affine_quantize", counting)
    return calls


@pytest.fixture
def gather_calls(monkeypatch):
    """``(weight rows R, shared activation rows M)`` of every fused LUT
    dispatch (either body: the paged executor is the seam both share)."""
    calls = []
    real = paging.paged_lut_execute

    def counting(kernel, table, sums, ids, columns, repeat, counts=None):
        rows = ids.shape[0] * columns[0].shape[1] * (
            1 if counts is None else ids.shape[1]
        )
        assert len(table) % rows == 0
        calls.append((rows, len(table) // rows))
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
        assert quantize_calls == [(n * self.KV, 1, self.HD)]
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

        calls = []
        for module in (paging, plan_module):
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
        pool.k_plans(caches[0].block_ids[0])  # the unfused oracle does
        assert len(calls) == self.KV


def test_v_quant_timer_covers_quantize_on_both_paths(monkeypatch):
    """``v_quant_s`` times quantize + index build whether the work comes
    from an arena refresh or verify's masked requantization."""
    real = paging.affine_quantize

    def slow(weights, *args, **kwargs):
        time.sleep(0.02)
        return real(weights, *args, **kwargs)

    rng = np.random.default_rng(5)
    pool = BlockAllocator(2, 8, 16, bits=4)
    cache = _cache(pool, rng, 20)
    monkeypatch.setattr(paging, "affine_quantize", slow)
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
