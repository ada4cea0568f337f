"""Resident-bytes pins: low-bit state is held at low-bit width.

Every integer code is stored once per representation at the narrowest
dtype that holds it; int64 survives only where ``np.take`` gathers with
it — a plan's flat-index cache (built by the numpy body of
``lut-blocked`` only), the pool's ``_ka_flat`` / ``_va_flat`` arenas. These are byte counts over live arrays (not RSS), so they hold
on any host; ``bench/``'s ``peak_rss_mb`` is their end-to-end reading.
"""

import numpy as np
import pytest

from repro.models.configs import ModelConfig
from repro.runtime import DecoderModel, RuntimeConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
)

#: ``bench/workloads.py``'s one model: 655,360 four-bit weights.
BENCH_128 = ModelConfig(
    "bench-128", hidden=128, ffn=256, layers=4, heads=8, kv_heads=4,
    vocab=512, gated_ffn=True,
)
MIB = 1 << 20


def _buffers(root):
    """The distinct ndarray buffers reachable from *root* through
    attributes, dicts and sequences — a view counts as the buffer it
    keeps alive, once."""
    seen, owners, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return list(owners.values())


@pytest.mark.parametrize("lut_body", ["compiled", "numpy"], indirect=True)
def test_bench_model_weights_hold_under_eight_mib(lut_body):
    """22.5 MiB before codes narrowed (36 B a weight: four int64 copies
    of the codes and two ``(G, N)`` affine arrays); 11 B a weight on the
    numpy body, 8 of them the int64 flat indices ``np.take`` gathers
    with; 3 B a weight and no int64 array at all on the compiled body,
    which reads the one-byte indices itself."""
    model = DecoderModel(BENCH_128, RuntimeConfig(
        weight_bits=4, lut_k=4, backend="lut-blocked",
    ))
    model.prefill(np.arange(20), model.new_caches())  # one forward: all built
    linears = [
        value for layer in model.layers for value in vars(layer).values()
        if hasattr(value, "quantized")
    ] + [model.head]
    assert len(linears) == 29
    weights = sum(linear.quantized.codes.size for linear in linears)
    assert weights == 655_360

    flat = {
        id(cached)
        for linear in linears for cached in linear.plan._flat_cache.values()
    }
    buffers = _buffers([(linear.quantized, linear.plan) for linear in linears])
    int64 = [buf for buf in buffers if buf.dtype == np.int64]
    assert {id(buf) for buf in int64} == flat
    if lut_body == "compiled":
        assert sum(buf.nbytes for buf in buffers) <= 2.5 * MIB
        assert not int64
    else:
        assert sum(buf.nbytes for buf in buffers) <= 7.5 * MIB
        assert sum(buf.nbytes for buf in int64) == 8 * weights  # bits == lut_k
    for linear in linears:
        plan = linear.plan
        assert linear.quantized.codes.dtype == np.uint8
        assert plan.reinterpreted.codes.dtype == np.int8
        assert plan._indices.dtype == np.uint8
        # Per-channel scales: (G, N) views of the (N, 1) parameters.
        for view in (plan._scale_gn, plan._zero_gn):
            assert view.strides[0] == 0 and not view.flags.owndata


class TestPoolBlockBytes:
    def _pool(self, **kwargs):
        # bench-128's KV geometry: 4 KV heads of head_dim 16, 16-token blocks.
        return BlockAllocator(kv_heads=4, head_dim=16, block_size=16, **kwargs)

    def test_int4_block_is_under_44_kib(self):
        """72 KiB before (int64 codes, one float64 scale and zero-point
        per *element*, an always-resident dequantized V arena); the
        packed K+V payload of the same block is 1 KiB."""
        pool = self._pool(bits=4)
        per_block = {
            name: getattr(pool, name)[0].nbytes for name in pool._resident
        }
        assert sum(per_block.values()) <= 44 * 1024
        assert per_block["_k_codes"] == 4 * 16 * 16  # one byte a code
        assert per_block["_k_scale"] == per_block["_k_zp"] == 4 * 16 * 8
        assert {
            name for name in pool._block_arrays
            if getattr(pool, name).dtype == np.int64
        } == {"_ka_flat", "_va_flat"}

    def test_scales_are_stored_per_group_and_read_back_per_element(self):
        """head_dim 32 is two K groups: two stored scales a row, which the
        unfused oracle's ``k_row_weight`` broadcasts back over the row."""
        pool = BlockAllocator(kv_heads=2, head_dim=32, block_size=16, bits=4)
        rng = np.random.default_rng(0)
        k = rng.normal(size=(5, 2, 32)) * np.array([1.0, 50.0]).repeat(16)
        cache = PagedLayerCache(pool)
        cache.append(k, rng.normal(size=(5, 2, 32)))
        bid = cache.block_ids[0]
        assert pool._k_scale.shape[1:] == pool._k_zp.shape[1:] == (2, 16, 2)
        weight = pool.k_row_weight(bid, 1, 0, 5)
        assert weight.scale.shape == weight.zero_point.shape == (5, 32)
        for g in range(2):
            cols = slice(16 * g, 16 * (g + 1))
            np.testing.assert_array_equal(
                weight.scale[:, cols],
                np.broadcast_to(pool._k_scale[bid, 1, :5, g, None], (5, 16)),
            )
        assert (weight.scale[:, 0] != weight.scale[:, 16]).all()
        # Each element within half a step of its own group's grid.
        assert (
            np.abs(weight.dequantize() - k[:, 1]) <= weight.scale / 2 + 1e-12
        ).all()

    @pytest.mark.parametrize("backend", ["lut-naive", "lut-blocked"])
    def test_lut_only_pool_owns_no_dequantized_arena(self, backend):
        pool = self._pool(bits=4, num_blocks=8)
        self._decode(pool, backend, self._caches(pool))
        assert pool._va_deq is None and pool._va_deq_fill is None
        assert "_va_deq" not in pool._resident

    def test_dequantized_arena_arrives_with_a_table_less_dispatch(self):
        """...and from then on grows, scrubs and refreshes with the rest,
        while clones and spill payloads still leave it behind."""
        pool = self._pool(bits=4)  # unbounded: 8 blocks, doubles on demand
        caches = self._caches(pool)
        lut = self._decode(pool, "lut-blocked", caches)
        self._decode(pool, "reference", caches)
        assert pool._va_deq.shape == (8, 4, 16, 16)
        assert pool._va_deq_fill.shape == (8,)
        first = caches[0].block_ids[0]
        assert pool._va_deq_fill[first] == pool._fill[first] == 16
        assert pool._va_deq[first].any()
        assert "_va_deq" not in caches[0].serialize()["blocks"][0]
        clone = pool.cow_clone(first)
        assert pool._va_deq_fill[clone] == -1 and not pool._va_deq[clone].any()
        pool.free(clone)

        before = pool._va_deq[first].copy()
        filler = PagedLayerCache(pool)
        filler.append(*np.zeros((2, 8 * 16, 4, 16)))  # 8 more blocks: doubles
        assert pool._va_deq.shape[0] == len(pool._va_deq_fill) == 16
        np.testing.assert_array_equal(pool._va_deq[first], before)
        np.testing.assert_array_equal(
            self._decode(pool, "lut-blocked", caches), lut
        )
        caches[0].release()
        assert pool._va_deq_fill[first] == -1 and not pool._va_deq[first].any()

    def _caches(self, pool):
        rng = np.random.default_rng(1)
        caches = [PagedLayerCache(pool) for _ in range(2)]
        for cache in caches:
            cache.append(*rng.normal(size=(2, 20, 4, 16)))
        return caches

    def _decode(self, pool, backend, caches):
        queries = np.random.default_rng(2).normal(size=(2, 8, 16))
        return fused_paged_decode_attention(
            queries, caches, repeat=2, backend=backend
        )
