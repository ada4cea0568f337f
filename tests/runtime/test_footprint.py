"""Resident-bytes pins: low-bit state is held at low-bit width.

Every integer code is stored once per representation at the narrowest
dtype that holds it; int64 survives only where ``np.take`` gathers with
it — a plan's flat-index cache, built by the numpy body of
``lut-blocked`` only. The pool's index arenas hold a plan's one-byte
indices, which both bodies of the paged attention read. These are byte
counts over live arrays (not RSS), so they hold on any host;
``bench/``'s ``peak_rss_mb`` is their end-to-end reading.
"""

import numpy as np
import pytest

from repro.models.configs import ModelConfig
from repro.runtime import DecoderModel, RuntimeConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
    spill_nbytes,
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

    def test_int4_block_is_26_kib(self):
        """72 KiB before (int64 codes, one float64 scale and zero-point
        per *element*, an always-resident dequantized V arena), 42 KiB
        with int64 flat indices in the arenas, 28 KiB while the pool also
        kept the K codes a dequantizing attention read; the packed K+V
        payload of the same block is 1 KiB. Of the 26 KiB, 16 are the
        float K / V slabs prefill attends over and 8 the arenas' affine.
        A swap payload carries the same bytes a block."""
        pool = self._pool(bits=4)
        per_block = {
            name: getattr(pool, name)[0].nbytes for name in pool._resident
        }
        counters = ("_fill", "_refcount", "_va_fill")  # 20 B of stamps
        assert sum(per_block.values()) == 26 * 1024 + sum(
            per_block[name] for name in counters
        )
        # (kv, bits, G, N) = 4 · 4 · 4 · 16 one-byte indices each.
        assert per_block["_ka_idx"] == per_block["_va_idx"] == 1024
        assert pool._ka_idx.dtype == pool._va_idx.dtype == np.uint8
        assert not [
            name for name in pool._block_arrays
            if getattr(pool, name).dtype == np.int64
        ]
        cache = PagedLayerCache(pool)
        cache.append(*np.ones((2, 20, 4, 16)))
        assert spill_nbytes(cache.serialize()) == 2 * 26_628

    @pytest.mark.parametrize("backend", ["reference", "lut-naive", "lut-blocked"])
    def test_no_backend_adds_an_arena(self, backend):
        """The pool's arrays are its block layout whatever backend
        dispatches over it: a table-less one brings no arena of its own,
        and a pool that doubles after the dispatch grows only those."""
        pool = self._pool(bits=4)  # unbounded: 8 blocks, doubles on demand
        self._decode(pool, backend, self._caches(pool))
        filler = PagedLayerCache(pool)
        filler.append(*np.zeros((2, 8 * 16, 4, 16)))  # 8 more blocks
        assert pool.capacity == 16
        arrays = {
            name: arr for name, arr in vars(pool).items()
            if isinstance(arr, np.ndarray)
        }
        assert sorted(arrays) == sorted(pool._resident)
        # 26 KiB and the 20 B of stamps, as before the dispatch.
        assert sum(arr[0].nbytes for arr in arrays.values()) == 26_644

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
