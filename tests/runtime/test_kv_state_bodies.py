"""The int4-KV pool's quantized state: two bodies, one set of bytes.

:class:`~repro.runtime.paging.BlockAllocator` writes its K state (K rows
landing through ``append_rows`` and ``write_rows``) and its V
lookup-column arenas (``refresh_v_arenas``) with the compiled writer
(``kv_append`` / ``kv_refresh`` in ``kernels/lut_block.c``) where it
loaded, and with numpy otherwise. This module is in ``BOTH_BODIES``:
every op sequence runs on the body under test and again on the numpy
body, and every array the pool holds must agree by ``tobytes()`` —
the float slabs, the K and V arena columns, fills and stamps — across
bits 1-8, ``lut_k`` 2 / 4 / 8, head_dim and block_size on and off
``KV_GROUP``, partial trailing blocks, and values
that are constant per row (span 0), signed zeros, huge (a span that
overflows) or subnormal (a scale that underflows: the compiled body
leaves that call to numpy).
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LutError
from repro.kernels import native
from repro.runtime.paging import (
    KV_GROUP,
    BlockAllocator,
    PagedLayerCache,
    batched_decode_append,
)

KINDS = ("normal", "constant", "zeros", "huge", "subnormal")
OPS = ("prefill", "decode", "truncate", "cow", "refresh")


def _values(rng, shape, kind):
    if kind == "constant":  # span 0 along every row of the call
        return np.full(shape, rng.normal())
    if kind == "zeros":  # a range end that is a zero of either sign
        signs = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(shape) < 0.3, rng.random(shape), signs)
    if kind == "huge":  # finite, but hi - lo overflows
        return rng.uniform(-1.0, 1.0, shape) * 1.7e308
    scale = {"normal": 10.0 ** rng.integers(-3, 4), "subnormal": 1e-320}
    return rng.normal(size=shape) * scale[kind]


@st.composite
def _pools(draw):
    lut_k = draw(st.sampled_from([2, 4, 8]))
    on_group = [KV_GROUP, 2 * KV_GROUP]
    off_group = [n for n in (8, 24, 40) if n % lut_k == 0]
    # 80 channels: a V slab wider than the writer's 64-row lockstep chunk.
    head_dim = draw(st.sampled_from(on_group + [5 * KV_GROUP] + off_group))
    block_size = draw(st.sampled_from(on_group + off_group))
    return dict(
        kv_heads=draw(st.sampled_from([1, 2])),
        head_dim=head_dim,
        block_size=block_size,
        bits=draw(st.integers(1, 8)),
        lut_k=lut_k,
    )


def _replay(geometry, seed, ops):
    """Run *ops* — ``(op, sequence, count, value kind)`` — on a fresh
    pool of three sequences; return the pool."""
    rng = np.random.default_rng(seed)
    pool = BlockAllocator(**geometry)
    caches = [PagedLayerCache(pool) for _ in range(3)]

    def rows(n, kind):
        shape = (n, pool.kv_heads, pool.head_dim)
        return _values(rng, shape, kind), _values(rng, shape, kind)

    with np.errstate(all="ignore"):
        for op, seq, count, kind in ops:
            cache = caches[seq]
            if op == "prefill" or cache.length == 0:
                cache.append(*rows(count, kind))
            elif op == "decode":
                live = [c for c in caches if c.length]
                batched_decode_append(live, *rows(len(live), kind))
            elif op == "truncate":
                cache.truncate_rows(min(count, cache.length - 1))
            elif op == "cow":
                old = cache.block_ids[-1]
                cache.block_ids[-1] = pool.cow_clone(old)
                pool.free(old)
            else:
                pool.refresh_v_arenas(
                    [b for c in caches for b in c.block_ids]
                )
    return pool


def _state(pool):
    """Every array the pool holds, as bytes, and its counters."""
    arrays = {name: getattr(pool, name).tobytes() for name in pool._resident}
    counts = {k: v for k, v in pool.stats.items() if not k.endswith("_s")}
    return arrays, counts, list(pool._free)


def _assert_bodies_agree(geometry, seed, ops):
    pool = _replay(geometry, seed, ops)
    with native.unloaded():
        oracle = _replay(geometry, seed, ops)
    assert oracle.last_kv_body in (None, "numpy")
    got, want = _state(pool), _state(oracle)
    assert got[1:] == want[1:]
    for name in want[0]:
        assert got[0][name] == want[0][name], name
    return pool


class TestTwoBodiesOneState:
    @given(
        _pools(),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(OPS), st.integers(0, 2),
                st.integers(1, 40), st.sampled_from(KINDS),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_op_sequences_write_the_same_bytes(
        self, geometry, seed, ops
    ):
        _assert_bodies_agree(
            geometry, seed, ops + [("refresh", 0, 1, "normal")]
        )

    def test_the_body_under_test_wrote_the_state(self, lut_body):
        """Finite values of ordinary range never leave the compiled body
        (the property above would pass on two numpy runs)."""
        ops = [("prefill", s, 20 + s, "normal") for s in range(3)] + [
            ("decode", 0, 1, "normal"), ("refresh", 0, 1, "normal"),
        ]
        pool = _assert_bodies_agree(
            dict(kv_heads=2, head_dim=16, block_size=16, bits=4, lut_k=4),
            3, ops,
        )
        assert pool.last_kv_body == lut_body

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_take_the_numpy_body_on_both(self, bad):
        """A call holding a non-finite K value (append) or V value
        (refresh) is quantized by numpy on either body, bytes and all;
        the calls before and after it are not."""
        geometry = dict(kv_heads=2, head_dim=16, block_size=16, bits=4)
        pools = []
        for body in ("under test", "numpy"):
            rng = np.random.default_rng(9)
            pool = BlockAllocator(**geometry)
            bids = [pool.allocate() for _ in range(3)]
            k, v = rng.normal(size=(2, 3, 2, 16))
            k[1, 0, 5] = v[2, 1, 7] = bad
            with np.errstate(all="ignore"), (
                native.unloaded() if body == "numpy" else nullcontext()
            ):
                pool.append_rows(bids, k, v)
                assert pool.last_kv_body == "numpy"
                pool.append_rows(bids, *rng.normal(size=(2, 3, 2, 16)))
                if body != "numpy" and native.status()["loaded"]:
                    assert pool.last_kv_body == "compiled"
                pool.refresh_v_arenas(bids)
                assert pool.last_kv_body == "numpy"
            pools.append(pool)
        got, want = (_state(pool) for pool in pools)
        assert got[0] == want[0] and got[1:] == want[1:]

    def test_a_zero_range_end_stores_a_zero_zero_point(self):
        """Which zero min() keeps from a ±0.0 tie is numpy's loops'
        choice; either body's K arena holds the affine of a zero
        zero-point for it, ``2·0 + 1 − 2**bits``."""
        pool = BlockAllocator(1, 16, 16, bits=4)
        bid = pool.allocate()
        k = np.full((2, 1, 16), 0.5)
        k[0, 0, :8:2], k[0, 0, 1:8:2] = -0.0, 0.0
        k[1, 0, :8:2], k[1, 0, 1:8:2] = 0.0, -0.0
        pool.write_rows(bid, k, k)
        zero = pool._ka_zero[bid, 0, :, :2]
        assert zero.tobytes() == np.full_like(zero, -15.0).tobytes()


class TestLookupGroupsSplittingAScale:
    """``KV_GROUP`` = 16 against ``lut_k`` = 3 on a 48 x 48 pool: one
    lookup group would span two scales, which the LUT path cannot
    express. Neither body takes such a write."""

    def test_writes_raise_and_change_nothing(self):
        rng = np.random.default_rng(4)
        pool = BlockAllocator(1, 48, 48, bits=4, lut_k=3)
        assert pool._kv_operands is None
        bid, other = pool.allocate(), pool.allocate()
        pool._fill[bid] = 2  # stale V stamp: the refresh has work to do
        before = _state(pool), dict(pool._block_key)
        k, v = rng.normal(size=(2, 2, 1, 48))
        with pytest.raises(LutError):
            pool.write_rows(bid, k, v)
        with pytest.raises(LutError):
            pool.append_rows([bid, other], k, v)
        with pytest.raises(LutError):
            pool.refresh_v_arenas([bid])
        assert (_state(pool), dict(pool._block_key)) == before

    def test_the_compiled_writer_refuses_the_geometry(self, lut_body):
        """Handed such a geometry anyway, the compiled writer returns 2
        (leave the call to numpy) before its first write."""
        if lut_body == "numpy":
            pytest.skip("the numpy body raises LutError itself")
        rng = np.random.default_rng(5)
        pool = BlockAllocator(1, 48, 48, bits=4, lut_k=4)
        bid = pool.allocate()
        pool.write_rows(bid, *rng.normal(size=(2, 3, 1, 48)))
        (pointers, geometry), *_ = pool._kv_operands
        bad = geometry.copy()
        bad[5] = 3  # lut_k in lut_block.c's KV_GEO order
        before = _state(pool)
        bids = np.array([bid], dtype=np.int64)
        offs = np.array([3], dtype=np.int64)
        k, v = rng.normal(size=(2, 1, 1, 48))
        assert native.kv_append()(
            pointers.ctypes.data, bad.ctypes.data, k.ctypes.data,
            v.ctypes.data, bids.ctypes.data, offs.ctypes.data, 1,
        ) == 2
        assert native.kv_refresh()(
            pointers.ctypes.data, bad.ctypes.data, bids.ctypes.data, 1
        ) == 2
        assert _state(pool) == before
