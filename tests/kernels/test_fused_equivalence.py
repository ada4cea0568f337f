"""``compiled == lut-naive == numpy lut-blocked``, byte for byte.

One property over the whole operand space the compiled body of
``lut-blocked`` (``kernels/lut_block.c``) accepts, not a hand-picked
grid: weight widths 1-8, table index widths, half and full tables,
weights with and without zero-points at every scale granularity, row
counts on both sides of every lane boundary, rounded activations,
quantized tables, operands that are strided views, and tables holding
the values where a reordered or contracted operation would first show
(signed zeros, infinities, subnormals, entries that overflow when
scaled). The suite runs on the loader's own ``-O3 -march=native`` build
and on a plain ``-O2`` build of the same source: the equality is argued
from the source (ARCHITECTURE section 6), so it may not depend on what
an optimiser does with it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datatypes.formats import FP16, INT8
from repro.kernels import (
    effective_activations,
    get_backend,
    native,
    paged_lut_execute,
)
from repro.kernels.plan import build_weight_plan
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.quant.weight import quantize_weights

BLOCKED, NAIVE = get_backend("lut-blocked"), get_backend("lut-naive")
SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
    np.finfo(np.float64).tiny, -np.finfo(np.float64).max,
])


@pytest.fixture(scope="module", params=["loader-build", "plain-O2"])
def build(request, tmp_path_factory):
    """A loaded routine: the loader's, or ``-O2`` without ``-march``."""
    if request.param == "loader-build":
        state = native._ensure()
    else:
        with pytest.MonkeyPatch.context() as patch:
            cache = tmp_path_factory.mktemp("plain-O2")
            patch.setenv("XDG_CACHE_HOME", str(cache))
            patch.setattr(native, "FLAGS", tuple(
                "-O2" if flag == "-O3" else flag for flag in native.FLAGS
            ))
            patch.setattr(native, "_cpu_flags", lambda: None)
            state = native._load()
        if state["flags"]:
            assert "-O2" in state["flags"] and "-march" not in state["flags"]
    if not state["loaded"]:
        pytest.skip(f"compiled routine not loaded: {state['reason']}")
    return state


def _relayout(array, layout, rng):
    """The same values behind different strides."""
    if layout == "strided":
        wide = rng.normal(size=tuple(2 * s for s in array.shape)).astype(
            array.dtype
        )
        view = wide[tuple(slice(None, None, 2) for _ in array.shape)]
        view[...] = array
        return view
    if layout == "reversed":
        return np.ascontiguousarray(array[::-1, ..., ::-1])[::-1, ..., ::-1]
    if layout == "fortran":
        return np.asfortranarray(array)
    return array


@given(
    bits=st.integers(1, 8),
    k=st.sampled_from([1, 2, 4]),
    symmetric_table=st.booleans(),
    symmetric_weights=st.booleans(),
    granularity=st.sampled_from(["per-tensor", "per-channel", "group"]),
    m=st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 40),
    n=st.integers(1, 9),
    scales=st.integers(1, 3),
    groups_per_scale=st.integers(1, 2),
    act_dtype=st.sampled_from([None, FP16]),
    table_dtype=st.sampled_from([None, INT8]),
    layout=st.sampled_from(["contiguous", "strided", "reversed", "fortran"]),
    specials=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_three_bodies_agree_byte_for_byte(
    build, bits, k, symmetric_table, symmetric_weights, granularity, m, n,
    scales, groups_per_scale, act_dtype, table_dtype, layout, specials, seed,
):
    rng = np.random.default_rng(seed)
    ngroups = scales * groups_per_scale
    kdim = k * ngroups
    quant = {
        "per-tensor": {},
        "per-channel": {"axis": 0},
        "group": {"axis": 1, "group_size": k * groups_per_scale},
    }[granularity]
    weight = quantize_weights(
        rng.normal(size=(n, kdim)), bits, symmetric=symmetric_weights, **quant
    )
    config = LutMpGemmConfig(
        k=k, symmetric_table=symmetric_table, act_dtype=act_dtype,
        table_dtype=table_dtype,
    )
    plan = build_weight_plan(weight, k)
    acts = rng.normal(size=(m, kdim)) * 10.0 ** rng.integers(-3, 4, (m, kdim))
    entries = (1 << k) >> symmetric_table
    table = (
        precompute_tables(acts, config) if m
        else np.zeros((0, ngroups, entries))
    )
    assert table.shape == (m, ngroups, entries)
    if specials and m:
        hit = rng.random(table.shape) < 0.3
        table[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    acts, table = _relayout(acts, layout, rng), _relayout(table, layout, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_state", build)  # this process's load
        compiled = BLOCKED.execute(plan, config, acts, table)
        assert BLOCKED.last_body == "compiled"
        with native.unloaded(), np.errstate(all="ignore"):
            blocked = BLOCKED.execute(plan, config, acts, table)
            assert BLOCKED.last_body == "numpy"
            naive = NAIVE.execute(plan, config, acts, table)
    assert compiled.shape == (m, n)
    assert compiled.tobytes() == naive.tobytes()
    assert blocked.tobytes() == naive.tobytes()


# --- The paged row-wise executor (the same ``lut_block``) -------------------
#
# The same three-way equality for the int4-KV attention's executor:
# compiled paged body == numpy body (gather + ``numpy_lut``) ==
# one ``lut-naive`` dispatch per (row, KV head, block), over column arrays
# built the way the pool builds its arenas — a plan's one-byte indices and
# affine parameters per (block, head), scrubbed values (index 0, scale 1,
# zero 0) past a partially filled block's last column.

SCRUBBED = (0, 1.0, 0.0)  # index, scale, zero: BlockAllocator._block_layout


def _factor(m, t_first):
    """``(T, repeat)`` with ``T · repeat == m``: a verify's positions times
    GQA's query heads, drawn from *m*'s divisors."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    t = divisors[t_first % len(divisors)]
    return t, m // t


def _column_layout(array, layout, rng):
    """*array* ``(blocks, kv, ...)`` behind the strides the runtime hands
    in: the pool's C order, a verify's ``swapaxes`` slab, or anything."""
    if layout == "swapaxes":
        return np.ascontiguousarray(array.swapaxes(0, 1)).swapaxes(0, 1)
    return _relayout(array, layout, rng)


@given(
    bits=st.integers(1, 8),
    k=st.sampled_from([1, 2, 4]),
    m=st.sampled_from([1, 2, 3, 8, 9]) | st.integers(1, 12),
    t_first=st.integers(0, 5),
    reduce=st.booleans(),
    rows=st.integers(1, 3),
    kv=st.integers(1, 2),
    maxb=st.integers(1, 3),
    ngroups=st.integers(1, 3),
    n=st.integers(1, 5),
    zero_points=st.sampled_from(["all", "none", "some"]),
    act_dtype=st.sampled_from([None, FP16]),
    table_dtype=st.sampled_from([None, INT8]),
    layout=st.sampled_from(
        ["contiguous", "swapaxes", "strided", "reversed", "fortran"]
    ),
    specials=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # zero-points on some (block, head)s and not others, GQA's M = 2
    bits=4, k=4, m=2, t_first=0, reduce=True, rows=3, kv=2, maxb=3,
    ngroups=3, n=5, zero_points="some", act_dtype=None, table_dtype=None,
    layout="contiguous", specials=False, seed=7,
)
@example(  # no zero-points, -0.0 table entries: `acc − 0·Σa` flips a sign
    bits=1, k=1, m=2, t_first=0, reduce=False, rows=1, kv=1, maxb=1,
    ngroups=1, n=2, zero_points="none", act_dtype=None, table_dtype=None,
    layout="contiguous", specials=True, seed=0,
)
@settings(max_examples=150, deadline=None)
def test_paged_bodies_agree_byte_for_byte(
    build, bits, k, m, t_first, reduce, rows, kv, maxb, ngroups, n,
    zero_points, act_dtype, table_dtype, layout, specials, seed,
):
    rng = np.random.default_rng(seed)
    t, repeat = (1, m) if reduce else _factor(m, t_first)
    kdim, nblk = k * ngroups, maxb + 2
    config = LutMpGemmConfig(k=k, act_dtype=act_dtype, table_dtype=table_dtype)

    # Column arrays, one plan per (block, head), blocks filled to 1 .. n.
    fill = rng.integers(1, n + 1, nblk)
    fill[rng.integers(nblk)] = n
    has_zero = {
        "all": np.ones, "none": np.zeros,
        "some": lambda shape, dtype: rng.random(shape) < 0.5,
    }[zero_points]((nblk, kv), bool)
    idx = np.full((nblk, kv, bits, ngroups, n), SCRUBBED[0], np.uint8)
    scale = np.full((nblk, kv, ngroups, n), SCRUBBED[1])
    zero = np.full((nblk, kv, ngroups, n), SCRUBBED[2])
    plans = {}
    for blk in range(nblk):
        for head in range(kv):
            plan = plans[blk, head] = build_weight_plan(
                quantize_weights(
                    rng.normal(size=(fill[blk], kdim)), bits, axis=0,
                    symmetric=not has_zero[blk, head],
                ),
                k,
            )
            assert plan.has_zero_point == has_zero[blk, head]
            cols = (blk, head, ..., slice(fill[blk]))
            idx[cols] = plan.indices
            scale[cols], zero[cols] = plan.scale_gn, plan.zero_gn
    columns = tuple(_column_layout(a, layout, rng) for a in (idx, scale, zero))

    # Ragged block table: pad entries point at block 0.
    counts = rng.integers(1, maxb + 1, rows)
    counts[rng.integers(rows)] = maxb
    ids = np.zeros((rows, maxb), np.int64)
    for row in range(rows):
        ids[row, :counts[row]] = rng.integers(0, nblk, counts[row])

    lead = (rows, kv, repeat, maxb) if reduce else (rows, t, kv, repeat)
    acts = rng.normal(size=(int(np.prod(lead)), kdim))
    acts *= 10.0 ** rng.integers(-3, 4, acts.shape)
    table = precompute_tables(acts, config)
    if specials:
        hit = rng.random(table.shape) < 0.3
        table[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    sums = effective_activations(acts, config).reshape(
        -1, ngroups, k
    ).sum(axis=-1)
    args = (table, sums, ids, columns, repeat, counts if reduce else None)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(native, "_state", build)  # this process's load
        compiled = paged_lut_execute(BLOCKED, *args)
        assert BLOCKED.last_paged_body == "compiled"
        with native.unloaded():
            numpy_body = paged_lut_execute(BLOCKED, *args)
            assert BLOCKED.last_paged_body == "numpy"
        assert paged_lut_execute(NAIVE, *args).tobytes() == numpy_body.tobytes()

        # The oracle: one lut-naive dispatch per (row, head, block).
        naive = np.zeros_like(compiled)
        act_rows = np.arange(len(acts)).reshape(lead)
        for row, head, j in np.ndindex(rows, kv, maxb):
            if j >= counts[row]:
                continue
            blk = ids[row, j]
            lanes = (
                act_rows[row, head, :, j] if reduce
                else act_rows[row, :, head].reshape(-1)
            )
            part = NAIVE.execute(
                plans[blk, head], config, acts[lanes], table[lanes]
            )
            heads = slice(head * repeat, (head + 1) * repeat)
            if reduce:
                out = naive[row, heads, :fill[blk]]
                out[...] = out + part if j else part
            else:
                naive[row, :, heads, j * n:j * n + fill[blk]] = part.reshape(
                    t, repeat, -1
                )

    assert compiled.shape == numpy_body.shape
    assert compiled.tobytes() == numpy_body.tobytes()
    # Against the oracle only columns a plan filled are comparable: in a
    # reduction the columns past any visited block's fill, in a score
    # layout the pad blocks and the columns past each block's fill.
    if reduce:
        kept = np.zeros(compiled.shape, bool)
        for row in range(rows):
            kept[row, :, :fill[ids[row, :counts[row]]].min()] = True
    else:
        kept = np.zeros((rows, maxb, n), bool)
        for row, j in np.ndindex(rows, maxb):
            kept[row, j, :fill[ids[row, j]]] = j < counts[row]
        kept = np.broadcast_to(
            kept.reshape(rows, 1, 1, maxb * n), compiled.shape
        )
    assert (compiled[kept] + 0.0).tobytes() == (naive[kept] + 0.0).tobytes()
