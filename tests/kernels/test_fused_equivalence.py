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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.formats import FP16, INT8
from repro.kernels import get_backend, native
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
        wide = rng.normal(size=tuple(2 * s for s in array.shape))
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
    assert plan._flat_cache and compiled.shape == (m, n)
    assert compiled.tobytes() == naive.tobytes()
    # The numpy body's leading-axis ``np.add.reduce`` starts from +0.0
    # where the other two start from group 0's term, so a column whose
    # every group term is -0.0 sums to +0.0 there: equal to the sign of
    # a zero (``x + 0.0`` rewrites -0.0 and nothing else).
    assert (blocked + 0.0).tobytes() == (naive + 0.0).tobytes()
