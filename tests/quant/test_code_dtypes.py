"""Codes are stored at the narrowest dtype that holds them — and survive it.

One property over every supported width: a weight whose codes reach both
ends of the range (``0`` and ``2**b - 1``, i.e. ``q' = ±(2**b - 1)``, the
values a too-narrow or wrapping dtype would corrupt first) goes through
``quantize_weights → reinterpret_symmetric → unsigned_codes``, the bit
packer, ``_stack_weights`` and ``WeightPlan.extend``; every step must
keep the values an all-int64 recomputation gives *and* land on the dtype
:func:`repro.quant.code_dtype` names. Integer promotion of narrow arrays
against Python / numpy scalars is where numpy 1.26 and 2.x differ
(NEP 50), so this file also runs on CI's ``kernels-numpy`` leg.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.formats import INT4, INT8, INT16
from repro.kernels.plan import _stack_weights, build_weight_plan
from repro.lut.mpgemm import LutMpGemmConfig, LutMpGemmEngine
from repro.quant import code_dtype, quantize_table, quantize_weights
from repro.quant.packing import pack_codes, unpack_codes
from repro.quant.reinterpret import check_symmetry, reinterpret_symmetric

N, KDIM, LUT_K = 6, 16, 4
GRANULARITIES = {
    "per-tensor": dict(axis=None),
    "per-channel": dict(axis=0),
    "group-8": dict(axis=1, group_size=8),
}


def test_code_dtype_is_the_narrowest_that_holds_the_code():
    for bits in range(1, 17):
        unsigned, signed = code_dtype(bits), code_dtype(bits + 1, signed=True)
        top = (1 << bits) - 1
        assert unsigned == (np.uint8 if bits <= 8 else np.uint16)
        assert signed == (
            np.int8 if bits <= 7 else np.int16 if bits <= 15 else np.int32
        )
        assert top <= np.iinfo(unsigned).max
        assert np.iinfo(signed).min <= -top and top <= np.iinfo(signed).max
    assert code_dtype(8, signed=True) == np.int8  # two's complement INT8


def _extreme_weights(seed, granularity):
    """Normal weights with ``-m`` and ``+m`` (``m`` past every other
    magnitude) planted in every scale group, so each group's codes span
    the whole range whether the quantizer is symmetric or not."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(N, KDIM))
    m = np.abs(w).max() + 1.0
    if granularity == "group-8":
        w[:, 0::8], w[:, 1::8] = -m, m
    else:
        w[:, 0], w[:, 1] = -m, m
    return w


@given(
    bits=st.integers(1, 16),
    symmetric=st.booleans(),
    granularity=st.sampled_from(sorted(GRANULARITIES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_values_and_dtypes_survive_every_construction_path(
    bits, symmetric, granularity, seed
):
    top = (1 << bits) - 1
    unsigned, signed = code_dtype(bits), code_dtype(bits + 1, signed=True)
    weights = _extreme_weights(seed, granularity)
    qw = quantize_weights(
        weights, bits, symmetric=symmetric, **GRANULARITIES[granularity]
    )
    q64 = qw.codes.astype(np.int64)
    assert qw.codes.dtype == unsigned
    assert (q64.min(), q64.max()) == (0, top)
    np.testing.assert_array_equal(
        qw.dequantize(), qw.scale * (q64.astype(np.float64) - qw.zero_point)
    )

    rw = reinterpret_symmetric(qw)
    r64 = rw.codes.astype(np.int64)
    check_symmetry(rw)
    assert rw.codes.dtype == signed
    assert (r64.min(), r64.max()) == (-top, top)
    np.testing.assert_array_equal(r64, 2 * q64 - top)
    np.testing.assert_array_equal(
        rw.dequantize(), rw.scale * (r64.astype(np.float64) - rw.zero_point)
    )
    # Eq. 2 in float64: exact but for an ulp on a non-representable z.
    np.testing.assert_allclose(
        rw.dequantize(), qw.dequantize(), rtol=1e-12, atol=1e-12
    )
    back = rw.unsigned_codes()
    assert back.dtype == unsigned
    np.testing.assert_array_equal(back, q64)

    unpacked = unpack_codes(pack_codes(qw.codes, bits), bits, q64.size)
    assert unpacked.dtype == unsigned
    np.testing.assert_array_equal(unpacked, q64.ravel())

    # Stacking and plan extension: values of the whole, dtypes of the parts.
    head, tail = (
        quantize_weights(
            part, bits, symmetric=symmetric, **GRANULARITIES[granularity]
        )
        for part in (weights[:4], weights[4:])
    )
    r_head, r_tail = reinterpret_symmetric(head), reinterpret_symmetric(tail)
    for a, b, parts, dtype in (
        (head, tail, (head, tail), unsigned),
        (r_head, r_tail, (r_head, r_tail), signed),
        (head, r_tail, (r_head, r_tail), signed),  # mixed: promoted first
    ):
        stacked = _stack_weights(a, b)
        assert stacked.codes.dtype == dtype
        np.testing.assert_array_equal(
            stacked.dequantize(),
            np.concatenate([part.dequantize() for part in parts]),
        )
    config = LutMpGemmConfig(k=LUT_K, backend="lut-blocked")
    acts = np.random.default_rng(seed).normal(size=(3, KDIM))
    engine = LutMpGemmEngine(head, config)
    engine.matmul(acts)  # materialize indices, affine views, flat cache
    plan = engine.plan.extend(tail)
    whole = build_weight_plan(_stack_weights(head, tail), LUT_K)
    assert plan.indices.dtype == whole.indices.dtype == code_dtype(LUT_K)
    assert plan.source.codes.dtype == unsigned
    assert plan.reinterpreted.codes.dtype == signed
    np.testing.assert_array_equal(plan.indices, whole.indices)
    np.testing.assert_array_equal(plan.scale_gn, whole.scale_gn)
    np.testing.assert_array_equal(plan.zero_gn, whole.zero_gn)
    for key, flat in plan._flat_cache.items():
        assert flat.dtype == np.int64
        np.testing.assert_array_equal(flat, whole.flat_lookup_indices(*key))
    np.testing.assert_array_equal(
        engine.matmul(acts), LutMpGemmEngine(whole.source, config).matmul(acts)
    )


@pytest.mark.parametrize(
    "dtype, stored", [(INT4, np.int8), (INT8, np.int8), (INT16, np.int16)]
)
def test_table_codes_are_stored_at_the_format_width(dtype, stored):
    """``quantize_table`` keeps codes at the table format's own width; the
    extreme entry of every table sits on ``±qmax`` and ``dequantize`` is
    bit-equal to the int64 recomputation."""
    table = np.random.default_rng(3).normal(size=(5, 7, 8))
    table[..., 0] = -(np.abs(table).max(axis=-1) + 1.0)
    qt = quantize_table(table, dtype)
    c64 = qt.codes.astype(np.int64)
    assert qt.codes.dtype == stored
    assert (c64[..., 0] == -dtype.max_int).all() and c64.max() <= dtype.max_int
    np.testing.assert_array_equal(
        qt.dequantize(), c64.astype(np.float64) * qt.scales
    )
