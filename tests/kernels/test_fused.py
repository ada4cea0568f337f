"""Row-shared LUT dispatches: M activation rows per weight row.

``lut-blocked``'s one LUT body (compiled ``lut_block`` or
:func:`~repro.kernels.backends.numpy_lut`, whichever the ``lut_body``
fixture pins) takes R weight rows, each shared by its ``M`` activation
rows — GQA's query heads, a verify's positions — and must give each of
them exactly what it would get alone: every operation is element-wise
over the shared rows, so one ``M``-wide dispatch equals ``M`` separate
``M = 1`` dispatches byte for byte, and each of those equals the per-row
``lut-naive`` dispatch it stands in for.
"""

import numpy as np
import pytest

from repro.kernels import build_weight_plan, get_backend
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.quant.weight import quantize_weights

R, M, N, KDIM, K, BITS = 5, 3, 12, 16, 4, 4
BLOCKED = get_backend("lut-blocked")


def _batch(symmetric_table, zero_points, seed=0):
    """R independent weights with M activation rows each, as the one LUT
    body's operands — the R plans as a one-block arena each, their
    activation rows ordered (R, M) — plus the plans and rows."""
    rng = np.random.default_rng(seed)
    config = LutMpGemmConfig(
        k=K, symmetric_table=symmetric_table, backend="lut-naive"
    )
    plans = [
        build_weight_plan(
            quantize_weights(
                rng.normal(size=(N, KDIM)), BITS, axis=0,
                symmetric=not zero_points,
            ),
            K,
        )
        for _ in range(R)
    ]
    assert all(p.has_zero_point == zero_points for p in plans)
    acts = rng.normal(size=(R, M, KDIM))
    flat = acts.reshape(R * M, KDIM)
    columns = (
        np.stack([p.indices for p in plans])[:, None],
        np.stack([p.scale_gn for p in plans])[:, None],
        np.stack([p.zero_gn for p in plans])[:, None] if zero_points else None,
    )
    operands = [
        precompute_tables(flat, config),
        flat.reshape(R * M, -1, K).sum(axis=-1),
        np.arange(R, dtype=np.int64)[:, None],
        columns, M, None, K, symmetric_table,
    ]
    return config, plans, acts, operands


def _run(operands):
    """``(R, M, N)``: each weight row's product with its M rows."""
    out = BLOCKED.dispatch("last_paged_body", *operands)
    assert out.shape == (R, 1, operands[4], N)
    return out[:, 0]


@pytest.mark.parametrize("zero_points", [True, False], ids=("zp", "no-zp"))
@pytest.mark.parametrize(
    "symmetric_table", [True, False], ids=("half-table", "full-table")
)
class TestSharedLutRows:
    def test_m_shared_rows_equal_m_single_row_calls(
        self, symmetric_table, zero_points, lut_body
    ):
        _, _, _, operands = _batch(symmetric_table, zero_points)
        got = _run(operands)
        assert BLOCKED.last_paged_body == (lut_body or "compiled")
        table, sums = operands[:2]
        for m in range(M):
            alone = _run([
                table.reshape(R, M, *table.shape[1:])[:, m],
                np.ascontiguousarray(sums.reshape(R, M, -1)[:, m]),
                *operands[2:4], 1, *operands[5:],
            ])
            assert got[:, m:m + 1].tobytes() == alone.tobytes()

    def test_equals_per_row_naive_dispatch(
        self, symmetric_table, zero_points
    ):
        config, plans, acts, operands = _batch(symmetric_table, zero_points, 1)
        got = _run(operands)
        naive = get_backend("lut-naive")
        for r, plan in enumerate(plans):
            want = naive.execute(
                plan, config, acts[r], precompute_tables(acts[r], config)
            )
            assert got[r].tobytes() == want.tobytes()

