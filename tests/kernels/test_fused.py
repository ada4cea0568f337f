"""Row-shared fused executors: M activation rows per weight row.

:func:`rowwise_lut_execute` takes ``(R, G, W, M)`` tables — the ``M``
activation rows that share row r's weight columns, innermost — and must
give each of them exactly what it would get alone: every operation is
element-wise over the shared axis, so one ``M``-wide dispatch equals
``M`` separate ``M = 1`` dispatches bit for bit, and each of those
equals the per-row backend dispatch the executor stands in for.
"""

import numpy as np
import pytest

from repro.kernels import (
    build_weight_plan,
    get_backend,
    rowwise_dequant_execute,
    rowwise_lut_execute,
)
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.quant.weight import quantize_weights

R, M, N, KDIM, K, BITS = 5, 3, 12, 16, 4, 4


def _batch(symmetric_table, zero_points, seed=0):
    """R independent weights with M activation rows each, as the
    executor's arguments plus the per-row plans they came from."""
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
    acts = rng.normal(size=(R, M, KDIM))
    half = precompute_tables(acts.reshape(R * M, KDIM), config)
    entries = half.shape[-1]
    table = (
        np.concatenate([half, -half], axis=-1) if symmetric_table else half
    )
    table = table.reshape(R, M, *table.shape[1:])        # (R, M, G, W)
    args = dict(
        table=np.moveaxis(table, 1, -1),                  # (R, G, W, M)
        flat_idx=np.stack([
            p.flat_lookup_indices(entries, symmetric_table) for p in plans
        ]),
        scale=np.stack([p.scale_gn for p in plans]),
        zero=np.stack([p.zero_gn for p in plans]),
        sums=np.moveaxis(
            acts.reshape(R, M, KDIM // K, K).sum(axis=-1), 1, -1
        ),                                                # (R, G, M)
        shifts=plans[0].shifts,
        apply_zero=zero_points,
    )
    return config, plans, acts, args


@pytest.mark.parametrize("zero_points", [True, False], ids=("zp", "no-zp"))
@pytest.mark.parametrize(
    "symmetric_table", [True, False], ids=("half-table", "full-table")
)
class TestRowwiseLutExecute:
    def test_m_shared_rows_equal_m_single_row_calls(
        self, symmetric_table, zero_points
    ):
        _, _, _, args = _batch(symmetric_table, zero_points)
        got = rowwise_lut_execute(**args)
        assert got.shape == (R, N, M)
        for m in range(M):
            alone = rowwise_lut_execute(**{
                **args,
                "table": args["table"][..., m:m + 1],
                "sums": args["sums"][..., m:m + 1],
            })
            np.testing.assert_array_equal(got[..., m:m + 1], alone)

    def test_equals_per_row_backend_dispatch(
        self, symmetric_table, zero_points
    ):
        config, plans, acts, args = _batch(symmetric_table, zero_points, 1)
        got = rowwise_lut_execute(**args)
        kernel = get_backend("lut-naive")
        for r, plan in enumerate(plans):
            want = kernel.execute(
                plan, config, acts[r], precompute_tables(acts[r], config)
            )
            np.testing.assert_array_equal(got[r].T, want)


def test_rowwise_dequant_execute_shares_rows():
    rng = np.random.default_rng(2)
    acts = rng.normal(size=(R, KDIM, M))
    weights = rng.normal(size=(R, N, KDIM))
    got = rowwise_dequant_execute(acts, weights)
    assert got.shape == (R, N, M)
    for r in range(R):
        np.testing.assert_allclose(
            got[r], weights[r] @ acts[r], atol=1e-12
        )
