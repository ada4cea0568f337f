"""Batched row-wise mpGEMM executors for the fused paged decode path.

The per-sequence decode attention dispatches one
:class:`~repro.kernels.WeightPlan` per (sequence, head, block) through
:meth:`MpGemmBackend.execute` — dozens of tiny kernel calls per layer
per step. The fused path instead treats the whole running batch as one
dispatch: every *row* (one KV head of one sequence, or one block of
one) carries its own gather indices and per-group affine parameters,
gathered out of the :class:`~repro.runtime.paging.BlockAllocator`
arenas into contiguous arrays, and :func:`rowwise_lut_execute` runs the
entire batch through one ``np.take``.

**Row-shared layout.** A row's weight columns serve ``M`` activation
rows at once — grouped-query attention's ``repeat`` query heads per KV
head (times the ``T`` candidate positions of a speculative verify):
GQA *is* M. The ``M`` tables sit innermost, ``(R, G, W, M)``, the
blocked backend's rows-innermost table applied to attention: one gather
index copies ``M`` contiguous values, and the arenas are gathered once
per KV head instead of being repeated per query head.

Bit-exactness contract: for every output element the executor performs
*the same scalar operations in the same order* as
:class:`~repro.kernels.backends.LutNaiveBackend` /
:class:`~repro.kernels.backends.LutBlockedBackend` (which are mutually
bit-identical by construction):

- gathers read from the signed table extension ``[T, -T]`` — IEEE
  negation is exactly the naive path's ``±1`` sign multiply;
- bit-planes accumulate LSB-first (``plane 0 · 2⁰`` first, then
  ``+= 2ⁱ · plane i``);
- the per-group affine correction is the element-wise
  ``s·(acc − z·Σa)`` of :func:`~repro.kernels.backends.affine_reduce`;
- groups reduce in ascending-``g`` order exactly like
  :func:`~repro.kernels.sum_groups`.

Every operation is element-wise over the row/column/shared-row grid (no
cross-row or cross-column reductions anywhere), so the result for one
activation row is independent of which other rows share the batch or
its weight row — the property that makes the fused path bit-identical
to the per-sequence path at *any* batch size and GQA ratio, which the
fused-parity tests pin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowwise_lut_execute", "rowwise_dequant_execute"]


def rowwise_lut_execute(
    table: np.ndarray,
    flat_idx: np.ndarray,
    scale: np.ndarray,
    zero: np.ndarray,
    sums: np.ndarray,
    shifts: np.ndarray,
    apply_zero: bool,
) -> np.ndarray:
    """One fused LUT mpGEMM where every row has its own weight columns,
    shared by that row's ``M`` activation rows.

    Parameters
    ----------
    table:
        ``(R, G, W, M)`` activation tables, ``M`` innermost, already
        extended to the signed ``[T, -T]`` layout (``W = 2·entries`` for
        symmetric half-tables).
    flat_idx:
        ``(R, bits, G, N)`` int64 gather indices into each row's
        flattened ``(G·W,)`` table — the
        :func:`~repro.kernels.plan.flat_lookup` layout, with the group
        offset already folded in.
    scale, zero:
        ``(R, G, N)`` per-row per-group affine parameters.
    sums:
        ``(R, G, M)`` per-group activation sums (zero-point correction
        term).
    shifts:
        ``(bits,)`` float64 plane weights ``2**i``, LSB first.
    apply_zero:
        Whether to apply the zero-point correction. Callers pass the
        batch-wide OR of the gathered plans' ``has_zero_point``; where
        an individual plan's flag disagrees, its ``zero`` entries are
        exactly ``0.0`` and the correction can only flip the sign of a
        zero — invisible to ``softmax`` and to ``assert_array_equal``.

    Returns
    -------
    ``(R, N, M)`` float64 — each of row r's activation rows times row
    r's weight columns, bit-identical per element to a per-row backend
    dispatch.
    """
    r, g, w, m = table.shape
    bits = flat_idx.shape[1]
    entries = np.ascontiguousarray(table).reshape(r * g * w, m)
    row_offsets = (np.arange(r, dtype=np.int64) * (g * w)).reshape(
        r, 1, 1, 1
    )
    gathered = entries.take(
        (flat_idx + row_offsets).reshape(-1), axis=0
    ).reshape(flat_idx.shape + (m,))
    # Bit-serial accumulation, LSB first — the shared backend order.
    per_group = gathered[:, 0] * shifts[0]
    for i in range(1, bits):
        per_group += shifts[i] * gathered[:, i]
    # The affine correction runs in (R, G, M, N): the per-column
    # parameters then broadcast along M with N contiguous innermost
    # (M innermost, every op would run numpy's inner loop M values at a
    # time). Element-wise, so the layout changes no scalar operation.
    per_group = np.ascontiguousarray(per_group.transpose(0, 1, 3, 2))
    scale = scale[:, :, None]
    if apply_zero:
        corrected = scale * (
            per_group - zero[:, :, None] * sums[..., None]
        )
    else:
        corrected = scale * per_group
    # Ascending-g group reduction, exactly sum_groups.
    out = corrected[:, 0].copy()
    for gi in range(1, g):
        out += corrected[:, gi]
    return out.transpose(0, 2, 1)


def rowwise_dequant_execute(
    acts: np.ndarray, dequantized: np.ndarray
) -> np.ndarray:
    """Batched dequantize-then-GEMM, same row-shared layout.

    ``acts`` is ``(R, K, M)`` — row r's ``M`` activation rows, innermost
    — and ``dequantized`` is ``(R, N, K)``, row r's real-valued weight
    columns. Returns ``(R, N, M)``. This is the fused analogue of
    :class:`~repro.kernels.ReferenceBackend` (``acts @ W.T`` per row);
    BLAS reductions are batch-shape sensitive at the ulp level, so
    fused-vs-per-sequence parity on the reference backend is pinned at
    1e-9, not bitwise — the same tolerance the runtime's other
    reference-backend pins use.
    """
    return np.einsum("rkm,rnk->rnm", acts, dequantized)
