"""Row-wise mpGEMM executors for the fused paged decode path.

The per-sequence decode attention dispatches one
:class:`~repro.kernels.WeightPlan` per (sequence, head, block) through
:meth:`MpGemmBackend.execute` — dozens of tiny kernel calls per layer
per step. The fused path instead treats the whole running batch as one
dispatch: every *row* (one KV head of one sequence, or one block of
one) carries its own lookup indices and per-group affine parameters,
which live in the :class:`~repro.runtime.paging.BlockAllocator` arenas.
:func:`paged_lut_execute` is the entry point, on the LUT body the weight
linears run too: compiled (``lut_block`` in ``lut_block.c``), it reads
the arenas in place through the block table; in numpy
(:func:`~repro.kernels.backends.numpy_lut`), it gathers them through it.

**Row-shared layout.** A row's weight columns serve ``M`` activation
rows at once — grouped-query attention's ``repeat`` query heads per KV
head (times the ``T`` candidate positions of a speculative verify):
GQA *is* M. They are a linear's activation rows for that weight row —
the compiled pass's SIMD lanes, one lookup a lane vector — so the
arenas are read once per KV head instead of once per query head.

Bit-exactness contract: for every output element the executor (either
body) performs *the same scalar operations in the same order* as
:class:`~repro.kernels.backends.LutNaiveBackend` /
:class:`~repro.kernels.backends.LutBlockedBackend` (which are mutually
bit-identical by construction):

- gathers read from the signed table extension ``[T, -T]`` — IEEE
  negation is exactly the naive path's ``±1`` sign multiply;
- bit-planes accumulate LSB-first (``plane 0 · 2⁰`` first, then
  ``+= 2ⁱ · plane i``);
- the per-group affine correction is the element-wise
  ``s·(acc − z·Σa)`` of :func:`~repro.kernels.backends.affine_reduce`,
  ``− z·Σa`` applied to every column (a per-plan ``has_zero_point``
  differs only where ``z`` is exactly zero, i.e. in the sign of a zero);
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

import math

import numpy as np

from repro.kernels.backends import LutBlockedBackend, numpy_lut

__all__ = [
    "paged_lut_execute",
    "rowwise_dequant_execute",
    "shared_rows",
]


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


def shared_rows(x: np.ndarray, lead: tuple[int, ...], axes) -> np.ndarray:
    """Row-shared layout of per-activation-row data: *x* is ``(prod(lead),
    ...)``, rows ordered by the *lead* axes; those named in *axes* share
    a weight row (query heads of one KV head, verify positions) and
    move innermost, merged — ``(R, ..., M)``, what
    :func:`rowwise_dequant_execute` takes."""
    tail = x.shape[1:]
    m = math.prod(lead[a] for a in axes)
    x = np.moveaxis(x.reshape(lead + tail), axes, range(-len(axes), 0))
    return x.reshape((-1,) + tail + (m,))


def paged_lut_execute(
    kernel,
    table: np.ndarray,
    sums: np.ndarray,
    ids: np.ndarray,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    repeat: int,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """One LUT mpGEMM over a block table, the weight columns read where
    they live.

    **The paged operand convention.** *columns* are ``(idx, scale,
    zero)`` column arrays indexed by block id on axis 0 and weight row
    (KV head) on axis 1 — ``(blocks, kv, bits, G, N)`` plain K-bit
    lookup indices, each weight row's
    :attr:`~repro.kernels.WeightPlan.indices` at their ``code_dtype(k)``
    width (one byte for k <= 8), and ``(blocks, kv, G, N)`` float64
    affine parameters, any strides: the pool's own arenas, or slabs a
    caller gathered to rewrite some. Both bodies fold an index into the
    signed table ``[T, -T]`` as they read it
    (:func:`~repro.kernels.plan.fold_offsets`), and apply ``− z·Σa`` to
    every column. *ids* is the int64
    ``(rows, max_blocks)`` index table into axis 0; pad entries name any
    valid block. *table* ``(A, G, E)`` and *sums* ``(A, G)`` are the half
    tables and group sums of the ``A`` activation rows, of which ``M``
    share each weight row (*repeat* query heads per KV head, times ``T``
    positions). Bit-planes weigh ``2**i``, LSB first.

    - ``counts is None`` (scores): activation rows ordered ``(rows, T,
      kv, repeat)``; every block of a row is dispatched and block ``j``'s
      ``N`` columns land side by side. Returns ``(rows, T, kv · repeat,
      max_blocks · N)``.
    - *counts* ``(rows,)`` int64 in ``[1, max_blocks]`` (context):
      activation rows ordered ``(rows, kv, repeat, max_blocks)``, one
      table per block; the per-block partials reduce in ascending block
      order, first block unconditional, later ones gated by the row's
      count — a per-sequence running sum's order. Returns ``(rows, kv ·
      repeat, N)``.

    **Two bodies, one result.** ``lut-blocked`` runs the dispatch where
    its linears' run (:meth:`LutBlockedBackend.dispatch`): on the
    compiled ``lut_block`` where it loaded and takes the operands
    (:func:`~repro.kernels.backends.compiled_lut`), nothing gathered, else
    on :func:`~repro.kernels.backends.numpy_lut`, which gathers
    ``column[ids]``; any other *kernel* runs the numpy body. The two are
    equal byte for byte; :attr:`LutBlockedBackend.last_paged_body` says
    which ran.

    **The bounds rule.** A block id ``>= blocks`` raises
    :class:`IndexError` from either body and nothing is returned. The
    compiled body checks the block ids and counts before anything is
    read through them: it also refuses a negative id (numpy wraps it; the
    pool never produces one) and a count outside ``[1, max_blocks]``.
    No index byte can take either body outside its table: each goes
    through a 256-entry fold table whose entries past ``2**k`` read entry
    0. The pool's own arenas hold only indices below ``2**k``: its writers
    produce no other, and ``BlockAllocator.accepts`` refuses a swap
    payload that holds one.
    """
    operands = (
        table, sums, ids, columns, repeat, counts,
        table.shape[-1].bit_length(), True,
    )
    if isinstance(kernel, LutBlockedBackend):
        return kernel.dispatch("last_paged_body", *operands)
    return numpy_lut(*operands)
