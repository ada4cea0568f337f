"""Row-wise mpGEMM executors for the fused paged decode path.

The per-sequence decode attention dispatches one
:class:`~repro.kernels.WeightPlan` per (sequence, head, block) through
:meth:`MpGemmBackend.execute` — dozens of tiny kernel calls per layer
per step. The fused path instead treats the whole running batch as one
dispatch: every *row* (one KV head of one sequence, or one block of
one) carries its own lookup indices and per-group affine parameters,
which live in the :class:`~repro.runtime.paging.BlockAllocator` arenas.
:func:`paged_lut_execute` is the entry point: its compiled body
(``lut_rows_paged`` in ``lut_block.c``) reads the arenas in place
through the block table; its numpy body gathers them into contiguous
arrays and runs the entire batch through one ``np.take``
(:func:`rowwise_lut_execute`).

**Row-shared layout.** A row's weight columns serve ``M`` activation
rows at once — grouped-query attention's ``repeat`` query heads per KV
head (times the ``T`` candidate positions of a speculative verify):
GQA *is* M. The ``M`` tables sit innermost, ``(R, G, W, M)``, the
blocked backend's rows-innermost table applied to attention: one gather
index copies ``M`` contiguous values, and the arenas are gathered once
per KV head instead of being repeated per query head.

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
  ``s·(acc − z·Σa)`` of :func:`~repro.kernels.backends.affine_reduce`
  (the numpy body applies ``− z·Σa`` to a whole dispatch if any of its
  ``z`` is nonzero, the compiled one per column where ``z != 0.0``;
  either differs from a per-plan ``has_zero_point`` only where ``z`` is
  exactly zero, i.e. in the sign of a zero — the zero-point rule in
  :func:`paged_lut_execute`);
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

from repro.kernels import native
from repro.kernels.backends import LutBlockedBackend

__all__ = [
    "paged_lut_execute",
    "reduce_blocks",
    "rowwise_dequant_execute",
    "rowwise_lut_execute",
    "shared_rows",
]


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


def shared_rows(x: np.ndarray, lead: tuple[int, ...], axes) -> np.ndarray:
    """Row-shared layout of per-activation-row data: *x* is ``(prod(lead),
    ...)``, rows ordered by the *lead* axes; those named in *axes* share
    a weight row (query heads of one KV head, verify positions) and
    move innermost, merged — ``(R, ..., M)``, what the
    ``rowwise_*_execute`` kernels take."""
    tail = x.shape[1:]
    m = math.prod(lead[a] for a in axes)
    x = np.moveaxis(x.reshape(lead + tail), axes, range(-len(axes), 0))
    return x.reshape((-1,) + tail + (m,))


def reduce_blocks(parts: np.ndarray, kv: int, counts) -> np.ndarray:
    """Sum ``(rows · kv · max_blocks, N, repeat)`` per-block partials of a
    row-wise executor over each row's first ``counts[row]`` blocks, in
    ascending block order, first block unconditional (a count is >= 1)
    — the unfused ``ctx_vec + part`` order. Returns ``(rows, kv ·
    repeat, N)``."""
    rows = len(counts)
    (_, n, repeat), maxb = parts.shape, len(parts) // (rows * kv)
    parts = parts.reshape(rows, kv, maxb, n, repeat).transpose(
        0, 1, 4, 2, 3
    ).reshape(rows, kv * repeat, maxb, n)
    out = parts[:, :, 0].copy()
    for j in range(1, maxb):
        m = counts > j
        out[m] += parts[m][:, :, j]
    return out


def paged_lut_execute(
    kernel,
    table: np.ndarray,
    sums: np.ndarray,
    ids: np.ndarray,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    repeat: int,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`rowwise_lut_execute` over a block table, the weight columns
    read where they live.

    **The paged operand convention.** *columns* are ``(flat, scale,
    zero)`` column arrays indexed by block id on axis 0 and weight row
    (KV head) on axis 1 — ``(blocks, kv, bits, G, N)`` int64
    :func:`~repro.kernels.plan.flat_lookup` indices into the signed
    table ``[T, -T]`` and ``(blocks, kv, G, N)`` float64 affine
    parameters, any strides: the pool's own arenas, or slabs a caller
    gathered to rewrite some. *ids* is the int64 ``(rows, max_blocks)``
    index table into axis 0; pad entries name any valid block. *table*
    ``(A, G, E)`` and *sums* ``(A, G)`` are the half tables and group
    sums of the ``A`` activation rows, of which ``M`` share each weight
    row (*repeat* query heads per KV head, times ``T`` positions).
    Bit-planes weigh ``2**i``, LSB first.

    - ``counts is None`` (scores): activation rows ordered ``(rows, T,
      kv, repeat)``; every block of a row is dispatched and block ``j``'s
      ``N`` columns land side by side. Returns ``(rows, T, kv · repeat,
      max_blocks · N)``.
    - *counts* ``(rows,)`` int64 in ``[1, max_blocks]`` (context):
      activation rows ordered ``(rows, kv, repeat, max_blocks)``, one
      table per block; the per-block partials reduce in ascending block
      order, first block unconditional, later ones gated by the row's
      count — the unfused ``ctx_vec + part`` order. Returns ``(rows, kv ·
      repeat, N)``.

    **Two bodies, one result.** The numpy body gathers ``column[ids]``
    and runs :func:`rowwise_lut_execute`. When *kernel* is
    ``lut-blocked`` and :func:`repro.kernels.native.lut_rows_paged`
    loaded, operands :func:`_paged_handles` accepts go to that routine
    instead: the same scalar sequence per output element, nothing
    gathered. Nothing else selects between them;
    :attr:`LutBlockedBackend.last_paged_body` says which ran.

    **The zero-point rule.** The numpy body applies ``− z·Σa`` to the
    whole dispatch when *any* gathered ``z`` is nonzero; the compiled
    one decides per column, ``z != 0.0``. Where they disagree ``z`` is
    exactly zero and the correction could only have flipped the sign of
    a zero (the tolerance :func:`rowwise_lut_execute` already
    documents): the bodies are equal after ``+ 0.0`` always, and byte
    for byte wherever every zero-point visited is nonzero.

    **The bounds rule.** A block id ``>= blocks`` raises
    :class:`IndexError` from either body and nothing is returned. The
    compiled body checks every index it follows, the block ids and
    counts before anything is read through them: it also refuses a
    negative id (numpy wraps it; the pool never produces one), a count
    outside ``[1, max_blocks]`` and a flat index outside the ``G · 2E``
    table (``flat_lookup`` constructs none).
    """
    compiled = None
    if isinstance(kernel, LutBlockedBackend):
        compiled = native.lut_rows_paged()
        if compiled is not None and not _paged_handles(
            table, sums, ids, columns, repeat, counts
        ):
            compiled = None
        kernel.last_paged_body = "numpy" if compiled is None else "compiled"
    if compiled is None:
        return _paged_numpy(table, sums, ids, columns, repeat, counts)
    return _paged_compiled(compiled, table, sums, ids, columns, repeat, counts)


def _paged_compiled(fn, table, sums, ids, columns, repeat, counts):
    """One ``lut_rows_paged`` call (``lut_block.c``) on operands
    :func:`_paged_handles` accepted: the two activation-row orders and
    output layouts of :func:`paged_lut_execute` as element strides of
    (row, head, position, query head, block), everything else as it
    is."""
    rows, maxb = ids.shape
    flat, scale, zero = columns
    kv, bits, ngroups, n = flat.shape[1:]
    entries, heads = table.shape[-1], kv * repeat
    if counts is None:
        t, width = len(table) // (rows * heads), maxb * n
        out = np.empty((rows, t, heads, width))
        a = (t * heads, repeat, heads, 1, 0)
        o = (t * heads * width, repeat * width, heads * width, width)
    else:
        t = 1
        out = np.empty((rows, heads, n))
        a = (heads * maxb, repeat * maxb, 0, maxb, 1)
        o = (heads * n, repeat * n, 0, n)
    geometry = np.array(
        (*a, *o, *table.strides, *flat.strides, *scale.strides,
         *zero.strides), np.intp
    )
    # (G, 2E) table block + (G,) sums at 8 lanes, + 64-byte alignment.
    scratch = np.empty(ngroups * (2 * entries + 1) * 8 + 8)
    if fn(
        table.ctypes.data, sums.ctypes.data, t, repeat, ngroups, entries,
        ids.ctypes.data, None if counts is None else counts.ctypes.data,
        rows, maxb, kv, len(flat),
        flat.ctypes.data, scale.ctypes.data, zero.ctypes.data,
        bits, n, geometry.ctypes.data, out.ctypes.data, scratch.ctypes.data,
    ):
        raise IndexError(
            f"block ids {ids.min()}..{ids.max()} for {len(flat)} blocks, "
            f"counts {None if counts is None else counts.tolist()} for "
            f"{maxb}, or a flat index outside the {ngroups}x{2 * entries} "
            "table"
        )
    return out


def _paged_handles(table, sums, ids, columns, repeat, counts) -> bool:
    """Whether ``lut_rows_paged`` takes this dispatch: float64 / int64
    arrays at the shapes of the paged operand convention, nothing empty,
    the activation side, index table and counts C-contiguous (column
    arrays go by their strides). The routine trusts every shape it is
    handed — it checks only the indices it follows — so nothing else
    may reach it."""
    flat, scale, zero = columns
    arrays = (table, sums, ids, flat, scale, zero) + (
        () if counts is None else (counts,)
    )
    if not (
        all(isinstance(a, np.ndarray) and a.size for a in arrays)
        and (table.ndim, ids.ndim, flat.ndim) == (3, 2, 5)
        and repeat >= 1
    ):
        return False
    (rows, maxb), (kv, _, ngroups, _) = ids.shape, flat.shape[1:]
    shared, spare = divmod(
        len(table), rows * kv * repeat * (1 if counts is None else maxb)
    )
    return (
        table.dtype == sums.dtype == scale.dtype == zero.dtype == np.float64
        and ids.dtype == flat.dtype == np.int64
        and sums.flags.c_contiguous
        and ids.flags.c_contiguous
        and scale.shape == zero.shape == flat.shape[:2] + flat.shape[3:]
        and table.shape[:2] == sums.shape == (len(table), ngroups)
        and spare == 0
        and (shared == 1 if counts is not None else shared >= 1)
        and (counts is None or (
            counts.dtype == np.int64
            and counts.shape == (rows,)
            and counts.flags.c_contiguous
        ))
    )


def _paged_numpy(table, sums, ids, columns, repeat, counts) -> np.ndarray:
    """The numpy body of :func:`paged_lut_execute`: gather, one
    :func:`rowwise_lut_execute`, scatter (and reduce)."""
    rows, maxb = ids.shape
    kv, bits, _, n = columns[0].shape[1:]
    signed = np.concatenate([table, -table], axis=-1)
    gathered = (column[ids] for column in columns)
    if counts is None:
        t = len(table) // (rows * kv * repeat)
        lead, shared = (rows, t, kv, repeat), (1, 3)
        fl, sc, zr = (
            # (rows, maxb, kv, ..., G, N) -> (rows * kv, ..., G, maxb * N)
            np.moveaxis(g, 1, -2).reshape(
                (rows * kv,) + g.shape[3:-1] + (maxb * n,)
            )
            for g in gathered
        )
    else:
        lead, shared = (rows, kv, repeat, maxb), (2,)
        fl, sc, zr = (
            # (rows, maxb, kv, ...) -> (rows * kv * maxb, ...)
            g.swapaxes(1, 2).reshape((-1,) + g.shape[3:]) for g in gathered
        )
    raw = rowwise_lut_execute(
        shared_rows(signed, lead, shared), fl, sc, zr,
        shared_rows(sums, lead, shared),
        (1 << np.arange(bits)).astype(np.float64),
        bool((zr != 0.0).any()),
    )
    if counts is None:
        # (rows * kv, maxb * N, T * repeat) -> (rows, T, kv * repeat, maxb * N)
        return raw.reshape(rows, kv, maxb * n, t, repeat).transpose(
            0, 3, 1, 4, 2
        ).reshape(rows, t, kv * repeat, maxb * n)
    return reduce_blocks(raw, kv, counts)
