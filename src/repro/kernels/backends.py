"""The built-in mpGEMM kernel backends.

Three implementations of the same contract (:class:`MpGemmBackend`):

- ``reference`` — dequantize-then-GEMM (the paper's indirect path,
  Fig. 2b). Uses no tables at all, so ``table_dtype`` quantization —
  the LUT pipeline's only lossy step — does not apply to it.
- ``lut-naive`` — the original broadcast-gather LUT path. One
  ``np.take_along_axis`` materializes a ``(M, bits, G, N)`` intermediate,
  so peak memory grows with the *product* of every dimension; kept as
  the legacy/debugging path and as the perf baseline.
- ``lut-blocked`` — the default, and the software image of the paper's
  elongated M-small × N-long tile: a block of :data:`BLOCK_ROWS`
  activation rows keeps one signed, plane-scaled table resident while
  every weight column sweeps it in column blocks. Peak
  intermediate memory is a few :data:`BLOCK_ELEMS` buffers plus one
  ``bits·G·W·BLOCK_ROWS`` table, whatever M, N and the weight width.
  Where a C compiler was found its loop runs compiled, as one fused pass
  (:mod:`repro.kernels.native`); the numpy body stays the path of a host
  without one, and the oracle.

Bit-identity contract: ``lut-naive`` and ``lut-blocked`` perform the
same scalar operations in the same order for every output element. The
blocked path moves only the per-plane ``±1`` sign and ``2**i`` shift,
from the looked-up value to the table entry: both are exact in IEEE
arithmetic (a sign flip, an exponent increment) and a gather only
copies, so ``take(T)[j]·c == take(T·c)[j]``. Planes still add LSB first,
the affine correction is the same element-wise ``s·(acc − z·Σa)`` and
groups still add in ascending-g order, so the float64 outputs are equal
bit for bit, which the cross-backend tests assert with strict equality.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.datatypes.float_codec import quantize_to_format
from repro.kernels import native
from repro.kernels.plan import WeightPlan, flat_lookup, fold_offsets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.lut.mpgemm import LutMpGemmConfig

#: Default output-column tile width for the grouped-gather helpers.
DEFAULT_TILE_N = 128

#: Activation rows per block of the blocked backend: the innermost axis
#: of its table, so one gather index copies this many contiguous doubles
#: (one 64-byte cache line).
BLOCK_ROWS = 8

#: Element budget (float64) of one gathered ``(G, tile, rows)`` block:
#: 2**15 doubles = 256 KiB keeps a block, its plane temporary and the
#: table inside L2. Measured best of 2**14 - 2**18 (ARCHITECTURE
#: section 6); neither constant ever changes the output bits.
BLOCK_ELEMS = 1 << 15


@runtime_checkable
class MpGemmBackend(Protocol):
    """Contract every mpGEMM kernel backend implements.

    ``execute`` receives float64 ``(M, K)`` activations already validated
    against the plan, plus the precomputed (and possibly quantized)
    activation table when ``needs_table`` is True. It returns the raw
    ``(M, N)`` product; accumulator addition and 1-D squeezing stay in
    the engine facade.
    """

    name: str
    needs_table: bool

    def execute(
        self,
        plan: WeightPlan,
        config: "LutMpGemmConfig",
        activations: np.ndarray,
        table: np.ndarray | None,
    ) -> np.ndarray:
        ...


def effective_activations(
    activations: np.ndarray, config: "LutMpGemmConfig"
) -> np.ndarray:
    """Activations as the kernel consumes them (act_dtype rounding applied)."""
    if config.act_dtype is not None:
        return quantize_to_format(activations, config.act_dtype)
    return activations


def group_sums(plan: WeightPlan, acts: np.ndarray) -> np.ndarray:
    """Per-group activation sums ``(M, G)`` for the zero-point correction."""
    m = acts.shape[0]
    return acts.reshape(m, plan.ngroups, plan.k).sum(axis=-1)


def sum_groups(per_group: np.ndarray) -> np.ndarray:
    """Reduce ``(M, G, n)`` over the group axis in ascending-g order.

    An explicit loop pins the float addition order, so the result is
    bit-identical whether ``n`` is a full output row or one tile of it.
    """
    out = per_group[:, 0].copy()
    for g in range(1, per_group.shape[1]):
        out += per_group[:, g]
    return out


def sum_groups_leading(per_group: np.ndarray, axis: int = 0) -> np.ndarray:
    """Reduce ``(..., G, ...)`` over *axis* in ascending-g order, every
    axis before it leading.

    numpy reduces an axis that is not the fastest-varying one by adding
    whole g-slices one after another, from ``initial``: :func:`sum_groups`'
    order without its Python loop (``-0.0`` is the identity of ``+``, so
    the first slice passes exactly). Only where nothing varies faster than
    g does it collapse to numpy's 1-D pairwise loop, so that case takes
    the explicit one.
    """
    lead = per_group.shape[:axis]
    if per_group[(0,) * (axis + 1)].size == 1:
        flat = per_group.reshape(-1, per_group.shape[axis], 1)
        return sum_groups(flat).reshape(lead + per_group.shape[axis + 1:])
    return np.add.reduce(per_group, axis=axis, initial=-0.0)


def affine_reduce(
    per_group: np.ndarray,
    scale_gn: np.ndarray,
    zero_gn: np.ndarray,
    sums: np.ndarray,
    has_zero_point: bool,
) -> np.ndarray:
    """Apply the per-group affine correction and reduce over groups.

    ``out[m, n] = Σ_g s'[g, n]·(per_group[m, g, n] − z'[g, n]·Σ_j a[m, g, j])``

    All operations are element-wise except the final group reduction,
    which :func:`sum_groups` keeps order-deterministic. The blocked
    backend applies the same expression in place on its own layout.
    """
    if has_zero_point:
        corrected = scale_gn[None] * (
            per_group - zero_gn[None] * sums[:, :, None]
        )
    else:
        corrected = scale_gn[None] * per_group
    return sum_groups(corrected)


class ReferenceBackend:
    """Dequantization-based mpGEMM: upscale the weights, run a GEMM.

    Bit-identical to :func:`repro.lut.mpgemm.dequant_mpgemm_reference`
    (it dequantizes the *source* weight, cached on the plan). Having no
    tables, it cannot model ``table_dtype`` quantization — the engine
    refuses to dispatch it for such configs. Use it as the numerical
    target the LUT backends are checked against, not as a LUT
    simulation.
    """

    name = "reference"
    needs_table = False

    def execute(self, plan, config, activations, table=None):
        acts = effective_activations(activations, config)
        return acts @ plan.dequantized.T


class LutNaiveBackend:
    """The original one-shot broadcast-gather LUT path.

    Gathers every (plane, group, column) table entry in a single
    ``np.take_along_axis`` over a broadcast view — simple, but the
    gather output is a dense ``(M, bits, G, N)`` float64 array, the
    memory wall the blocked backend exists to remove.
    """

    name = "lut-naive"
    needs_table = True

    def execute(self, plan, config, activations, table):
        acts = effective_activations(activations, config)
        sums = group_sums(plan, acts)
        m = acts.shape[0]
        bits, ngroups, n = plan.bits, plan.ngroups, plan.n
        entries = table.shape[-1]
        if config.symmetric_table:
            low, sign = plan.sym_fold()
        else:
            low, sign = plan.indices, None
        gathered = np.take_along_axis(
            np.broadcast_to(table[:, None], (m, bits, ngroups, entries)),
            np.broadcast_to(low[None], (m, bits, ngroups, n)),
            axis=-1,
        )
        if sign is not None:
            gathered = gathered * sign[None]
        # Bit-serial accumulation, LSB first: plane i contributes << i.
        shifts = plan.shifts
        per_group = gathered[:, 0] * shifts[0]
        for i in range(1, bits):
            per_group += shifts[i] * gathered[:, i]
        return affine_reduce(
            per_group, plan.scale_gn, plan.zero_gn, sums, plan.has_zero_point
        )


class LutBlockedBackend:
    """Cache-blocked LUT path — the default backend.

    ``execute`` is a dispatch of one weight row (the plan, through
    :data:`ONE_BLOCK`) shared by its M activation rows, in the operand
    convention of the paged attention
    (:func:`~repro.kernels.fused.paged_lut_execute`), and both go through
    :meth:`dispatch` to one LUT body. Where
    :func:`repro.kernels.native.lut_block` loaded (a C compiler on
    ``PATH``) and takes the operands, it runs compiled
    (:func:`compiled_lut`): one fused pass, rows as SIMD lanes, reading
    the plan's one-byte indices directly. Otherwise :func:`numpy_lut`
    runs the same per-element sequence in blocks: per ``r <= BLOCK_ROWS``
    rows the signed table ``[T, -T]`` (just ``T`` for full tables) scaled
    once per bit-plane, rows innermost, each plane gathered with the
    plan's cached :meth:`~WeightPlan.flat_lookup_indices` into a
    ``(G, tile, r)`` block of at most :data:`BLOCK_ELEMS` values. See the
    module docstring for why either equals ``lut-naive`` bit for bit.
    Nothing else selects between the two — no config field, flag or
    variable — and :attr:`last_body` / :attr:`last_paged_body` say which
    one ran.
    """

    name = "lut-blocked"
    needs_table = True

    #: Which body the last dispatch ran, ``"compiled"`` or ``"numpy"``
    #: (None before the first): a silent fallback stays visible.
    last_body: str | None = None
    #: The same for the last :func:`~repro.kernels.fused.paged_lut_execute`
    #: dispatched through this backend.
    last_paged_body: str | None = None

    def execute(self, plan, config, activations, table):
        sums = zero = None
        if plan.has_zero_point:
            zero = plan.zero_gn[None, None]
            acts = effective_activations(activations, config)
            sums = np.ascontiguousarray(group_sums(plan, acts), np.float64)
        out = self.dispatch(
            "last_body", table, sums, ONE_BLOCK,
            (plan.indices[None, None], plan.scale_gn[None, None], zero),
            1, None, plan.k, bool(config.symmetric_table),
            flat=plan.flat_lookup_indices,
        )
        return out.reshape(len(table), plan.n)

    def dispatch(self, body, *operands, flat=None):
        """One LUT mpGEMM in :func:`compiled_lut`'s operand convention, on
        the compiled pass where it loaded and takes the operands, else on
        :func:`numpy_lut` (*flat* as there): the one place either dispatch
        of this backend picks its body, recorded in the attribute named
        *body* (``"last_body"`` or ``"last_paged_body"``) before it runs."""
        setattr(self, body, "compiled")
        out = compiled_lut(*operands)
        if out is None:
            setattr(self, body, "numpy")
            out = numpy_lut(*operands, flat=flat)
        return out


#: Bit-plane weights ``2**i``, i >= 1 (plane i's table is plane 0's times
#: ``2**i``, exactly).
_SHIFTS = 2.0 ** np.arange(1, 64)

#: The block table of a linear on the compiled pass: its plan's arrays are
#: a one-block arena with one weight row (passed to C as NULL).
ONE_BLOCK = np.zeros((1, 1), np.int64)


@lru_cache(maxsize=None)
def _fold_address(k: int, entries: int, symmetric: bool) -> int:
    """Where :func:`fold_offsets`' cached table lives (it never moves)."""
    return fold_offsets(k, entries, symmetric).ctypes.data


def compiled_lut(table, sums, ids, columns, repeat, counts, k, symmetric):
    """The paged operand convention of
    :func:`~repro.kernels.fused.paged_lut_execute` (*columns* ``(idx,
    scale, zero)``, *zero* None without a zero-point) on the compiled LUT
    pass, ``lut_block`` in ``lut_block.c``: the output, or None where the
    routine did not load or does not take these operands
    (:func:`_compiled_takes`) and the caller runs its numpy body. The one
    call site of the routine: a linear is a dispatch of one weight row
    (``kv == 1``, *repeat* 1) through :data:`ONE_BLOCK`, its M activation
    rows the T positions; the int4-KV attention reads the pool's arenas
    through its block table."""
    fn = native.lut_block()
    if fn is None or not _compiled_takes(
        table, sums, ids, columns, repeat, counts, k, symmetric
    ):
        return None
    rows, maxb = ids.shape
    idx, scale, zero = columns
    kv, bits, ngroups, n = idx.shape[1:]
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
    # lut_block.c's LB_GEO sizes, then the lane and output addressing and
    # the byte strides of the table and the three column arrays (an
    # ``array``: its address costs a tenth of an ndarray's).
    geometry = array("q", (
        t, repeat, ngroups, entries, symmetric, rows, maxb, kv, len(idx),
        1 << k, bits, n, *a, *o, *table.strides, *idx.strides,
        *scale.strides, *(scale.strides if zero is None else zero.strides),
    ))
    # (G, width) table block + (G,) sums at 8 lanes, + 64-byte alignment.
    scratch = np.empty(ngroups * ((entries << symmetric) + 1) * 8 + 8)
    if fn(
        table.ctypes.data, None if zero is None else sums.ctypes.data,
        None if ids is ONE_BLOCK else ids.ctypes.data,
        None if counts is None else counts.ctypes.data,
        idx.ctypes.data, _fold_address(k, entries, symmetric),
        scale.ctypes.data, None if zero is None else zero.ctypes.data,
        geometry.buffer_info()[0], out.ctypes.data, scratch.ctypes.data,
    ):
        raise IndexError(
            f"block ids {ids.min()}..{ids.max()} for {len(idx)} blocks or "
            f"counts {None if counts is None else counts.tolist()} for {maxb}"
        )
    return out


def _compiled_takes(table, sums, ids, columns, repeat, counts, k, symmetric):
    """Whether ``lut_block`` takes this dispatch: float64 tables of ``2**k``
    (``2**(k-1)`` symmetric) entries, one-byte indices (k <= 8) and float64
    affine parameters at the shapes of the paged operand convention,
    nothing on the weight side empty, sums C-contiguous (read only with a
    zero-point), the block table and counts C-contiguous int64 (everything
    else goes by its strides). The routine checks the ids, counts and fold
    it follows and trusts every shape it is handed, so nothing else may
    reach it."""
    idx, scale, zero = columns
    if not (
        isinstance(table, np.ndarray) and isinstance(ids, np.ndarray)
        and isinstance(idx, np.ndarray) and isinstance(scale, np.ndarray)
        and (zero is None or (
            isinstance(zero, np.ndarray) and isinstance(sums, np.ndarray)
        ))
        and (counts is None or isinstance(counts, np.ndarray))
        and table.ndim == 3 and ids.ndim == 2 and idx.ndim == 5
        and ids.size and idx.size and repeat >= 1 and 1 <= k <= 8
    ):
        return False
    rows, maxb = ids.shape
    _, kv, _, ngroups, n = idx.shape
    shared, spare = divmod(
        len(table), rows * kv * repeat * (1 if counts is None else maxb)
    )
    gn = (len(idx), kv, ngroups, n)
    return (
        table.dtype == scale.dtype == np.float64
        and idx.dtype == np.uint8
        and ids.dtype == np.int64
        and table.shape[1:] == (ngroups, (1 << k) >> symmetric)
        and scale.shape == gn
        and ids.flags.c_contiguous
        and not spare
        and (zero is None or (
            zero.dtype == sums.dtype == np.float64
            and zero.shape == gn
            and sums.shape == table.shape[:2]
            and sums.flags.c_contiguous
        ))
        and (counts is None or (
            shared == 1
            and counts.dtype == np.int64
            and counts.shape == (rows,)
            and counts.flags.c_contiguous
        ))
    )


def numpy_lut(table, sums, ids, columns, repeat, counts, k, symmetric,
              flat=None):
    """``lut_block``'s numpy body: :func:`compiled_lut`'s operands and
    output, and per output element its scalar sequence, so its bytes.

    The weight rows are ``(rows, max_blocks, kv)``, the column arrays
    read in their own ``(rows, max_blocks, kv, ..., N)`` layout (a
    linear's viewed, not copied); each weight row has ``m`` lanes,
    the activation rows that share it, whose tables are a *table row*'s:
    one KV head's ``T`` positions × *repeat* query heads for all of a
    row's blocks (scores; a linear is one weight row and its ``M`` rows),
    or one block's *repeat* (context). The index bytes are folded into the
    signed table ``[T, −T]`` and widened to int64 once, where each group's
    and table row's offset is added
    (:func:`~repro.kernels.plan.flat_lookup`). Per block of
    :data:`BLOCK_ROWS` lanes the tables are scaled by ``2**i`` per
    bit-plane, lanes innermost as in ``lut_block``, so one gathered index
    copies a lane vector; per tile of at most :data:`BLOCK_ELEMS` gathered
    values (weight rows × columns, or a wide row's columns) the planes are
    gathered and added LSB first, ``− z·Σa`` is applied to every column
    whenever *zero* is given, ``s`` is multiplied in, and the groups add
    in ascending order from ``-0.0`` (the identity of ``+``, so the first
    term passes exactly). The context's blocks then add in ascending
    order, first block unconditional (:func:`reduce_blocks`). A linear
    passes its plan's :meth:`~WeightPlan.flat_lookup_indices` as *flat*:
    the same :func:`~repro.kernels.plan.flat_lookup` index, cached on the
    plan, in place of the per-call fold."""
    rows, maxb = ids.shape
    idx, scale, zero = columns
    kv, bits, ngroups, n = idx.shape[1:]
    entries = table.shape[-1]
    width = entries << symmetric
    if counts is None:  # activation rows (rows, T, kv, repeat)
        t, tabs = len(table) // (rows * kv * repeat), 1
        split, lanes, weight = (rows, t, kv, repeat), (1, 3), (0, 2)
    else:  # activation rows (rows, kv, repeat, max_blocks)
        t, tabs = 1, maxb
        split, lanes, weight = (rows, kv, repeat, maxb), (2,), (0, 3, 1)
    m = t * repeat
    # (rows, tables a row, kv, G, entries, m): each weight row's m lanes.
    tables = table.reshape(split + (ngroups, entries)).transpose(
        weight + (4, 5) + lanes
    ).reshape(rows, tabs, kv, ngroups, entries, m)

    # The column arrays in their own layout, (rows, max_blocks, kv, ...,
    # N); a linear's are viewed, not copied.
    def gather(column):
        return column[None] if ids is ONE_BLOCK else column[ids]

    if flat is None:  # (rows, max_blocks, kv, bits, G, N) into the planes
        flat = flat_lookup(
            gather(idx), k, entries, symmetric,
            np.arange(rows * tabs * kv * ngroups).reshape(
                rows, tabs, kv, 1, ngroups, 1
            ),
        )
    else:  # a linear's, cached on its plan: (bits, G, N)
        flat = flat(entries, symmetric)[None, None, None]
    scale = gather(scale)[..., None]
    if zero is not None:  # and sums (rows, tables a row, kv, G, 1, m)
        zero = gather(zero)[..., None]
        sums = sums.reshape(split + (ngroups,)).transpose(
            weight + (4,) + lanes
        ).reshape(rows, tabs, kv, ngroups, 1, m)
    shifts = _SHIFTS[: bits - 1].reshape((-1,) + (1,) * 6)
    out = np.empty((rows, maxb, kv, n, m))
    for m0 in range(0, m, BLOCK_ROWS):
        lanes = slice(m0, m0 + BLOCK_ROWS)
        block = tables[..., lanes]
        r = block.shape[-1]
        planes = np.empty((bits, rows, tabs, kv, ngroups, width, r))
        planes[0, ..., :entries, :] = block
        if symmetric:  # IEEE `-x`: the naive path's `x·(-1.0)`, exactly
            planes[0, ..., entries:, :] = -block
        np.multiply(planes[0], shifts, out=planes[1:])
        planes = planes.reshape(bits, -1, r)
        # Whole weight rows per tile where one fits, else column tiles.
        per_row = ngroups * maxb * kv * n * r
        step = max(1, BLOCK_ELEMS // max(1, per_row))
        cols = n if per_row <= BLOCK_ELEMS else max(
            1, BLOCK_ELEMS // (ngroups * maxb * kv * r)
        )
        for r0 in range(0, rows, step):
            for c0 in range(0, n, cols):
                tile = (slice(r0, r0 + step), Ellipsis, slice(c0, c0 + cols))
                at = flat[tile]
                acc = planes[0].take(at[..., 0, :, :], axis=0)
                for i in range(1, bits):
                    acc += planes[i].take(at[..., i, :, :], axis=0)
                if zero is not None:
                    acc -= zero[(*tile, slice(None))] * sums[
                        tile[0], ..., lanes
                    ]
                acc *= scale[(*tile, slice(None))]
                out[(tile[0], Ellipsis, tile[2], lanes)] = sum_groups_leading(
                    acc, axis=3
                )
    if counts is None:
        # (rows, maxb, kv, N, T, repeat) -> (rows, T, kv·repeat, maxb·N)
        out = out.reshape(rows, maxb, kv, n, t, repeat)
        return out.transpose(0, 4, 2, 5, 1, 3).reshape(
            rows, t, kv * repeat, maxb * n
        )
    # (rows, maxb, kv, N, repeat) -> (rows, kv, repeat, maxb, N)
    total = reduce_blocks(out.transpose(0, 2, 4, 1, 3), counts)
    return total.reshape(rows, kv * repeat, n)


def reduce_blocks(parts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``(rows, ..., max_blocks, N)`` per-block partials over each
    row's first ``counts[row]`` blocks, in ascending block order, first
    block unconditional (a count is >= 1) — a per-sequence running sum's
    order. Returns ``(rows, ..., N)``."""
    total = parts[..., 0, :].copy()
    for j in range(1, parts.shape[-2]):
        live = counts > j
        total[live] += parts[live, ..., j, :]
    return total


def gather_grouped_blocked(
    table: np.ndarray,
    indices: np.ndarray,
    reduce_tile,
    tile_n: int = DEFAULT_TILE_N,
) -> np.ndarray:
    """Tiled grouped gather for non-bit-serial LUT paths (ternary, FP4).

    ``table`` is ``(M, G, entries)`` and ``indices`` is ``(G, N)``; for
    each tile of output columns the gathered ``(M, G, tile)`` block is
    handed to ``reduce_tile(gathered, n0, n1) -> (M, tile)`` and the
    pieces are concatenated into the ``(M, N)`` result. Peak intermediate
    memory is one ``M·G·tile_n`` block instead of ``M·G·N``.
    """
    m, ngroups, entries = table.shape
    n = indices.shape[1]
    table2d = np.ascontiguousarray(table).reshape(m, ngroups * entries)
    offsets = (np.arange(ngroups, dtype=np.int64) * entries)[:, None]
    out = np.empty((m, n))
    for n0 in range(0, n, tile_n):
        n1 = min(n0 + tile_n, n)
        flat_idx = (indices[:, n0:n1] + offsets).ravel()
        gathered = table2d.take(flat_idx, axis=1)
        gathered = gathered.reshape(m, ngroups, n1 - n0)
        out[:, n0:n1] = reduce_tile(gathered, n0, n1)
    return out
