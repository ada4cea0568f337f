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
  activation rows keeps one signed, plane-scaled table resident, rows
  innermost, while every weight column sweeps it in column blocks. Peak
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

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.datatypes.float_codec import quantize_to_format
from repro.kernels import native
from repro.kernels.plan import WeightPlan, fold_offsets

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


def sum_groups_leading(per_group: np.ndarray) -> np.ndarray:
    """Reduce ``(G, ...)`` over its leading axis in ascending-g order.

    numpy reduces an axis that is not the fastest-varying one by adding
    whole g-slices one after another: :func:`sum_groups`' order without
    its Python loop. Only a single-element slice collapses to numpy's
    1-D pairwise loop, so that case takes the explicit one.
    """
    if per_group[0].size == 1:
        return sum_groups(per_group[None])[0]
    return np.add.reduce(per_group, axis=0)


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
    """Rows-innermost, cache-blocked LUT path — the default backend.

    Per block of ``r <= BLOCK_ROWS`` activation rows the signed table
    ``[T, -T]`` (just ``T`` for full tables) is transposed to
    ``(G·W, r)`` and scaled once per bit-plane into ``(bits, G·W, r)``.
    Each plane of the plan's :meth:`~WeightPlan.flat_lookup_indices` then
    gathers along axis 0 — one index copies ``r`` contiguous doubles —
    into a ``(G, tile, r)`` block, ``tile`` chosen so the block holds at
    most :data:`BLOCK_ELEMS` values. Planes accumulate LSB first in
    place, the ``(G, tile, 1)`` affine correction is applied in place,
    and groups reduce in ascending-g order over the leading axis. See
    the module docstring for why this equals ``lut-naive`` bit for bit.

    That is nine numpy passes over every block. When
    :func:`repro.kernels.native.lut_block` loaded (a C compiler on
    ``PATH``), ``execute`` hands the operands it can take to that routine
    instead: the same per-element sequence in one pass, rows as SIMD
    lanes, reading the plan's one-byte indices directly. Nothing else
    selects between the two bodies — no config field, flag or variable —
    and :attr:`last_body` says which one ran.
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
        fused = native.lut_block()
        if fused is not None and _fused_handles(plan, config, table):
            self.last_body = "compiled"
            return _execute_fused(fused, plan, config, activations, table)
        self.last_body = "numpy"
        m, _, entries = table.shape
        bits, ngroups, n = plan.bits, plan.ngroups, plan.n
        flat = plan.flat_lookup_indices(entries, config.symmetric_table)
        shifts = plan.shifts[1:, None, None]
        scale = plan.scale_gn[:, :, None]
        zero = plan.zero_gn[:, :, None] if plan.has_zero_point else None
        if zero is not None:
            acts = effective_activations(activations, config)
            sums = group_sums(plan, acts).T[:, None, :]  # (G, 1, M)
        out = np.empty((m, n))
        for m0 in range(0, m, BLOCK_ROWS):
            block = table[m0 : m0 + BLOCK_ROWS]
            r = block.shape[0]
            if config.symmetric_table:
                # IEEE `-x` is exactly the naive path's `x·(-1.0)`; the
                # sign itself lives in the plan's flat indices.
                block = np.concatenate([block, -block], axis=-1)
            planes = np.empty((bits, block[0].size, r))
            planes[0] = block.reshape(r, -1).T
            np.multiply(planes[0], shifts, out=planes[1:])
            tile = max(1, BLOCK_ELEMS // (ngroups * r))
            for n0 in range(0, n, tile):
                cols = slice(n0, n0 + tile)
                acc = np.take(planes[0], flat[0, :, cols], axis=0)
                for i in range(1, bits):
                    acc += np.take(planes[i], flat[i, :, cols], axis=0)
                if zero is not None:
                    acc -= zero[:, cols] * sums[:, :, m0 : m0 + r]
                acc *= scale[:, cols]
                out[m0 : m0 + r, cols] = sum_groups_leading(acc).T
        return out


def _fused_handles(plan, config, table) -> bool:
    """Whether ``lut_block.c`` takes this dispatch: a float64 table of the
    plan's geometry, one-byte (k <= 8) C-ordered indices, float64 ``(G,
    N)`` affine parameters. The routine trusts every size it is handed,
    so nothing else may reach it."""
    gn = (plan.ngroups, plan.n)
    entries = (1 << plan.k) >> bool(config.symmetric_table)
    return (
        isinstance(table, np.ndarray)
        and table.dtype == np.float64
        and table.shape[1:] == (plan.ngroups, entries)  # so 3-D
        and plan.indices.dtype == np.uint8
        and plan.indices.flags.c_contiguous
        and plan.indices.shape == (plan.bits, *gn)
        and plan.scale_gn.shape == gn == plan.zero_gn.shape
        and plan.scale_gn.dtype == plan.zero_gn.dtype == np.float64
    )


def _execute_fused(fused, plan, config, activations, table) -> np.ndarray:
    """One ``lut_block`` call for the whole ``(M, N)`` product: the numpy
    body's scalar sequence per output element, read from the plan's own
    uint8 indices (no flat-index cache is built) and from strided views
    (a non-contiguous table, stride-0 affine parameters) as they are."""
    m, ngroups, entries = table.shape
    symmetric = bool(config.symmetric_table)
    fold = fold_offsets(plan.k, entries, symmetric)
    scale = plan.scale_gn
    zero = (None, 0, 0)
    sums = None
    if plan.has_zero_point:
        zero = (plan.zero_gn.ctypes.data, *plan.zero_gn.strides)
        acts = effective_activations(activations, config)
        sums = np.ascontiguousarray(group_sums(plan, acts), dtype=np.float64)
        if sums.shape != (m, ngroups):
            raise ValueError(
                f"{len(acts)} activation rows for a table of {m} rows"
            )
    out = np.empty((m, plan.n))
    # (G, width) table block + (G,) sums at 8 lanes, + 64-byte alignment.
    scratch = np.empty(ngroups * ((entries << symmetric) + 1) * 8 + 8)
    fused(
        table.ctypes.data, *table.strides, m, ngroups, entries, symmetric,
        plan.indices.ctypes.data, fold.ctypes.data, fold.size,
        plan.bits, plan.n,
        scale.ctypes.data, *scale.strides, *zero,
        None if sums is None else sums.ctypes.data,
        out.ctypes.data, scratch.ctypes.data,
    )
    return out


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
