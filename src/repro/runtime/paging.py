"""Paged KV allocation: a shared block pool with O(1) per-step plan work.

The paper prepares all weight-side table state once, offline. Decode
attention has two "weights" that arrive online — the K rows of the
score mpGEMM and the V blocks of the context mpGEMM — and this module
keeps their prepared state per block, so no step rebuilds it for the
whole context (vLLM-style paging):

- :class:`BlockAllocator` owns a **shared pool** of fixed-size token
  blocks (float K/V storage plus, in quantized mode, the plan arenas
  below). Blocks are allocated as sequences grow, freed when requests
  complete, and reused by later requests.
- :class:`PagedLayerCache` is the per-(sequence, layer) view: a block
  table (list of block ids) plus a token count. ``append`` writes rows
  into the trailing block and builds the K rows' lookup columns the
  moment they arrive (the per-row scales are independent, so the
  columns equal a from-scratch build).
- **K arenas**: the score mpGEMM treats the K rows of one block as a
  weight matrix ``(fill, head_dim)``. A row's lookup columns are
  written into the pool's K arenas when the row lands; full blocks
  never change again and a decode step adds one column per KV head —
  O(1) in the context.
- **Per-block V quantization**: V is group-quantized along the context
  *within each block* (groups of 16 when the block size allows, the
  same KIVI-style recipe :class:`~repro.lut.attention.QuantizedKvCache`
  applies at ``context == block_size``). Because groups never span
  blocks, full blocks quantize once; only the trailing block — the only
  place scales can still change — is requantized when its fill
  changed. :meth:`BlockAllocator.refresh_v_arenas` brings the V arenas
  up to date **once per layer per step**: the batch's stale blocks are
  stacked into one ``(blocks · kv_heads · head_dim, block_size)``
  weight for one quantize + column build. V scales belong to one weight
  row and every lookup column is per output column, so each stacked
  column is bit-identical to a per-block, per-head build.
- **Direct column build**: the arena columns (plain K-bit lookup
  indices at :attr:`~repro.kernels.WeightPlan.indices`' one-byte width,
  per-group scale and zero) are written straight from the codes — the
  quantize core :func:`~repro.quant.weight.quantize_weights` ends in,
  the index core :class:`~repro.kernels.WeightPlan` is built on
  (:func:`~repro.kernels.plan.lookup_indices`), the Eq. 2 parameters —
  with no weight or plan object per step. Same operations on the same
  values as the ``quantize_weights`` → ``build_weight_plan`` chain,
  hence the same bits. Where ``kernels/lut_block.c`` loaded, its
  ``kv_append`` / ``kv_refresh`` replay that sequence element by element
  and write the pool's arrays in place through block ids, in one pass
  per call (:meth:`BlockAllocator._land_rows`,
  :meth:`BlockAllocator.refresh_v_arenas`); the numpy cores stay the
  fallback and the oracle, and both bodies write the same bytes.
- **One paged attention, read in place**: a decode step and a
  speculative verify are the same paged LUT mpGEMM with M = ``repeat``
  or ``T · repeat`` rows per KV head — grouped-query attention and the
  verify's candidates *are* M. :func:`fused_paged_verify_attention` is
  the only body and :func:`fused_paged_decode_attention` its T = 1
  call, on every backend: ``reference`` has no tables for its linears,
  but the pool holds nothing a dequantizing attention could read. It
  hands the arenas and the block table to
  :func:`~repro.kernels.paged_lut_execute`, which reads each KV head's
  columns where they live (its numpy body gathers them once per KV
  head). Score columns depend only on their own K row, so per-block
  segments in block order equal one full-context matmul bit for bit;
  the context accumulates per-block partials in ascending block order
  — the block structure *is* the numeric recipe, pinned against a
  from-scratch dense recomputation.
- **One float attention, read in place**: prefill (on every pool: an
  int4 pool keeps its float ``_k`` / ``_v`` slabs) and decode / verify
  on a pool built with ``bits=None`` run
  :func:`paged_float_attention`. It reads the float slabs through the
  block tables and visits each row's causal keys only, under one
  numeric definition — ascending-d scores scaled once, ``np.exp`` of
  their shift by the row max, ascending-key denominator and context —
  so a row depends on its query and its own keys alone: a prefill row
  equals the decode step at its position, a verify row the sequential
  decodes, byte for byte. Where ``kernels/lut_block.c`` loaded, its
  ``attn_scores`` / ``attn_context`` make the two passes around
  ``np.exp``, gathering and padding nothing; the numpy body computes the
  same bytes.

**Copy-on-write prefix sharing.** On top of the pool sits a *prefix
index*: every block written through a layer-tracking cache is
registered under a content hash of ``(layer, token ids from position 0
through the block's last row)``. A new sequence whose prompt starts
with an indexed prefix *adopts* the matching blocks read-only — the
block ids are mapped straight into its block table, refcounts bumped,
and the block's arena columns come along for free because they live at
its block id. Only the tokens past the shared prefix are computed and
allocated. Sharing granularity is the whole block at its current fill
(a chain of full blocks, optionally ended by one partial block matched
at its exact content), which is what keeps the recipe bit-exact: a
shared block's fill always equals the shared token count, so no stale
rows ever enter a score segment or a V quantization group. Writing into
a shared block is forbidden at the pool layer;
:meth:`PagedLayerCache.append` instead performs **copy-on-write** —
clone the block, swap the clone into the table, release the reference
on the original — so diverging sequences split without disturbing each
other. Blocks are refcounted: ``free`` only decrements, and storage is
scrubbed exactly when the last reference drops. Fully-filled indexed
blocks whose refcount reaches zero are *parked* instead of scrubbed
(recently-freed sharing: a completed request's prompt blocks keep
serving later identical prompts) and are reclaimed LRU-first when a
bounded pool runs out of virgin blocks.

**Batched decode append.** The decode hot loop extends every active
sequence by exactly one row per layer. :func:`batched_decode_append`
replaces the per-sequence ``cache.append`` loop with one pool-level
write: per-cache boundary allocation / copy-on-write first (at most
one allocation per sequence, in batch order — the same allocation
order as the sequential loop), then :meth:`BlockAllocator.append_rows`
lands every row in **one** compiled pass, or one stacked quantize +
column build on the numpy body. Per-row scales are row-local and every
lookup column is per output column, so the resulting pool state is
bit-identical to the sequential loop. A prompt goes the same way: on
the numpy body one :meth:`PagedLayerCache.append` quantizes all its K
rows in one stacked call and hands each block its slice, however many
blocks it spans; the compiled writer lands each block's rows in one
call of its own.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from typing import Callable, Hashable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.errors import LutError, ServingError
from repro.kernels import (
    effective_activations,
    get_backend,
    native,
    paged_lut_execute,
)
from repro.kernels.backends import sum_groups_leading
from repro.kernels.plan import lookup_indices
from repro.lut.attention import MASKED_SCORE
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.lut.table import DEFAULT_K
from repro.numerics import masked_width_softmax
from repro.quant.reinterpret import reinterpret_params
from repro.quant.weight import affine_quantize, code_dtype

#: KIVI-style context group length for V quantization (and for K rows
#: when the head dimension allows).
KV_GROUP = 16

#: Elements of one row chunk's scores in the numpy body of the float
#: attention (its context terms get four times as many): small enough for
#: a core's L2, large enough that a decode step is one chunk.
FLOAT_CHUNK = 1 << 15

#: Default tokens per KV block. A multiple of both the LUT group length
#: (so per-block contexts stay mpGEMM-alignable) and :data:`KV_GROUP`
#: (so V quantization groups never span blocks).
DEFAULT_BLOCK_SIZE = 16

#: Initial pool capacity (blocks) when no explicit bound is given; the
#: pool then grows geometrically on demand.
INITIAL_POOL_BLOCKS = 8

#: Default bound on parked (cached-free) prefix blocks. Bounded pools
#: reclaim parked blocks on demand anyway; without this cap an
#: *unbounded* pool would retain every distinct prompt's blocks (slabs
#: and arena columns) forever.
DEFAULT_PREFIX_CACHE_BLOCKS = 64


@runtime_checkable
class PrefixEvictionPolicy(Protocol):
    """Contract for choosing which parked prefix-cache entry to evict.

    The pool consults its policy whenever the parked (cached-free) set
    must shrink — reclaiming a block for a fresh allocation or trimming
    past ``prefix_cache_blocks``. The same policy names also drive the
    router's :class:`~repro.runtime.routing.ShadowPrefixIndex`, whose
    entries are digest keys instead of block ids, so the protocol is
    generic over hashable items. ``record_use`` is called on every
    adoption/match hit, ``forget`` when an item leaves the structure
    for good (its identity may be recycled with new content).
    """

    name: str

    def record_use(self, item: Hashable) -> None:
        ...

    def forget(self, item: Hashable) -> None:
        ...

    def select_victim(self, parked: Mapping) -> Hashable:
        """Pick the eviction victim from *parked* (iteration order =
        least-recently-parked first; never empty when called)."""
        ...


class LruEvictionPolicy:
    """Evict the least-recently-parked entry (the default, and the
    pre-seam behavior): the parked mapping's insertion order *is* the
    recency order — adoption unparks an entry, so re-parking refreshes
    its position — and the victim is simply the front."""

    name = "lru"

    def record_use(self, item):
        pass

    def forget(self, item):
        pass

    def select_victim(self, parked):
        return next(iter(parked))


class LfuEvictionPolicy:
    """Evict the least-frequently-used entry.

    Use counts accumulate across park/adopt cycles (a hot system-prompt
    block stays protected even while briefly live) and reset only when
    the item is forgotten — scrubbed, at which point the id names new
    content. Ties break least-recently-parked first, so a never-reused
    population degrades to exact LRU.
    """

    name = "lfu"

    def __init__(self) -> None:
        self._uses: dict[Hashable, int] = {}

    def record_use(self, item):
        self._uses[item] = self._uses.get(item, 0) + 1

    def forget(self, item):
        self._uses.pop(item, None)

    def select_victim(self, parked):
        best = None
        best_rank = None
        for pos, item in enumerate(parked):
            rank = (self._uses.get(item, 0), pos)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = item
        return best


#: Built-in prefix-cache eviction policy constructors by name.
PREFIX_EVICTION_POLICIES: dict[str, Callable[[], PrefixEvictionPolicy]] = {
    "lru": LruEvictionPolicy,
    "lfu": LfuEvictionPolicy,
}


def get_prefix_eviction_policy(
    policy: str | PrefixEvictionPolicy,
) -> PrefixEvictionPolicy:
    """Resolve an eviction policy name (or pass an instance through)."""
    if isinstance(policy, str):
        try:
            return PREFIX_EVICTION_POLICIES[policy]()
        except KeyError:
            raise ServingError(
                f"unknown prefix eviction policy {policy!r}; "
                f"available: {', '.join(sorted(PREFIX_EVICTION_POLICIES))}"
            ) from None
    if not isinstance(policy, PrefixEvictionPolicy):
        raise ServingError(
            "prefix_eviction must be a policy name or implement "
            "PrefixEvictionPolicy"
        )
    return policy


class BlockAllocator:
    """Shared fixed-size-block KV pool for one model's serving state.

    One allocator serves every sequence and every layer of a model:
    a block id names a ``(kv_heads, block_size, head_dim)`` slab of K
    and V storage (plus the K / V lookup-column arenas when ``bits`` is
    set). ``num_blocks=None`` lets the pool grow geometrically on
    demand; a concrete bound makes :meth:`allocate` raise
    :class:`ServingError` on exhaustion — the failure mode the
    memory-aware admission policy exists to prevent.
    """

    def __init__(
        self,
        kv_heads: int,
        head_dim: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        num_blocks: int | None = None,
        bits: int | None = None,
        lut_k: int = DEFAULT_K,
        prefix_cache_blocks: int | None = DEFAULT_PREFIX_CACHE_BLOCKS,
        prefix_eviction: str | PrefixEvictionPolicy = "lru",
    ) -> None:
        if kv_heads < 1 or head_dim < 1:
            raise ServingError("kv_heads and head_dim must be positive")
        if block_size < 1 or block_size % lut_k != 0:
            raise ServingError(
                f"block_size must be a positive multiple of lut_k={lut_k}, "
                f"got {block_size}"
            )
        if bits is not None and not 1 <= bits <= 8:
            raise ServingError(f"kv bits must be in 1..8, got {bits}")
        if bits is not None and head_dim % lut_k != 0:
            # head_dim is the reduction dim of every per-block K score
            # plan; catch the misfit at pool construction instead of at
            # the first decode, when tokens are already cached.
            raise ServingError(
                f"head_dim {head_dim} must be a multiple of lut_k={lut_k} "
                "for the paged LUT decode path"
            )
        if num_blocks is not None and num_blocks < 1:
            raise ServingError("num_blocks must be >= 1 or None")
        if prefix_cache_blocks is not None and prefix_cache_blocks < 0:
            raise ServingError(
                "prefix_cache_blocks must be >= 0 or None"
            )
        self.prefix_cache_blocks = prefix_cache_blocks
        #: Which parked block the pool reclaims first under pressure:
        #: a name from :data:`PREFIX_EVICTION_POLICIES` (``"lru"``
        #: default, ``"lfu"``) or any :class:`PrefixEvictionPolicy`.
        self.eviction = get_prefix_eviction_policy(prefix_eviction)
        self.kv_heads = kv_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.bits = bits
        self.lut_k = lut_k
        # The K / V recipes QuantizedKvCache.quantize would pick at
        # context == block_size.
        self._k_group = KV_GROUP if head_dim % KV_GROUP == 0 else None
        self._v_group = KV_GROUP if block_size % KV_GROUP == 0 else None

        cap = num_blocks if num_blocks is not None else INITIAL_POOL_BLOCKS
        self._layout = self._block_layout()
        self._block_arrays = self._FLOAT_ARRAYS + (
            self._QUANT_ARRAYS if bits is not None else ()
        )
        #: The per-block arrays this pool holds.
        self._resident = ("_fill", "_refcount") + self._block_arrays
        self._alloc(cap)
        self._free: list[int] = list(range(cap - 1, -1, -1))
        self._in_use: set[int] = set()
        self._ever_used: set[int] = set()
        #: Whether each live block's :meth:`allocate` was its first-ever
        #: use — the record :meth:`_unallocate` needs to undo the
        #: ``allocated``/``reused``/``_ever_used`` effects exactly.
        self._alloc_first_use: dict[int, bool] = {}
        #: Prefix index: chained content digest -> block id, plus the
        #: reverse maps needed to keep entries honest (the block's own
        #: token ids for exact verification, one key per block). A
        #: block's key hashes (layer, predecessor key, own tokens), so
        #: maintaining the trailing entry is O(block) per append, not
        #: O(context). Entries describe a block's *current* rows
        #: exactly — any write drops the stale entry before touching
        #: storage.
        self._prefix_index: dict[bytes, int] = {}
        self._block_key: dict[int, bytes] = {}
        self._block_tokens: dict[int, tuple[int, ...]] = {}
        #: Recently-freed full indexed blocks, refcount 0 but contents
        #: (and arena columns) intact, in park order — resurrected by
        #: prefix matches, reclaimed LRU-first under pool pressure.
        self._cached_free: dict[int, None] = {}
        #: Allocation and incremental-plan-work counters. ``k_plan_cols``
        #: counts K-arena columns written — per decode step it stays
        #: constant (one column per KV head per layer) no matter
        #: how long the context is; the serving bench reads the
        #: ``*_s`` timers to prove per-step plan time is flat. Both
        #: timers cover the whole quantize + column build of their side,
        #: on either body: ``k_plan_s`` the K rows' (on the compiled body
        #: the one ``kv_append`` call, which lands the float rows too),
        #: ``v_quant_s`` the V arenas' (refreshes and the verify's masked
        #: requantizations).
        #: ``shared`` counts prefix-index adoptions (each one is a block
        #: allocation avoided), ``cow`` copy-on-write clones, ``cached``/
        #: ``evicted`` the recently-freed park/reclaim traffic.
        self.stats: dict[str, float] = {
            "allocated": 0,
            "freed": 0,
            "reused": 0,
            "shared": 0,
            "cow": 0,
            "cached": 0,
            "evicted": 0,
            "prefix_tokens": 0,
            "k_plan_cols": 0,
            "k_plan_s": 0.0,
            "v_quant_cols": 0,
            "v_quant_s": 0.0,
        }

    # ------------------------------------------------------------------
    #: A block's content (block id indexes axis 0 of each array): what
    #: :meth:`cow_clone` and the spill payload carry. Each fact is stored
    #: once at its own width (:meth:`_block_layout`); none is int64.
    _FLOAT_ARRAYS = ("_k", "_v")
    _QUANT_ARRAYS = (
        "_ka_idx", "_ka_scale", "_ka_zero",
        "_va_fill", "_va_idx", "_va_scale", "_va_zero",
    )
    #: The lookup-index arenas: a value must be below ``2**lut_k``
    #: (:meth:`accepts`).
    _INDEX_ARRAYS = ("_ka_idx", "_va_idx")
    #: What the compiled writer (``kv_append`` / ``kv_refresh`` in
    #: ``kernels/lut_block.c``) reads and writes, in its ``KV_ARRAYS``
    #: order.
    _KV_WRITER_ARRAYS = (
        "_k", "_v", "_ka_idx", "_ka_scale", "_ka_zero",
        "_va_idx", "_va_scale", "_va_zero",
    )
    #: Which body last wrote the quantized KV state, ``"compiled"`` or
    #: ``"numpy"`` (None before the first write): the K rows of
    #: :meth:`_land_rows` or the lookup-column V arenas of
    #: :meth:`refresh_v_arenas`.
    last_kv_body: str | None = None
    #: Which body of :func:`paged_float_attention` last read this pool,
    #: ``"compiled"`` or ``"numpy"`` (None before the first call).
    last_attn_body: str | None = None

    def _block_layout(self) -> dict[str, tuple[tuple[int, ...], np.dtype, float]]:
        """``name -> (per-block shape, dtype, scrubbed value)``: the one
        statement of the pool's storage format, read by allocation,
        scrubbing and :meth:`accepts` (the restore-time payload check)."""
        kv, bs, hd = self.kv_heads, self.block_size, self.head_dim
        f8, i8, i4 = map(np.dtype, (np.float64, np.int64, np.int32))
        layout = {name: ((kv, bs, hd), f8, 0.0) for name in ("_k", "_v")}
        # Rows written, and references held: block-table entries naming
        # the block. ``free`` decrements; storage scrubs only at zero.
        layout.update(_fill=((), i8, 0), _refcount=((), i8, 0))
        if self.bits is None:
            return layout
        gk, gv = hd // self.lut_k, bs // self.lut_k
        ix = code_dtype(self.lut_k)
        layout.update(
            # Plan arenas: the per-block WeightPlan state in slab layout,
            # read in place by one dispatch per layer across every active
            # sequence's blocks. K side (score mpGEMM, one output column
            # per cached token): a plan's plain K-bit lookup indices at
            # its width, per-group affine. Written incrementally by
            # :meth:`write_rows` — column values are per-token, so the
            # slab always equals what a from-scratch plan would hold.
            _ka_idx=((kv, self.bits, gk, bs), ix, 0),
            _ka_scale=((kv, gk, bs), f8, 1.0),
            _ka_zero=((kv, gk, bs), f8, 0.0),
            # V side (context mpGEMM, the block consumed as a
            # (head_dim, block_size) weight): refreshed per fill level by
            # :meth:`refresh_v_arenas` — ``_va_fill`` records the fill the
            # arena was built at (-1 = never), so full blocks refresh once
            # and only the trailing block pays per-step requantization.
            _va_fill=((), i4, -1),
            _va_idx=((kv, self.bits, gv, hd), ix, 0),
            _va_scale=((kv, gv, hd), f8, 1.0),
            _va_zero=((kv, gv, hd), f8, 0.0),
        )
        return layout

    def _alloc(self, cap: int) -> None:
        for name in self._resident:
            shape, dtype, scrubbed = self._layout[name]
            arr = np.zeros((cap,) + shape, dtype)  # calloc: untouched = unbacked
            if scrubbed:
                arr[...] = scrubbed
            setattr(self, name, arr)
        self._kv_operands = self._kv_writer_operands()

    def _kv_writer_operands(self):
        """``(owned, pointers address, geometry address)`` of the compiled
        writer, or None where the writer does not take this pool: no
        quantized state, a lookup group wider than its 8-code buffer, a
        quantization group that is not whole lookup groups (the numpy
        body raises :class:`LutError` there), or an array that is not
        C-contiguous at the layout's shape and dtype (the routine trusts
        all of these). *owned* holds every buffer whose address goes to
        C: the base addresses of :attr:`_KV_WRITER_ARRAYS` and the pool
        geometry, in ``lut_block.c``'s ``KV_ARRAYS`` / ``KV_GEO`` order.
        Re-made by every :meth:`_alloc`, so the writer never sees storage
        :meth:`_grow` replaced."""
        k_group = self._k_group or self.head_dim
        v_group = self._v_group or self.block_size
        if (
            self.bits is None
            or not 1 <= self.lut_k <= 8
            or k_group % self.lut_k
            or v_group % self.lut_k
        ):
            return None
        arrays = [getattr(self, name) for name in self._KV_WRITER_ARRAYS]
        if not all(
            a.flags.c_contiguous
            and a.shape == (self.capacity,) + self._layout[name][0]
            and a.dtype == self._layout[name][1]
            for name, a in zip(self._KV_WRITER_ARRAYS, arrays)
        ):
            return None
        pointers = np.array([a.ctypes.data for a in arrays], dtype=np.uint64)
        geometry = np.array((
            self.capacity, self.kv_heads, self.block_size, self.head_dim,
            self.bits, self.lut_k, k_group, v_group,
        ), dtype=np.int64)
        return (
            (pointers, geometry),
            pointers.ctypes.data,
            geometry.ctypes.data,
        )

    def _kv_writer(self, routine):
        """The compiled writer *routine* (``native.kv_append`` /
        ``native.kv_refresh``) returns, where it loaded and takes this
        pool; else None, and the numpy body runs."""
        fn = routine()
        return fn if fn is not None and self._kv_operands is not None else None

    def _kv_compiled(self, fn, *args) -> bool:
        """One call of a compiled writer: True when it wrote, False when
        a value it does not replay (non-finite, or a scale that
        underflows to zero) leaves the call to the numpy body. A block id
        or offset out of range raises :class:`IndexError`. The routine
        checks all of that before its first write: unless it returns
        True, nothing was written."""
        status = fn(*self._kv_operands[1:], *args)
        if status == 1:
            raise IndexError(
                f"a block id outside [0, {self.capacity}) or an offset "
                f"outside [0, {self.block_size})"
            )
        return status == 0

    def accepts(self, payload: dict) -> bool:
        """Whether a :meth:`PagedLayerCache.serialize` payload is in this
        pool's block format: the block count its length needs, every
        block at the fill its position implies, holding exactly
        :attr:`_block_arrays` at the layout's shapes and dtypes, and
        lookup indices (:attr:`_INDEX_ARRAYS`) below ``2**lut_k`` — the
        only way an index the writers never produce could reach the
        pool."""
        length, blocks = payload.get("length"), payload.get("blocks", ())
        if not (
            isinstance(length, int)
            and {"layer", "tokens"} <= payload.keys()
            and len(blocks) == self.blocks_for_tokens(length)
        ):
            return False
        fmt = {name: self._layout[name][:2] for name in self._block_arrays}
        top = 1 << self.lut_k
        return all(
            bp.get("fill") == min(self.block_size, length - i * self.block_size)
            and fmt == {
                name: (getattr(a, "shape", None), getattr(a, "dtype", None))
                for name, a in bp.items() if name != "fill"
            }
            and all(
                bp[name].max(initial=0) < top
                for name in self._INDEX_ARRAYS if name in bp
            )
            for i, bp in enumerate(blocks)
        )

    def _grow(self) -> None:
        old_cap = self.capacity
        new_cap = old_cap * 2
        old = {name: getattr(self, name) for name in self._resident}
        self._alloc(new_cap)
        for name, arr in old.items():
            getattr(self, name)[:old_cap] = arr
        self._free.extend(range(new_cap - 1, old_cap - 1, -1))

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Blocks currently backed by storage (grows when unbounded)."""
        return self._k.shape[0]

    @property
    def free_blocks(self) -> int | None:
        """Blocks still allocatable; ``None`` when the pool is unbounded."""
        if self.num_blocks is None:
            return None
        return self.num_blocks - len(self._in_use)

    @property
    def used_blocks(self) -> int:
        return len(self._in_use)

    def blocks_for_tokens(self, tokens: int) -> int:
        """Blocks one layer of a *tokens*-long sequence occupies."""
        return -(-max(tokens, 0) // self.block_size)

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Claim a free block; raises when a bounded pool is exhausted.

        Virgin/scrubbed blocks are handed out first; when none remain
        in a bounded pool, the eviction policy picks a cached-free
        block to evict from the prefix index and reclaim (LRU by
        default). An unbounded pool grows instead, keeping its prefix
        cache warm.
        """
        if not self._free:
            if self.num_blocks is not None:
                if not self._cached_free:
                    raise ServingError(
                        f"KV block pool exhausted ({self.num_blocks} "
                        "blocks in use); complete requests to free blocks "
                        "or admit with the memory-aware scheduler"
                    )
                self._reclaim(self.eviction.select_victim(self._cached_free))
            else:
                self._grow()
        bid = self._free.pop()
        self._in_use.add(bid)
        self._refcount[bid] = 1
        if bid in self._ever_used:
            self.stats["reused"] += 1
            self._alloc_first_use[bid] = False
        else:
            self._ever_used.add(bid)
            self._alloc_first_use[bid] = True
        self.stats["allocated"] += 1
        self._fill[bid] = 0
        return bid

    def free(self, block_id: int) -> None:
        """Release one reference on a block.

        Refcounted: a shared block merely loses one holder and its
        contents are untouched. When the *last* reference drops, a
        fully-filled prefix-indexed block is parked in the cached-free
        set (recently-freed sharing — its rows and arena columns keep
        serving later identical prompts until the pool reclaims it);
        anything else is scrubbed and returned to the free list
        immediately.
        """
        if block_id not in self._in_use:
            raise ServingError(f"block {block_id} is not allocated")
        self._refcount[block_id] -= 1
        self.stats["freed"] += 1
        if self._refcount[block_id] > 0:
            return
        self._in_use.remove(block_id)
        if (
            self._block_key.get(block_id) is not None
            and int(self._fill[block_id]) == self.block_size
            and self.prefix_cache_blocks != 0
        ):
            self._cached_free[block_id] = None
            self.stats["cached"] += 1
            # Bound the parked set: without a cap an unbounded pool
            # would retain every distinct prompt's blocks forever. The
            # eviction policy picks the victims (LRU by default).
            while (
                self.prefix_cache_blocks is not None
                and len(self._cached_free) > self.prefix_cache_blocks
            ):
                self._reclaim(self.eviction.select_victim(self._cached_free))
        else:
            self._unregister(block_id)
            self._scrub_to_free(block_id)

    def _reclaim(self, block_id: int) -> None:
        """Evict a parked block: out of the parked set and the prefix
        index, scrubbed back to the free list."""
        del self._cached_free[block_id]
        self._unregister(block_id)
        self._scrub_to_free(block_id)
        self.stats["evicted"] += 1

    def _scrub_to_free(self, block_id: int) -> None:
        """Zero a dead block's storage and return it to the free list."""
        for name in self._resident:
            # V stamps scrub to -1, which forces an arena rebuild for the
            # next occupant even at the same fill — the reuse-without-
            # leakage guarantee.
            getattr(self, name)[block_id] = self._layout[name][2]
        self._alloc_first_use.pop(block_id, None)
        # The id will name new content from here on — any eviction-
        # policy bookkeeping (e.g. LFU use counts) must not carry over.
        self.eviction.forget(block_id)
        self._free.append(block_id)

    # -- rollback ------------------------------------------------------
    def _unallocate(self, block_id: int) -> None:
        """Exactly undo one :meth:`allocate` of a still-private block.

        Unlike :meth:`free` this is a *rollback*, not a release: the
        ``allocated``/``reused`` counters and the ``_ever_used`` record
        are decremented back (``freed`` is untouched), nothing is parked,
        and the block returns to the tail of the free list — the slot
        :meth:`allocate` popped it from — so a sequence of allocations
        undone in reverse order restores the free list bit-for-bit.
        Speculative decoding uses this to roll back blocks that only
        ever held rejected draft rows.
        """
        if block_id not in self._in_use:
            raise ServingError(f"block {block_id} is not allocated")
        if self._refcount[block_id] != 1:
            raise ServingError(
                f"block {block_id} has refcount "
                f"{self.refcount(block_id)}; only a sole holder can "
                "roll back its allocation"
            )
        first_use = self._alloc_first_use.get(block_id, False)
        self._in_use.remove(block_id)
        self._unregister(block_id)
        self._scrub_to_free(block_id)
        self.stats["allocated"] -= 1
        if first_use:
            self._ever_used.discard(block_id)
        else:
            self.stats["reused"] -= 1

    def truncate_rows(self, block_id: int, new_fill: int) -> None:
        """Roll back a private block's trailing rows to ``new_fill``.

        The exact inverse of the :meth:`write_rows` /
        :meth:`append_rows` calls that grew the block past *new_fill*:
        the dead rows' float slabs and K-arena columns return to their
        scrubbed values (per-column arena entries never fed into the
        surviving rows, so zeroing them is a perfect undo),
        ``k_plan_cols`` gives back the removed columns, a V arena built
        past *new_fill* is reset to never-built (its trailing group's
        scales saw the dead rows), and a stale prefix-index entry is
        dropped — leaving the block bit-equal to one that never appended
        the rows. Shared blocks are refused:
        rollback of a row another table can see is never meaningful.
        """
        if block_id not in self._in_use:
            raise ServingError(f"block {block_id} is not allocated")
        if self._refcount[block_id] != 1:
            raise ServingError(
                f"block {block_id} is shared by "
                f"{self.refcount(block_id)} tables; cannot roll back "
                "rows another table can see"
            )
        fill = int(self._fill[block_id])
        if not 0 <= new_fill <= fill:
            raise ServingError(
                f"cannot truncate block at fill {fill} to {new_fill}"
            )
        if new_fill == fill:
            return
        if self._block_key.get(block_id) is not None:
            self._unregister(block_id)
        dead = np.s_[new_fill:fill]
        self._k[block_id][:, dead] = 0.0
        self._v[block_id][:, dead] = 0.0
        if self.bits is not None:
            self._ka_idx[block_id][:, :, :, dead] = 0
            self._ka_scale[block_id][:, :, dead] = 1.0
            self._ka_zero[block_id][:, :, dead] = 0.0
            self.stats["k_plan_cols"] -= (fill - new_fill) * self.kv_heads
            if self._va_fill[block_id] > new_fill:
                # The arena saw the dead rows (their trailing V group's
                # scale folded them in) — reset to never-built so the
                # next refresh reproduces the never-appended recipe.
                for name in self._resident:
                    if name.startswith("_va_"):
                        getattr(self, name)[block_id] = self._layout[name][2]
        self._fill[block_id] = new_fill

    # -- prefix sharing ------------------------------------------------
    def refcount(self, block_id: int) -> int:
        """Live block-table references on a block (0 when parked/free)."""
        return int(self._refcount[block_id])

    @property
    def shared_in_use(self) -> int:
        """In-use blocks currently referenced by more than one table."""
        return sum(1 for bid in self._in_use if self._refcount[bid] > 1)

    @property
    def cached_free_blocks(self) -> int:
        """Recently-freed blocks parked for prefix reuse."""
        return len(self._cached_free)

    @staticmethod
    def prefix_key(layer: int, prev_key: bytes, tokens) -> bytes:
        """Chained content digest of one block: the layer, the
        predecessor block's key (``b""`` for the first block), and the
        block's own token ids (the KV head group is the whole block —
        blocks hold all KV heads). Equal keys imply equal full leading
        histories by induction, so per-append index maintenance hashes
        only one block's tokens instead of the whole context. The bytes
        hashed are the native int64 layer, the predecessor key and the
        native int64 token ids; ``array('q')`` packs them without a numpy
        round trip."""
        return hashlib.sha256(
            array("q", (layer,)).tobytes() + prev_key
            + array("q", tokens).tobytes()
        ).digest()

    def _unregister(self, block_id: int) -> None:
        key = self._block_key.pop(block_id, None)
        if key is not None and self._prefix_index.get(key) == block_id:
            del self._prefix_index[key]
        self._block_tokens.pop(block_id, None)

    def register_prefix(
        self, block_id: int, key: bytes, block_tokens
    ) -> None:
        """(Re-)index a block under its chained content digest.

        *key* is the :meth:`prefix_key` of the block's position in its
        chain and *block_tokens* the block's own token ids as Python ints
        (stored as a tuple for exact verification on match — a hash
        collision cannot cause false sharing of the block itself). A
        block holds exactly one index entry; a partial trailing block's
        entry is replaced every time it grows. If another block already owns the key (identical
        content computed twice), the newcomer becomes canonical and the
        displaced block's registration is dropped.
        """
        if block_id not in self._in_use:
            raise ServingError(
                f"block {block_id} is not allocated; cannot index it"
            )
        self._unregister(block_id)
        prev = self._prefix_index.get(key)
        if prev is not None and prev != block_id:
            if prev in self._cached_free:
                # A parked block only exists to serve the index; once
                # displaced it is unreachable — reclaim it now.
                self._reclaim(prev)
            else:
                self._unregister(prev)
        self._prefix_index[key] = block_id
        self._block_key[block_id] = key
        self._block_tokens[block_id] = tuple(block_tokens)

    def match_prefix(self, layer: int, tokens) -> list[tuple[int, int]]:
        """Longest indexed block chain covering a leading run of *tokens*.

        Returns ``[(block_id, fill), ...]`` — full blocks, optionally
        ended by one partial block matched at its exact current
        content (fill == matched token count, the invariant that keeps
        shared decode bit-exact). Every hit's own token ids are
        verified against the stored tuple, and the chained key pins the
        history before it. Matched blocks may be live or parked;
        nothing is adopted yet.
        """
        ids = [int(t) for t in tokens]
        chain: list[tuple[int, int]] = []
        pos = 0
        prev_key = b""
        while pos < len(ids):
            found = None
            for fill in range(min(self.block_size, len(ids) - pos), 0, -1):
                segment = tuple(ids[pos: pos + fill])
                key = self.prefix_key(layer, prev_key, segment)
                bid = self._prefix_index.get(key)
                if bid is None:
                    continue
                if self._block_tokens.get(bid) != segment:
                    continue
                if int(self._fill[bid]) != fill:
                    continue
                found = (bid, fill, key)
                break
            if found is None:
                break
            chain.append(found[:2])
            pos += found[1]
            prev_key = found[2]
            if found[1] < self.block_size:
                break  # a partial block can only end a chain
        return chain

    def adopt(self, block_id: int) -> None:
        """Map an indexed block into one more table (read-only share).

        Live blocks gain a reference; parked cached-free blocks are
        resurrected with their contents and arena columns intact.
        """
        if block_id in self._cached_free:
            del self._cached_free[block_id]
            self._in_use.add(block_id)
            self._refcount[block_id] = 1
        elif block_id in self._in_use:
            self._refcount[block_id] += 1
        else:
            raise ServingError(
                f"block {block_id} is neither live nor parked; "
                "cannot adopt it"
            )
        self.eviction.record_use(block_id)
        self.stats["shared"] += 1

    def cow_clone(self, block_id: int) -> int:
        """Copy-on-write: clone a shared block into a fresh private one.

        Copies every :attr:`_block_arrays` slab — float K/V, the arenas
        with their fill stamp — and the fill, so the first
        post-divergence decode step reproduces the from-scratch recipe
        bit for bit. The caller swaps the clone into its table and
        releases its reference on the original.
        """
        if block_id not in self._in_use:
            raise ServingError(f"block {block_id} is not allocated")
        new = self.allocate()
        for name in self._block_arrays:
            getattr(self, name)[new] = getattr(self, name)[block_id]
        self._fill[new] = self._fill[block_id]
        self.stats["cow"] += 1
        return new

    # ------------------------------------------------------------------
    def _check_lookup_groups(self, gsize: int) -> None:
        """Raise :class:`LutError` unless a quantization group of *gsize*
        values is whole lookup groups: else one ``lut_k`` group would
        span two scales."""
        if gsize % self.lut_k != 0:
            raise LutError(
                f"scale varies within a k={self.lut_k} group; group_size "
                "must be a multiple of k for the LUT path"
            )

    def _lookup_columns(self, rows: np.ndarray, group: int | None):
        """Lookup columns of an ``(n, K)`` weight, quantized per row — one
        scale per row, or per *group* consecutive columns when set —
        through :func:`quantize_weights`' core: what
        ``build_weight_plan`` → ``indices`` / ``scale_gn`` / ``zero_gn``
        hold for the same weight, straight from the codes and the Eq. 2
        parameters. Returns ``(bits, n, G)`` plain K-bit indices and
        ``(n, G)`` affine, ``G = K // lut_k``."""
        n, kdim = rows.shape
        gsize, k = group or kdim, self.lut_k
        self._check_lookup_groups(gsize)
        grouped = rows.reshape(n, kdim // gsize, gsize)
        # A short trailing axis reduces one numpy inner loop per group;
        # group axis leading, g vectorized passes. min/max are exact.
        lead = np.ascontiguousarray(grouped.transpose(2, 0, 1))
        codes, scale, zero_point = affine_quantize(
            grouped,
            lead.min(axis=0)[..., None],
            lead.max(axis=0)[..., None],
            self.bits,
        )
        a_scale, a_zero = reinterpret_params(scale, zero_point, self.bits)
        return (
            lookup_indices(codes.reshape(n, -1), self.bits, k),
            np.repeat(a_scale[..., 0], gsize // k, axis=1),
            np.repeat(a_zero[..., 0], gsize // k, axis=1),
        )

    def _k_columns(self, k_rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """K-arena columns of ``(R, kv_heads, head_dim)`` K rows.

        **One** stacked quantize + column build over all ``R *
        kv_heads`` rows, whichever blocks they are bound for: per-row
        scales are row-local and every lookup column is per output
        column, so each row's K-arena columns are bit-identical to
        building them alone. Returns ``(indices, scale, zero)``, row
        axis leading, for :meth:`_land_rows` to scatter. The numpy
        body's half of the ``k_plan_s`` timer: quantize and column
        build.
        """
        started = time.perf_counter()
        r, kv = k_rows.shape[0], self.kv_heads
        idx, a_scale, a_zero = self._lookup_columns(
            k_rows.reshape(r * kv, self.head_dim), self._k_group
        )
        shape = (r, kv, -1)
        cols = (
            # (bits, R * kv_heads, gk) lookup columns, row axis first.
            idx.reshape(self.bits, r, kv, -1).transpose(1, 2, 0, 3),
            a_scale.reshape(shape),
            a_zero.reshape(shape),
        )
        self.stats["k_plan_s"] += time.perf_counter() - started
        return cols

    def _land_rows(self, bids, offs, k_rows, v_rows) -> None:
        """Land row ``i`` of ``(R, kv_heads, head_dim)`` C-contiguous
        float64 K / V rows in slot ``offs[i]`` of block ``bids[i]`` (int64
        arrays; or of the one block ``bids``), all checked by the caller:
        the float slabs, then on a quantized pool the row's K-arena
        column per KV head.

        **Two bodies, one result.** Where ``lut_block.c`` loaded (and
        :meth:`_kv_writer_operands` took the pool), ``kv_append`` writes
        all of it in place in one pass, replaying the numpy sequence of
        :meth:`_k_columns` element by element (ARCHITECTURE §8). The
        numpy body scatters one :meth:`_k_columns` build with one
        fancy-indexed write per array; so does a call holding a value
        the compiled body leaves to it (:meth:`_kv_compiled`). The
        bytes are the same either way; :attr:`last_kv_body` says which
        body ran, and ``k_plan_s`` times the quantize + column build on
        both.
        """
        fn = None if self.bits is None else self._kv_writer(native.kv_append)
        if fn is not None:
            started = time.perf_counter()
            if np.ndim(bids) == 0:
                bids = np.full(len(offs), bids, dtype=np.int64)
            if self._kv_compiled(
                fn, k_rows.ctypes.data, v_rows.ctypes.data,
                bids.ctypes.data, offs.ctypes.data, len(bids),
            ):
                self.stats["k_plan_s"] += time.perf_counter() - started
                self.stats["k_plan_cols"] += len(offs) * self.kv_heads
                self.last_kv_body = "compiled"
                return
        self._k[bids, :, offs] = k_rows
        self._v[bids, :, offs] = v_rows
        if self.bits is None:
            return
        ka_idx, ka_scale, ka_zero = self._k_columns(k_rows)
        self._ka_idx[bids, :, :, :, offs] = ka_idx
        self._ka_scale[bids, :, :, offs] = ka_scale
        self._ka_zero[bids, :, :, offs] = ka_zero
        self.stats["k_plan_cols"] += len(offs) * self.kv_heads
        self.last_kv_body = "numpy"

    def _writable(self, ids: list[int], rows: int, k_rows, v_rows):
        """Every check a write of *rows* rows into each of the blocks
        *ids* must pass, all made before anything changes: K / V rows of
        shape ``(len(ids) * rows, kv_heads, head_dim)``, ids in the pool
        (else :class:`IndexError`), the blocks distinct and private,
        each with room at a valid fill, and on a quantized pool K scale
        groups that are whole lookup groups (else :class:`LutError`,
        :meth:`_check_lookup_groups`). Returns the rows as C-contiguous
        float64 and the blocks' fills (the first offsets)."""
        k_rows = np.ascontiguousarray(k_rows, dtype=np.float64)
        v_rows = np.ascontiguousarray(v_rows, dtype=np.float64)
        shape = (len(ids) * rows, self.kv_heads, self.head_dim)
        if k_rows.shape != shape or v_rows.shape != shape:
            raise ServingError(
                f"expected rows of shape {shape}, got "
                f"{k_rows.shape} / {v_rows.shape}"
            )
        if min(ids) < 0 or max(ids) >= self.capacity:
            raise IndexError(
                f"block ids {min(ids)}..{max(ids)} for {self.capacity} blocks"
            )
        if len(set(ids)) != len(ids):
            raise ServingError("destination blocks must be distinct")
        if self.bits is not None and rows:
            self._check_lookup_groups(self._k_group or self.head_dim)
        fills = []
        for bid in ids:
            if self._refcount[bid] > 1:
                raise ServingError(
                    f"block {bid} is shared by {self.refcount(bid)} "
                    "tables; copy-on-write before appending"
                )
            fills.append(int(self._fill[bid]))
        for bid, fill in zip(ids, fills):
            if fill < 0:
                raise IndexError(f"block {bid} at fill {fill}")
            if fill + rows > self.block_size:
                raise ServingError(
                    f"block overflow: block {bid} at fill {fill} + {rows} "
                    f"> {self.block_size}"
                )
        return k_rows, v_rows, fills

    def _unregister_written(self, ids: list[int]) -> None:
        """Drop the prefix-index entries of blocks about to be written:
        an entry describes a block's current rows exactly."""
        for bid in ids:
            if self._block_key.get(bid) is not None:
                self._unregister(bid)

    def write_rows(
        self,
        block_id: int,
        k_rows: np.ndarray,
        v_rows: np.ndarray,
    ) -> None:
        """Append ``(t, kv_heads, head_dim)`` rows into one block.

        Writes the float slabs and the K rows' K-arena columns (per-row
        scales — independent of every other row, hence equal to a
        from-scratch build), both through :meth:`_land_rows`; the
        block's V arenas go stale by their fill stamp (the trailing
        group's scales may have changed). Shared blocks are read-only at
        this layer: writing one is an error — callers must go through
        :meth:`cow_clone` first. Every check (:meth:`_writable`) comes
        before any change; then a stale prefix-index entry for the block
        is dropped before the rows land (the caller re-registers the
        grown content afterwards if it tracks tokens).
        """
        ids = [int(block_id)]
        t_new = len(k_rows)
        k_rows, v_rows, (off,) = self._writable(ids, t_new, k_rows, v_rows)
        if t_new == 0:
            return
        self._unregister_written(ids)
        self._land_rows(ids[0], np.arange(off, off + t_new), k_rows, v_rows)
        self._fill[block_id] = off + t_new

    def append_rows(
        self, block_ids, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append one row into each of several *distinct* blocks at once.

        ``block_ids`` names B distinct writable blocks; ``k_rows`` /
        ``v_rows`` are ``(B, kv_heads, head_dim)`` — one new token per
        block. Semantically B single-row :meth:`write_rows` calls,
        executed as one :meth:`_land_rows`: one compiled pass, or one
        vectorized slab write plus **one** stacked quantize + column
        build over all ``B * kv_heads`` rows (:meth:`_k_columns`), so
        the K-arena columns land bit-identical to the sequential loop
        (the batched-append parity tests pin this).
        Every destination passes every check (:meth:`_writable`) before
        anything changes; then stale prefix-index entries drop and
        ``k_plan_cols`` grows by one column per KV head per block.
        """
        ids = np.asarray(block_ids, dtype=np.int64).tolist()
        if not ids:
            return
        k_rows, v_rows, fills = self._writable(ids, 1, k_rows, v_rows)
        self._unregister_written(ids)
        bids = np.array(ids, dtype=np.int64)
        offs = np.array(fills, dtype=np.int64)
        self._land_rows(bids, offs, k_rows, v_rows)
        self._fill[bids] = offs + 1

    # ------------------------------------------------------------------
    def _v_arena_columns(self, v_slabs: np.ndarray) -> tuple[np.ndarray, ...]:
        """V-arena columns of ``(C, kv_heads, block_size, head_dim)`` slabs.

        Each slab is consumed as ``kv_heads`` ``(head_dim, block_size)``
        weights; all ``C * kv_heads * head_dim`` weight rows go through
        **one** stacked quantize + column build. V scales are per weight
        row (grouped along the block context) and every lookup column is
        per output column, so the stacked columns are bit-identical to
        the per-block, per-head ``quantize_weights`` →
        ``build_weight_plan`` chain. Returns ``(indices, scale, zero)``,
        slab axis leading, in arena layout.
        Owns the ``v_quant_s`` timer — quantize and index build — and
        the ``v_quant_cols`` count.
        """
        started = time.perf_counter()
        c = v_slabs.shape[0]
        kv, hd = self.kv_heads, self.head_dim
        # (C * kv_heads * head_dim, block_size): slab-major, then head.
        v_t = v_slabs.transpose(0, 1, 3, 2).reshape(-1, self.block_size)
        idx, a_scale, a_zero = self._lookup_columns(v_t, self._v_group)
        cols = (
            idx.reshape(self.bits, c, kv, hd, -1).transpose(1, 2, 0, 4, 3),
            a_scale.reshape(c, kv, hd, -1).transpose(0, 1, 3, 2),
            a_zero.reshape(c, kv, hd, -1).transpose(0, 1, 3, 2),
        )
        self.stats["v_quant_cols"] += c * self.block_size * kv
        self.stats["v_quant_s"] += time.perf_counter() - started
        return cols

    def refresh_v_arenas(self, block_ids) -> None:
        """Bring the V arena slabs of *block_ids* up to their current fill.

        Blocks whose ``_va_fill`` stamp already matches are skipped
        (full blocks refresh once, ever; duplicate ids count once). An id
        outside the pool raises :class:`IndexError`, and a V scale group
        that is not whole lookup groups :class:`LutError`, before
        anything changes. The fused decode calls this once per layer per
        step with every gathered block: steady-state V-quant work is one
        trailing block per sequence per layer.

        **Two bodies, one result.** Where ``lut_block.c`` loaded,
        ``kv_refresh`` rebuilds every stale block's ``_va_idx`` /
        ``_va_scale`` / ``_va_zero`` in place in one pass, each block's
        ``_v`` slab read transposed — every slot, the scrubbed ones past
        the fill included — replaying :meth:`_v_arena_columns` element by
        element. The numpy body (and a call holding a value the compiled
        body leaves to it) stacks the stale slabs into **one**
        :meth:`_v_arena_columns` build and scatters it with one write per
        arena. :attr:`last_kv_body` says which body wrote the columns;
        ``v_quant_s`` times the build on both.
        """
        bids = np.unique(np.asarray(block_ids, dtype=np.int64))
        if bids.size and (bids[0] < 0 or bids[-1] >= self.capacity):
            raise IndexError(
                f"block ids {bids[0]}..{bids[-1]} for {self.capacity} blocks"
            )
        stale = bids[self._va_fill[bids] != self._fill[bids]]
        if stale.size == 0:
            return
        self._check_lookup_groups(self._v_group or self.block_size)
        fn = self._kv_writer(native.kv_refresh)
        started = time.perf_counter()
        if fn is not None and self._kv_compiled(
            fn, stale.ctypes.data, stale.size
        ):
            self.stats["v_quant_cols"] += (
                stale.size * self.block_size * self.kv_heads
            )
            self.stats["v_quant_s"] += time.perf_counter() - started
            self.last_kv_body = "compiled"
        else:
            (self._va_idx[stale], self._va_scale[stale],
             self._va_zero[stale]) = self._v_arena_columns(self._v[stale])
            self.last_kv_body = "numpy"
        self._va_fill[stale] = self._fill[stale]


class PagedLayerCache:
    """Block-table view of one attention layer of one sequence.

    ``append`` extends the sequence, ``k_view`` / ``v_view`` gather its
    float history; all storage lives in a shared
    :class:`BlockAllocator`, whose per-block arenas the quantized decode
    path reads instead of rebuilding full-context state each step. Call
    :meth:`release` when the sequence completes so the blocks return to
    the pool.

    With ``layer`` set the cache participates in prefix sharing: every
    append that carries token ids (re-)registers the trailing block in
    the pool's prefix index, :meth:`adopt_prefix` maps another
    sequence's matching blocks read-only, and an append into a shared
    trailing block transparently copy-on-writes it. ``layer=None``
    (default) keeps the pre-sharing behavior for direct users.
    """

    def __init__(
        self, pool: BlockAllocator, layer: int | None = None
    ) -> None:
        self.pool = pool
        self.layer = layer
        self.block_ids: list[int] = []
        self.length = 0
        self._tokens: list[int] = []
        #: Chained prefix digest per block (trailing entry replaced as
        #: the block grows) — keeps per-append index maintenance
        #: O(block) instead of re-hashing the whole history.
        self._chain: list[bytes] = []
        self._released = False

    # -- delegated geometry --------------------------------------------
    @property
    def kv_heads(self) -> int:
        return self.pool.kv_heads

    @property
    def head_dim(self) -> int:
        return self.pool.head_dim

    @property
    def bits(self) -> int | None:
        return self.pool.bits

    @property
    def lut_k(self) -> int:
        return self.pool.lut_k

    @property
    def block_size(self) -> int:
        return self.pool.block_size

    def padded_context(self) -> int:
        """Allocated context: block count × block size."""
        return len(self.block_ids) * self.block_size

    def block_fill(self, index: int) -> int:
        """Valid tokens in the *index*-th block of this sequence."""
        return min(
            self.block_size, self.length - index * self.block_size
        )

    # ------------------------------------------------------------------
    def adopt_prefix(self, chain: list[tuple[int, int]], tokens) -> int:
        """Map an already-matched shared block chain as leading context.

        *chain* is a :meth:`BlockAllocator.match_prefix` result and
        *tokens* the token ids it covers. Every block is adopted
        (refcount bumped / resurrected) and appended to this cache's
        block table; nothing is computed or copied — the shared rows
        and arena columns are reused as-is. Must be called on an empty
        cache. Returns the shared token count.
        """
        if self._released:
            raise ServingError("cache was released back to the pool")
        if self.block_ids or self.length:
            raise ServingError("prefix adoption requires an empty cache")
        covered = sum(fill for _, fill in chain)
        if covered != len(tokens):
            raise ServingError(
                f"chain covers {covered} tokens, got {len(tokens)} ids"
            )
        for bid, _ in chain:
            self.pool.adopt(bid)
            self.block_ids.append(bid)
        self.length = covered
        self._tokens = [int(t) for t in tokens]
        if self.layer is not None:
            self._rechain(register=False)
        self.pool.stats["prefix_tokens"] += covered
        return covered

    def append(
        self,
        k_rows: np.ndarray,
        v_rows: np.ndarray,
        token_ids=None,
    ) -> None:
        """Extend the sequence by one or more tokens, allocating blocks
        on demand. ``k_rows`` / ``v_rows`` are ``(kv_heads, head_dim)``
        for one token or ``(tokens, kv_heads, head_dim)`` for a chunk.

        With ``layer`` set and *token_ids* provided (one id per row),
        the trailing block is (re-)registered in the pool's prefix
        index after the rows land; an append that would write into a
        *shared* trailing block first copy-on-writes it — the clone
        replaces it in this table and the reference on the original is
        released, leaving other holders untouched.
        """
        if self._released:
            raise ServingError("cache was released back to the pool")
        k_rows = np.asarray(k_rows, dtype=np.float64)
        v_rows = np.asarray(v_rows, dtype=np.float64)
        if k_rows.ndim == 2:
            k_rows = k_rows[None]
            v_rows = v_rows[None]
        if (
            k_rows.shape != v_rows.shape
            or k_rows.shape[1:] != (self.kv_heads, self.head_dim)
        ):
            raise ServingError(
                f"expected rows of shape (*, {self.kv_heads}, "
                f"{self.head_dim}), got {k_rows.shape} / {v_rows.shape}"
            )
        total = k_rows.shape[0]
        track = self.layer is not None and token_ids is not None
        if track:
            ids = np.atleast_1d(np.asarray(token_ids, dtype=np.int64))
            if ids.shape != (total,):
                raise ServingError(
                    f"expected {total} token ids, got shape {ids.shape}"
                )
            if len(self._tokens) != self.length:
                # Earlier rows arrived untracked; prefix keys derived
                # from a partial history would lie about block content.
                track = False
        written = 0
        while written < total:
            take = min(
                self.block_size - self.length % self.block_size,
                total - written,
            )
            rows = np.s_[written:written + take]
            self.pool.write_rows(
                self._own_trailing(), k_rows[rows], v_rows[rows]
            )
            self.length += take
            written += take
            if track:
                self._tokens.extend(int(t) for t in ids[written - take:written])
                self._index_trailing()

    def _own_trailing(self) -> int:
        """The block the next row lands in, held privately: a fresh one
        at a block boundary, else the trailing block, copy-on-written
        first when shared (the clone replaces it in this table and the
        reference on the original is released). At most one allocation."""
        if self.length == self.padded_context():
            self.block_ids.append(self.pool.allocate())
        elif self.pool.refcount(self.block_ids[-1]) > 1:
            shared = self.block_ids[-1]
            self.block_ids[-1] = self.pool.cow_clone(shared)
            self.pool.free(shared)
        return self.block_ids[-1]

    def _rechain(self, register: bool) -> None:
        """Record the chained prefix digest of every block, first to
        last, from the tracked token ids; with *register*, also index
        each block under its digest."""
        prev = b""
        for i, bid in enumerate(self.block_ids):
            start = i * self.block_size
            segment = self._tokens[start:start + self.block_fill(i)]
            prev = self.pool.prefix_key(self.layer, prev, segment)
            self._chain.append(prev)
            if register:
                self.pool.register_prefix(bid, prev, segment)

    def _index_trailing(self) -> None:
        """(Re-)register the trailing block under the chained digest of
        the token ids its rows hold now, after an append or a rollback."""
        n = len(self.block_ids)
        segment = self._tokens[(n - 1) * self.block_size:self.length]
        # Predecessor digest: index n-2 is right whether the trailing
        # entry already exists (block grew or shrank) or is about to be
        # appended (first rows of a new block).
        prev = self._chain[n - 2] if n > 1 else b""
        key = self.pool.prefix_key(self.layer, prev, segment)
        if len(self._chain) == n:
            self._chain[-1] = key
        else:
            self._chain.append(key)
        self.pool.register_prefix(self.block_ids[-1], key, segment)

    def truncate_rows(self, n: int) -> None:
        """Roll back the trailing *n* appended rows exactly.

        The inverse of the :meth:`append` calls that added them: blocks
        that only ever held rolled-back rows are un-allocated in reverse
        allocation order (restoring the pool's free list bit-for-bit),
        the new trailing block's dead rows are scrubbed through
        :meth:`BlockAllocator.truncate_rows`, the token/chain records
        trim back, and — when this cache tracks tokens — the trailing
        block is re-registered under its truncated segment's chained
        digest, leaving pool *and* cache bit-equal to a history that
        never appended the rows. Only rows appended through this cache
        while it held their blocks privately can be rolled back: shared
        blocks are refused (a CoW performed by the appends themselves is
        fine as long as at least one appended row survives, which is the
        speculative-acceptance contract — the clone stays, exactly as a
        non-speculative history would have produced it).
        """
        if self._released:
            raise ServingError("cache was released back to the pool")
        n = int(n)
        if n < 0:
            raise ServingError(f"cannot truncate {n} rows")
        if n == 0:
            return
        if n > self.length:
            raise ServingError(
                f"cannot truncate {n} rows from a {self.length}-token "
                "cache"
            )
        new_len = self.length - n
        keep_blocks = -(-new_len // self.block_size)
        for idx in range(len(self.block_ids) - 1, keep_blocks - 1, -1):
            # Scrub through truncate_rows first so the plan-column
            # accounting gives the block's rows back, then undo the
            # allocation itself.
            bid = self.block_ids[idx]
            self.pool.truncate_rows(bid, 0)
            self.pool._unallocate(bid)
        del self.block_ids[keep_blocks:]
        del self._chain[keep_blocks:]
        retrail = False
        if keep_blocks:
            trailing = self.block_ids[-1]
            new_fill = new_len - (keep_blocks - 1) * self.block_size
            if int(self.pool._fill[trailing]) != new_fill:
                self.pool.truncate_rows(trailing, new_fill)
                retrail = True
        del self._tokens[new_len:]
        self.length = new_len
        if (
            retrail
            and self.layer is not None
            and len(self._tokens) == new_len
            and len(self._chain) == keep_blocks
        ):
            self._index_trailing()

    def release(self) -> None:
        """Release every block reference (idempotent).

        Shared blocks survive for their other holders; fully-filled
        indexed blocks this cache owned outright are parked for
        recently-freed prefix reuse; everything else is scrubbed.
        """
        if self._released:
            return
        for bid in self.block_ids:
            self.pool.free(bid)
        self.block_ids = []
        self.length = 0
        self._tokens = []
        self._chain = []
        self._released = True

    # -- swap-to-host spill --------------------------------------------
    def serialize(self) -> dict:
        """Copy this table's block contents out of the pool (spill).

        The payload is the per-block state :meth:`BlockAllocator.cow_clone`
        copies — float K/V slabs, the K / V arena slabs, and the fill —
        plus the table geometry and tracked token ids. It references no
        pool storage (every array is a copy), so the blocks can be freed
        immediately after and the payload handed to any host-side spill
        store.
        """
        if self._released:
            raise ServingError("cache was released back to the pool")
        pool = self.pool
        blocks = []
        for bid in self.block_ids:
            payload = {
                name: np.copy(getattr(pool, name)[bid])
                for name in pool._block_arrays
            }
            payload["fill"] = int(pool._fill[bid])
            blocks.append(payload)
        return {
            "layer": self.layer,
            "length": self.length,
            "tokens": list(self._tokens),
            "blocks": blocks,
        }

    @classmethod
    def restore(cls, pool: BlockAllocator, payload: dict) -> PagedLayerCache:
        """Rebuild a spilled table in *pool* from a :meth:`serialize`
        payload — O(context) memcpy instead of O(context) model FLOPs.

        Every block is allocated fresh and its slabs written back
        verbatim, so decode over the restored table is bit-identical to
        decode over the original (the arena slabs come back as-is, the
        CoW guarantee). When the payload tracked tokens, the
        restored blocks re-enter the prefix index under their recomputed
        chained digests — the same registration the appends that built
        them performed. Raises :class:`ServingError` (with nothing
        leaked) when the payload is not in this pool's block format
        (:meth:`BlockAllocator.accepts`, checked before any block is
        allocated) or the pool cannot hold the footprint; the caller
        falls back to recompute-on-resume, which can adopt shared
        blocks instead of allocating.
        """
        if not pool.accepts(payload):
            raise ServingError(
                "swap payload does not match this pool's block format "
                "(array names, dtypes, shapes, block count or fills)"
            )
        cache = cls(pool, layer=payload["layer"])
        try:
            for bp in payload["blocks"]:
                bid = pool.allocate()
                cache.block_ids.append(bid)
                for name in pool._block_arrays:
                    getattr(pool, name)[bid] = bp[name]
                pool._fill[bid] = bp["fill"]
        except ServingError:
            for bid in cache.block_ids:
                # Not yet registered/shared: free() scrubs them back.
                pool.free(bid)
            cache.block_ids = []
            raise
        cache.length = int(payload["length"])
        cache._tokens = [int(t) for t in payload["tokens"]]
        if cache.layer is not None and len(cache._tokens) == cache.length:
            cache._rechain(register=True)
        return cache

    # ------------------------------------------------------------------
    def k_view(self) -> np.ndarray:
        """Float K history gathered from the block table,
        ``(kv_heads, length, head_dim)``."""
        return self._gather(self.pool._k)

    def v_view(self) -> np.ndarray:
        """Float V history gathered from the block table."""
        return self._gather(self.pool._v)

    def _gather(self, storage: np.ndarray) -> np.ndarray:
        out = np.empty((self.kv_heads, self.length, self.head_dim))
        for i, bid in enumerate(self.block_ids):
            fill = self.block_fill(i)
            start = i * self.block_size
            out[:, start:start + fill] = storage[bid][:, :fill]
        return out

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Footprint of the allocated blocks (packed when quantized).

        Pure shape arithmetic over the block table — padded block
        capacity included, mirroring what the pool actually holds.
        """
        entries = (
            2 * self.kv_heads * self.padded_context() * self.head_dim
        )
        if self.bits is None:
            return entries * 8
        return (entries * self.bits + 7) // 8


def batched_decode_append(
    caches: list[PagedLayerCache],
    k_rows: np.ndarray,
    v_rows: np.ndarray,
    token_ids=None,
) -> None:
    """Append one token to every cache in *caches* with one pool write.

    The batched equivalent of the decode loop's per-sequence
    ``cache.append(k_rows[s], v_rows[s], token_ids=token_ids[s:s+1])``:
    per-cache boundary allocation and copy-on-write run first — at most
    one allocation per sequence, issued in batch order, so the pool
    draws the same free-list/eviction sequence as the sequential loop —
    then **one** :meth:`BlockAllocator.append_rows` writes every
    sequence's row, and prefix-index maintenance follows per cache.
    The resulting pool and cache state is bit-identical to the
    sequential loop (pinned by the batched-append parity tests and the
    engine fuzz, whose from-scratch oracle appends sequentially).

    All caches must share one pool. After the CoW pass every cache owns
    its trailing block privately, so the destination blocks are
    distinct by construction — which is what makes the single stacked
    quantize legal.
    """
    if not caches:
        return
    pool = caches[0].pool
    if any(c.pool is not pool for c in caches):
        raise ServingError("batched append needs one shared block pool")
    k_rows = np.asarray(k_rows, dtype=np.float64)
    v_rows = np.asarray(v_rows, dtype=np.float64)
    total = len(caches)
    shape = (total, pool.kv_heads, pool.head_dim)
    if k_rows.shape != shape or v_rows.shape != shape:
        raise ServingError(
            f"expected rows of shape {shape}, got "
            f"{k_rows.shape} / {v_rows.shape}"
        )
    ids = None
    if token_ids is not None:
        ids = np.atleast_1d(np.asarray(token_ids, dtype=np.int64))
        if ids.shape != (total,):
            raise ServingError(
                f"expected {total} token ids, got shape {ids.shape}"
            )
    dest: list[int] = []
    for cache in caches:
        if cache._released:
            raise ServingError("cache was released back to the pool")
        dest.append(cache._own_trailing())
    pool.append_rows(dest, k_rows, v_rows)
    for s, cache in enumerate(caches):
        cache.length += 1
        track = (
            cache.layer is not None
            and ids is not None
            and len(cache._tokens) == cache.length - 1
        )
        if not track:
            continue
        cache._tokens.append(int(ids[s]))
        cache._index_trailing()


def _paged_lut(kernel, config, acts, ids, columns, repeat, counts=None):
    """One paged LUT dispatch of the ``(A, width)`` activation rows
    *acts*, their tables and k-group sums built here: queries against
    the K arenas (scores) or probability segments against V *columns*
    (context, *counts* given), in
    :func:`~repro.kernels.paged_lut_execute`'s convention."""
    groups = effective_activations(acts, config).reshape(
        len(acts), -1, config.k
    )
    return paged_lut_execute(
        kernel, precompute_tables(acts, config), groups.sum(axis=-1), ids,
        columns, repeat, counts,
    )


def fused_paged_decode_attention(
    queries: np.ndarray,
    caches: list[PagedLayerCache],
    repeat: int = 1,
    act_dtype=None,
    table_dtype=None,
    backend: str | None = None,
) -> np.ndarray:
    """One batched decode step's attention: the paged body
    :func:`fused_paged_verify_attention` at T = 1.

    *queries* has shape ``(B, kv_heads * repeat, head_dim)`` — one new
    token per sequence, whose K/V row every cache already holds — and
    *caches* are the B sequences' layer caches over one shared pool.
    Returns ``(B, heads, head_dim)``.
    """
    base = [c.length - 1 for c in caches]
    if -1 in base:
        raise ServingError("cannot attend over an empty cache")
    return fused_paged_verify_attention(
        np.asarray(queries, dtype=np.float64)[:, None], caches, base,
        repeat, act_dtype, table_dtype, backend,
    )[:, 0]


def _batch_table(queries, caches, base_lengths, repeat):
    """Check one batched attention call; return ``(pool, queries, base,
    ids, nblocks)``: the shared pool, the float64 ``(B, T, heads,
    head_dim)`` queries, the base lengths as Python ints, and the padded
    ``(B, max_blocks)`` int64 block table (pads name block 0) with each
    sequence's block count."""
    if not caches:
        raise ServingError("attention needs at least one sequence")
    pool = caches[0].pool
    if any(c.pool is not pool for c in caches):
        raise ServingError("all fused caches must share one block pool")
    heads, hd = pool.kv_heads * repeat, pool.head_dim
    b = len(caches)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 4 or queries.shape[0] != b or queries.shape[2:] != (
        heads, hd
    ):
        raise LutError(
            f"queries must be ({b}, T, {heads}, {hd}), got {queries.shape}"
        )
    t = queries.shape[1]
    base = np.asarray(base_lengths, dtype=np.int64)
    if base.shape != (b,) or min(base.tolist()) < 0:
        raise ServingError(
            f"base_lengths must be {b} non-negative lengths"
        )
    base = base.tolist()
    for i, (cache, n0) in enumerate(zip(caches, base)):
        if cache.length != n0 + t:
            raise ServingError(
                f"cache {i} holds {cache.length} rows; attention over {t} "
                f"rows past base {n0} requires {n0 + t}"
            )
    nblocks = np.array([len(c.block_ids) for c in caches], dtype=np.int64)
    ids = np.zeros((b, int(nblocks.max())), dtype=np.int64)
    for i, cache in enumerate(caches):
        ids[i, :nblocks[i]] = cache.block_ids
    return pool, queries, base, ids, nblocks


def paged_float_attention(
    queries: np.ndarray,
    caches: list[PagedLayerCache],
    base_lengths,
    repeat: int = 1,
) -> np.ndarray:
    """Float attention of T query rows per sequence over the pool's float
    K / V slabs, read in place through the block tables: row ``(b, j)``
    sees the ``base_lengths[b] + j + 1`` leading keys of sequence *b*,
    whose rows are already appended (``cache.length == base_lengths[b] +
    T``). *queries* is ``(B, T, kv_heads * repeat, head_dim)``; returns
    the same shape. Prefill (B = 1, T rows past the cached prefix) on any
    pool, and decode / verify on a float-KV pool
    (:func:`fused_paged_verify_attention`), run this one body.

    **One definition.** Per row and query head, over its KV head's keys
    ``n < f``: ``s_n = (Σ_d q_d·k_nd, ascending d, every product rounded)
    · c`` with ``c = 1/√head_dim``; ``e_n = np.exp(s_n − max s)``; ``z =
    Σ e_n`` ascending; ``out = 0.0 + Σ (e_n / z)·v_n`` ascending. A row's
    output depends on its queries, its own ``f`` keys and nothing else:
    not the batch, T, the chunk split, the padding or the host's SIMD
    width — so a prefill row equals the decode step at its position and a
    verify row the sequential decodes, byte for byte.

    **Two bodies, one result.** Where ``kernels/lut_block.c`` loaded —
    whatever the backend — ``attn_scores`` writes the ``s_n − max s`` of
    every row's causal keys, packed, ``np.exp`` runs in place on them, and
    ``attn_context`` sums the denominators and the context; neither
    gathers or pads. The numpy body (:func:`_float_attention_numpy`)
    computes the same sequence over the gathered, padded block table.
    Both assume finite K / V (a non-finite one makes its rows NaN on
    both, not necessarily with the same bits).
    ``BlockAllocator.last_attn_body`` says which ran. A block id outside
    the pool raises :class:`IndexError` from either, and the compiled
    body also refuses a negative one.
    """
    pool, queries, base, ids, _ = _batch_table(
        queries, caches, base_lengths, repeat
    )
    return _float_attention(pool, queries, base, ids)


def _float_attention(pool, queries, base, ids) -> np.ndarray:
    """:func:`paged_float_attention` on checked operands."""
    b, t, heads, hd = queries.shape
    c = float(1.0 / np.sqrt(hd))
    scores, context = native.attn_scores(), native.attn_context()
    if scores is None or context is None:
        pool.last_attn_body = "numpy"
        return _float_attention_numpy(pool, queries, base, ids, c)
    pool.last_attn_body = "compiled"
    geo = np.array((
        pool.capacity, pool.kv_heads, pool.block_size, hd, b, ids.shape[1],
        t, heads // pool.kv_heads, *base,
    ), dtype=np.int64)
    queries = np.ascontiguousarray(queries)
    out = np.empty_like(queries)
    # The packed x_n, then the lane vectors of a query's head_dim and of a
    # lane block's scores (aligned in C).
    size = heads * sum(t * n0 + t * (t + 1) // 2 for n0 in base)
    work = np.empty(size + (hd + max(base) + t) * 8 + 8)
    geo_p, ids_p, x_p = geo.ctypes.data, ids.ctypes.data, work.ctypes.data
    scratch_p = x_p + 8 * size
    if scores(
        pool._k.ctypes.data, geo_p, ids_p, queries.ctypes.data, c, x_p,
        scratch_p,
    ):
        raise IndexError(
            f"block ids {ids.min()}..{ids.max()} for {pool.capacity} blocks "
            f"or lengths {base} + {t} past the {ids.shape[1]}-block table"
        )
    x = work[:size]
    np.exp(x, out=x)
    context(pool._v.ctypes.data, geo_p, ids_p, x_p, out.ctypes.data, scratch_p)
    return out


def _float_attention_numpy(pool, queries, base, ids, c) -> np.ndarray:
    """The numpy body of :func:`paged_float_attention`, over the gathered
    blocks in chunks of rows whose work fits :data:`FLOAT_CHUNK`
    elements, each chunk over the keys its widest row sees: scores one
    ascending-d multiply-add per channel, keys past a row's width at
    ``-inf`` (``np.exp`` makes them +0.0; it is elementwise, so an entry's
    bytes do not depend on where in a contiguous array it sits), the
    denominators ``np.cumsum`` read at ``f − 1`` (no per-width loop), and
    the context's ascending keys added slice after slice by a leading-axis
    reduce (:func:`~repro.kernels.backends.sum_groups_leading`) onto a sum
    that starts at +0.0 — to which the exact-zero products of keys past a
    row's width add nothing."""
    b, t, heads, hd = queries.shape
    kv = pool.kv_heads
    repeat, top = heads // kv, max(base)
    widths = np.array(base)[:, None] + np.arange(1, t + 1)
    q = queries.reshape(b, t, kv, repeat, 1, hd)
    # Keys (b, kv, d, n) and values (n, b, 1, kv, 1, d): one gather each.
    k = pool._k[ids].transpose(0, 2, 4, 1, 3).reshape(b, kv, hd, -1)
    v = pool._v[ids].transpose(1, 3, 0, 2, 4).reshape(-1, b, 1, kv, 1, hd)
    out = np.zeros((b, t, kv, repeat, hd))
    step = max(1, FLOAT_CHUNK // (b * heads * (top + t)))
    for j0 in range(0, t, step):
        j1 = min(j0 + step, t)
        n = top + j1
        s = q[:, j0:j1, ..., 0] * k[:, None, :, None, 0, :n]
        part = np.empty_like(s)
        for d in range(1, hd):
            s += np.multiply(
                q[:, j0:j1, ..., d], k[:, None, :, None, d, :n], out=part
            )
        s *= c
        f = widths[:, j0:j1, None, None, None]
        np.copyto(s, -np.inf, where=np.arange(n) >= f)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= np.take_along_axis(np.cumsum(s, axis=-1), f - 1, axis=-1)
        p = np.moveaxis(s, -1, 0)[..., None]
        rows = out[:, j0:j1]
        keys = max(1, 4 * FLOAT_CHUNK // rows[0].size // b)
        for n0 in range(0, n, keys):
            n1 = min(n0 + keys, n)
            j = max(0, n0 - top - j0)  # rows before j are past these keys
            terms = np.empty((n1 - n0 + 1,) + rows[:, j:].shape)
            terms[0] = rows[:, j:]
            np.multiply(p[n0:n1, :, j:], v[n0:n1], out=terms[1:])
            rows[:, j:] = sum_groups_leading(terms)
    return out.reshape(b, t, heads, hd)


def fused_paged_verify_attention(
    queries: np.ndarray,
    caches: list[PagedLayerCache],
    base_lengths,
    repeat: int = 1,
    act_dtype=None,
    table_dtype=None,
    backend: str | None = None,
) -> np.ndarray:
    """The paged attention: T query rows per sequence against every
    sequence's block table in one batched pass — a decode step at T = 1,
    a speculative verify at T = k + 1.

    *queries* is ``(B, T, heads, head_dim)``: for each sequence, T
    consecutive positions whose K/V rows have **already been appended**
    (``cache.length == base_lengths[b] + T``). Row ``(b, j)`` attends
    causally over exactly ``base_lengths[b] + j + 1`` keys — the context
    a decode step at that position sees. A pool built with ``bits=None``
    runs :func:`paged_float_attention` on them (the float-KV branch:
    every row a function of its own keys only, so a verify row equals
    the sequential decodes byte for byte). A quantized pool runs the LUT
    branch: the block tables form one padded ``(B, max_blocks)`` id
    table (pads name block 0, whose finite garbage is masked); the batch
    runs as **one** score and **one** context dispatch, R = ``B ·
    kv_heads`` K rows each shared by M = ``T · repeat`` query rows.
    Returns ``(B, T, heads, head_dim)``.

    **K is column-local.** Per-token K scales and per-column arena
    entries never look at later rows, and every score column depends
    only on its own K row, so masking the columns at or past a row's
    causal width to :data:`MASKED_SCORE` reproduces its time-``j`` score
    vector bit for bit. The softmax denominators sum each row's
    *padded* block context
    (:func:`~repro.numerics.masked_width_softmax`): appending even exact
    zeros to a sum changes numpy's pairwise reduction tree, so each row
    sums exactly its own width.

    **V leaks through the trailing block**: its group quantization
    folds every resident row into its scales. Every live block is
    refreshed at its *current* fill and read **in place** through the
    row-repeated block table — row ``T - 1``'s view, and every row's
    for a block that was full at its time. Only a row whose time-``j``
    fill is below its trailing block's current fill (so only at T > 1)
    sees that block requantized from a copy zero-masked past its
    time-``j`` fill: the context slabs are then gathered per row, those
    (row, block) slabs overwritten by one stacked masked build, and
    read through an identity table. Slots past a fill always hold +0.0
    (scrubbed on free and on rollback), so the refreshed arena equals
    the masked copy at the current fill byte for byte.

    Exactness: each row is bit-identical to a from-scratch LUT
    recomputation over its time-``j`` float history (quantize it, one
    plan per block and KV head, block-ordered context partials), whatever
    the batch and T. Every backend runs the LUT mpGEMM here: ``lut-blocked``
    on its compiled or numpy body, any other on the numpy body
    (:func:`~repro.kernels.paged_lut_execute`), so ``reference`` returns
    ``lut-naive``'s bytes. The float-KV branch matches
    :func:`~repro.lut.attention.float_decode_attention` at 1e-9 (its
    per-head BLAS gemv and pairwise softmax sum associate differently).
    """
    pool, queries, base, ids, nblocks = _batch_table(
        queries, caches, base_lengths, repeat
    )
    if pool.bits is None:
        return _float_attention(pool, queries, base, ids)
    b, t, heads, hd = queries.shape
    block_size = pool.block_size
    bt, maxb = b * t, ids.shape[1]
    n = maxb * block_size
    # Per-row causal geometry: row (b, j) sees f = base_b + j + 1 keys
    # (Python ints: at decode's B rows cheaper than array arithmetic).
    f_list = [n0 + j + 1 for n0 in base for j in range(t)]
    f_rows = np.array(f_list, dtype=np.int64)
    nb_rows = np.array([-(-f // block_size) for f in f_list], dtype=np.int64)
    key_valid = np.arange(n)[None, :] < f_rows[:, None]
    inv_sqrt_d = 1.0 / np.sqrt(hd)
    config = LutMpGemmConfig(
        k=pool.lut_k, act_dtype=act_dtype, table_dtype=table_dtype,
        backend=backend,
    )
    kernel = get_backend(config.backend)
    # One stacked refresh of the batch's stale V arenas — in steady
    # state each sequence's trailing block; full blocks refresh once.
    live = np.arange(maxb)[None, :] < nblocks[:, None]
    pool.refresh_v_arenas(ids[live])
    # Scores: R = B · kv_heads K rows read in place, each shared by its
    # M = T · repeat query rows.
    scores = _paged_lut(
        kernel, config, queries.reshape(-1, hd), ids,
        (pool._ka_idx, pool._ka_scale, pool._ka_zero), repeat,
    ).reshape(bt, heads, n)
    scores = np.where(
        key_valid[:, None, :], scores * inv_sqrt_d, MASKED_SCORE
    )
    probs = masked_width_softmax(scores, (nb_rows * block_size)[:, None])
    columns = [pool._va_idx, pool._va_scale, pool._va_zero]
    ids_rows = ids
    if t > 1:
        ids_rows = np.repeat(ids, t, axis=0)
        tb_rows = nb_rows - 1                      # time-j trailing block idx
        fill_rows = f_rows - tb_rows * block_size  # its time-j fill
        tb_ids = ids_rows[np.arange(bt), tb_rows]
        masked = np.nonzero(fill_rows < pool._fill[tb_ids])[0]
        if masked.size:
            keep = (
                np.arange(block_size)[None, None, :, None]
                < fill_rows[masked][:, None, None, None]
            )
            cols = pool._v_arena_columns(
                np.where(keep, pool._v[tb_ids[masked]], 0.0)
            )
            columns = [col[ids_rows] for col in columns]
            for slab, col in zip(columns, cols):
                slab[masked, tb_rows[masked]] = col
            # The slabs are their own arena: (row, block i) at row·maxb + i.
            columns = [s.reshape((-1,) + s.shape[2:]) for s in columns]
            ids_rows = np.arange(bt * maxb, dtype=np.int64).reshape(bt, maxb)
    # Context: R = B · T · kv_heads · max_blocks V blocks, each shared by
    # its M = repeat probability segments; per-block partials add in
    # ascending block order, gated by each row's block count.
    out = _paged_lut(
        kernel, config, probs.reshape(-1, block_size), ids_rows, columns,
        repeat, nb_rows,
    )
    return out.reshape(b, t, heads, hd)


def spill_nbytes(payload: dict) -> int:
    """Host bytes one :meth:`PagedLayerCache.serialize` payload holds
    (array storage only — the engine's swap accounting reads this)."""
    return sum(
        arr.nbytes
        for bp in payload["blocks"]
        for arr in bp.values()
        if isinstance(arr, np.ndarray)
    )


__all__ = [
    "BlockAllocator",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_PREFIX_CACHE_BLOCKS",
    "INITIAL_POOL_BLOCKS",
    "LfuEvictionPolicy",
    "LruEvictionPolicy",
    "PREFIX_EVICTION_POLICIES",
    "PagedLayerCache",
    "PrefixEvictionPolicy",
    "batched_decode_append",
    "fused_paged_decode_attention",
    "fused_paged_verify_attention",
    "get_prefix_eviction_policy",
    "paged_float_attention",
    "spill_nbytes",
]
