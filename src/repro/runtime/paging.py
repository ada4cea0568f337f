"""Paged KV allocation: a shared block pool with O(1) per-step plan work.

The contiguous :class:`~repro.runtime.kv.LayerKvCache` keeps one growing
buffer per (sequence, layer) and rebuilds the K-side
:class:`~repro.kernels.WeightPlan` from scratch at every decode step —
O(context) plan work per token, O(context²) per request, which
contradicts the paper's premise that all weight-side table preparation
is offline and amortized. This module replaces it with a vLLM-style
paged design:

- :class:`BlockAllocator` owns a **shared pool** of fixed-size token
  blocks (float K/V storage plus, in quantized mode, incrementally
  written K codes). Blocks are allocated as sequences grow, freed when
  requests complete, and reused by later requests.
- :class:`PagedLayerCache` is the per-(sequence, layer) view: a block
  table (list of block ids) plus a token count. ``append`` writes rows
  into the trailing block and quantizes K rows the moment they arrive
  (the per-row scales are independent, so the codes equal a
  from-scratch quantize — the same property the contiguous cache pins).
- **Per-block K plans**: the score mpGEMM treats the K rows of one
  block as a weight matrix ``(fill, head_dim)``. Each block keeps one
  :class:`~repro.kernels.WeightPlan` per KV head, built on first use
  and *extended* via :meth:`WeightPlan.extend` as rows arrive. Full
  blocks freeze their plans forever; only the trailing block pays
  O(head_dim) extension work per token — O(1) amortized in context.
- **Per-block V quantization**: V is group-quantized along the context
  *within each block* (groups of 16 when the block size allows, the
  same KIVI-style recipe :class:`~repro.lut.attention.QuantizedKvCache`
  applies at ``context == block_size``). Because groups never span
  blocks, full blocks quantize once and are cached; only the trailing
  block — the only place scales can still change — is requantized
  when its fill changed. The fused kernels read the pool's V arenas,
  which :meth:`BlockAllocator.refresh_v_arenas` brings up to date
  **once per layer per step**: the batch's stale blocks are stacked
  into one ``(blocks · kv_heads · head_dim, block_size)`` weight for
  one quantize + column build. V scales belong to one weight row and
  every lookup column is per output column, so each stacked column is
  bit-identical to the per-block, per-head build.
- **Direct column build**: K rows and V blocks are weights that arrive
  *online*, so the fused path writes their arena columns (flat
  symmetric-table gather indices, per-group scale and zero) straight
  from the codes — the quantize core
  :func:`~repro.quant.weight.quantize_weights` ends in, the index and
  fold cores :class:`~repro.kernels.WeightPlan` is built on
  (:func:`~repro.kernels.plan.lookup_indices`,
  :func:`~repro.kernels.plan.flat_lookup`), the Eq. 2 parameters — with
  no weight or plan object per step. Same operations on the same
  values as the plan chain, hence the same bits; the unfused
  :func:`paged_decode_attention` / :meth:`BlockAllocator.k_plans` /
  :meth:`BlockAllocator.v_quantized` stay on ``quantize_weights`` →
  ``build_weight_plan`` as the independent oracle.
- **Row-shared, read in place**: the fused kernels hand the arenas and
  the block table to :func:`~repro.kernels.paged_lut_execute`, which
  reads each KV head's columns where they live (its numpy body gathers
  them once per KV head); the ``repeat`` query heads (and a verify's
  ``T`` candidate positions) share that row as the ``M`` axis —
  grouped-query attention *is* M — instead of each getting a copy.

:func:`paged_decode_attention` stitches the blocks back together
bit-exactly: every output column of the score mpGEMM depends only on
its own K row (no cross-column reductions anywhere in the kernel
stack), so per-block score segments concatenated in block order equal a
single full-context matmul bit for bit; positions past the valid
context are masked to :data:`~repro.lut.attention.MASKED_SCORE` exactly
as the dense path masks its padding. The context mpGEMM accumulates
per-block partial products in ascending block order — the block
structure *is* the numeric recipe, and the parity tests pin the whole
incremental paged path against a from-scratch dense computation of the
same recipe.

**Copy-on-write prefix sharing.** On top of the pool sits a *prefix
index*: every block written through a layer-tracking cache is
registered under a content hash of ``(layer, token ids from position 0
through the block's last row)``. A new sequence whose prompt starts
with an indexed prefix *adopts* the matching blocks read-only — the
block ids are mapped straight into its block table, refcounts bumped,
and the per-block frozen K plans and V quantization come along for
free because they are keyed by block id. Only the tokens past the
shared prefix are computed and allocated. Sharing granularity is the
whole block at its current fill (a chain of full blocks, optionally
ended by one partial block matched at its exact content), which is
what keeps the recipe bit-exact: a shared block's fill always equals
the shared token count, so no stale rows ever enter a score segment or
a V quantization group. Writing into a shared block is forbidden at
the pool layer; :meth:`PagedLayerCache.append` instead performs
**copy-on-write** — clone the block, swap the clone into the table,
release the reference on the original — so diverging sequences split
without disturbing each other. Blocks are refcounted: ``free`` only
decrements, and storage is scrubbed exactly when the last reference
drops. Fully-filled indexed blocks whose refcount reaches zero are
*parked* instead of scrubbed (recently-freed sharing: a completed
request's prompt blocks keep serving later identical prompts) and are
reclaimed LRU-first when a bounded pool runs out of virgin blocks.

**Batched decode append.** The decode hot loop extends every active
sequence by exactly one row per layer. :func:`batched_decode_append`
replaces the per-sequence ``cache.append`` loop with one pool-level
write: per-cache boundary allocation / copy-on-write first (at most
one allocation per sequence, in batch order — the same allocation
order as the sequential loop), then :meth:`BlockAllocator.append_rows`
lands every row with **one** stacked quantize + column build. Per-row
scales are row-local and every lookup column is per output column, so
the resulting pool state is bit-identical to the sequential loop. A
prompt goes the same way: one :meth:`PagedLayerCache.append` quantizes
all its K rows in one stacked call and hands each block its slice,
however many blocks it spans.

**Float-KV fused decode.** :func:`fused_paged_decode_attention` also
serves pools built with ``bits=None``: the float K/V slabs are
gathered per batch and attention runs as one batched einsum per side
with the same per-row exact-width softmax denominators
(:func:`_grouped_softmax`) the per-sequence float path uses — so
``fused_decode`` no longer silently falls back to per-sequence Python
loops when the KV cache is unquantized.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Hashable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.errors import LutError, ServingError
from repro.kernels import (
    WeightPlan,
    build_weight_plan,
    effective_activations,
    get_backend,
    paged_lut_execute,
    reduce_blocks,
    rowwise_dequant_execute,
    shared_rows,
)
from repro.kernels.plan import flat_lookup, lookup_indices
from repro.lut.attention import MASKED_SCORE
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.lut.table import DEFAULT_K
from repro.numerics import masked_width_softmax, softmax
from repro.quant.reinterpret import reinterpret_params
from repro.quant.weight import (
    QuantizedWeight,
    affine_quantize,
    code_dtype,
    quantize_weights,
)
from repro.runtime.kv import KV_GROUP

#: Default tokens per KV block. A multiple of both the LUT group length
#: (so per-block contexts stay mpGEMM-alignable) and :data:`KV_GROUP`
#: (so V quantization groups never span blocks).
DEFAULT_BLOCK_SIZE = 16

#: Initial pool capacity (blocks) when no explicit bound is given; the
#: pool then grows geometrically on demand.
INITIAL_POOL_BLOCKS = 8

#: Default bound on parked (cached-free) prefix blocks. Bounded pools
#: reclaim parked blocks on demand anyway; without this cap an
#: *unbounded* pool would retain every distinct prompt's blocks (slabs,
#: codes, frozen plans) forever.
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
    and V storage (plus incremental K quantization state when ``bits``
    is set). ``num_blocks=None`` lets the pool grow geometrically on
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
        # Same per-row K recipe as the contiguous cache / the V recipe
        # QuantizedKvCache.quantize would pick at context == block_size.
        self._k_group = KV_GROUP if head_dim % KV_GROUP == 0 else None
        self._v_group = KV_GROUP if block_size % KV_GROUP == 0 else None

        cap = num_blocks if num_blocks is not None else INITIAL_POOL_BLOCKS
        self._layout = self._block_layout()
        self._block_arrays = self._FLOAT_ARRAYS + (
            self._QUANT_ARRAYS if bits is not None else ()
        )
        self._va_deq_fill = self._va_deq = None
        self._alloc(self._resident, cap)
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
        #: (and frozen plans) intact, in park order — resurrected by
        #: prefix matches, reclaimed LRU-first under pool pressure.
        self._cached_free: dict[int, None] = {}
        #: Per-block, per-KV-head K score plans (built lazily, extended
        #: incrementally) and V quantization caches, keyed by block id.
        self._k_plans: dict[int, list[WeightPlan]] = {}
        self._v_cache: dict[
            int, tuple[int, list[QuantizedWeight], list[WeightPlan]]
        ] = {}
        #: Allocation and incremental-plan-work counters. ``k_plan_cols``
        #: counts K-plan columns built or extended — per decode step it
        #: stays constant (one column per KV head per layer) no matter
        #: how long the context is; the serving bench reads the
        #: ``*_s`` timers to prove per-step plan time is flat.
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
    #: once at its own width (:meth:`_block_layout`); int64 only where
    #: ``np.take`` gathers with it, ``_ka_flat`` / ``_va_flat`` — numpy
    #: casts a narrower index array to ``intp`` on every call (+8 %).
    _FLOAT_ARRAYS = ("_k", "_v")
    _QUANT_ARRAYS = (
        "_k_codes", "_k_scale", "_k_zp",
        "_ka_flat", "_ka_scale", "_ka_zero",
        "_va_fill", "_va_flat", "_va_scale", "_va_zero",
    )
    #: The dequantized V arena and its stamp: read by table-less backends
    #: only, so resident from the first such :meth:`refresh_v_arenas`.
    #: Derived from ``_v`` — never carried; a stamp of -1 rebuilds it.
    _DEQ_ARRAYS = ("_va_deq_fill", "_va_deq")
    #: The V arenas a backend reads, by ``not needs_table``: the lookup
    #: columns a table backend gathers, or the dequantized block.
    _V_ARENAS = {
        False: ("_va_flat", "_va_scale", "_va_zero"),
        True: ("_va_deq",),
    }

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
        groups = hd // (self._k_group or hd)
        gk, gv = hd // self.lut_k, bs // self.lut_k
        layout.update(
            _k_codes=((kv, bs, hd), code_dtype(self.bits), 0),
            _k_scale=((kv, bs, groups), f8, 1.0),
            _k_zp=((kv, bs, groups), f8, 0.0),
            # Fused-decode arenas: the per-block WeightPlan state in slab
            # layout so one batched gather per layer can pull every active
            # sequence's blocks at once. K side (score mpGEMM, one output
            # column per cached token): flat symmetric-table gather
            # indices, per-group affine. Written incrementally by
            # :meth:`write_rows` — column values are per-token, so the
            # slab always equals what a from-scratch plan would hold.
            _ka_flat=((kv, self.bits, gk, bs), i8, 0),
            _ka_scale=((kv, gk, bs), f8, 1.0),
            _ka_zero=((kv, gk, bs), f8, 0.0),
            # V side (context mpGEMM, the block consumed as a
            # (head_dim, block_size) weight): refreshed per fill level by
            # :meth:`refresh_v_arenas` — ``_va_fill`` records the fill the
            # arena was built at (-1 = never), so full blocks refresh once
            # and only the trailing block pays per-step requantization.
            # ``_va_deq`` carries its own stamp: whichever kind of backend
            # dispatches maintains its own arenas only.
            _va_fill=((), i4, -1),
            _va_flat=((kv, self.bits, gv, hd), i8, 0),
            _va_scale=((kv, gv, hd), f8, 1.0),
            _va_zero=((kv, gv, hd), f8, 0.0),
            _va_deq_fill=((), i4, -1),
            _va_deq=((kv, hd, bs), f8, 0.0),
        )
        return layout

    @property
    def _resident(self) -> tuple[str, ...]:
        """The per-block arrays this pool currently holds."""
        deq = self._DEQ_ARRAYS if self._va_deq is not None else ()
        return ("_fill", "_refcount") + self._block_arrays + deq

    def _alloc(self, names, cap: int) -> None:
        for name in names:
            shape, dtype, scrubbed = self._layout[name]
            arr = np.zeros((cap,) + shape, dtype)  # calloc: untouched = unbacked
            if scrubbed:
                arr[...] = scrubbed
            setattr(self, name, arr)

    def accepts(self, payload: dict) -> bool:
        """Whether a :meth:`PagedLayerCache.serialize` payload is in this
        pool's block format: the block count its length needs, every
        block at the fill its position implies, holding exactly
        :attr:`_block_arrays` at the layout's shapes and dtypes."""
        length, blocks = payload.get("length"), payload.get("blocks", ())
        if not (
            isinstance(length, int)
            and {"layer", "tokens"} <= payload.keys()
            and len(blocks) == self.blocks_for_tokens(length)
        ):
            return False
        fmt = {name: self._layout[name][:2] for name in self._block_arrays}
        return all(
            bp.get("fill") == min(self.block_size, length - i * self.block_size)
            and fmt == {
                name: (getattr(a, "shape", None), getattr(a, "dtype", None))
                for name, a in bp.items() if name != "fill"
            }
            for i, bp in enumerate(blocks)
        )

    def _grow(self) -> None:
        old_cap = self.capacity
        new_cap = old_cap * 2
        old = {name: getattr(self, name) for name in self._resident}
        self._alloc(old, new_cap)
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
                victim = self.eviction.select_victim(self._cached_free)
                del self._cached_free[victim]
                self._unregister(victim)
                self._scrub_to_free(victim)
                self.stats["evicted"] += 1
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
        set (recently-freed sharing — its rows, frozen K plans and V
        quantization keep serving later identical prompts until the
        pool reclaims it); anything else is scrubbed and returned to
        the free list immediately.
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
                victim = self.eviction.select_victim(self._cached_free)
                del self._cached_free[victim]
                self._unregister(victim)
                self._scrub_to_free(victim)
                self.stats["evicted"] += 1
        else:
            self._unregister(block_id)
            self._scrub_to_free(block_id)

    def _scrub_to_free(self, block_id: int) -> None:
        """Zero a dead block's storage and return it to the free list."""
        for name in self._resident:
            # V stamps scrub to -1, which forces an arena rebuild for the
            # next occupant even at the same fill — the reuse-without-
            # leakage guarantee.
            getattr(self, name)[block_id] = self._layout[name][2]
        self._k_plans.pop(block_id, None)
        self._v_cache.pop(block_id, None)
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
        the dead rows' float slabs, K codes and K-arena columns return
        to their scrubbed values (per-row K scales and per-column arena
        entries never fed into the surviving rows, so zeroing them is a
        perfect undo), ``k_plan_cols`` gives back the removed columns,
        a V arena built past *new_fill* is reset to never-built (its
        trailing group's scales saw the dead rows), lazy per-block K
        plans and V caches drop (they rebuild from the surviving codes
        bit-identically), and a stale prefix-index entry is dropped —
        leaving the block bit-equal to one that never appended the
        rows. Shared blocks are refused: rollback of a row another
        table can see is never meaningful.
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
            self._k_codes[block_id][:, dead] = 0
            self._k_scale[block_id][:, dead] = 1.0
            self._k_zp[block_id][:, dead] = 0.0
            self._ka_flat[block_id][:, :, :, dead] = 0
            self._ka_scale[block_id][:, :, dead] = 1.0
            self._ka_zero[block_id][:, :, dead] = 0.0
            self.stats["k_plan_cols"] -= (fill - new_fill) * self.kv_heads
            if self._va_fill[block_id] > new_fill or (
                self._va_deq is not None
                and self._va_deq_fill[block_id] > new_fill
            ):
                # An arena saw the dead rows (their trailing V group's
                # scale folded them in) — reset to never-built so the
                # next refresh reproduces the never-appended recipe.
                for name in self._resident:
                    if name.startswith("_va_"):
                        getattr(self, name)[block_id] = self._layout[name][2]
        self._k_plans.pop(block_id, None)
        self._v_cache.pop(block_id, None)
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
        only one block's tokens instead of the whole context."""
        digest = hashlib.sha256()
        digest.update(np.int64(layer).tobytes())
        digest.update(prev_key)
        digest.update(np.asarray(tokens, dtype=np.int64).tobytes())
        return digest.digest()

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
        chain and *block_tokens* the block's own token ids (stored for
        exact verification on match — a hash collision cannot cause
        false sharing of the block itself). A block holds exactly one
        index entry; a partial trailing block's entry is replaced every
        time it grows. If another block already owns the key (identical
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
            self._block_key.pop(prev, None)
            self._block_tokens.pop(prev, None)
            if prev in self._cached_free:
                # A parked block only exists to serve the index; once
                # displaced it is unreachable — reclaim it now.
                del self._cached_free[prev]
                self._scrub_to_free(prev)
                self.stats["evicted"] += 1
        self._prefix_index[key] = block_id
        self._block_key[block_id] = key
        self._block_tokens[block_id] = tuple(int(t) for t in block_tokens)

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
        resurrected with their contents and frozen plans intact.
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

        Copies the float slabs, quantized K state and fill; the clone's
        K plans and V quantization rebuild lazily from the (identical)
        codes, so the first post-divergence decode step reproduces the
        from-scratch recipe bit for bit. The caller swaps the clone
        into its table and releases its reference on the original.
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
    def _quantize_rows(self, rows: np.ndarray, group: int | None):
        """Per-row affine quantization of an ``(n, K)`` weight — one
        scale per row, or per *group* consecutive columns when set —
        through :func:`quantize_weights`' core. Returns ``(n, K // g,
        g)`` codes and ``(n, K // g, 1)`` scale / zero-point."""
        n, kdim = rows.shape
        grouped = rows.reshape(n, kdim // (group or kdim), group or kdim)
        # A short trailing axis reduces one numpy inner loop per group;
        # group axis leading, g vectorized passes. min/max are exact.
        lead = np.ascontiguousarray(grouped.transpose(2, 0, 1))
        return affine_quantize(
            grouped,
            lead.min(axis=0)[..., None],
            lead.max(axis=0)[..., None],
            self.bits,
        )

    def _lookup_columns(self, codes, scale, zero_point):
        """Lookup columns of :meth:`_quantize_rows` output: what
        ``build_weight_plan`` → ``flat_lookup_indices(…, True)`` /
        ``scale_gn`` / ``zero_gn`` hold for the same weight, straight
        from the codes and the Eq. 2 parameters. Returns ``(bits, n,
        G)`` flat indices and ``(n, G)`` affine, ``G = K // lut_k``."""
        n, ngroups, gsize = codes.shape
        k = self.lut_k
        if gsize % k != 0:
            raise LutError(
                f"scale varies within a k={k} group; group_size must be a "
                "multiple of k for the LUT path"
            )
        flat = flat_lookup(
            lookup_indices(codes.reshape(n, -1), self.bits, k),
            k, 1 << (k - 1), True,
        )
        a_scale, a_zero = reinterpret_params(scale, zero_point, self.bits)
        return (
            flat,
            np.repeat(a_scale[..., 0], gsize // k, axis=1),
            np.repeat(a_zero[..., 0], gsize // k, axis=1),
        )

    def _k_columns(self, k_rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Quantize ``(R, kv_heads, head_dim)`` K rows into pool columns.

        **One** stacked quantize + column build over all ``R *
        kv_heads`` rows, whichever blocks they are bound for: per-row
        scales are row-local and every lookup column is per output
        column, so each row's codes, scales and K-arena columns are
        bit-identical to quantizing it alone (or per head, as the
        unfused path's :meth:`k_plans` do). Returns ``(codes, scale,
        zero_point, arena flat indices, arena scale, arena zero)``, row
        axis leading — slice to split rows across blocks;
        :meth:`_land_rows` scatters them. Owns the ``k_plan_s`` timer
        (index + affine build only).
        """
        r, kv = k_rows.shape[0], self.kv_heads
        codes, scale, zero_point = self._quantize_rows(
            k_rows.reshape(r * kv, self.head_dim), self._k_group
        )
        started = time.perf_counter()
        flat_idx, a_scale, a_zero = self._lookup_columns(
            codes, scale, zero_point
        )
        shape = (r, kv, -1)
        # Returned scales: one per element when grouped, else one per row.
        per = codes.shape[2] if self._k_group else 1
        cols = (
            codes.reshape(shape),
            np.repeat(scale[..., 0], per, axis=1).reshape(shape),
            np.repeat(zero_point[..., 0], per, axis=1).reshape(shape),
            # (bits, R * kv_heads, gk) lookup columns, row axis first.
            flat_idx.reshape(self.bits, r, kv, -1).transpose(1, 2, 0, 3),
            a_scale.reshape(shape),
            a_zero.reshape(shape),
        )
        self.stats["k_plan_s"] += time.perf_counter() - started
        return cols

    def _land_rows(self, bids, offs, k_rows, v_rows, k_cols=None) -> None:
        """Scatter row ``i`` of ``(R, kv_heads, head_dim)`` K/V rows to
        slot ``offs[i]`` of block ``bids[i]`` (or of the one block
        ``bids``): float slabs, then the quantized K state (*k_cols*,
        or a fresh :meth:`_k_columns`)."""
        self._k[bids, :, offs] = k_rows
        self._v[bids, :, offs] = v_rows
        if self.bits is None:
            return
        if k_cols is None:
            k_cols = self._k_columns(k_rows)
        codes, scale, zero_point, ka_flat, ka_scale, ka_zero = k_cols
        # Stored scales: one per quantization group.
        per = self.head_dim // self._k_scale.shape[-1]
        self._k_codes[bids, :, offs] = codes
        self._k_scale[bids, :, offs] = scale[..., ::per]
        self._k_zp[bids, :, offs] = zero_point[..., ::per]
        self._ka_flat[bids, :, :, :, offs] = ka_flat
        self._ka_scale[bids, :, :, offs] = ka_scale
        self._ka_zero[bids, :, :, offs] = ka_zero
        self.stats["k_plan_cols"] += len(offs) * self.kv_heads

    def _sync_legacy_plans(self, block_id: int, r0: int, r1: int) -> None:
        """Rows ``[r0, r1)`` just landed in a block: extend its per-head
        K plans if the unfused path materialized them (same columns as
        the arena's, so only their time is added) and drop its V cache
        (the trailing group's scales may have changed)."""
        plans = self._k_plans.get(block_id)
        if plans is not None:
            started = time.perf_counter()
            for h, plan in enumerate(plans):
                plan.extend(self.k_row_weight(block_id, h, r0, r1))
            self.stats["k_plan_s"] += time.perf_counter() - started
        self._v_cache.pop(block_id, None)

    def write_rows(
        self,
        block_id: int,
        k_rows: np.ndarray,
        v_rows: np.ndarray,
        k_cols: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        """Append ``(t, kv_heads, head_dim)`` rows into one block.

        Writes the float slabs, quantizes the K rows in place (per-row
        scales — independent of every other row, hence equal to a
        from-scratch quantize), extends the block's K plans if they are
        already materialized, and invalidates the block's V cache (its
        trailing group's scales may have changed). *k_cols* hands in
        the rows' slice of an already-built :meth:`_k_columns` — how
        :meth:`PagedLayerCache.append` quantizes a multi-block prompt
        once. Shared blocks are read-only at this layer: writing one is
        an error — callers must go through :meth:`cow_clone` first. A
        stale prefix-index entry for the block is dropped before the
        rows land (the caller re-registers the grown content afterwards
        if it tracks tokens).
        """
        if self._refcount[block_id] > 1:
            raise ServingError(
                f"block {block_id} is shared by {self.refcount(block_id)} "
                "tables; copy-on-write before appending"
            )
        if self._block_key.get(block_id) is not None:
            self._unregister(block_id)
        t_new = k_rows.shape[0]
        off = int(self._fill[block_id])
        if off + t_new > self.block_size:
            raise ServingError(
                f"block overflow: {off} + {t_new} > {self.block_size}"
            )
        self._land_rows(
            block_id, np.arange(off, off + t_new), k_rows, v_rows, k_cols
        )
        if self.bits is not None:
            self._sync_legacy_plans(block_id, off, off + t_new)
        self._fill[block_id] = off + t_new

    def append_rows(
        self, block_ids, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append one row into each of several *distinct* blocks at once.

        ``block_ids`` names B distinct writable blocks; ``k_rows`` /
        ``v_rows`` are ``(B, kv_heads, head_dim)`` — one new token per
        block. Semantically B single-row :meth:`write_rows` calls,
        executed as one vectorized slab write plus **one** stacked
        quantize + column build over all ``B * kv_heads`` rows
        (:meth:`_k_columns`), so the codes, scales and K-arena columns
        land bit-identical to the sequential loop (the batched-append
        parity tests pin this). Staleness accounting is per block
        exactly as in :meth:`write_rows`: stale prefix-index entries
        drop before the rows land, materialized legacy plans extend,
        V caches invalidate, and ``k_plan_cols`` grows by one column
        per KV head per block.
        """
        bids = np.asarray(block_ids, dtype=np.int64)
        nb = int(bids.size)
        if nb == 0:
            return
        if len({int(i) for i in bids}) != nb:
            raise ServingError(
                "append_rows destination blocks must be distinct"
            )
        k_rows = np.asarray(k_rows, dtype=np.float64)
        v_rows = np.asarray(v_rows, dtype=np.float64)
        shape = (nb, self.kv_heads, self.head_dim)
        if k_rows.shape != shape or v_rows.shape != shape:
            raise ServingError(
                f"expected rows of shape {shape}, got "
                f"{k_rows.shape} / {v_rows.shape}"
            )
        for bid in bids:
            bid = int(bid)
            if self._refcount[bid] > 1:
                raise ServingError(
                    f"block {bid} is shared by {self.refcount(bid)} "
                    "tables; copy-on-write before appending"
                )
            if self._block_key.get(bid) is not None:
                self._unregister(bid)
        offs = self._fill[bids]
        if (offs >= self.block_size).any():
            raise ServingError(
                f"block overflow: a destination block is already at "
                f"fill {self.block_size}"
            )
        self._land_rows(bids, offs, k_rows, v_rows)
        if self.bits is not None:
            for bid, off in zip(bids.tolist(), offs.tolist()):
                self._sync_legacy_plans(bid, off, off + 1)
        self._fill[bids] = offs + 1

    def k_row_weight(
        self, block_id: int, head: int, r0: int, r1: int
    ) -> QuantizedWeight:
        """The quantized K rows ``[r0, r1)`` of one block/head as an
        ``(r1-r0, head_dim)`` weight — the unit :meth:`WeightPlan.extend`
        consumes. The per-group scales broadcast to one per element
        here, at the one cold read."""
        per = self.head_dim // self._k_scale.shape[-1]
        rows = (block_id, head, slice(r0, r1))
        return QuantizedWeight(
            codes=self._k_codes[rows],
            scale=np.repeat(self._k_scale[rows], per, axis=-1),
            zero_point=np.repeat(self._k_zp[rows], per, axis=-1),
            bits=self.bits,
        )

    # ------------------------------------------------------------------
    def k_plans(self, block_id: int) -> list[WeightPlan]:
        """Per-KV-head score plans over the block's current rows.

        Built from scratch on first use (e.g. right after prefill —
        the one-time cost the paper's offline table quantization
        amortizes), then *extended* as rows arrive; a full block's plans
        are frozen and free on every later step.
        """
        if self.bits is None:
            raise ServingError("pool was built with bits=None (float mode)")
        plans = self._k_plans.get(block_id)
        if plans is None:
            fill = int(self._fill[block_id])
            started = time.perf_counter()
            plans = [
                build_weight_plan(
                    self.k_row_weight(block_id, h, 0, fill), self.lut_k
                )
                for h in range(self.kv_heads)
            ]
            self.stats["k_plan_cols"] += fill * self.kv_heads
            self.stats["k_plan_s"] += time.perf_counter() - started
            self._k_plans[block_id] = plans
        return plans

    def v_quantized(
        self, block_id: int
    ) -> tuple[list[QuantizedWeight], list[WeightPlan]]:
        """Per-KV-head quantized V (transposed, block-padded) + plans.

        The block's V slab is consumed as a ``(head_dim, block_size)``
        weight — zero columns past the fill, exactly the zero-padding
        the dense cache applies — and group-quantized along the block
        context. Cached per fill level: full blocks quantize once and
        never again; the trailing block requantizes only when its fill
        (and therefore its trailing group's scale) changed.
        """
        if self.bits is None:
            raise ServingError("pool was built with bits=None (float mode)")
        fill = int(self._fill[block_id])
        cached = self._v_cache.get(block_id)
        if cached is not None and cached[0] == fill:
            return cached[1], cached[2]
        started = time.perf_counter()
        group = (
            dict(axis=1, group_size=self._v_group) if self._v_group
            else dict(axis=0)
        )
        v_quant = [
            # (head_dim, block_size) weight per head
            quantize_weights(self._v[block_id, h].T, self.bits, **group)
            for h in range(self.kv_heads)
        ]
        plans = [build_weight_plan(q, self.lut_k) for q in v_quant]
        self.stats["v_quant_cols"] += self.block_size * self.kv_heads
        self.stats["v_quant_s"] += time.perf_counter() - started
        self._v_cache[block_id] = (fill, v_quant, plans)
        return v_quant, plans

    def _v_arena_columns(
        self, v_slabs: np.ndarray, deq: bool = False
    ) -> tuple[np.ndarray, ...]:
        """V-arena columns of ``(C, kv_heads, block_size, head_dim)`` slabs.

        Each slab is consumed as ``kv_heads`` ``(head_dim, block_size)``
        weights; all ``C * kv_heads * head_dim`` weight rows go through
        **one** stacked quantize + column build. V scales are per weight
        row (grouped along the block context) and every lookup column is
        per output column, so the stacked columns are bit-identical to
        the per-block, per-head :meth:`v_quantized` plans. Returns the
        :attr:`_V_ARENAS` columns of *deq* — ``(flat indices, scale,
        zero)``, or ``(dequantized,)``, all a table-less backend reads
        — slab axis leading, in arena layout.
        Owns the ``v_quant_s`` timer — quantize and index build — and
        the ``v_quant_cols`` count.
        """
        started = time.perf_counter()
        c = v_slabs.shape[0]
        kv, hd = self.kv_heads, self.head_dim
        # (C * kv_heads * head_dim, block_size): slab-major, then head.
        v_t = v_slabs.transpose(0, 1, 3, 2).reshape(-1, self.block_size)
        codes, scale, zero_point = self._quantize_rows(v_t, self._v_group)
        if deq:
            cols = (
                (scale * (codes.astype(np.float64) - zero_point))
                .reshape(c, kv, hd, self.block_size),
            )
        else:
            flat_idx, a_scale, a_zero = self._lookup_columns(
                codes, scale, zero_point
            )
            cols = (
                flat_idx.reshape(self.bits, c, kv, hd, -1)
                .transpose(1, 2, 0, 4, 3),
                a_scale.reshape(c, kv, hd, -1).transpose(0, 1, 3, 2),
                a_zero.reshape(c, kv, hd, -1).transpose(0, 1, 3, 2),
            )
        self.stats["v_quant_cols"] += c * self.block_size * kv
        self.stats["v_quant_s"] += time.perf_counter() - started
        return cols

    def refresh_v_arenas(self, block_ids, deq: bool = False) -> None:
        """Bring the V arena slabs of *block_ids* up to their current fill.

        *deq* selects which arenas: the lookup columns a table backend
        gathers (default), or the dequantized block a table-less one
        multiplies — each kind stamps its own fill, so a pool dispatched
        to both keeps both honest and one kind of backend never pays for
        the other's. Blocks whose stamp already matches are skipped
        (full blocks refresh once, ever; duplicate ids count once); the
        stale ones are rebuilt by **one** stacked
        :meth:`_v_arena_columns` call and scattered with one write per
        arena. The fused decode calls this once per layer per step with
        every gathered block: steady-state V-quant work is still one
        trailing block per sequence per layer, in one quantize + column
        build instead of B.
        """
        if deq and self._va_deq is None:
            self._alloc(self._DEQ_ARRAYS, self.capacity)
        stamp = self._va_deq_fill if deq else self._va_fill
        bids = np.unique(np.asarray(block_ids, dtype=np.int64))
        stale = bids[stamp[bids] != self._fill[bids]]
        if stale.size == 0:
            return
        cols = self._v_arena_columns(self._v[stale], deq)
        for name, col in zip(self._V_ARENAS[deq], cols):
            getattr(self, name)[stale] = col
        stamp[stale] = self._fill[stale]


class PagedLayerCache:
    """Block-table view of one attention layer of one sequence.

    The drop-in successor of :class:`~repro.runtime.kv.LayerKvCache`
    for the serving model: same ``append``/``k_view``/``v_view``
    surface, but all storage lives in a shared :class:`BlockAllocator`
    and the quantized decode path runs over per-block cached plans
    instead of rebuilding full-context state each step. Call
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
        block table; nothing is computed or copied — the shared rows,
        frozen K plans and V quantization are reused as-is. Must be
        called on an empty cache. Returns the shared token count.
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
            prev, pos = b"", 0
            for _, fill in chain:
                prev = self.pool.prefix_key(
                    self.layer, prev, self._tokens[pos:pos + fill]
                )
                self._chain.append(prev)
                pos += fill
        self.pool.stats["prefix_tokens"] += covered
        return covered

    def append(
        self,
        k_rows: np.ndarray,
        v_rows: np.ndarray,
        token_ids=None,
    ) -> None:
        """Extend the sequence by one or more tokens (same contract as
        :meth:`LayerKvCache.append`), allocating blocks on demand.

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
        # One stacked K quantize + column build for the whole append,
        # however many blocks a prompt spans; each block gets its slice.
        k_cols = (
            self.pool._k_columns(k_rows)
            if self.bits is not None and total else None
        )
        written = 0
        while written < total:
            off = self.length % self.block_size
            if off == 0 and self.length == self.padded_context():
                self.block_ids.append(self.pool.allocate())
            elif self.pool.refcount(self.block_ids[-1]) > 1:
                shared = self.block_ids[-1]
                self.block_ids[-1] = self.pool.cow_clone(shared)
                self.pool.free(shared)
            take = min(self.block_size - off, total - written)
            rows = np.s_[written:written + take]
            self.pool.write_rows(
                self.block_ids[-1],
                k_rows[rows],
                v_rows[rows],
                k_cols and tuple(col[rows] for col in k_cols),
            )
            self.length += take
            written += take
            if track:
                self._tokens.extend(int(t) for t in ids[written - take:written])
                self._index_trailing()

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
        copies — float K/V slabs, quantized K codes/scales, the fused-
        decode arena slabs, and the fill — plus the table geometry and
        tracked token ids. It references no pool storage (every array is
        a copy), so the blocks can be freed immediately after and the
        payload handed to any host-side spill store. Lazy per-block K
        plans, V caches and the dequantized V arena are *not* captured:
        they rebuild from the restored codes and slabs on first use,
        bit-identically, exactly as after a CoW clone.
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
        decode over the original (the arena slabs come back as-is;
        frozen K plans and V caches rebuild lazily from the identical
        codes, the CoW guarantee). When the payload tracked tokens, the
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
            prev = b""
            for i, bid in enumerate(cache.block_ids):
                start = i * pool.block_size
                segment = cache._tokens[start:start + cache.block_fill(i)]
                prev = pool.prefix_key(cache.layer, prev, segment)
                cache._chain.append(prev)
                pool.register_prefix(bid, prev, segment)
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
    fused-vs-unfused engine fuzz, whose unfused oracle keeps the
    sequential appends).

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
        if cache.length == cache.padded_context():
            cache.block_ids.append(pool.allocate())
        elif pool.refcount(cache.block_ids[-1]) > 1:
            shared = cache.block_ids[-1]
            cache.block_ids[-1] = pool.cow_clone(shared)
            pool.free(shared)
        dest.append(cache.block_ids[-1])
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


def paged_decode_attention(
    query: np.ndarray,
    cache: PagedLayerCache,
    repeat: int = 1,
    act_dtype=None,
    table_dtype=None,
    backend: str | None = None,
) -> np.ndarray:
    """Single-token LUT decode attention over a block table.

    *query* has shape ``(kv_heads * repeat, head_dim)`` (grouped-query
    attention shares each KV head's cached plans across ``repeat``
    query heads — by reference, no extra plan work). Returns the
    per-head context vectors, ``(heads, head_dim)``.

    Scores are computed block by block against the cached (extended)
    per-block K plans and stitched into one padded score vector —
    bit-identical to a single full-context mpGEMM because no kernel
    reduction crosses output columns. Unfilled trailing positions are
    masked to :data:`MASKED_SCORE`, so their probabilities underflow to
    exactly 0.0 and the zero-padded V columns contribute nothing. The
    context product then accumulates per-block partials in ascending
    block order over the per-block cached V plans.
    """
    if cache.bits is None:
        raise ServingError("paged LUT attention needs a quantized pool")
    if cache.length == 0:
        raise ServingError("cannot attend over an empty cache")
    config, kernel = _lut_dispatch(
        cache.lut_k, act_dtype, table_dtype, backend
    )
    heads = cache.kv_heads * repeat
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (heads, cache.head_dim):
        raise LutError(
            f"query must be ({heads}, {cache.head_dim}), got {query.shape}"
        )
    pool = cache.pool
    block_size = cache.block_size
    ctx_pad = cache.padded_context()
    inv_sqrt_d = 1.0 / np.sqrt(cache.head_dim)
    out = np.zeros_like(query)
    for qh in range(heads):
        kv_h = qh // repeat
        q_row = query[qh][None]
        q_table = precompute_tables(q_row, config) if kernel.needs_table else None
        scores = np.full(ctx_pad, MASKED_SCORE)
        for i, bid in enumerate(cache.block_ids):
            fill = cache.block_fill(i)
            plan = pool.k_plans(bid)[kv_h]
            seg = kernel.execute(plan, config, q_row, q_table)[0]
            start = i * block_size
            scores[start:start + fill] = seg * inv_sqrt_d
        probs = softmax(scores)
        ctx_vec: np.ndarray | None = None
        for i, bid in enumerate(cache.block_ids):
            _, v_plans = pool.v_quantized(bid)
            p_seg = probs[i * block_size:(i + 1) * block_size][None]
            p_table = (
                precompute_tables(p_seg, config) if kernel.needs_table else None
            )
            part = kernel.execute(v_plans[kv_h], config, p_seg, p_table)[0]
            ctx_vec = part if ctx_vec is None else ctx_vec + part
        out[qh] = ctx_vec
    return out


def _grouped_softmax(scores: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Row softmax over a padded score layout, per-row denominators.

    ``scores`` is ``(B, heads, N)`` with every position at or past row
    b's true padded context ``widths[b]`` already at
    :data:`MASKED_SCORE`; ``widths[b] <= N``. The exponentials are
    elementwise, but each row's denominator sums only its own leading
    ``widths[b]`` entries: appending even *exact zeros* to a sum changes
    numpy's pairwise reduction tree (and hence the result's last ulp),
    so summing the full padded width would break bit-parity with the
    per-sequence :func:`~repro.numerics.softmax` over a
    ``widths[b]``-long vector. Delegates to
    :func:`repro.numerics.masked_width_softmax`, the shared exact-width
    implementation, with the per-sequence widths broadcast across heads.
    """
    return masked_width_softmax(scores, np.asarray(widths)[:, None])


def _lut_dispatch(lut_k: int, act_dtype, table_dtype, backend):
    """The paged attention kernels' ``(config, backend)`` resolution."""
    config = LutMpGemmConfig(
        k=lut_k,
        act_dtype=act_dtype,
        table_dtype=table_dtype,
        backend=backend,
    )
    kernel = get_backend(config.backend)
    if config.table_dtype is not None and not kernel.needs_table:
        raise LutError(
            f"backend {kernel.name!r} has no tables and cannot model "
            f"table_dtype={config.table_dtype.name} quantization"
        )
    return config, kernel


def _fused_scores(pool, kernel, config, queries, ids) -> np.ndarray:
    """Raw (unscaled, unmasked) scores of ``(B, T, heads, head_dim)``
    queries against the K arenas of the padded block table *ids*: one
    dispatch, R = ``B · kv_heads`` weight rows read in place, each shared
    by its M = ``T · repeat`` query rows (T = 1 for decode). Returns
    ``(B, T, heads, max_blocks · block_size)``."""
    b, t, heads, hd = queries.shape
    kv, k = pool.kv_heads, pool.lut_k
    repeat = heads // kv
    n = ids.shape[1] * pool.block_size
    q2 = queries.reshape(-1, hd)
    acts = effective_activations(q2, config)
    if kernel.needs_table:
        return paged_lut_execute(
            kernel, precompute_tables(q2, config),
            acts.reshape(-1, hd // k, k).sum(axis=-1), ids,
            (pool._ka_flat, pool._ka_scale, pool._ka_zero), repeat,
        )
    # One stored scale per quantization group, broadcast at the read.
    sc, zp = pool._k_scale[ids][..., None], pool._k_zp[ids][..., None]
    codes = pool._k_codes[ids].reshape(sc.shape[:-1] + (-1,))
    kd = (sc * (codes.astype(np.float64) - zp)).transpose(
        0, 2, 1, 3, 4, 5
    ).reshape(b * kv, n, hd)
    raw = rowwise_dequant_execute(
        shared_rows(acts, (b, t, kv, repeat), (1, 3)), kd
    )
    # (B * kv, N, T * repeat) -> (B, T, kv * repeat, N)
    return raw.reshape(b, kv, n, t, repeat).transpose(0, 3, 1, 4, 2).reshape(
        b, t, heads, n
    )


def _fused_context(pool, kernel, config, probs, ids, columns, nblocks):
    """Context vectors ``(rows, heads, head_dim)`` of ``(rows, heads,
    max_blocks · block_size)`` probabilities against the V *columns* the
    backend reads (:attr:`BlockAllocator._V_ARENAS`, or slabs laid out
    like them) through the ``(rows, max_blocks)`` index table *ids*: one
    dispatch, R = ``rows · kv_heads · max_blocks`` weight rows, each
    shared by its M = ``repeat`` probability segments. Per-block
    partials accumulate in ascending block order, first block
    unconditional (length >= 1), later blocks gated by each row's
    *nblocks* — the unfused ``ctx_vec + part`` order exactly."""
    rows, heads, n = probs.shape
    kv, hd, k = pool.kv_heads, pool.head_dim, pool.lut_k
    block_size = pool.block_size
    repeat, maxb = heads // kv, n // block_size
    p2 = probs.reshape(-1, block_size)
    if kernel.needs_table:
        pacts = effective_activations(p2, config)
        return paged_lut_execute(
            kernel, precompute_tables(p2, config),
            pacts.reshape(-1, block_size // k, k).sum(axis=-1), ids,
            columns, repeat, nblocks,
        )
    parts = rowwise_dequant_execute(
        shared_rows(p2, (rows, kv, repeat, maxb), (2,)),
        columns[0][ids].swapaxes(1, 2).reshape(-1, hd, block_size),
    )
    return reduce_blocks(parts, kv, nblocks)


def fused_paged_decode_attention(
    queries: np.ndarray,
    caches: list[PagedLayerCache],
    repeat: int = 1,
    act_dtype=None,
    table_dtype=None,
    backend: str | None = None,
) -> np.ndarray:
    """One batched LUT decode attention over every sequence's block table.

    The fused successor of :func:`paged_decode_attention`: *queries* has
    shape ``(B, kv_heads * repeat, head_dim)`` — one new token per
    sequence — and *caches* are the B sequences' layer caches over one
    shared pool. Instead of per-(sequence, head, block) kernel calls,
    the block tables are gathered into contiguous index arrays and the
    whole batch runs as **one** score dispatch and **one** context
    dispatch per layer against the pool's plan arenas, over a padded
    ``(B, heads, max_blocks · block_size)`` score layout.

    Exactness: every gathered arena column equals the corresponding
    per-block :class:`~repro.kernels.WeightPlan` column, the batched
    row-wise executor replays the backends' scalar order per row, pad
    positions are masked to :data:`MASKED_SCORE` exactly like the
    per-sequence path masks its own padding, and the softmax
    denominators respect each row's true padded width
    (:func:`_grouped_softmax`). The result is bit-identical to B calls
    of :func:`paged_decode_attention` on the LUT backends, regardless
    of batch composition; the ``reference`` backend's batched BLAS/
    einsum reductions differ in the last ulp, so its parity is 1e-9.
    Returns ``(B, heads, head_dim)``.

    A pool built with ``bits=None`` takes the **float-KV branch**
    instead: gathered padded float slabs, one batched score einsum,
    :func:`_grouped_softmax` over each sequence's *exact* length, one
    batched context einsum. That recipe is batch-composition invariant
    bitwise (einsum reduces per output element) and matches the
    per-sequence :func:`~repro.lut.attention.float_decode_attention`
    path at 1e-9 — its per-head BLAS gemv reductions associate
    differently in the last ulp.
    """
    if not caches:
        raise ServingError("fused decode needs at least one sequence")
    pool = caches[0].pool
    if any(c.pool is not pool for c in caches):
        raise ServingError("all fused caches must share one block pool")
    if any(c.length == 0 for c in caches):
        raise ServingError("cannot attend over an empty cache")
    kv, hd, block_size = pool.kv_heads, pool.head_dim, pool.block_size
    heads = kv * repeat
    b = len(caches)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape != (b, heads, hd):
        raise LutError(
            f"queries must be ({b}, {heads}, {hd}), got {queries.shape}"
        )
    nblocks = np.array([len(c.block_ids) for c in caches], dtype=np.int64)
    lengths = np.array([c.length for c in caches], dtype=np.int64)
    maxb = int(nblocks.max())
    n = maxb * block_size
    # Padded block-id table; pad entries point at block 0, whose gathered
    # (finite) garbage is fully masked below.
    ids = np.zeros((b, maxb), dtype=np.int64)
    for i, cache in enumerate(caches):
        ids[i, :nblocks[i]] = cache.block_ids
    table_valid = np.arange(maxb)[None, :] < nblocks[:, None]
    inv_sqrt_d = 1.0 / np.sqrt(hd)
    key_valid = np.arange(n)[None, :] < lengths[:, None]
    if pool.bits is None:
        # Float-KV branch: gather the padded K/V slabs and run one
        # batched einsum per side, grouped-query heads sharing each KV
        # head's slab by reshape (no np.repeat materialization). The
        # softmax denominators sum each row's *exact* context length —
        # the per-sequence float path softmaxes an unpadded length-L
        # vector, so exact widths (not the quantized path's padded
        # ``nblocks * block_size``) are what keep this the same recipe.
        # einsum's per-output-element reductions make the result
        # batch-composition invariant bitwise; parity with the
        # per-sequence BLAS path is 1e-9 (different reduction order).
        kg = pool._k[ids].transpose(0, 2, 1, 3, 4).reshape(b, kv, n, hd)
        q4 = queries.reshape(b, kv, repeat, hd)
        scores = np.einsum("bkrd,bknd->bkrn", q4, kg).reshape(b, heads, n)
        scores = np.where(
            key_valid[:, None, :], scores * inv_sqrt_d, MASKED_SCORE
        )
        probs = _grouped_softmax(scores, lengths)
        vg = pool._v[ids].transpose(0, 2, 1, 3, 4).reshape(b, kv, n, hd)
        out = np.einsum(
            "bkrn,bknd->bkrd", probs.reshape(b, kv, repeat, n), vg
        )
        return out.reshape(b, heads, hd)
    config, kernel = _lut_dispatch(pool.lut_k, act_dtype, table_dtype, backend)
    # One stacked refresh of the batch's stale V arenas — in steady
    # state each sequence's trailing block; full blocks refresh once.
    deq = not kernel.needs_table
    pool.refresh_v_arenas(ids[table_valid], deq)
    scores = _fused_scores(pool, kernel, config, queries[:, None], ids)[:, 0]
    scores = np.where(
        key_valid[:, None, :], scores * inv_sqrt_d, MASKED_SCORE
    )
    probs = _grouped_softmax(scores, nblocks * block_size)
    columns = [getattr(pool, name) for name in pool._V_ARENAS[deq]]
    return _fused_context(pool, kernel, config, probs, ids, columns, nblocks)


def fused_paged_verify_attention(
    queries: np.ndarray,
    caches: list[PagedLayerCache],
    base_lengths,
    repeat: int = 1,
    act_dtype=None,
    table_dtype=None,
    backend: str | None = None,
) -> np.ndarray:
    """Score T candidate rows per sequence against the paged cache in
    one batched pass — the speculative-verify attention.

    *queries* is ``(B, T, heads, head_dim)``: for each sequence, T
    consecutive candidate positions whose K/V rows have **already been
    appended** to the caches (``cache.length == base_lengths[b] + T``).
    Row ``(b, j)`` attends causally over exactly ``base_lengths[b] + j
    + 1`` keys — the context a sequential decode step at that position
    would see.

    Exactness is column-local, which is what makes one fused pass over
    the *already-extended* cache possible: per-token K quantization
    scales and per-column K-arena entries never look at later rows, so
    masking columns at or past each row's causal width reproduces the
    time-``j`` score vector bit-for-bit, and the softmax widths follow
    :func:`fused_paged_decode_attention` (each row's *padded* block
    context on the quantized path, exact lengths on the float path).
    The V side is the one place later rows leak — a trailing block's
    group quantization folds every resident row into its scales — so
    each row whose time-``j`` trailing block was partial gets that
    block requantized from a zero-masked copy at its time-``j`` fill
    (one *stacked* quantize + column build over all such (row, block)
    combos: the same per-step count, T trailing quantizations per
    sequence, as T sequential decode steps). Full blocks serve from the
    shared V arenas exactly like decode.

    The result is bit-identical to T sequential
    :func:`fused_paged_decode_attention` calls on the LUT backends
    (1e-9 on reference; float-KV pools differ only in einsum padding
    width, 1e-9 as well). Returns ``(B, T, heads, head_dim)``.
    """
    if not caches:
        raise ServingError("verify needs at least one sequence")
    pool = caches[0].pool
    if any(c.pool is not pool for c in caches):
        raise ServingError("all fused caches must share one block pool")
    kv, hd, block_size = pool.kv_heads, pool.head_dim, pool.block_size
    heads = kv * repeat
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
    if base.shape != (b,) or (base < 0).any():
        raise ServingError(
            f"base_lengths must be {b} non-negative lengths"
        )
    for i, cache in enumerate(caches):
        if cache.length != int(base[i]) + t:
            raise ServingError(
                f"cache {i} holds {cache.length} rows; verify of {t} "
                f"candidates over base {int(base[i])} requires "
                f"{int(base[i]) + t}"
            )
    bt = b * t
    nblocks = np.array([len(c.block_ids) for c in caches], dtype=np.int64)
    maxb = int(nblocks.max())
    n = maxb * block_size
    ids = np.zeros((b, maxb), dtype=np.int64)
    for i, cache in enumerate(caches):
        ids[i, :nblocks[i]] = cache.block_ids
    table_valid = np.arange(maxb)[None, :] < nblocks[:, None]
    # Per-row causal geometry: row (b, j) sees f = base_b + j + 1 keys.
    f_rows = (base[:, None] + np.arange(t)[None, :] + 1).reshape(bt)
    nb_rows = -(-f_rows // block_size)
    ids_rows = np.repeat(ids, t, axis=0)
    key_valid = np.arange(n)[None, :] < f_rows[:, None]
    inv_sqrt_d = 1.0 / np.sqrt(hd)
    if pool.bits is None:
        kg = pool._k[ids].transpose(0, 2, 1, 3, 4).reshape(b, kv, n, hd)
        q5 = queries.reshape(b, t, kv, repeat, hd)
        scores = np.einsum("btkrd,bknd->btkrn", q5, kg).reshape(
            bt, heads, n
        )
        scores = np.where(
            key_valid[:, None, :], scores * inv_sqrt_d, MASKED_SCORE
        )
        probs = _grouped_softmax(scores, f_rows)
        vg = pool._v[ids].transpose(0, 2, 1, 3, 4).reshape(b, kv, n, hd)
        out = np.einsum(
            "btkrn,bknd->btkrd", probs.reshape(b, t, kv, repeat, n), vg
        )
        return out.reshape(b, t, heads, hd)
    config, kernel = _lut_dispatch(pool.lut_k, act_dtype, table_dtype, backend)
    # V arenas serve only blocks that are full *now* (full at every
    # queried time); rows whose time-j trailing block was partial get a
    # fresh zero-masked requantization below, so partial-now blocks are
    # never read from the arena.
    deq = not kernel.needs_table
    live = ids[table_valid]
    pool.refresh_v_arenas(live[pool._fill[live] == block_size], deq)

    scores = _fused_scores(pool, kernel, config, queries, ids).reshape(
        bt, heads, n
    )
    scores = np.where(
        key_valid[:, None, :], scores * inv_sqrt_d, MASKED_SCORE
    )
    probs = _grouped_softmax(scores, nb_rows * block_size)

    # Gathered per-row V arena slabs, then overwrite the time-j
    # trailing-partial combos with fresh masked requantizations.
    slabs = [getattr(pool, name)[ids_rows] for name in pool._V_ARENAS[deq]]
    tb_rows = nb_rows - 1                      # time-j trailing block idx
    fill_rows = f_rows - tb_rows * block_size  # its time-j fill
    fresh = np.nonzero(fill_rows < block_size)[0]
    if fresh.size:
        tb = tb_rows[fresh]
        v_src = pool._v[ids_rows[fresh, tb]]  # (C, kv, block_size, hd)
        keep = (
            np.arange(block_size)[None, None, :, None]
            < fill_rows[fresh][:, None, None, None]
        )
        cols = pool._v_arena_columns(np.where(keep, v_src, 0.0), deq)
        for slab, col in zip(slabs, cols):
            slab[fresh, tb] = col
    # The slabs are their own arena: (row, block j) lives at row·maxb + j.
    out = _fused_context(
        pool, kernel, config, probs,
        np.arange(bt * maxb, dtype=np.int64).reshape(bt, maxb),
        [slab.reshape((-1,) + slab.shape[2:]) for slab in slabs], nb_rows,
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
    "paged_decode_attention",
    "spill_nbytes",
]
