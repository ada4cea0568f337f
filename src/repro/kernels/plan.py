"""Shared offline weight plan for every mpGEMM kernel backend.

Everything a LUT kernel needs from the *weight* side is computed once,
offline, and reused by every backend and every matmul call:

1. **reinterpret** the unsigned affine codes onto the symmetric odd grid
   (Eq. 2) so each bit-plane is ±1;
2. **bit-planes → grouped K-bit indices**: each plane's bits are packed
   into one lookup index per (plane, group, output column);
3. **symmetric folding**: the Eq. 5/6 MSB rule is resolved into
   half-table (index, sign) pairs (:meth:`WeightPlan.sym_fold`) — the
   runtime lookup needs no bit manipulation at all, regardless of whether
   the engine models the remap as offline (Eq. 6) or at runtime (Eq. 5),
   since both produce the identical pairs;
4. **per-group affine**: scales and zero-points are validated to be
   constant within each k-group and reduced to ``(G, N)`` arrays in the
   layout the kernels consume.

The plan depends only on ``(weight, k)`` — not on activation formats,
table quantization, or backend choice — which is what makes it shareable
across all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import LutError
from repro.quant.bitplane import to_bitplanes
from repro.quant.reinterpret import ReinterpretedWeight, reinterpret_symmetric
from repro.quant.weight import QuantizedWeight


def as_reinterpreted(
    weight: QuantizedWeight | ReinterpretedWeight,
) -> ReinterpretedWeight:
    """Promote a weight to the symmetric odd grid (no-op if already there)."""
    if isinstance(weight, ReinterpretedWeight):
        return weight
    if isinstance(weight, QuantizedWeight):
        return reinterpret_symmetric(weight)
    raise LutError(f"unsupported weight type: {type(weight).__name__}")


def group_affine(
    values: np.ndarray, shape: tuple[int, int], k: int, what: str
) -> np.ndarray:
    """Broadcast scale/zero-point to (N, K) and reduce to per-group (N, G).

    Raises if the parameter varies *within* a k-group, since one table
    entry then could not carry a single scale.
    """
    n, kdim = shape
    expanded = np.broadcast_to(np.asarray(values, dtype=np.float64), (n, kdim))
    grouped = expanded.reshape(n, kdim // k, k)
    if not np.all(grouped == grouped[..., :1]):
        raise LutError(
            f"{what} varies within a k={k} group; group_size must be a "
            "multiple of k for the LUT path"
        )
    return grouped[..., 0]


@dataclass
class WeightPlan:
    """Offline weight-side state shared by all mpGEMM backends.

    Attributes
    ----------
    source:
        The weight exactly as handed in (used by the dequantization
        backend so its output is bit-identical to
        :func:`repro.lut.mpgemm.dequant_mpgemm_reference`).
    reinterpreted:
        The same weight on the symmetric odd grid.
    k:
        Lookup group length (table index width).
    indices:
        ``(bits, G, N)`` plain K-bit indices per bit-plane — what the
        full-table (non-symmetric) lookup consumes, and the single
        persistent index array everything else derives from
        (:meth:`sym_fold` and :meth:`flat_lookup_indices` stay
        transient/cached so a plan's steady-state footprint does not
        grow with the number of derived views). Computed lazily on
        first access — like :attr:`scale_gn`/:attr:`zero_gn`, it is
        LUT-side state, so a plan dispatched only to table-less
        backends (e.g. ``reference`` behind the dequant executors)
        never materializes or retains it.
    scale_gn, zero_gn:
        ``(G, N)`` per-group affine parameters in kernel layout
        (validated eagerly at build time, materialized lazily).
    has_zero_point:
        False when every zero-point is exactly zero, letting kernels skip
        the correction term entirely.
    """

    source: QuantizedWeight | ReinterpretedWeight
    reinterpreted: ReinterpretedWeight
    k: int
    n: int
    kdim: int
    ngroups: int
    bits: int
    _indices: np.ndarray | None = field(default=None, repr=False)
    _scale_gn: np.ndarray | None = field(default=None, repr=False)
    _zero_gn: np.ndarray | None = field(default=None, repr=False)
    _has_zero_point: bool | None = field(default=None, repr=False)
    _dequantized: np.ndarray | None = field(default=None, repr=False)
    _flat_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dequantized(self) -> np.ndarray:
        """Real-valued ``(N, K)`` weights (computed once, cached)."""
        if self._dequantized is None:
            self._dequantized = self.source.dequantize()
        return self._dequantized

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            rw = self.reinterpreted
            # Per-plane unsigned bits of the symmetric code: q' maps back
            # to unsigned q, whose plain bit-planes index the ±1 tables.
            planes = to_bitplanes(rw.unsigned_codes(), self.bits)
            grouped = planes.reshape(self.bits, self.n, self.ngroups, self.k)
            weights_of_bits = 1 << np.arange(self.k, dtype=np.int64)
            idx = np.tensordot(grouped, weights_of_bits, axes=(3, 0))
            self._indices = np.transpose(idx, (0, 2, 1))  # (bits, G, N)
        return self._indices

    @property
    def scale_gn(self) -> np.ndarray:
        if self._scale_gn is None:
            self._scale_gn = group_affine(
                self.reinterpreted.scale, (self.n, self.kdim), self.k, "scale"
            ).T.copy()
        return self._scale_gn

    @property
    def zero_gn(self) -> np.ndarray:
        if self._zero_gn is None:
            self._zero_gn = group_affine(
                self.reinterpreted.zero_point, (self.n, self.kdim), self.k,
                "zero_point",
            ).T.copy()
        return self._zero_gn

    @property
    def has_zero_point(self) -> bool:
        if self._has_zero_point is None:
            self._has_zero_point = bool(np.any(self.zero_gn != 0.0))
        return self._has_zero_point

    def sym_fold(self) -> tuple[np.ndarray, np.ndarray]:
        """Half-table ``(low, sign)`` pairs for the symmetric lookup.

        Resolves the Eq. 5 MSB rule: indices with the MSB set address
        the complemented low bits and flip the accumulator sign —
        identical to applying the Eq. 6 offline remap
        (:func:`repro.lut.table.remap_weight_bits_offline`) and then
        splitting the result at lookup time. Returned arrays are
        ``(bits, G, N)``: ``low`` in ``[0, 2**(k-1))``, ``sign`` ±1
        float64. Computed per call (the arrays are matmul-transient for
        the naive backend; the blocked backend folds them into the
        cached :meth:`flat_lookup_indices` instead).
        """
        half_mask = (1 << (self.k - 1)) - 1
        msb = (self.indices >> (self.k - 1)) & 1
        low = self.indices & half_mask
        sym_low = np.where(msb == 1, (~low) & half_mask, low)
        sym_sign = np.where(msb == 1, -1.0, 1.0)
        return sym_low, sym_sign

    def flat_lookup_indices(self, entries: int, symmetric: bool) -> np.ndarray:
        """``(bits, G, N)`` flat gather indices for a row-flattened table.

        For the symmetric half table the caller gathers from the signed
        extension ``[T, -T]`` (width ``2·entries`` per group): the MSB
        sign is folded into the index as ``low + entries·(sign < 0)``, so
        the runtime kernel needs neither bit manipulation nor a sign
        multiply. For the full table the plain indices are used. Group
        *g*'s offset ``g·width`` is folded in too; everything is
        activation-independent, computed once per (entries, symmetric)
        and cached on the plan.
        """
        key = (entries, symmetric)
        cached = self._flat_cache.get(key)
        if cached is None:
            if symmetric:
                width = 2 * entries
                sym_low, sym_sign = self.sym_fold()
                base = sym_low + entries * (sym_sign < 0)
            else:
                width = entries
                base = self.indices
            offsets = np.arange(self.ngroups, dtype=np.int64) * width
            cached = base + offsets[None, :, None]
            self._flat_cache[key] = cached
        return cached

    @cached_property
    def shifts(self) -> np.ndarray:
        """Bit-serial plane weights ``2**i`` as float64, LSB first."""
        return (1 << np.arange(self.bits, dtype=np.int64)).astype(np.float64)

    # ------------------------------------------------------------------
    def extend(
        self,
        new_cols: QuantizedWeight | ReinterpretedWeight,
        k: int | None = None,
    ) -> "WeightPlan":
        """Append *new_cols* output columns along N, in place.

        ``new_cols`` is an ``(n_new, K)`` weight with the same ``K``
        dimension, bit width, and (implicitly) group structure as the
        plan. Every derived array of a plan — ``indices``, the affine
        ``scale_gn``/``zero_gn``, the cached flat gather indices, and
        the dequantized weights — is computed **per output column**,
        with no cross-column reductions, so extension is exactly
        concatenation along the N axis: the extended plan is
        bit-identical to :func:`build_weight_plan` over the vertically
        stacked weight (a property the kernel tests pin).

        Cost is ``O(n_new · K)`` — existing columns are never
        recomputed — which is what lets the serving runtime's paged KV
        cache keep one growing K-plan per block and pay O(1) amortized
        plan work per decoded token instead of O(context).

        Laziness is preserved: arrays the plan has not materialized yet
        stay unmaterialized (they will be computed from the concatenated
        codes on first LUT dispatch); arrays already built are extended
        with just the new columns' slices. Returns ``self``.
        """
        if k is not None and k != self.k:
            raise LutError(
                f"cannot extend a k={self.k} plan with k={k} columns"
            )
        sub = build_weight_plan(new_cols, self.k)
        if sub.kdim != self.kdim:
            raise LutError(
                f"new columns have K={sub.kdim}, plan has K={self.kdim}"
            )
        if sub.bits != self.bits:
            raise LutError(
                f"new columns are {sub.bits}-bit, plan is {self.bits}-bit"
            )
        if self._indices is not None:
            self._indices = np.concatenate(
                [self._indices, sub.indices], axis=2
            )
        if self._scale_gn is not None:
            self._scale_gn = np.concatenate(
                [self._scale_gn, sub.scale_gn], axis=1
            )
        if self._zero_gn is not None:
            self._zero_gn = np.concatenate(
                [self._zero_gn, sub.zero_gn], axis=1
            )
        if self._has_zero_point is not None:
            self._has_zero_point = self._has_zero_point or sub.has_zero_point
        if self._dequantized is not None:
            self._dequantized = np.concatenate(
                [self._dequantized, sub.dequantized], axis=0
            )
        for key, cached in self._flat_cache.items():
            # Group offsets depend only on G (unchanged); the new
            # columns' flat indices are computed against the same table
            # layout and concatenate along N.
            self._flat_cache[key] = np.concatenate(
                [cached, sub.flat_lookup_indices(*key)], axis=2
            )
        self.source = _stack_weights(self.source, new_cols)
        self.reinterpreted = _stack_reinterpreted(
            self.reinterpreted, sub.reinterpreted
        )
        self.n += sub.n
        return self


def _stack_affine(
    a: np.ndarray,
    b: np.ndarray,
    shape_a: tuple[int, ...],
    shape_b: tuple[int, ...],
) -> np.ndarray:
    """Stack two scale/zero-point arrays along the N axis.

    Broadcast-shaped parameters (per-tensor scalars, ``(n, 1)``
    per-channel columns) are only expanded when the two halves disagree
    on their trailing shape; values are never changed, so dequantization
    of the stacked weight stays bit-identical to the two halves.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (
        a.ndim == 2
        and b.ndim == 2
        and a.shape[1] == b.shape[1]
        and a.shape[0] == shape_a[0]
        and b.shape[0] == shape_b[0]
    ):
        return np.concatenate([a, b], axis=0)
    return np.concatenate(
        [np.broadcast_to(a, shape_a), np.broadcast_to(b, shape_b)], axis=0
    )


def _stack_weights(
    a: QuantizedWeight | ReinterpretedWeight,
    b: QuantizedWeight | ReinterpretedWeight,
) -> QuantizedWeight | ReinterpretedWeight:
    """Vertically stack two weights of the same representation."""
    if isinstance(a, QuantizedWeight) and isinstance(b, QuantizedWeight):
        return QuantizedWeight(
            codes=np.concatenate([a.codes, b.codes], axis=0),
            scale=_stack_affine(a.scale, b.scale, a.shape, b.shape),
            zero_point=_stack_affine(
                a.zero_point, b.zero_point, a.shape, b.shape
            ),
            bits=a.bits,
        )
    return _stack_reinterpreted(as_reinterpreted(a), as_reinterpreted(b))


def _stack_reinterpreted(
    a: ReinterpretedWeight, b: ReinterpretedWeight
) -> ReinterpretedWeight:
    return ReinterpretedWeight(
        codes=np.concatenate([a.codes, b.codes], axis=0),
        scale=_stack_affine(a.scale, b.scale, a.shape, b.shape),
        zero_point=_stack_affine(
            a.zero_point, b.zero_point, a.shape, b.shape
        ),
        bits=a.bits,
    )


def build_weight_plan(
    weight: QuantizedWeight | ReinterpretedWeight, k: int
) -> WeightPlan:
    """Compute the shared offline plan for ``(weight, k)``."""
    if k < 1:
        raise LutError("k must be >= 1")
    rw = as_reinterpreted(weight)
    if rw.codes.ndim != 2:
        raise LutError("weight codes must be 2-D (N, K)")
    n, kdim = rw.codes.shape
    if kdim % k != 0:
        raise LutError(f"K dimension {kdim} not divisible by k={k}")
    ngroups = kdim // k
    bits = rw.bits
    # Validate the group-affine constraint eagerly (a construction-time
    # error, pinned by the plan tests) without retaining the (G, N)
    # arrays — they, like the lookup indices, materialize lazily on the
    # first LUT-backend dispatch.
    group_affine(rw.scale, (n, kdim), k, "scale")
    group_affine(rw.zero_point, (n, kdim), k, "zero_point")
    return WeightPlan(
        source=weight,
        reinterpreted=rw,
        k=k,
        n=n,
        kdim=kdim,
        ngroups=ngroups,
        bits=bits,
    )
