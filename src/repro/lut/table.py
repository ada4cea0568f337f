"""Lookup-table precompute for LUT-based mpGEMM.

For a group of ``K`` activations ``a[0..K-1]``, the table indexed by a
K-bit weight pattern ``idx`` holds the signed sum

    T[idx] = sum_k (2 * bit_k(idx) - 1) * a[k]

i.e. the dot product of the activation group with the ±1 pattern encoded
by ``idx`` (bit k = 1 means +a[k], bit k = 0 means -a[k]). This is the
table used after weight reinterpretation; one such table serves *every*
weight precision through bit-serial reuse.

Symmetry (paper Eq. 4): ``T[idx] == -T[~idx & mask]``. The symmetrized
table stores only indices whose MSB is 0 (``2**(K-1)`` entries); lookups
with MSB = 1 return the negated entry of the complemented low bits
(Eq. 5). The MSB-conditioned *bit complement* can be folded into an
offline remap of the stored weights (Eq. 6), leaving only a sign flip at
accumulation — see :func:`remap_weight_bits_offline`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.datatypes.formats import DataType
from repro.datatypes.float_codec import quantize_to_format
from repro.errors import LutError

#: The paper's chosen group length (Section 4.2.1: K = 4 is optimal).
DEFAULT_K = 4


@lru_cache(maxsize=8)
def _sign_patterns(k: int) -> np.ndarray:
    """(2**k, k) float64 matrix of ±1 patterns; row idx encodes bit_k(idx)*2-1.

    Built once per *k* and shared read-only by every table precompute.
    """
    idx = np.arange(1 << k, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k, dtype=np.int64)[None, :]) & 1
    patterns = (2 * bits - 1).astype(np.float64)
    patterns.setflags(write=False)
    return patterns


def precompute_table(
    activations: np.ndarray,
    k: int = DEFAULT_K,
    act_dtype: DataType | None = None,
) -> np.ndarray:
    """Precompute the full ``2**k``-entry table for each activation group.

    Parameters
    ----------
    activations:
        Array whose last axis is a multiple of *k*; groups of *k*
        consecutive elements each get one table.
    k:
        Group length (table index width).
    act_dtype:
        Optional float format to round activations to before the
        precompute (models FP16/FP8 activation storage).

    Returns
    -------
    Array of shape ``(..., ngroups, 2**k)``.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if k < 1:
        raise LutError("k must be >= 1")
    if activations.shape[-1] % k != 0:
        raise LutError(
            f"activation length {activations.shape[-1]} not divisible by k={k}"
        )
    if act_dtype is not None:
        activations = quantize_to_format(activations, act_dtype)
    grouped = activations.reshape(*activations.shape[:-1], -1, k)
    # (..., ngroups, k) @ (k, 2**k) -> (..., ngroups, 2**k)
    return grouped @ _sign_patterns(k).T


def precompute_symmetric_table(
    activations: np.ndarray,
    k: int = DEFAULT_K,
    act_dtype: DataType | None = None,
) -> np.ndarray:
    """Precompute the symmetrized ``2**(k-1)``-entry table (MSB = 0 half)."""
    full = precompute_table(activations, k, act_dtype)
    return full[..., : 1 << (k - 1)]


def expand_symmetric_table(half_table: np.ndarray, k: int) -> np.ndarray:
    """Reconstruct the full ``2**k`` table from its symmetrized half.

    Inverse of :func:`precompute_symmetric_table`; used to prove the
    equivalence of Eq. 5 in tests: entry ``idx`` with MSB set equals
    ``-half[~idx & (2**(k-1) - 1)]``.
    """
    half = np.asarray(half_table, dtype=np.float64)
    half_size = 1 << (k - 1)
    if half.shape[-1] != half_size:
        raise LutError(
            f"expected {half_size} symmetrized entries, got {half.shape[-1]}"
        )
    low_mask = half_size - 1
    upper_idx = np.arange(half_size, 1 << k)
    complemented = (~upper_idx) & low_mask
    upper = -half[..., complemented]
    return np.concatenate([half, upper], axis=-1)


def lookup_full(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather ``table[..., indices]`` along the entries axis.

    ``table`` has shape ``(..., ngroups, 2**k)`` and ``indices`` has shape
    ``(ngroups, n)`` (one index per group per output column); the result
    has shape ``(..., ngroups, n)``.
    """
    table = np.asarray(table)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2 or indices.shape[0] != table.shape[-2]:
        raise LutError("indices must be (ngroups, n) matching the table")
    return np.take_along_axis(
        table[..., :, :],
        np.broadcast_to(
            indices, table.shape[:-2] + indices.shape
        ),
        axis=-1,
    )


def lookup_symmetric(half_table: np.ndarray, indices: np.ndarray, k: int) -> np.ndarray:
    """Lookup in a symmetrized table, applying Eq. 5's MSB rule.

    For indices with the MSB clear, returns the stored entry; for indices
    with the MSB set, returns the negated entry at the complemented low
    bits. Exactly equivalent to a full-table lookup.
    """
    indices = np.asarray(indices, dtype=np.int64)
    half_size = 1 << (k - 1)
    low_mask = half_size - 1
    msb = (indices >> (k - 1)) & 1
    folded = np.where(msb == 1, (~indices) & low_mask, indices & low_mask)
    gathered = lookup_full(half_table, folded)
    sign = np.where(msb == 1, -1.0, 1.0)
    return gathered * sign


def remap_weight_bits_offline(indices: np.ndarray, k: int) -> np.ndarray:
    """Offline weight remap implementing Eq. 6.

    Replaces each index whose MSB is set with ``MSB | (~low & mask)`` so
    that the *runtime* lookup needs no bit complement — only the MSB-driven
    sign flip remains, and that folds into the accumulator's add/sub
    control. :func:`lookup_symmetric_remapped` consumes the result.
    """
    indices = np.asarray(indices, dtype=np.int64)
    half_size = 1 << (k - 1)
    low_mask = half_size - 1
    msb = (indices >> (k - 1)) & 1
    low = indices & low_mask
    remapped_low = np.where(msb == 1, (~low) & low_mask, low)
    return (msb << (k - 1)) | remapped_low


def lookup_symmetric_remapped(
    half_table: np.ndarray, remapped: np.ndarray, k: int
) -> np.ndarray:
    """Lookup using offline-remapped indices (Eq. 6): no runtime complement."""
    remapped = np.asarray(remapped, dtype=np.int64)
    half_size = 1 << (k - 1)
    msb = (remapped >> (k - 1)) & 1
    low = remapped & (half_size - 1)
    gathered = lookup_full(half_table, low)
    return gathered * np.where(msb == 1, -1.0, 1.0)
