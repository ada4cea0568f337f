"""Affine weight quantization ``r = s * (q - z)``.

Weights are quantized offline (they are static), which is why the paper
targets weight-only quantization. Codes ``q`` are *unsigned* integers in
``[0, 2**bits - 1]`` — this is the representation the reinterpretation
step (:mod:`repro.quant.reinterpret`) starts from.

Granularity:

- ``axis=None`` — per-tensor scale/zero-point,
- ``axis=k``   — per-slice along axis *k* (per output channel in LLM linear
  layers),
- ``group_size=g`` with ``axis=k`` — per-group of *g* consecutive elements
  along axis *k* (GPTQ/AWQ-style group quantization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError


def code_dtype(bits: int, signed: bool = False) -> np.dtype:
    """The narrowest numpy integer dtype that holds a *bits*-wide code.

    Unsigned: the affine codes ``[0, 2**bits - 1]``. Signed: *bits*-bit
    two's complement — the symmetric odd grid ``±(2**b - 1)`` of
    :mod:`repro.quant.reinterpret` is ``code_dtype(b + 1, signed=True)``.
    Every stored code array in the repo takes its dtype from here;
    arithmetic on codes widens explicitly first (a narrow array wraps
    silently).
    """
    return np.min_scalar_type(-(1 << (bits - 1)) if signed else (1 << bits) - 1)


@dataclass(frozen=True)
class QuantizedWeight:
    """A weight tensor in the paper's unsigned affine representation.

    Attributes
    ----------
    codes:
        Unsigned codes in ``[0, 2**bits - 1]``, same shape as the
        original tensor, stored at ``code_dtype(bits)`` (uint8 up to 8
        bits, else uint16) whatever integer dtype was handed in.
    scale, zero_point:
        Arrays broadcastable against ``codes``; the dequantized value is
        ``scale * (codes - zero_point)``. ``zero_point`` is real-valued
        (the reinterpretation step produces non-integer zero-points).
    bits:
        Code width in bits (1..8 in the paper's experiments).
    """

    codes: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise QuantizationError(f"unsupported weight bits: {self.bits}")
        if self.codes.min(initial=0) < 0 or self.codes.max(initial=0) >= (1 << self.bits):
            raise QuantizationError(
                f"codes out of range for {self.bits}-bit unsigned storage"
            )
        object.__setattr__(
            self, "codes", self.codes.astype(code_dtype(self.bits), copy=False)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        """Real-valued weights ``scale * (codes - zero_point)``."""
        return self.scale * (self.codes.astype(np.float64) - self.zero_point)


def _grouped_view(
    values: np.ndarray, axis: int, group_size: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reshape so the grouped axis becomes (ngroups, group_size) at the end."""
    moved = np.moveaxis(values, axis, -1)
    length = moved.shape[-1]
    if length % group_size != 0:
        raise QuantizationError(
            f"axis length {length} not divisible by group_size {group_size}"
        )
    grouped = moved.reshape(*moved.shape[:-1], length // group_size, group_size)
    return grouped, moved.shape


def affine_quantize(
    weights: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int,
    symmetric: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantizer's arithmetic: ``(codes, scale, zero_point)`` of
    *weights* given each scale group's range.

    *lo* / *hi* are the per-group minimum and maximum, broadcastable
    against *weights*; scale and zero-point come back in their shape.
    Every operation is element-wise, so a code depends only on its own
    group's range, however the groups are laid out or stacked —
    :func:`quantize_weights` and the paged KV pool both end here.
    """
    if weights.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    qmax = (1 << bits) - 1
    if symmetric:
        amax = np.maximum(np.abs(lo), np.abs(hi))
        # Map [-amax, amax] onto [0, qmax] with midpoint zero.
        scale = np.where(amax > 0, 2.0 * amax / qmax, 1.0)
        zero_point = np.full_like(scale, qmax / 2.0)
    else:
        span = hi - lo
        scale = np.where(span > 0, span / qmax, 1.0)
        # + 0.0 turns a -0.0 into +0.0: which zero min() keeps from a
        # ±0.0 tie is numpy's loops' choice, and no code depends on it.
        zero_point = -lo / scale + 0.0
    codes = np.round(weights / scale + zero_point)
    return np.clip(codes, 0, qmax).astype(code_dtype(bits)), scale, zero_point


def quantize_weights(
    weights: np.ndarray,
    bits: int,
    axis: int | None = None,
    group_size: int | None = None,
    symmetric: bool = False,
) -> QuantizedWeight:
    """Quantize real *weights* to *bits*-bit unsigned affine codes.

    Parameters
    ----------
    weights:
        Real-valued weight tensor.
    bits:
        Target code width; codes land in ``[0, 2**bits - 1]``.
    axis:
        Axis for per-channel scales; ``None`` means per-tensor.
    group_size:
        Optional group size along *axis* for per-group scales (requires
        ``axis`` to be set).
    symmetric:
        If ``True``, force the zero-point to the grid midpoint
        ``(2**bits - 1) / 2`` so the representable reals are symmetric
        around zero (the natural choice before reinterpretation; BitNet's
        binary/ternary formats are symmetric).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    if group_size is not None and axis is None:
        raise QuantizationError("group_size requires axis")

    if axis is None:
        reduce_axes: tuple[int, ...] | None = None
        lo = weights.min()
        hi = weights.max()
        lo = np.asarray(lo)
        hi = np.asarray(hi)
    elif group_size is None:
        reduce_axes = tuple(i for i in range(weights.ndim) if i != axis % weights.ndim)
        lo = weights.min(axis=reduce_axes, keepdims=True)
        hi = weights.max(axis=reduce_axes, keepdims=True)
    else:
        grouped, moved_shape = _grouped_view(weights, axis, group_size)
        lo_g = grouped.min(axis=-1, keepdims=True)
        hi_g = grouped.max(axis=-1, keepdims=True)
        lo_g, hi_g = np.broadcast_arrays(lo_g, hi_g)
        lo = np.moveaxis(
            np.broadcast_to(lo_g, grouped.shape).reshape(moved_shape), -1, axis
        )
        hi = np.moveaxis(
            np.broadcast_to(hi_g, grouped.shape).reshape(moved_shape), -1, axis
        )

    codes, scale, zero_point = affine_quantize(
        weights, lo, hi, bits, symmetric
    )
    return QuantizedWeight(
        codes=codes,
        scale=np.asarray(scale, dtype=np.float64),
        zero_point=np.asarray(zero_point, dtype=np.float64),
        bits=bits,
    )


def dequantize(qw: QuantizedWeight) -> np.ndarray:
    """Functional alias for :meth:`QuantizedWeight.dequantize`."""
    return qw.dequantize()
