"""Deployment storage format for quantized weights.

Packs :class:`~repro.quant.weight.QuantizedWeight` /
:class:`~repro.quant.reinterpret.ReinterpretedWeight` tensors into the
bit-dense buffers an accelerator would actually ship:

- codes bit-packed at their true width (1-8 bits per weight),
- scales/zero-points stored alongside,
- offline-remapped LUT indices optionally precomputed so the device does
  zero weight-side work at load time (the paper's "offline remapping"),
- ``save_quantized`` / ``load_quantized`` round-trip to ``.npz``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.quant.reinterpret import ReinterpretedWeight, reinterpret_symmetric
from repro.quant.weight import QuantizedWeight, code_dtype


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack unsigned *codes* (< 2**bits) into a uint8 stream."""
    flat = np.asarray(codes, dtype=np.int64).ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= (1 << bits)):
        raise QuantizationError(f"codes do not fit in {bits} bits")
    bit_rows = ((flat[:, None] >> np.arange(bits)) & 1).astype(np.uint8)
    return np.packbits(bit_rows.ravel(), bitorder="little")


def unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; codes come back at
    ``code_dtype(bits)``, the dtype every other construction path
    stores them at."""
    total_bits = count * bits
    bit_stream = np.unpackbits(
        np.asarray(packed, dtype=np.uint8), bitorder="little"
    )
    if bit_stream.size < total_bits:
        raise QuantizationError("packed buffer too short")
    bit_rows = bit_stream[:total_bits].reshape(count, bits).astype(np.int64)
    return (bit_rows << np.arange(bits)).sum(axis=1).astype(code_dtype(bits))


@dataclass(frozen=True)
class PackedWeight:
    """Serialized form of a quantized weight tensor."""

    packed: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    bits: int
    shape: tuple[int, ...]

    @property
    def payload_bytes(self) -> int:
        return int(
            self.packed.nbytes + self.scale.nbytes + self.zero_point.nbytes
        )

    @property
    def bits_per_weight(self) -> float:
        count = int(np.prod(self.shape))
        return 8.0 * self.packed.nbytes / count

    def unpack(self) -> QuantizedWeight:
        count = int(np.prod(self.shape))
        codes = unpack_codes(self.packed, self.bits, count).reshape(self.shape)
        return QuantizedWeight(
            codes=codes, scale=self.scale, zero_point=self.zero_point,
            bits=self.bits,
        )


def pack_quantized(qw: QuantizedWeight) -> PackedWeight:
    """Pack a quantized weight into its dense storage form."""
    return PackedWeight(
        packed=pack_codes(qw.codes, qw.bits),
        scale=np.asarray(qw.scale, dtype=np.float32),
        zero_point=np.asarray(qw.zero_point, dtype=np.float32),
        bits=qw.bits,
        shape=qw.codes.shape,
    )


def save_quantized(qw: QuantizedWeight) -> bytes:
    """Serialize to an in-memory ``.npz`` byte string."""
    packed = pack_quantized(qw)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        packed=packed.packed,
        scale=packed.scale,
        zero_point=packed.zero_point,
        bits=np.int64(packed.bits),
        shape=np.asarray(packed.shape, dtype=np.int64),
    )
    return buffer.getvalue()


def load_quantized(blob: bytes) -> QuantizedWeight:
    """Inverse of :func:`save_quantized`."""
    with np.load(io.BytesIO(blob)) as data:
        packed = PackedWeight(
            packed=data["packed"],
            scale=data["scale"],
            zero_point=data["zero_point"],
            bits=int(data["bits"]),
            shape=tuple(int(x) for x in data["shape"]),
        )
    return packed.unpack()


def deployment_indices(
    qw: QuantizedWeight, lut_k: int = 4, remap: bool = True
) -> np.ndarray:
    """Precompute the per-plane LUT indices shipped to the accelerator.

    Returns an array of shape ``(bits, K/lut_k, N)`` matching what
    the shared :class:`~repro.kernels.WeightPlan` builds offline for
    every kernel backend — doing it here is exactly the paper's offline
    weight remapping.
    """
    from repro.kernels import build_weight_plan
    from repro.lut.table import remap_weight_bits_offline

    plan = build_weight_plan(qw, lut_k)
    if remap:
        return remap_weight_bits_offline(plan.indices, lut_k)
    return plan.indices.copy()
