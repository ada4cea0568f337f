"""Weight reinterpretation for table symmetrization (paper Section 3.1.2).

The paper's key software trick: an unsigned affine-quantized weight
``r = s * (q - z)`` with ``q in [0, 2**b - 1]`` is *reinterpreted* onto a
zero-symmetric odd grid

    q' = 2*q - (2**b - 1)        (values {-(2**b-1), ..., -1, +1, ...})
    s' = s / 2
    z' = 2*z + 1 - 2**b

which preserves the real value exactly: ``s' * (q' - z') == s * (q - z)``.

Because every bit-plane of ``q'`` is then ±1 (see
:mod:`repro.quant.bitplane`), per-group dot-product lookup tables become
odd-symmetric — ``LUT[idx] == -LUT[~idx]`` — and only half of each table
needs to be stored (Eq. 4/5). The MSB-conditioned negation can further be
folded into an *offline* remapping of the stored weight bits (Eq. 6), which
removes the negation circuit from the hardware LUT unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.quant.weight import QuantizedWeight, code_dtype


@dataclass(frozen=True)
class ReinterpretedWeight:
    """Weight tensor on the symmetric odd grid produced by Eq. 2.

    Attributes
    ----------
    codes:
        Symmetric odd integer codes ``q' in {-(2**b-1), ..., 2**b-1}``
        (all odd), stored at ``code_dtype(bits + 1, signed=True)`` (int8
        up to 7 bits, int16 up to 15, else int32) whatever integer dtype
        was handed in.
    scale, zero_point:
        Adjusted ``s' = s/2`` and ``z' = 2z + 1 - 2**b``. For weights that
        were quantized symmetrically (grid midpoint zero-point), ``z'`` is
        exactly zero and the zero-point correction term in the mpGEMM
        vanishes.
    bits:
        Original code width *b*; the signed grid has ``2**b`` points.
    """

    codes: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        dtype = code_dtype(self.bits + 1, signed=True)
        if self.codes.dtype == dtype:
            return
        span = np.iinfo(dtype)
        if (
            self.codes.min(initial=0) < span.min
            or self.codes.max(initial=0) > span.max
        ):
            raise QuantizationError(
                f"codes do not fit the {dtype} storage of a "
                f"{self.bits}-bit symmetric grid"
            )
        object.__setattr__(self, "codes", self.codes.astype(dtype, copy=False))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        """Real-valued weights ``s' * (q' - z')``."""
        return self.scale * (self.codes.astype(np.float64) - self.zero_point)

    def unsigned_codes(self) -> np.ndarray:
        """Map back to the original unsigned codes ``q = (q' + 2**b - 1)/2``."""
        # Widened first: q' + 2**b - 1 reaches 2**(b+1) - 2, past the
        # signed storage dtype.
        wide = self.codes.astype(np.int64) + ((1 << self.bits) - 1)
        return (wide // 2).astype(code_dtype(self.bits))


def reinterpret_params(
    scale: np.ndarray | float, zero_point: np.ndarray | float, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Adjusted ``(s', z')`` from Eq. 2 for the given ``(s, z, b)``."""
    scale = np.asarray(scale, dtype=np.float64)
    zero_point = np.asarray(zero_point, dtype=np.float64)
    return scale / 2.0, 2.0 * zero_point + 1.0 - (1 << bits)


def reinterpret_symmetric(qw: QuantizedWeight) -> ReinterpretedWeight:
    """Apply Eq. 2 to map unsigned codes onto the symmetric odd grid.

    The mapping is exact: ``result.dequantize() == qw.dequantize()``
    bit-for-bit in float64 (the transform multiplies/divides by powers of
    two only).
    """
    # Widened first: 2q reaches 2**(b+1) - 2, which wraps in q's own
    # unsigned dtype; the result narrows to the signed storage dtype.
    new_codes = 2 * qw.codes.astype(np.int64) - ((1 << qw.bits) - 1)
    new_scale, new_zero = reinterpret_params(qw.scale, qw.zero_point, qw.bits)
    return ReinterpretedWeight(
        codes=new_codes,
        scale=new_scale,
        zero_point=new_zero,
        bits=qw.bits,
    )


def check_symmetry(rw: ReinterpretedWeight) -> None:
    """Validate the invariants of a reinterpreted weight (used by tests).

    Raises :class:`QuantizationError` if any code is even or out of range.
    """
    limit = (1 << rw.bits) - 1
    codes = rw.codes
    if np.any((codes % 2) == 0):
        raise QuantizationError("reinterpreted codes must all be odd")
    if codes.min(initial=-1) < -limit or codes.max(initial=1) > limit:
        raise QuantizationError("reinterpreted codes out of ±(2**b - 1) range")
