"""Quantization substrate.

Implements the weight-side numerics of the paper:

- affine weight quantization ``r = s * (q - z)`` at per-tensor /
  per-channel / per-group granularity (:mod:`repro.quant.weight`),
- the paper's **weight reinterpretation** (Section 3.1.2, Eq. 2) that maps
  unsigned codes onto a zero-symmetric odd grid so the lookup table halves
  (:mod:`repro.quant.reinterpret`),
- **bit-plane (bit-serial) decomposition** where each reinterpreted plane
  takes values in {-1, +1} (:mod:`repro.quant.bitplane`),
- **INT8 table quantization** of precomputed LUTs (Section 3.1.3,
  :mod:`repro.quant.table_quant`).
"""

from repro.quant.weight import (
    QuantizedWeight,
    code_dtype,
    quantize_weights,
    dequantize,
)
from repro.quant.reinterpret import (
    ReinterpretedWeight,
    reinterpret_symmetric,
    reinterpret_params,
)
from repro.quant.bitplane import (
    to_bitplanes,
    from_bitplanes,
    to_signed_bitplanes,
    from_signed_bitplanes,
    pack_bits,
    unpack_bits,
)
from repro.quant.table_quant import (
    QuantizedTable,
    quantize_table,
    dequantize_table,
)
from repro.quant.ternary import (
    TernaryWeight,
    quantize_ternary,
    pack_ternary,
    unpack_ternary,
)
from repro.quant.packing import (
    PackedWeight,
    pack_quantized,
    save_quantized,
    load_quantized,
)

__all__ = [
    "QuantizedWeight",
    "code_dtype",
    "quantize_weights",
    "dequantize",
    "ReinterpretedWeight",
    "reinterpret_symmetric",
    "reinterpret_params",
    "to_bitplanes",
    "from_bitplanes",
    "to_signed_bitplanes",
    "from_signed_bitplanes",
    "pack_bits",
    "unpack_bits",
    "QuantizedTable",
    "quantize_table",
    "dequantize_table",
    "TernaryWeight",
    "quantize_ternary",
    "pack_ternary",
    "unpack_ternary",
    "PackedWeight",
    "pack_quantized",
    "save_quantized",
    "load_quantized",
]
