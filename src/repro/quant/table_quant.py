"""INT8 table quantization (paper Section 3.1.3).

High-precision activations (FP16/FP32) would make the precomputed lookup
tables wide and the MUX/broadcast datapath expensive. The paper instead
quantizes each precomputed table to a unified low precision (INT8 by
default) with a *per-table* dynamic scale — one scale per group of
``2**(K-1)`` symmetrized entries (K = 4 -> 8 entries per table).

Because the scale is chosen per table at precompute time, the quantization
is much finer-grained than per-tensor activation quantization, which is
why Table 5 finds no measurable accuracy loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes.formats import DataType, INT8
from repro.errors import LutError
from repro.quant.weight import code_dtype


@dataclass(frozen=True)
class QuantizedTable:
    """A LUT quantized to a narrow integer format with per-table scales.

    Attributes
    ----------
    codes:
        Integer table entries, shape ``(..., entries)`` where the last axis
        is the table (one table per activation group), stored at the
        format's own width (int8 for INT8).
    scales:
        Per-table scales, shape ``(..., 1)`` broadcastable against codes.
    dtype:
        The storage format (INT8 in the paper's configuration).
    """

    codes: np.ndarray
    scales: np.ndarray
    dtype: DataType = INT8

    def dequantize(self) -> np.ndarray:
        """Real-valued table entries ``codes * scales``."""
        return self.codes.astype(np.float64) * self.scales

    @property
    def entries(self) -> int:
        return self.codes.shape[-1]


def quantize_table(
    table: np.ndarray, dtype: DataType = INT8
) -> QuantizedTable:
    """Quantize *table* (last axis = entries of one table) to *dtype*.

    The scale for each table is ``max|entry| / qmax`` so the largest entry
    maps to the extreme code; all-zero tables get scale 1 to avoid
    division by zero. Symmetric (no zero-point) quantization is used since
    symmetrized tables are odd around zero by construction.
    """
    if dtype.is_float:
        raise LutError(f"table quantization target must be integer, got {dtype}")
    table = np.asarray(table, dtype=np.float64)
    if table.ndim == 0:
        raise LutError("table must have at least one axis (the entries axis)")
    qmax = dtype.max_int
    amax = np.max(np.abs(table), axis=-1, keepdims=True)
    scales = np.where(amax > 0, amax / qmax, 1.0)
    codes = np.clip(np.round(table / scales), dtype.min_int, qmax)
    return QuantizedTable(
        codes=codes.astype(code_dtype(dtype.bits, dtype.signed)),
        scales=scales, dtype=dtype,
    )


def dequantize_table(qt: QuantizedTable) -> np.ndarray:
    """Functional alias for :meth:`QuantizedTable.dequantize`."""
    return qt.dequantize()


def table_quantization_error(table: np.ndarray, dtype: DataType = INT8) -> float:
    """Max absolute error introduced by quantizing *table* to *dtype*.

    Bounded by ``scale / 2`` per entry; exposed for the property tests and
    the Table 5 analysis.
    """
    qt = quantize_table(table, dtype)
    return float(np.max(np.abs(qt.dequantize() - np.asarray(table, dtype=np.float64))))
