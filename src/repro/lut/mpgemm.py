"""LUT-based mpGEMM facade and the dequantization-based reference.

The engine computes ``O[M, N] = A[M, K] x W[N, K]^T`` where ``A`` holds
high-precision activations and ``W`` is a low-bit quantized weight. The
LUT path follows the paper end to end:

1. **reinterpret** the unsigned weight codes onto the symmetric odd grid
   (Eq. 2) so every bit-plane is ±1;
2. **precompute** one table per group of ``k`` activations, optionally
   symmetrized to ``2**(k-1)`` entries and/or quantized to INT8
   (Sections 3.1.2-3.1.3);
3. **bit-serial lookup**: for each weight bit-plane, gather table entries
   with the plane's K-bit indices, shift by the plane position, and
   accumulate (Section 3.2.1);
4. **scale + zero-point correction**: the affine correction term uses the
   per-group activation sums, so non-zero zero-points cost one extra
   vector reduction, not a table.

Scales/zero-points may be per-tensor, per-output-channel, or per-group
along K (group size must be a multiple of ``k``).

The numeric execution itself lives in :mod:`repro.kernels`: the engine
owns the offline :class:`~repro.kernels.WeightPlan` and the activation
table precompute, and dispatches the lookup/accumulate step to the
selected :class:`~repro.kernels.MpGemmBackend` (``lut-blocked`` by
default; override per call via ``config.backend`` or globally with the
``REPRO_MPGEMM_BACKEND`` environment variable).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.datatypes.formats import DataType
from repro.datatypes.float_codec import quantize_to_format
from repro.errors import LutError
from repro.kernels import MpGemmBackend, WeightPlan, build_weight_plan, get_backend
from repro.quant.reinterpret import ReinterpretedWeight
from repro.quant.table_quant import quantize_table
from repro.quant.weight import QuantizedWeight
from repro.lut.table import (
    DEFAULT_K,
    precompute_symmetric_table,
    precompute_table,
)


@dataclass(frozen=True)
class LutMpGemmConfig:
    """Configuration of the LUT mpGEMM pipeline.

    Attributes
    ----------
    k:
        Activation group length / table index width (paper: 4).
    act_dtype:
        Float format activations are rounded to before the precompute
        (``None`` keeps float64 — useful for exactness tests).
    symmetric_table:
        Store only the ``2**(k-1)``-entry half table (requires
        reinterpreted weights; always valid for them).
    offline_remap:
        Fold the MSB-conditioned bit complement into the stored weights
        (Eq. 6). Numerically identical; changes which code path the
        hardware (and the cost model) runs — the kernel backends fold
        both variants to the same offline (index, sign) pairs.
    table_dtype:
        If set (e.g. INT8), tables are quantized per-table after
        precompute — the only lossy step of the pipeline. Table-less
        backends (``reference``) cannot model it, so dispatching one
        with ``table_dtype`` set raises instead of silently reporting
        lossless numbers.
    backend:
        Kernel backend name (see :func:`repro.kernels.available_backends`).
        ``None`` defers to the ``REPRO_MPGEMM_BACKEND`` environment
        variable, then to the default (``lut-blocked``).
    """

    k: int = DEFAULT_K
    act_dtype: DataType | None = None
    symmetric_table: bool = True
    offline_remap: bool = True
    table_dtype: DataType | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LutError("k must be >= 1")
        if self.table_dtype is not None and self.table_dtype.is_float:
            raise LutError("table_dtype must be an integer format")
        if self.backend is not None and not isinstance(self.backend, str):
            raise LutError("backend must be a backend name or None")


def precompute_tables(
    activations: np.ndarray, config: LutMpGemmConfig
) -> np.ndarray:
    """Per-group activation tables exactly as the engine builds them.

    Shared by :meth:`LutMpGemmEngine.precompute` and the paged decode
    attention (:mod:`repro.runtime.paging`), which dispatches the pool's
    per-block plan arenas directly to an executor and therefore needs
    the activation-side precompute as a standalone step. Returns the table
    with shape ``(M, G, entries)`` where ``entries`` is ``2**(k-1)`` if
    symmetrized else ``2**k``; ``table_dtype`` quantization (the
    pipeline's only lossy step) is applied here.
    """
    if config.symmetric_table:
        table = precompute_symmetric_table(
            activations, config.k, config.act_dtype
        )
    else:
        table = precompute_table(activations, config.k, config.act_dtype)
    if config.table_dtype is not None:
        table = quantize_table(table, config.table_dtype).dequantize()
    return table


def _config_with_backend(
    config: LutMpGemmConfig | None, backend: str | None
) -> LutMpGemmConfig:
    """Resolve the convenience ``backend=`` override onto a config."""
    config = config or LutMpGemmConfig()
    if backend is not None:
        config = dataclasses.replace(config, backend=backend)
    return config


@dataclass
class LutMpGemmEngine:
    """Reusable mpGEMM executor for a fixed weight tensor.

    A thin facade over :mod:`repro.kernels`: construction builds the
    shared offline :class:`~repro.kernels.WeightPlan` (weight-side work,
    done once), :meth:`precompute` builds the per-call activation tables,
    and :meth:`matmul` dispatches both to the selected backend. The
    offline/online split mirrors the paper's DFG: everything in
    ``__init__`` corresponds to offline weight remapping, everything in
    :meth:`matmul` to the fused precompute + LMMA kernels.
    """

    weight: QuantizedWeight | ReinterpretedWeight
    config: LutMpGemmConfig = field(default_factory=LutMpGemmConfig)

    def __post_init__(self) -> None:
        self._plan = build_weight_plan(self.weight, self.config.k)

    @property
    def plan(self) -> WeightPlan:
        """The offline weight plan shared by every backend."""
        return self._plan

    @property
    def backend(self) -> MpGemmBackend:
        """The backend the next :meth:`matmul` call will dispatch to."""
        return get_backend(self.config.backend)

    def _dispatch_backend(self) -> MpGemmBackend:
        """Resolve the backend and validate it against the config."""
        backend = self.backend
        if self.config.table_dtype is not None and not backend.needs_table:
            raise LutError(
                f"backend {backend.name!r} has no tables and cannot model "
                f"table_dtype={self.config.table_dtype.name} quantization; "
                "pick a LUT backend or drop table_dtype"
            )
        return backend

    @property
    def out_features(self) -> int:
        return self._plan.n

    @property
    def in_features(self) -> int:
        return self._plan.kdim

    def precompute(self, activations: np.ndarray) -> np.ndarray:
        """Build (and optionally quantize) the per-group tables for *A*.

        Returns the table with shape ``(M, G, entries)`` where ``entries``
        is ``2**(k-1)`` if symmetrized else ``2**k``. Exposed separately so
        the compiler's precompute operator and the fused pipeline can call
        it independently of :meth:`matmul`.
        """
        return precompute_tables(activations, self.config)

    def matmul(self, activations: np.ndarray, accum: np.ndarray | None = None) -> np.ndarray:
        """Compute ``A @ dequant(W).T (+ accum)`` through the LUT pipeline."""
        activations = np.asarray(activations, dtype=np.float64)
        squeeze = activations.ndim == 1
        if squeeze:
            activations = activations[None, :]
        if activations.ndim != 2 or activations.shape[1] != self._plan.kdim:
            raise LutError(
                f"activations must be (M, {self._plan.kdim}), got {activations.shape}"
            )
        backend = self._dispatch_backend()
        table = self.precompute(activations) if backend.needs_table else None
        out = backend.execute(self._plan, self.config, activations, table)
        if accum is not None:
            out = out + np.asarray(accum, dtype=np.float64)
        return out[0] if squeeze else out

    def _lookup_accumulate(
        self, activations: np.ndarray, table: np.ndarray
    ) -> np.ndarray:
        """Dispatch a lookup/accumulate on an externally precomputed table.

        Kept as the seam the split pipeline
        (:class:`repro.lut.pipeline.LutGemmOperator`) drives when the
        table was produced by a standalone precompute kernel. Applies
        the same backend/config validation as :meth:`matmul`.
        """
        activations = np.asarray(activations, dtype=np.float64)
        backend = self._dispatch_backend()
        return backend.execute(self._plan, self.config, activations, table)


def lut_mpgemm(
    activations: np.ndarray,
    weight: QuantizedWeight | ReinterpretedWeight,
    config: LutMpGemmConfig | None = None,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """One-shot LUT mpGEMM: ``A[M,K] @ dequant(W[N,K]).T -> O[M,N]``.

    ``backend`` overrides ``config.backend`` for this call.
    """
    engine = LutMpGemmEngine(weight, _config_with_backend(config, backend))
    return engine.matmul(activations)


def dequant_mpgemm_reference(
    activations: np.ndarray,
    weight: QuantizedWeight | ReinterpretedWeight,
    act_dtype: DataType | None = None,
) -> np.ndarray:
    """Dequantization-based mpGEMM (the indirect path, Fig. 2b).

    Upscales the low-bit weights to floats and runs a conventional GEMM.
    This is both the paper's baseline approach and the numerical reference
    the LUT path must agree with (exactly, absent table quantization).
    The ``reference`` kernel backend computes the same expression from
    the shared weight plan.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if act_dtype is not None:
        activations = quantize_to_format(activations, act_dtype)
    real_w = weight.dequantize()
    return activations @ real_w.T
