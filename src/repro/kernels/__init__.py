"""Pluggable mpGEMM kernel backends.

The numeric execution stack behind every LUT mpGEMM consumer in the
repo. One dispatch seam — :class:`MpGemmBackend` — with a registry of
implementations, all fed by one shared offline :class:`WeightPlan`:

- ``reference``  — dequantize-then-GEMM (the paper's indirect path);
- ``lut-naive``  — the original broadcast-gather LUT path
  (materializes a ``(M, bits, G, N)`` intermediate);
- ``lut-blocked`` — the default: the paper's elongated tile. A block of
  ``BLOCK_ROWS`` (8) activation rows keeps one signed, plane-scaled
  table resident with rows innermost, and the weight columns sweep it
  in blocks of at most ``BLOCK_ELEMS`` (2**15) gathered values; peak
  memory is a few such blocks, whatever M, N and the weight width. With
  a C compiler on ``PATH`` the loop runs compiled as one fused pass
  (``lut_block.c``, built and loaded by :mod:`repro.kernels.native`,
  whose ``status()`` says whether and why not); without one, the numpy
  body computes the same bytes. The same object carries the compiled
  body of :func:`paged_lut_execute`, the int4-KV attention's row-wise
  executor over block-paged weight columns (:mod:`repro.kernels.fused`).

Select a backend per call via ``LutMpGemmConfig(backend=...)`` (or the
``backend=`` argument on `lut_mpgemm`/`lut_gemv`), or globally via the
``REPRO_MPGEMM_BACKEND`` environment variable.
"""

from repro.kernels.backends import (
    DEFAULT_TILE_N,
    LutBlockedBackend,
    LutNaiveBackend,
    MpGemmBackend,
    ReferenceBackend,
    effective_activations,
    gather_grouped_blocked,
    sum_groups,
)
from repro.kernels.fused import (
    paged_lut_execute,
    reduce_blocks,
    rowwise_dequant_execute,
    rowwise_lut_execute,
    shared_rows,
)
from repro.kernels.plan import WeightPlan, build_weight_plan
from repro.kernels.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
    resolve_lut_path_name,
    unregister_backend,
)

__all__ = [
    "MpGemmBackend",
    "ReferenceBackend",
    "LutNaiveBackend",
    "LutBlockedBackend",
    "DEFAULT_TILE_N",
    "WeightPlan",
    "build_weight_plan",
    "effective_activations",
    "gather_grouped_blocked",
    "paged_lut_execute",
    "reduce_blocks",
    "rowwise_dequant_execute",
    "rowwise_lut_execute",
    "shared_rows",
    "sum_groups",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "resolve_lut_path_name",
    "unregister_backend",
]
