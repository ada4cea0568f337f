"""Quickstart: LUT-based mpGEMM in five minutes.

Quantizes a weight matrix to 2 bits, reinterprets it onto the symmetric
grid, and runs activations through the LUT pipeline — showing that the
result matches the dequantization-based reference exactly, and that INT8
table quantization (the only lossy knob) costs ~1e-3 relative error.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    LutMpGemmEngine,
    dequant_mpgemm_reference,
    quantize_weights,
    reinterpret_symmetric,
)
from repro.datatypes import FP16, INT8
from repro.kernels import native
from repro.lut.mpgemm import LutMpGemmConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
)


def main() -> None:
    rng = np.random.default_rng(0)
    out_features, in_features, batch = 512, 1024, 8
    weights = rng.normal(size=(out_features, in_features))
    activations = rng.normal(size=(batch, in_features))

    # 1. Offline: quantize weights to 2-bit unsigned affine codes.
    qw = quantize_weights(weights, bits=2, axis=0)
    print(f"weights: {weights.shape} -> {qw.bits}-bit codes, "
          f"{qw.codes.size * qw.bits // 8} bytes packed "
          f"({qw.codes.nbytes} resident as {qw.codes.dtype})")

    # 2. Offline: reinterpret onto the symmetric odd grid (Eq. 2). The
    #    dequantized values are preserved exactly.
    rw = reinterpret_symmetric(qw)
    assert np.allclose(rw.dequantize(), qw.dequantize(), rtol=1e-12)
    print(f"reinterpreted codes in {{{rw.codes.min()}..{rw.codes.max()}}}, "
          "all odd — every bit-plane is ±1")

    # 3. Online: run the LUT pipeline (symmetrized tables, bit-serial
    #    lookups) and compare against the dequantization reference.
    engine = LutMpGemmEngine(rw, LutMpGemmConfig(act_dtype=FP16))
    out_lut = engine.matmul(activations)
    out_ref = dequant_mpgemm_reference(activations, qw, act_dtype=FP16)
    print(f"LUT vs dequant reference max |err|: "
          f"{np.abs(out_lut - out_ref).max():.2e} (exact)")
    # Which body of the default backend just ran: the compiled fused
    # pass where a C compiler was found, else numpy — same bytes either
    # way, and a fallback says why.
    body = getattr(engine.backend, "last_body", None)
    if body is not None:  # lut-blocked (another backend may be selected)
        status = native.status()
        print(f"{engine.backend.name} ran its {body} body: " + (
            f"{status['compiler']}, {status['flags']}, exporting "
            f"{' + '.join(status['entry_points'])}" if status["loaded"]
            else f"not compiled, {status['reason']}"
        ))

    # 4. Enable INT8 table quantization (the hardware configuration).
    engine8 = LutMpGemmEngine(
        rw, LutMpGemmConfig(act_dtype=FP16, table_dtype=INT8)
    )
    out_int8 = engine8.matmul(activations)
    rel = np.abs(out_int8 - out_ref).max() / np.abs(out_ref).max()
    print(f"with INT8 tables, relative error: {rel:.2e} "
          "(negligible — Table 5's claim)")

    # 5. The table the hardware sees: 8 entries per 4 activations.
    table = engine8.precompute(activations[:1])
    print(f"precomputed table shape (M, groups, entries): {table.shape}")

    # 6. The other LUT mpGEMM of a serving step: attention over an int4
    #    KV cache, the cached context as N and GQA's query heads as M,
    #    read in place from the block pool by the same object's second
    #    routine (or gathered by numpy — same bytes, and it says which).
    pool = BlockAllocator(kv_heads=2, head_dim=16, bits=4)
    cache = PagedLayerCache(pool)
    cache.append(rng.normal(size=(40, 2, 16)), rng.normal(size=(40, 2, 16)))
    context = fused_paged_decode_attention(
        rng.normal(size=(1, 4, 16)), [cache], repeat=2
    )
    paged = getattr(engine.backend, "last_paged_body", None)
    print(f"int4-KV attention over {cache.length} cached tokens -> "
          f"{context.shape}" + (f", paged executor ran its {paged} body"
                                if paged is not None else ""))


if __name__ == "__main__":
    main()
