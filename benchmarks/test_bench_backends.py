"""Bench: time the mpGEMM kernel backends (reference/naive/blocked).

This is the acceptance gate for the kernel-backend subsystem: the
blocked default must beat the legacy naive path in both of its blocking
regimes — the serving decode shape (M=8, N=K=128: one column block, the
row block bounds the work set) and the wide prefill shape (M=64,
N=K=1024, bits=4: the element budget cuts N into 16-column blocks) —
while never materializing the naive path's ``(M, bits, G, N)``
intermediate, and every LUT backend must agree with the dequantization
reference to float noise in the lossless config. The paged attention
executor's row-shared layout is gated the same way on its numpy body: one
dispatch whose query heads share each weight row must beat the per-head
dispatches. Where the compiled body of ``lut-blocked`` loaded, it must be
no slower than the numpy body at any row count — M = 1 and 2, where
padding to full lanes could lose, included
(the experiment itself has already required equal bytes). The same gate
holds the paged attention executor's compiled body (``rows-*``: decode
scores, decode context, a verify's M = 10 scores) and the int4-KV pool
writer's (``kv-*``: a decode step's K/V append and V-arena refresh) to
their numpy bodies, and the float attention's (``attn-float-*``: decode
steps over 2 and 5 blocks, prefills of 176 and of 32 rows) to its.
"""

from benchmarks.conftest import run_once
from repro.experiments.bench_backends import (
    BODY_BACKENDS,
    BODY_MS,
    FLOAT_BACKENDS,
    FLOAT_ROWS,
    KV_BACKENDS,
    KV_ROWS,
    PER_HEAD_BACKEND,
    ROWS_BACKENDS,
    ROWS_SHAPES,
)
from repro.kernels import native
from repro.kernels.backends import BLOCK_ELEMS


def test_bench_backends(benchmark, show):
    run = run_once(benchmark, "bench_backends")
    show(run.text)
    rows = {(r.shape_label, r.backend): r for r in run.value}

    for label in ("decode", "prefill"):
        naive = rows[(label, "lut-naive")]
        blocked = rows[(label, "lut-blocked")]
        # The blocked fast path must be strictly faster than the legacy path.
        assert blocked.time_s < naive.time_s, label
        # ... without ever allocating an (M, bits, G, N)-sized intermediate
        # (which the naive run must itself exceed): its traced peak is a
        # fixed few BLOCK_ELEMS blocks (accumulator, plane and zero-point
        # temporaries) plus tables and output, which stay far below that
        # single naive allocation. At the decode shape the fixed term is
        # the whole of it; at the prefill shape it is noise.
        assert blocked.peak_traced_bytes is not None
        assert blocked.peak_traced_bytes < (
            4 * BLOCK_ELEMS * 8 + naive.naive_intermediate_bytes // 4
        )
        assert blocked.peak_traced_bytes < naive.peak_traced_bytes
        assert naive.peak_traced_bytes >= naive.naive_intermediate_bytes

    # The two bodies of lut-blocked: the numpy row is always there, the
    # compiled one wherever the routine loaded, and it never loses.
    for m in BODY_MS:
        numpy_body = rows[(f"body-m{m}", BODY_BACKENDS[0])]
        assert numpy_body.max_abs_err == 0.0
        if native.status()["loaded"]:
            compiled = rows[(f"body-m{m}", BODY_BACKENDS[1])]
            assert compiled.time_s <= numpy_body.time_s, m
        else:
            assert (f"body-m{m}", BODY_BACKENDS[1]) not in rows

    # The two bodies of the paged attention executor, gated the same way;
    # on the numpy body, at both decode-step shapes, query heads that share
    # a weight row beat one dispatch a head (a verify's M = 10 lanes, five
    # a head, leave too thin a margin to gate).
    for label, t, _ in ROWS_SHAPES:
        numpy_body = rows[(label, ROWS_BACKENDS[0])]
        assert numpy_body.max_abs_err == 0.0
        if t == 1:
            assert numpy_body.time_s < rows[(label, PER_HEAD_BACKEND)].time_s
        if native.status()["loaded"]:
            assert rows[(label, ROWS_BACKENDS[1])].time_s <= numpy_body.time_s
        else:
            assert (label, ROWS_BACKENDS[1]) not in rows

    # The two bodies of the int4-KV pool's writer, gated the same way.
    for label in KV_ROWS:
        numpy_body = rows[(label, KV_BACKENDS[0])]
        assert numpy_body.max_abs_err == 0.0
        if native.status()["loaded"]:
            assert rows[(label, KV_BACKENDS[1])].time_s <= numpy_body.time_s
        else:
            assert (label, KV_BACKENDS[1]) not in rows

    # The two bodies of the float attention, gated the same way.
    for label, _, _, _ in FLOAT_ROWS:
        numpy_body = rows[(label, FLOAT_BACKENDS[0])]
        assert numpy_body.max_abs_err == 0.0
        if native.status()["loaded"]:
            assert rows[(label, FLOAT_BACKENDS[1])].time_s <= numpy_body.time_s
        else:
            assert (label, FLOAT_BACKENDS[1]) not in rows

    # Lossless configuration: LUT backends match the dequant reference
    # to float accumulation noise, the reference backend exactly.
    for (label, backend), row in rows.items():
        if backend == "reference":
            assert row.max_abs_err == 0.0, (label, backend)
        else:
            assert row.max_abs_err < 1e-9, (label, backend)
