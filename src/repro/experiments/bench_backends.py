"""Kernel-backend microbenchmark: reference vs lut-naive vs lut-blocked.

Times the actual NumPy mpGEMM kernels (not the analytic GPU models) so
the repo's perf trajectory tracks real kernel speed, on both sides of
the blocked backend's two-level blocking: the serving decode shape
(M = 8, N = K = 128), where one column block spans all of N and only
the row block bounds the work set, and wide N = K = 1024 layers at
M = 1 / 8 / 64, where the element budget cuts N into 16 - 128-column
blocks. For each backend the experiment reports wall time, speedup over
the legacy ``lut-naive`` path, the max absolute error against the
dequantization reference (zero-loss configuration, so LUT backends must
match to float noise), and — for the LUT backends — the tracemalloc
peak of one matmul, which is what proves the blocked path never
materializes the naive path's ``(M, bits, G, N)`` intermediate.

The ``body-m*`` rows time the two bodies of ``lut-blocked`` against each
other at the decode shape, M = 1 / 2 / 8 / 64: the compiled fused pass
(``kernels/lut_block.c``; rows present only where it loaded) and the
numpy body a host without a compiler runs. Their outputs must be equal
byte for byte — the experiment raises otherwise — and the small-M rows
are where a compiled path that padded every block in Python lost to
numpy.

The ``rows-*`` rows do the same for the paged attention executor
(:func:`~repro.kernels.paged_lut_execute`) at the ``decode-int4kv``
step's shapes — B = 8 sequences of 5 blocks, 4 KV heads of 2 query heads:
scores (R = 32 weight rows, N = 80), context (R = 160, N = 16) and a
verify's scores (T = 5, so M = 10). Both bodies are the ones the
``body-m*`` rows time as a linear: the numpy one gathers the column
arrays through the block table, the compiled one (``lut_block``) reads
them in place. Equal bytes or the experiment raises. A third row per
shape, ``per-head (numpy)``, runs the same work on the numpy body as
:data:`ATTN_M` dispatches of one query head each — the gather and index
fold a weight row shared by its query heads makes once, made per head;
the concatenated heads must equal the shared dispatch byte for byte.

The ``kv-*`` rows time the two bodies of the int4-KV pool's writer at the
same step: ``kv-append`` lands B = 8 K/V rows in 8 blocks (float slabs,
K codes and scales, K-arena columns), ``kv-refresh`` rebuilds those 8
blocks' V arenas. The numpy body quantizes, builds the columns and
scatters them; the compiled one (``kv_append`` / ``kv_refresh``) writes
them in place in one pass. Every pool array must be equal byte for byte
after the call, or the experiment raises.

The ``attn-float-*`` rows time the two bodies of the float attention
(:func:`~repro.runtime.paging.paged_float_attention`: prefill on every
pool, decode and verify on a float-KV one) at the serving shapes, 4 KV
heads of 2 query heads, head_dim 16, blocks of 16: a decode step of B = 8
sequences whose contexts span 2 or 5 blocks, and a prefill of 176 rows
over no past or of 32 rows over 128 cached ones. The compiled body
(``attn_scores`` / ``attn_context``) reads the pool's float slabs in place
and visits each row's causal keys only; the numpy body gathers the
blocks and computes the same sequence over the padded table. Their
outputs must be equal byte for byte, or the experiment raises.

Extends Section 3.2 of the paper (the software kernel pipeline); there
is no corresponding figure — this is the repo's own regression bench.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro.errors import LutError
from repro.experiments.meta import ExperimentMeta
from repro.kernels import get_backend, native, paged_lut_execute
from repro.lut.mpgemm import (
    LutMpGemmConfig,
    LutMpGemmEngine,
    dequant_mpgemm_reference,
)
from repro.quant.weight import quantize_weights
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    paged_float_attention,
)

#: (label, M, N, K). ``decode`` is the serving batch on a bench-128
#: layer (rows-limited blocking); the 1024-wide rows are column-limited.
SHAPES: tuple[tuple[str, int, int, int], ...] = (
    ("decode", 8, 128, 128),
    ("gemv", 1, 1024, 1024),
    ("decode-wide", 8, 1024, 1024),
    ("prefill", 64, 1024, 1024),
)
#: Query heads per KV head (the paged executor's shared-row axis M).
ATTN_M = 2
#: Row counts of the compiled-vs-numpy body rows (N = K = 128): solo
#: decode, the trace-burst batch mean, the decode batch, a prefill chunk.
BODY_MS = (1, 2, 8, 64)
BODY_BACKENDS = ("lut-blocked (numpy)", "lut-blocked (compiled)")
#: (label, verify positions T, context side) of the paged executor rows.
ROWS_SHAPES: tuple[tuple[str, int, bool], ...] = (
    ("rows-scores", 1, False),
    ("rows-context", 1, True),
    ("rows-verify", 5, False),
)
#: Sequences, blocks each, KV heads, head_dim = block_size, pool blocks.
ROWS_B, ROWS_BLOCKS, ROWS_KV, ROWS_DIM, ROWS_POOL = 8, 5, 4, 16, 64
ROWS_BACKENDS = ("paged (numpy)", "paged (compiled)")
#: The same dispatch on the numpy body as ATTN_M calls of one query head
#: each: what the rows-* rows' shared weight rows save.
PER_HEAD_BACKEND = "per-head (numpy)"
#: The int4-KV pool writer rows, at the rows-* step's geometry.
KV_ROWS = ("kv-append", "kv-refresh")
KV_BACKENDS = ("pool (numpy)", "pool (compiled)")
#: (label, sequences, cached rows before the call, rows T) of the float
#: attention rows: decode steps whose contexts span 2 and 5 blocks (the
#: B = 8 rows' lengths staggered within the last block), prefills.
FLOAT_ROWS: tuple[tuple[str, int, int, int], ...] = (
    ("attn-float-decode-2", ROWS_B, ROWS_DIM, 1),
    ("attn-float-decode-5", ROWS_B, 4 * ROWS_DIM, 1),
    ("attn-float-prefill-176", 1, 0, 176),
    ("attn-float-prefill-128+32", 1, 128, 32),
)
FLOAT_BACKENDS = ("float (numpy)", "float (compiled)")
WEIGHT_BITS = 4
LUT_K = 4
BACKENDS = ("reference", "lut-naive", "lut-blocked")
#: Repetitions per timing (min is reported): this many MACs' worth,
#: clamped to [2, MAX_REPS], so heavier shapes use fewer.
REPS_MACS = 1 << 25
MAX_REPS = 50

META = ExperimentMeta(
    title="mpGEMM kernel backends: reference vs lut-naive vs lut-blocked",
    paper_ref="Section 3.2 (repo extension)",
    kind="ablation",
    tags=("kernel", "backend"),
    expected_runtime_s=15.0,
    # Wall-clock + tracemalloc numbers are machine-state-dependent:
    # never replay them from the result cache as if freshly measured,
    # and never time them while sibling experiments saturate the pool.
    cacheable=False,
    parallelizable=False,
    config={
        "shapes": SHAPES,
        "weight_bits": WEIGHT_BITS,
        "lut_k": LUT_K,
        "backends": BACKENDS,
        "attn_m": ATTN_M,
        "body_ms": BODY_MS,
        "rows_shapes": ROWS_SHAPES,
        "kv_rows": KV_ROWS,
        "float_rows": FLOAT_ROWS,
    },
)


@dataclass(frozen=True)
class BackendBenchRow:
    """One (shape, backend) timing cell.

    On the ``body-m*`` rows the "backends" are the two bodies of
    ``lut-blocked``, the speedup is over the numpy one and
    ``max_abs_err`` is 0 because the bytes were checked equal; the
    ``rows-*`` rows are the same for the paged attention executor (``m``
    shared activation rows, ``n`` columns per weight row), plus its
    ``per-head (numpy)`` dispatches.
    """

    shape_label: str
    backend: str
    m: int
    n: int
    kdim: int
    bits: int
    time_s: float
    speedup_vs_naive: float
    max_abs_err: float
    #: tracemalloc peak of one matmul (LUT backends only).
    peak_traced_bytes: int | None

    @property
    def naive_intermediate_bytes(self) -> int:
        """Size of the naive path's (M, bits, G, N) float64 gather."""
        return self.m * self.bits * (self.kdim // LUT_K) * self.n * 8


def _time_matmul(engine: LutMpGemmEngine, acts: np.ndarray, reps: int) -> float:
    best = np.inf
    for _ in range(reps):
        started = time.perf_counter()
        engine.matmul(acts)
        best = min(best, time.perf_counter() - started)
    return best


def _traced_peak(engine: LutMpGemmEngine, acts: np.ndarray) -> int:
    """Peak bytes the matmul allocates above the pre-call watermark.

    Reuses an ambient tracemalloc session when one exists (restarting is
    a no-op and stopping would kill the caller's tracing); either way
    the result is the matmul's *incremental* peak, so it is comparable
    across environments.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        engine.matmul(acts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started_here:
            tracemalloc.stop()
    return max(0, peak - baseline)


def _body_rows(rng, m: int) -> list[BackendBenchRow]:
    """Time the compiled and numpy bodies of ``lut-blocked`` at M = *m*."""
    n = kdim = 128
    engine = LutMpGemmEngine(
        quantize_weights(rng.normal(size=(n, kdim)), WEIGHT_BITS, axis=0),
        LutMpGemmConfig(k=LUT_K, backend="lut-blocked"),
    )
    acts = rng.normal(size=(m, kdim))
    with native.unloaded():
        want = engine.matmul(acts)
        times = {BODY_BACKENDS[0]: _time_matmul(engine, acts, MAX_REPS)}
    if native.status()["loaded"]:
        if engine.matmul(acts).tobytes() != want.tobytes():
            raise LutError(f"compiled and numpy bodies differ at M={m}")
        times[BODY_BACKENDS[1]] = _time_matmul(engine, acts, MAX_REPS)
    return [
        BackendBenchRow(
            shape_label=f"body-m{m}",
            backend=name,
            m=m,
            n=n,
            kdim=kdim,
            bits=WEIGHT_BITS,
            time_s=time_s,
            speedup_vs_naive=times[BODY_BACKENDS[0]] / time_s,
            max_abs_err=0.0,
            peak_traced_bytes=None,
        )
        for name, time_s in times.items()
    ]


def _paged_rows(rng, label: str, t: int, context: bool) -> list[BackendBenchRow]:
    """Time the two bodies of ``paged_lut_execute`` at one decode-step
    shape: K arenas under T-position queries, or V arenas under per-block
    probability segments."""
    g, width = ROWS_DIM // LUT_K, 1 << LUT_K  # groups, K-bit indices
    columns = (
        rng.integers(
            0, width, (ROWS_POOL, ROWS_KV, WEIGHT_BITS, g, ROWS_DIM), np.uint8
        ),
        rng.normal(size=(ROWS_POOL, ROWS_KV, g, ROWS_DIM)),
        rng.normal(size=(ROWS_POOL, ROWS_KV, g, ROWS_DIM)),
    )
    ids = rng.permutation(ROWS_POOL)[: ROWS_B * ROWS_BLOCKS].reshape(
        ROWS_B, ROWS_BLOCKS
    )
    counts = np.full(ROWS_B, ROWS_BLOCKS) if context else None
    rows = ROWS_B * ROWS_KV * ATTN_M * (ROWS_BLOCKS if context else t)
    args = (
        get_backend("lut-blocked"),
        rng.normal(size=(rows, g, width // 2)), rng.normal(size=(rows, g)),
        ids, columns, ATTN_M, counts,
    )

    # One query head's tables and sums per dispatch: (rows, T, kv, repeat)
    # or (rows, kv, repeat, max_blocks) activation rows, head on axis 3 / 2.
    head_axis = 2 if context else 3
    split = (ROWS_B, ROWS_KV, ATTN_M, ROWS_BLOCKS) if context else (
        ROWS_B, t, ROWS_KV, ATTN_M
    )
    singles = [
        (args[0], *(
            np.ascontiguousarray(
                a.reshape(split + a.shape[1:]).take(h, axis=head_axis)
            ).reshape((-1,) + a.shape[1:])
            for a in args[1:3]
        ), ids, columns, 1, counts)
        for h in range(ATTN_M)
    ]

    def per_head():
        return np.stack(
            [paged_lut_execute(*single) for single in singles], axis=head_axis
        ).reshape(want.shape)

    def best(fn=lambda: paged_lut_execute(*args)) -> float:
        out = np.inf
        for _ in range(MAX_REPS):
            started = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - started)
        return out

    with native.unloaded():
        want = paged_lut_execute(*args)
        if per_head().tobytes() != want.tobytes():
            raise LutError(f"shared and per-head dispatches differ: {label}")
        times = {ROWS_BACKENDS[0]: best(), PER_HEAD_BACKEND: best(per_head)}
    if native.status()["loaded"]:
        if paged_lut_execute(*args).tobytes() != want.tobytes():
            raise LutError(f"compiled and numpy paged bodies differ: {label}")
        times[ROWS_BACKENDS[1]] = best()
    return [
        BackendBenchRow(
            shape_label=label,
            backend=name,
            m=ATTN_M * t,
            n=ROWS_DIM * (1 if context else ROWS_BLOCKS),
            kdim=ROWS_DIM,
            bits=WEIGHT_BITS,
            time_s=time_s,
            speedup_vs_naive=times[ROWS_BACKENDS[0]] / time_s,
            max_abs_err=0.0,
            peak_traced_bytes=None,
        )
        for name, time_s in times.items()
    ]


def _kv_pool(seed: int):
    """A pool of :data:`ROWS_B` half-full blocks, and the two writer calls
    one decode step makes on it by row label, each repeatable (same
    slots, same stale stamps every time)."""
    rng = np.random.default_rng(seed)
    pool = BlockAllocator(
        ROWS_KV, ROWS_DIM, ROWS_DIM, num_blocks=ROWS_POOL, bits=WEIGHT_BITS,
        lut_k=LUT_K,
    )
    bids = np.array([pool.allocate() for _ in range(ROWS_B)], np.int64)
    for bid in bids:
        pool.write_rows(
            bid, *rng.normal(size=(2, ROWS_DIM // 2, ROWS_KV, ROWS_DIM))
        )
    k, v = rng.normal(size=(2, ROWS_B, ROWS_KV, ROWS_DIM))
    offs = pool._fill[bids]

    def append():
        pool._land_rows(bids, offs, k, v)

    def refresh():
        pool._va_fill[bids] = -1
        pool.refresh_v_arenas(bids)

    return pool, {"kv-append": append, "kv-refresh": refresh}


def _kv_rows(label: str) -> list[BackendBenchRow]:
    """Time the two bodies of the pool's writer at one decode-step call."""

    def best(call) -> float:
        out = np.inf
        for _ in range(MAX_REPS):
            started = time.perf_counter()
            call()
            out = min(out, time.perf_counter() - started)
        return out

    with native.unloaded():
        want, calls = _kv_pool(7)
        calls[label]()
        times = {KV_BACKENDS[0]: best(calls[label])}
    if native.status()["loaded"]:
        got, calls = _kv_pool(7)
        calls[label]()
        if got.last_kv_body != "compiled" or any(
            getattr(got, name).tobytes() != getattr(want, name).tobytes()
            for name in want._resident
        ):
            raise LutError(f"compiled and numpy pool writers differ: {label}")
        times[KV_BACKENDS[1]] = best(calls[label])
    return [
        BackendBenchRow(
            shape_label=label,
            backend=name,
            m=ROWS_B,
            n=ROWS_DIM,
            kdim=ROWS_DIM,
            bits=WEIGHT_BITS,
            time_s=time_s,
            speedup_vs_naive=times[KV_BACKENDS[0]] / time_s,
            max_abs_err=0.0,
            peak_traced_bytes=None,
        )
        for name, time_s in times.items()
    ]


def _float_rows(rng, label: str, b: int, past: int, t: int):
    """Time the two bodies of the float attention at one call shape: B
    sequences of ``past + 2·i`` cached rows (``i`` the sequence) plus the
    T rows the call attends for, over one float pool."""
    pool = BlockAllocator(ROWS_KV, ROWS_DIM, ROWS_DIM)
    caches, base = [], []
    for i in range(b):
        n0 = past + 2 * i
        cache = PagedLayerCache(pool)
        cache.append(*rng.normal(size=(2, n0 + t, ROWS_KV, ROWS_DIM)))
        caches.append(cache)
        base.append(n0)
    queries = rng.normal(size=(b, t, ROWS_KV * ATTN_M, ROWS_DIM))

    def best() -> float:
        out = np.inf
        for _ in range(MAX_REPS):
            started = time.perf_counter()
            paged_float_attention(queries, caches, base, ATTN_M)
            out = min(out, time.perf_counter() - started)
        return out

    with native.unloaded():
        want = paged_float_attention(queries, caches, base, ATTN_M)
        times = {FLOAT_BACKENDS[0]: best()}
    if native.status()["loaded"]:
        got = paged_float_attention(queries, caches, base, ATTN_M)
        if (
            pool.last_attn_body != "compiled"
            or got.tobytes() != want.tobytes()
        ):
            raise LutError(f"compiled and numpy float bodies differ: {label}")
        times[FLOAT_BACKENDS[1]] = best()
    return [
        BackendBenchRow(
            shape_label=label,
            backend=name,
            m=b * t * ATTN_M,
            n=max(base) + t,
            kdim=ROWS_DIM,
            bits=64,
            time_s=time_s,
            speedup_vs_naive=times[FLOAT_BACKENDS[0]] / time_s,
            max_abs_err=0.0,
            peak_traced_bytes=None,
        )
        for name, time_s in times.items()
    ]


def run(
    shapes: tuple[tuple[str, int, int, int], ...] = SHAPES,
    body_ms: tuple[int, ...] = BODY_MS,
    rows_shapes: tuple[tuple[str, int, bool], ...] = ROWS_SHAPES,
) -> list[BackendBenchRow]:
    rng = np.random.default_rng(2025)
    rows: list[BackendBenchRow] = []
    for label, m, n, kdim in shapes:
        weight = quantize_weights(
            rng.normal(size=(n, kdim)), WEIGHT_BITS, axis=0
        )
        acts = rng.normal(size=(m, kdim))
        ref = dequant_mpgemm_reference(acts, weight)
        reps = max(2, min(MAX_REPS, REPS_MACS // (m * n * kdim)))
        engines = {
            name: LutMpGemmEngine(
                weight, LutMpGemmConfig(k=LUT_K, backend=name)
            )
            for name in BACKENDS
        }
        for engine in engines.values():  # warm caches / allocators once
            engine.matmul(acts)
        times = {
            name: _time_matmul(engine, acts, reps)
            for name, engine in engines.items()
        }
        for name, engine in engines.items():
            peak = None
            if name.startswith("lut-"):
                peak = _traced_peak(engine, acts)
            err = float(np.abs(engine.matmul(acts) - ref).max())
            rows.append(
                BackendBenchRow(
                    shape_label=label,
                    backend=name,
                    m=m,
                    n=n,
                    kdim=kdim,
                    bits=WEIGHT_BITS,
                    time_s=times[name],
                    speedup_vs_naive=times["lut-naive"] / times[name],
                    max_abs_err=err,
                    peak_traced_bytes=peak,
                )
            )
    for m in body_ms:
        rows.extend(_body_rows(rng, m))
    for label, t, context in rows_shapes:
        rows.extend(_paged_rows(rng, label, t, context))
    for label in KV_ROWS:
        rows.extend(_kv_rows(label))
    for label, b, past, t in FLOAT_ROWS:
        rows.extend(_float_rows(rng, label, b, past, t))
    return rows


def format_result(rows: list[BackendBenchRow]) -> str:
    status = native.status()
    lines = [
        "Kernel backends: W4A-FP64, k=4 (times in ms; speedup vs lut-naive,"
        " body-*, rows-*, kv-* and"
        " attn-float-* rows vs the numpy body)",
        "lut-blocked bodies: " + (
            f"compiled {', '.join(status['entry_points'])} ({status['flags']})"
            if status["loaded"] else f"numpy ({status['reason']})"
        ),
        f"{'shape':>12} {'backend':>22} {'M':>4} {'N':>5} {'K':>5} "
        f"{'ms':>9} {'speedup':>8} {'max|err|':>9} {'peak MiB':>9}",
    ]
    for row in rows:
        peak = (
            f"{row.peak_traced_bytes / 2**20:9.1f}"
            if row.peak_traced_bytes is not None
            else f"{'-':>9}"
        )
        lines.append(
            f"{row.shape_label:>12} {row.backend:>22} {row.m:>4} {row.n:>5} "
            f"{row.kdim:>5} {row.time_s * 1e3:>9.3f} "
            f"{row.speedup_vs_naive:>7.2f}x {row.max_abs_err:>9.2e} {peak}"
        )
    return "\n".join(lines)
