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

Two more rows time the fused int4-KV attention executor
(:func:`~repro.kernels.rowwise_lut_execute`) at the bench-128 decode
step's two dispatch shapes, once with the M = 2 query heads of each KV
head sharing one gathered weight row and once as the two M = 1
dispatches a per-head gather would make: same values, half the gather
indices.

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
verify's scores (T = 5, so M = 10). The numpy body gathers the column
arrays through the block table and runs ``rowwise_lut_execute``; the
compiled one (``lut_rows_paged``) reads them in place. Equal bytes after
``+ 0.0`` (the executor's zero-point rule) or the experiment raises.

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
from repro.kernels import (
    get_backend,
    native,
    paged_lut_execute,
    rowwise_lut_execute,
)
from repro.lut.mpgemm import (
    LutMpGemmConfig,
    LutMpGemmEngine,
    dequant_mpgemm_reference,
)
from repro.quant.weight import quantize_weights

#: (label, M, N, K). ``decode`` is the serving batch on a bench-128
#: layer (rows-limited blocking); the 1024-wide rows are column-limited.
SHAPES: tuple[tuple[str, int, int, int], ...] = (
    ("decode", 8, 128, 128),
    ("gemv", 1, 1024, 1024),
    ("decode-wide", 8, 1024, 1024),
    ("prefill", 64, 1024, 1024),
)
#: (label, R, G, N) of the fused decode attention at B = 8, kv_heads =
#: 4, head_dim = block_size = 16: scores over 4 blocks of cached tokens
#: (one row per sequence and KV head), context per block.
ATTN_SHAPES: tuple[tuple[str, int, int, int], ...] = (
    ("attn-score", 32, 4, 64),
    ("attn-context", 128, 4, 16),
)
#: Query heads per KV head (the executor's shared-row axis M).
ATTN_M = 2
ATTN_BACKENDS = ("rowwise-per-head", "rowwise-shared")
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
        "attn_shapes": ATTN_SHAPES,
        "attn_m": ATTN_M,
        "body_ms": BODY_MS,
        "rows_shapes": ROWS_SHAPES,
    },
)


@dataclass(frozen=True)
class BackendBenchRow:
    """One (shape, backend) timing cell.

    On the ``attn-*`` rows the "backends" are the two ways to dispatch
    :data:`ATTN_M` activation rows per weight row, ``speedup_vs_naive``
    is over the per-head one and ``max_abs_err`` the difference between
    the two (they are bit-identical: 0). On the ``body-m*`` rows they
    are the two bodies of ``lut-blocked``, the speedup is over the numpy
    one and ``max_abs_err`` is 0 because the bytes were checked equal;
    the ``rows-*`` rows are the same for the paged attention executor
    (``m`` shared activation rows, ``n`` columns per weight row).
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


def _attention_rows(rng, label, r, g, n) -> list[BackendBenchRow]:
    """Time one ``M = ATTN_M`` dispatch against ``ATTN_M`` ``M = 1`` ones."""
    width = 1 << LUT_K  # signed half-table extension [T, -T]
    args = dict(
        table=rng.normal(size=(r, g, width, ATTN_M)),
        flat_idx=rng.integers(0, width, size=(r, WEIGHT_BITS, g, n))
        + (np.arange(g) * width)[:, None],
        scale=rng.normal(size=(r, g, n)),
        zero=rng.normal(size=(r, g, n)),
        sums=rng.normal(size=(r, g, ATTN_M)),
        shifts=(1 << np.arange(WEIGHT_BITS)).astype(np.float64),
        apply_zero=True,
    )

    singles = [
        {
            **args,
            "table": np.ascontiguousarray(args["table"][..., m:m + 1]),
            "sums": args["sums"][..., m:m + 1],
        }
        for m in range(ATTN_M)
    ]

    def shared():
        return rowwise_lut_execute(**args)

    def per_head():
        return [rowwise_lut_execute(**single) for single in singles]

    err = float(
        np.abs(shared() - np.concatenate(per_head(), axis=-1)).max()
    )
    times = dict.fromkeys(ATTN_BACKENDS, np.inf)
    for _ in range(MAX_REPS):  # interleaved, min of each
        for name, fn in zip(ATTN_BACKENDS, (per_head, shared)):
            started = time.perf_counter()
            fn()
            times[name] = min(times[name], time.perf_counter() - started)
    return [
        BackendBenchRow(
            shape_label=label,
            backend=name,
            m=ATTN_M,
            n=n,
            kdim=g * LUT_K,
            bits=WEIGHT_BITS,
            time_s=times[name],
            speedup_vs_naive=times[ATTN_BACKENDS[0]] / times[name],
            max_abs_err=err,
            peak_traced_bytes=None,
        )
        for name in ATTN_BACKENDS
    ]


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
    g, width = ROWS_DIM // LUT_K, 1 << LUT_K  # groups, signed table [T, -T]
    columns = (
        rng.integers(0, width, (ROWS_POOL, ROWS_KV, WEIGHT_BITS, g, ROWS_DIM))
        + (np.arange(g) * width)[:, None],
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

    def best() -> float:
        out = np.inf
        for _ in range(MAX_REPS):
            started = time.perf_counter()
            paged_lut_execute(*args)
            out = min(out, time.perf_counter() - started)
        return out

    with native.unloaded():
        want = paged_lut_execute(*args)
        times = {ROWS_BACKENDS[0]: best()}
    if native.status()["loaded"]:
        if (paged_lut_execute(*args) + 0.0).tobytes() != (want + 0.0).tobytes():
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


def run(
    shapes: tuple[tuple[str, int, int, int], ...] = SHAPES,
    attn_shapes: tuple[tuple[str, int, int, int], ...] = ATTN_SHAPES,
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
    for label, r, g, n in attn_shapes:
        rows.extend(_attention_rows(rng, label, r, g, n))
    for m in body_ms:
        rows.extend(_body_rows(rng, m))
    for label, t, context in rows_shapes:
        rows.extend(_paged_rows(rng, label, t, context))
    return rows


def format_result(rows: list[BackendBenchRow]) -> str:
    status = native.status()
    lines = [
        "Kernel backends: W4A-FP64, k=4 (times in ms; speedup vs lut-naive,"
        " attn-* rows vs rowwise-per-head, body-* and rows-* rows vs the"
        " numpy body)",
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
            f"{row.kdim:>5} {row.time_s * 1e3:>9.2f} "
            f"{row.speedup_vs_naive:>7.2f}x {row.max_abs_err:>9.2e} {peak}"
        )
    return "\n".join(lines)
