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

Extends Section 3.2 of the paper (the software kernel pipeline); there
is no corresponding figure — this is the repo's own regression bench.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro.experiments.meta import ExperimentMeta
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
    },
)


@dataclass(frozen=True)
class BackendBenchRow:
    """One (shape, backend) timing cell."""

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


def run(
    shapes: tuple[tuple[str, int, int, int], ...] = SHAPES,
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
    return rows


def format_result(rows: list[BackendBenchRow]) -> str:
    lines = [
        "Kernel backends: W4A-FP64, k=4 (times in ms; speedup vs lut-naive)",
        f"{'shape':>11} {'backend':>12} {'M':>4} {'N':>5} {'K':>5} "
        f"{'ms':>9} {'speedup':>8} {'max|err|':>9} {'peak MiB':>9}",
    ]
    for row in rows:
        peak = (
            f"{row.peak_traced_bytes / 2**20:9.1f}"
            if row.peak_traced_bytes is not None
            else f"{'-':>9}"
        )
        lines.append(
            f"{row.shape_label:>11} {row.backend:>12} {row.m:>4} {row.n:>5} "
            f"{row.kdim:>5} {row.time_s * 1e3:>9.2f} "
            f"{row.speedup_vs_naive:>7.2f}x {row.max_abs_err:>9.2e} {peak}"
        )
    return "\n".join(lines)
