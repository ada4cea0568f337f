"""Turns pass results and the span table into the named metrics.

End-to-end metrics come from untraced passes only: each is computed per
pass and the median over passes is reported; the per-pass values are kept
beside it for dispersion. Per-layer metrics come from traced passes only;
``*_frac`` is a layer's self time over the traced wall, counts are per
pass, percentiles pool the samples of all traced passes.
"""

from __future__ import annotations

import resource
from statistics import median

import numpy as np

from repro.runtime import percentiles

from bench.trace import ROOT, SpanTable
from bench.workloads import (
    BENCH_MODEL,
    TPOT_LIMIT_MS,
    TTFT_LIMIT_MS,
    WORKLOADS,
    Inputs,
    PassResult,
    Workload,
)


def _pct(values, q: float) -> float:
    return percentiles(values, (q,))[0]


#: End-to-end metric -> (unit, the workloads it is reported on). The
#: driver's contract wants one flat list, so every metric is printed on
#: every workload; a change is held to a metric only where it is reported
#: (``bench/compare.py`` reads the flag from the results). Elsewhere the
#: number restates another (``prompt_tok_s`` on ``decode-*`` is ``tok_s``
#: times 16/64) or the load offered (``tok_s`` on ``trace-burst``).
E2E = {
    "setup_s": ("s", tuple(WORKLOADS)),
    "peak_rss_mb": ("MiB", tuple(WORKLOADS)),
    "tok_s": ("tok/s", ("decode-fp", "decode-int4kv")),
    "prompt_tok_s": ("tok/s", ("prefill-shared-2w",)),
    "busy_frac": ("frac", ("trace-burst",)),
}


def pass_values(p: PassResult) -> dict[str, float]:
    """The throughput-type end-to-end metrics of one pass. A failed
    request's tokens are not work done."""
    good = [r for k, r in p.results.items() if k not in set(p.failed)]
    return {
        "tok_s": sum(len(r.tokens) for r in good) / p.wall_s,
        "prompt_tok_s": sum(len(r.prompt) for r in good) / p.wall_s,
        "busy_frac": float(p.step_ms.sum()) / 1e3 / p.wall_s,
    }


def _spread(values: list[float]) -> dict:
    return {"min": min(values), "median": median(values),
            "max": max(values), "values": list(values)}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    passes: list[PassResult], setups_s: list[float], workload: Workload
) -> dict[str, dict]:
    """``name -> {value, unit, reported_on, per_pass: {min, median, max,
    values}}``; ``peak_rss_mb`` is the process's and has no passes."""
    each = [pass_values(p) for p in passes]
    out = {}
    for name, (unit, reported_on) in E2E.items():
        if name == "peak_rss_mb":
            out[name] = {"value": peak_rss_mb()}
        else:
            values = setups_s if name == "setup_s" else [v[name] for v in each]
            out[name] = {"value": median(values), "per_pass": _spread(values)}
        out[name].update(unit=unit, reported_on=workload.name in reported_on)
    return out


def slo_met_frac(passes: list[PassResult], inputs: Inputs) -> float:
    """Share of the limit-carrying requests *sent* that completed
    correctly inside both limits; refused, failed and unfinished ones
    miss. 0 where no request carries limits."""
    failed = {(i, k) for i, p in enumerate(passes) for k in p.failed}
    met = sum(
        1
        for i, p in enumerate(passes)
        for k, r in p.results.items()
        if k in inputs.limited and (i, k) not in failed
        and p.ttft_ms(k) <= TTFT_LIMIT_MS
        and (len(r.tokens) <= 1 or r.tpot_ms <= TPOT_LIMIT_MS)
    )
    sent = len(passes) * len(inputs.limited)
    return met / sent if sent else 0.0


def _kernel_cost(table: SpanTable, mask: np.ndarray) -> tuple[float, float]:
    """Computed (not measured) MACs and bytes moved of the ``execute``
    calls in *mask*, from each call's rows and plan shape: the table,
    the flat gather indices and scales are read, one table entry is
    gathered per (row, bit plane, group, column), the output is written.
    """
    macs = moved = 0.0
    for i in np.flatnonzero(mask):
        n, kdim, bits, k = table.tag[i]
        m, groups, entries = table.x[i], kdim // k, 2 ** (k - 1)
        macs += m * n * kdim
        moved += 8.0 * (
            m * kdim + m * groups * entries + (bits + 1) * groups * n
            + m * bits * groups * n + m * n
        )
    return macs, moved


def per_layer(
    table: SpanTable,
    traced: list[PassResult],
    untraced: list[PassResult],
    inputs: Inputs,
    workload: Workload,
) -> dict[str, dict]:
    """``name -> {value, unit}`` for every per-layer metric."""
    passes = len(traced)
    wall = float(table.duration[table.mask(ROOT)].sum())
    stats = [s for p in traced for s in p.stats]
    results = [r for p in traced for r in p.results.values()]

    def frac(*labels):
        return float(table.self_time[table.mask(*labels)].sum()) / wall

    def total_ms(*labels):
        return float(table.duration[table.mask(*labels)].sum()) * 1e3

    def count(*labels):
        return int(table.mask(*labels).sum())

    def us_p50(label):
        return _pct(table.duration[table.mask(label)], 50) * 1e6

    def model_moved(key):
        return sum(p.model_moved[key] for p in traced)

    def pool_moved(key):
        return sum(p.pool_moved[key] for p in traced)

    model_calls = ("model.prefill", "model.decode_batch", "model.verify_batch")
    decode_steps = count("model.decode_batch")
    in_decode = table.under("model.decode_batch")
    execute = table.mask("kernel.execute")
    precompute = table.mask("table.precompute")
    small = execute & (table.x <= 8)
    macs, bytes_moved = _kernel_cost(table, execute)
    prefill_tokens = model_moved("prefill_tokens")
    prompt_tokens = sum(len(r.prompt) for r in results)
    pump_s = total_ms("cluster.pump") / 1e3
    # prefix-aware falls back to least-loaded by calling its place(): only
    # the outer call is a placement.
    place = table.mask("routing.place")
    place &= ~(place[table.parent] & (table.parent >= 0))
    placed_shared = [
        i for i in np.flatnonzero(place) if table.tag[i] in inputs.shared
    ]
    runtime = workload.runtime
    block_bytes = (
        2 * BENCH_MODEL.kv_heads * runtime.kv_block_size * BENCH_MODEL.head_dim
        * (8.0 if runtime.kv_bits is None else runtime.kv_bits / 8.0)
    )
    blocks_peak = sum(
        max((t.kv_blocks_used for t in s.trace), default=0) for s in stats
    )
    late = np.array([v for p in traced for v in p.late_ms.values()])
    ttft = [p.ttft_ms(k) for p in traced for k in p.results]
    resumes = sum(s.resumes for s in stats)

    # On the open loop the wall is the schedule's, so tracing overhead is
    # read from the time spent stepping; on the closed loops from the wall.
    # The least disturbed pass of each kind stands for it.
    def cost(p):
        return float(p.step_ms.sum()) if workload.loop == "open" else p.wall_s

    overhead = min(map(cost, traced)) / min(map(cost, untraced))

    def per(value, n):
        return value / n if n else 0.0

    values = {
        "cluster.overhead_frac": (
            (wall - pump_s) / wall if pump_s else 0.0, "frac"),
        "cluster.pumps": (per(count("cluster.pump"), passes), "count"),
        "routing.place_us_p50": (_pct(table.duration[place], 50) * 1e6, "us"),
        "routing.prefix_hit_frac": (
            per(sum(table.x[i] >= runtime.kv_block_size for i in placed_shared),
                len(placed_shared)), "frac"),
        "engine.self_frac": (frac("engine.step"), "frac"),
        "engine.steps": (per(count("engine.step"), passes), "count"),
        "engine.step_ms_p50": (us_p50("engine.step") / 1e3, "ms"),
        "engine.stall_ms_p99": (
            _pct(table.duration[table.mask("engine.step")], 99) * 1e3, "ms"),
        "engine.batch_mean": (
            per(sum(s.mean_batch * s.decode_steps for s in stats),
                sum(s.decode_steps for s in stats)), "count"),
        "engine.queue_wait_ms_p50": (
            _pct([r.first_token_ms - r.prefill_ms for r in results], 50), "ms"),
        "engine.ttft_ms_p50": (
            _pct([r.first_token_ms for r in results], 50), "ms"),
        "engine.tpot_ms_p50": (
            _pct([r.tpot_ms for r in results if len(r.tokens) > 1], 50), "ms"),
        "engine.preemptions": (
            per(sum(s.preemptions for s in stats), passes), "count"),
        "engine.swaps": (per(sum(s.swaps for s in stats), passes), "count"),
        "engine.swap_resumes": (
            per(sum(s.swap_resumes for s in stats), passes), "count"),
        "engine.resume_ms_mean": (
            per(sum(s.resume_ms_total for s in stats), resumes), "ms"),
        "scheduler.select_calls": (
            per(count("scheduler.select"), passes), "count"),
        "scheduler.select_us_p50": (us_p50("scheduler.select"), "us"),
        "scheduler.victim_calls": (
            per(count("scheduler.victims"), passes), "count"),
        "model.decode_ms_per_step": (
            per(total_ms("model.decode_batch"), decode_steps), "ms"),
        "model.prefill_ms_per_tok": (
            per(total_ms("model.prefill"), prefill_tokens), "ms"),
        "model.self_frac": (frac(*model_calls), "frac"),
        "model.prefill_tokens": (per(prefill_tokens, passes), "count"),
        "model.prefix_adopted_frac": (
            per(model_moved("shared_prefix_tokens"), prompt_tokens), "frac"),
        "linear.calls_per_step": (
            per(int((table.mask("linear.call") & in_decode).sum()),
                decode_steps), "count"),
        "linear.self_frac": (frac("linear.call"), "frac"),
        "table.calls_per_step": (
            per(int((precompute & in_decode).sum()), decode_steps), "count"),
        "table.us_per_call": (
            per(total_ms("table.precompute") * 1e3, int(precompute.sum())),
            "us"),
        "table.self_frac": (frac("table.precompute"), "frac"),
        "kernel.execute_calls": (per(int(execute.sum()), passes), "count"),
        "kernel.decode_us_per_call": (
            per(float(table.duration[small].sum()) * 1e6, int(small.sum())),
            "us"),
        "kernel.prefill_us_per_call": (
            per(float(table.duration[execute & ~small].sum()) * 1e6,
                int((execute & ~small).sum())), "us"),
        "kernel.self_frac": (frac("kernel.execute"), "frac"),
        "kernel.gmacs_per_s": (
            per(macs / 1e9, float(table.self_time[execute].sum())), "GMAC/s"),
        "kernel.bytes_per_call_mean": (
            per(bytes_moved, int(execute.sum())), "B"),
        "paging.append_ms_per_step": (
            per(total_ms("paging.append"), count("engine.step")), "ms"),
        "paging.append_self_frac": (frac("paging.append"), "frac"),
        "paging.attn_ms_per_step": (
            per(total_ms("paging.attention"), count("engine.step")), "ms"),
        "paging.attn_self_frac": (frac("paging.attention"), "frac"),
        "paging.k_plan_s": (per(pool_moved("k_plan_s"), passes), "s"),
        "paging.v_quant_s": (per(pool_moved("v_quant_s"), passes), "s"),
        "paging.blocks_peak": (per(blocks_peak, passes), "count"),
        "paging.blocks_allocated": (
            per(pool_moved("allocated"), passes), "count"),
        "paging.blocks_shared": (per(pool_moved("shared"), passes), "count"),
        "paging.cow": (per(pool_moved("cow"), passes), "count"),
        "paging.evicted": (per(pool_moved("evicted"), passes), "count"),
        "paging.reused": (per(pool_moved("reused"), passes), "count"),
        "paging.kv_bytes_peak": (
            per(blocks_peak, passes) * block_bytes, "B"),
        "loadgen.late_ms_p50": (_pct(late, 50), "ms"),
        "loadgen.late_ms_max": (float(late.max()) if late.size else 0.0, "ms"),
        "loadgen.ttft_ms_p50": (_pct(ttft, 50), "ms"),
        "loadgen.ttft_ms_p90": (_pct(ttft, 90), "ms"),
        "loadgen.slo_met_frac": (slo_met_frac(traced, inputs), "frac"),
        "loadgen.drain_s": (per(sum(p.drain_s for p in traced), passes), "s"),
        "loadgen.offered_rps": (
            per(sum(p.sent for p in traced),
                sum(p.wall_s for p in traced)), "1/s"),
        "trace.overhead_frac": (overhead - 1.0, "frac"),
        "trace.unattributed_frac": (frac(ROOT), "frac"),
    }
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in values.items()
    }
